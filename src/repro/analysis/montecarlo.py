"""Monte-Carlo aggregation with failure-category accounting.

:func:`aggregate_outcomes` folds a stream of trial outcomes into one
:class:`MCResult`: failure modes are attributed (category tallies) and
confidence intervals reported uniformly.  The experiment runner folds
every chunk of one-shot trials through it, on both backends, and the
benches and examples that tally bespoke trials call it directly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.stats import wilson_interval
from repro.api.outcome import TrialOutcome

__all__ = ["MCMerge", "MCResult", "aggregate_outcomes"]


@dataclass
class MCResult:
    """Aggregated outcome of a batch of trials."""

    trials: int
    successes: int
    categories: Counter = field(default_factory=Counter)
    #: healthiness tallies when the trial function reports them
    healthy: int = 0
    sufficient: int = 0
    health_checked: int = 0
    mean_faults: float = 0.0
    strategies: Counter = field(default_factory=Counter)

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    @property
    def ci(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials)

    @property
    def healthy_rate(self) -> float:
        return self.healthy / self.health_checked if self.health_checked else float("nan")

    @property
    def sufficient_rate(self) -> float:
        return self.sufficient / self.health_checked if self.health_checked else float("nan")

    def summary(self) -> str:
        lo, hi = self.ci
        parts = [
            f"{self.successes}/{self.trials} ok ({self.success_rate:.3f} "
            f"[{lo:.3f}, {hi:.3f}])"
        ]
        fails = {k: v for k, v in self.categories.items() if k != "ok"}
        if fails:
            parts.append("failures: " + ", ".join(f"{k}={v}" for k, v in sorted(fails.items())))
        if self.health_checked:
            parts.append(f"healthy={self.healthy_rate:.3f} sufficient={self.sufficient_rate:.3f}")
        return "; ".join(parts)

    # -- persistence / merging ---------------------------------------------

    def to_dict(self) -> dict:
        """JSON-stable representation (see docs/results-format.md)."""
        return {
            "trials": self.trials,
            "successes": self.successes,
            "categories": {k: int(v) for k, v in sorted(self.categories.items())},
            "healthy": self.healthy,
            "sufficient": self.sufficient,
            "health_checked": self.health_checked,
            "mean_faults": self.mean_faults,
            "strategies": {k: int(v) for k, v in sorted(self.strategies.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MCResult":
        return cls(
            trials=int(d["trials"]),
            successes=int(d["successes"]),
            categories=Counter(d.get("categories", {})),
            healthy=int(d.get("healthy", 0)),
            sufficient=int(d.get("sufficient", 0)),
            health_checked=int(d.get("health_checked", 0)),
            mean_faults=float(d.get("mean_faults", 0.0)),
            strategies=Counter(d.get("strategies", {})),
        )

    @classmethod
    def merger(cls) -> "MCMerge":
        """An incremental accumulator equivalent to :meth:`merged`.

        The streaming runner folds chunks one at a time instead of
        collecting them; routing both paths through the same accumulator
        guarantees the float operation sequence — and hence the JSON —
        is identical by construction, not by parallel maintenance.
        """
        return MCMerge(cls)

    @classmethod
    def merged(cls, parts: Sequence["MCResult"]) -> "MCResult":
        """Deterministic merge of disjoint trial batches.

        All tallies are integer sums; ``mean_faults`` is the trial-weighted
        mean accumulated in the order of ``parts`` — merging the same parts
        in the same order always reproduces the same float, which is what
        makes serial and parallel experiment runs byte-identical.
        """
        merge = cls.merger()
        for part in parts:
            merge.add(part)
        return merge.finish()


class MCMerge:
    """Incremental :meth:`MCResult.merged`: ``add`` parts in chunk order,
    then ``finish`` exactly once.  ``mean_faults`` keeps the running
    ``total_faults`` float and divides only at the end — the same
    operation sequence as the one-shot merge, ulp for ulp."""

    def __init__(self, cls: type = None) -> None:
        self._out = (cls or MCResult)(trials=0, successes=0)
        self._total_faults = 0.0

    def add(self, part: "MCResult") -> None:
        out = self._out
        out.trials += part.trials
        out.successes += part.successes
        out.categories.update(part.categories)
        out.healthy += part.healthy
        out.sufficient += part.sufficient
        out.health_checked += part.health_checked
        out.strategies.update(part.strategies)
        self._total_faults += part.mean_faults * part.trials

    def finish(self) -> "MCResult":
        out = self._out
        out.mean_faults = self._total_faults / out.trials if out.trials else 0.0
        return out


def aggregate_outcomes(outcomes: Iterable[TrialOutcome]) -> MCResult:
    """Fold a stream of trial outcomes into one :class:`MCResult`.

    The single accumulation path shared by the runner's per-trial loop
    and the batched backends: identical outcome sequences produce identical
    results (including the float ``mean_faults``, accumulated in stream
    order), which is what keeps batch and scalar experiment JSON
    byte-identical.  Outcomes may be any objects with ``success`` and
    ``category`` attributes (``TrialOutcome`` or duck-typed equivalents).
    """
    res = MCResult(trials=0, successes=0)
    total_faults = 0
    for out in outcomes:
        res.trials += 1
        res.categories[out.category] += 1
        if out.success:
            res.successes += 1
        health = getattr(out, "health", None)
        if health is not None:
            res.health_checked += 1
            res.healthy += int(health.healthy)
            res.sufficient += int(health.sufficient)
        total_faults += getattr(out, "num_faults", 0)
        used = getattr(out, "strategy_used", "")
        if used:
            res.strategies[used] += 1
    res.mean_faults = total_faults / res.trials if res.trials else 0.0
    return res

