"""Lifetime trial outcomes, their aggregate, and the one event loop.

A *lifetime trial* replays one seeded fault timeline
(:mod:`repro.faults.timeline`) against a construction until verified
recovery first fails.  :class:`LifetimeOutcome` is the per-trial record
(the analogue of :class:`~repro.api.outcome.TrialOutcome`);
:class:`LifetimeResult` is the per-grid-point aggregate (the analogue of
:class:`~repro.analysis.montecarlo.MCResult`) and obeys the same
determinism contract: per-trial lifetimes are kept in seed order, chunk
merges concatenate in chunk order, and ``to_dict`` is JSON-stable — so
serial, parallel and batched experiment runs serialise byte-identically.

Every consumer drives a *live machine*: the object a construction's
``live_machine()`` returns, with ``faults`` (the boolean fault array),
``recovery`` (the maintained ``Recovery``, or ``None``) and
``add_fault(node)`` / ``remove_fault(node)`` by flat node id.  ``B^d_n``
returns the incremental :class:`~repro.core.online.OnlineRecovery`;
every other construction returns a :class:`FullRecomputeMachine`.
:func:`lifetime_step` applies one event to a machine and tallies it in a
:class:`LifetimeOutcome`; :func:`drive_timeline` loops it over a spec's
events (offline trials, traffic snapshots) and the serve daemon calls it
once per ingested event, so the offline and online paths share one
per-event semantics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.api.protocol import LifetimeSpec
from repro.errors import ReconstructionError
from repro.faults.timeline import make_timeline

__all__ = [
    "FullRecomputeMachine",
    "LifetimeOutcome",
    "LifetimeResult",
    "aggregate_lifetimes",
    "drive_timeline",
    "lifetime_step",
    "timeline_events",
    "timeline_for",
]


class _ArrivalTallies:
    """``repair_fraction`` over a record's ``masked``/``replaced`` tallies."""

    def repair_fraction(self) -> float:
        """Fraction of arrivals that forced a recomputation."""
        arrivals = self.masked + self.replaced
        return self.replaced / arrivals if arrivals else 0.0


@dataclass
class LifetimeOutcome(_ArrivalTallies):
    """Result of one fault-arrival timeline driven to first failure."""

    #: Fault arrivals survived before recovery first failed (the paper's
    #: "tolerates Theta(N log^{-3d} N) random faults", measured).
    lifetime: int
    #: Timeline steps consumed (== lifetime for one-arrival-per-step kinds).
    steps: int
    #: "ok" when the timeline ran dry without a failure, otherwise the
    #: ReconstructionError category of the terminal arrival.
    category: str
    failed: bool
    #: Arrivals absorbed without recomputation (already under a band).
    masked: int = 0
    #: Arrivals that forced a placement recomputation.
    replaced: int = 0
    #: Repair events applied (timelines with repair_rate > 0).
    repaired: int = 0


@dataclass
class LifetimeResult(_ArrivalTallies):
    """Aggregated lifetimes of a batch of timeline trials.

    ``lifetimes`` stays in seed order — the merge concatenates parts in
    chunk order, which is what keeps serial and parallel runs of the same
    spec byte-identical (integer lists have no float-accumulation order
    sensitivity, so this aggregate is even sturdier than ``MCResult``).
    """

    trials: int
    lifetimes: list[int] = field(default_factory=list)
    categories: Counter = field(default_factory=Counter)
    masked: int = 0
    replaced: int = 0
    repaired: int = 0
    #: Trials whose timeline ran dry before any failure.
    exhausted: int = 0

    # -- summary statistics --------------------------------------------------

    @property
    def median_lifetime(self) -> float:
        return float(np.median(self.lifetimes)) if self.lifetimes else float("nan")

    @property
    def min_lifetime(self) -> int:
        return min(self.lifetimes) if self.lifetimes else 0

    @property
    def max_lifetime(self) -> int:
        return max(self.lifetimes) if self.lifetimes else 0

    def survival_curve(self, grid: Sequence[int]) -> list[float]:
        """Fraction of trials surviving at least ``g`` arrivals, per grid point."""
        lives = np.asarray(self.lifetimes)
        return [float((lives >= g).mean()) if len(lives) else float("nan") for g in grid]

    def summary(self) -> str:
        parts = [
            f"{self.trials} lifetimes: min={self.min_lifetime} "
            f"median={self.median_lifetime:g} max={self.max_lifetime}"
        ]
        fails = {k: v for k, v in self.categories.items() if k != "ok"}
        if fails:
            parts.append("deaths: " + ", ".join(f"{k}={v}" for k, v in sorted(fails.items())))
        if self.exhausted:
            parts.append(f"exhausted={self.exhausted}")
        if self.repaired:
            parts.append(f"repaired={self.repaired}")
        return "; ".join(parts)

    # -- persistence / merging ---------------------------------------------

    def to_dict(self) -> dict:
        """JSON-stable representation (see docs/results-format.md)."""
        return {
            "kind": "lifetime",
            "trials": self.trials,
            "lifetimes": [int(x) for x in self.lifetimes],
            "categories": {k: int(v) for k, v in sorted(self.categories.items())},
            "masked": self.masked,
            "replaced": self.replaced,
            "repaired": self.repaired,
            "exhausted": self.exhausted,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LifetimeResult":
        return cls(
            trials=int(d["trials"]),
            lifetimes=[int(x) for x in d.get("lifetimes", [])],
            categories=Counter(d.get("categories", {})),
            masked=int(d.get("masked", 0)),
            replaced=int(d.get("replaced", 0)),
            repaired=int(d.get("repaired", 0)),
            exhausted=int(d.get("exhausted", 0)),
        )

    def add(self, part: "LifetimeResult") -> None:
        """Merge a disjoint trial batch into this result, in place:
        integer sums and list concatenation only."""
        self.trials += part.trials
        self.lifetimes.extend(part.lifetimes)
        self.categories.update(part.categories)
        self.masked += part.masked
        self.replaced += part.replaced
        self.repaired += part.repaired
        self.exhausted += part.exhausted

    @classmethod
    def merged(cls, parts: Sequence["LifetimeResult"]) -> "LifetimeResult":
        """Concatenate disjoint trial batches in the order given."""
        out = cls(trials=0)
        for part in parts:
            out.add(part)
        return out


def aggregate_lifetimes(outcomes: Iterable[LifetimeOutcome]) -> LifetimeResult:
    """Fold a stream of lifetime outcomes into one :class:`LifetimeResult`.

    The single accumulation path shared by the per-trial driver and the
    batched lifetime kernel, mirroring
    :func:`repro.analysis.montecarlo.aggregate_outcomes`.
    """
    res = LifetimeResult(trials=0)
    for out in outcomes:
        res.trials += 1
        res.lifetimes.append(out.lifetime)
        res.categories[out.category] += 1
        res.masked += out.masked
        res.replaced += out.replaced
        res.repaired += out.repaired
        if not out.failed:
            res.exhausted += 1
    return res


def timeline_for(spec: LifetimeSpec):
    """The :class:`~repro.faults.timeline.FaultTimeline` a spec describes."""
    return make_timeline(
        spec.timeline,
        rate=spec.rate,
        burst=spec.burst,
        pattern=spec.pattern,
        k=spec.k,
        repair_rate=spec.repair_rate,
        max_steps=spec.max_steps,
        fault_model=spec.fault_model,
    )


def timeline_events(spec: LifetimeSpec, shape: Sequence[int], rng: np.random.Generator):
    """The spec's timeline events over ``shape``, cut at ``max_steps``."""
    for ev in timeline_for(spec).events(tuple(int(s) for s in shape), rng):
        if spec.max_steps is not None and ev.step >= spec.max_steps:
            return
        yield ev


class FullRecomputeMachine:
    """The generic live machine: a boolean fault array over ``shape``,
    recovered from scratch after every *new* fault.

    An arrival on an already-faulty node is redundant (``"masked"``); a
    repair clears the bit without a recompute — a recovery valid for a
    fault superset stays valid.  This is the reference semantics the
    incremental :class:`~repro.core.online.OnlineRecovery` reproduces.
    """

    #: No maintained embedding: queries serve the pristine guest.
    recovery = None

    def __init__(self, shape: Sequence[int], recover: Callable[[np.ndarray], object]) -> None:
        self.faults = np.zeros(tuple(int(s) for s in shape), dtype=bool)
        self._flat = self.faults.ravel()
        self._recover = recover

    def add_fault(self, node: int) -> str:
        if self._flat[node]:
            return "masked"
        self._flat[node] = True
        self._recover(self.faults)  # raises ReconstructionError on death
        return "replaced"

    def remove_fault(self, node: int) -> None:
        self._flat[node] = False


def lifetime_step(machine, outcome: LifetimeOutcome, kind: str, node: int) -> str:
    """Apply one ``"fault"``/``"repair"`` event to ``machine`` and tally it.

    Returns the action: ``"masked"`` / ``"replaced"`` for a survived
    arrival, ``"repaired"``, ``"failed"`` for the arrival whose recovery
    raised :class:`ReconstructionError` (``outcome`` then records the
    death and its category), and ``"dead"`` — nothing applied — for any
    event after that.  The one per-event semantics of offline trials and
    the serve daemon.
    """
    if outcome.failed:
        return "dead"
    if kind == "repair":
        machine.remove_fault(node)
        outcome.repaired += 1
        return "repaired"
    try:
        action = machine.add_fault(node)
    except ReconstructionError as exc:
        outcome.failed = True
        outcome.category = exc.category
        return "failed"
    if action == "masked":
        outcome.masked += 1
    else:
        outcome.replaced += 1
    outcome.lifetime += 1
    return action


def drive_timeline(
    spec: LifetimeSpec,
    machine,
    rng: np.random.Generator,
    *,
    observer: Callable[[LifetimeOutcome], None] | None = None,
) -> LifetimeOutcome:
    """Drive ``spec``'s timeline through a live machine until the first
    unrecoverable arrival (or the timeline runs dry).

    Loops :func:`lifetime_step` over :func:`timeline_events`, so step
    bounds, tallies and failure classification are the serve daemon's
    too.  ``observer(outcome)`` — when given — fires after every
    survived arrival with the running tallies (the traffic-snapshot
    hook; ``outcome.lifetime`` is the arrivals survived so far).
    """
    out = LifetimeOutcome(lifetime=0, steps=0, category="ok", failed=False)
    for ev in timeline_events(spec, machine.faults.shape, rng):
        out.steps = ev.step + 1
        action = lifetime_step(machine, out, ev.kind, ev.node)
        if out.failed:
            return out
        if observer is not None and action != "repaired":
            observer(out)
    if spec.timeline in ("bernoulli", "burst"):
        # Step-driven kinds span exactly max_steps steps; trailing
        # arrival-free steps are consumed even though they emit no events.
        out.steps = spec.max_steps
    return out
