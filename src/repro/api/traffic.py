"""Traffic trial outcomes, their aggregate, and the shared trial driver.

A *traffic trial* measures service quality of the guest torus a
construction emulates: one seeded workload (closed-loop batch or
open-loop injection schedule, see :class:`~repro.api.protocol.TrafficSpec`)
is routed through the store-and-forward simulator and summarised.
:class:`TrafficOutcome` is the per-trial record (the analogue of
:class:`~repro.api.outcome.TrialOutcome`); :class:`TrafficResult` the
per-grid-point aggregate (the analogue of
:class:`~repro.analysis.montecarlo.MCResult`), obeying the same
determinism contract: per-trial outcomes are kept in seed order, chunk
merges concatenate in chunk order, and ``to_dict`` is JSON-stable — so
serial, parallel and batched experiment runs serialise byte-identically.

:func:`run_traffic_trial` is the single driver both execution paths
share: the scalar path runs it with the reference engine
(:func:`repro.sim.engine.simulate`), the batched path with the vectorized
kernel (:func:`repro.fastpath.traffic_batch.simulate_batch`).  Workload
generation — and with it the RNG stream — is common, and the two engines
return identical ``SimResult``\\ s, so the outcomes are identical by
construction, never just statistically equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.api.protocol import TrafficSpec
from repro.sim.engine import SimResult, simulate
from repro.sim.metrics import latency_stats, per_class_stats
from repro.sim.traffic import make_traffic
from repro.sim.workload import make_open_loop, open_loop_stats
from repro.util.rng import spawn_rng

__all__ = [
    "TrafficOutcome",
    "TrafficResult",
    "aggregate_traffic",
    "message_classes",
    "run_traffic_trial",
]


def message_classes(count: int, qos_classes: int) -> np.ndarray | None:
    """Deterministic per-message QoS class assignment (``None`` = single class).

    Messages are assigned round-robin by message id (``i % qos_classes``),
    so every class sees the same spatial/temporal mix of the workload and
    the assignment is identical across engines and worker counts.  Class
    0 is the highest priority.
    """
    if qos_classes <= 1:
        return None
    return np.arange(count, dtype=np.int64) % int(qos_classes)


@dataclass
class TrafficOutcome:
    """Result of one seeded traffic workload on a guest torus."""

    #: Messages presented to the network (exactly the spec's count for
    #: closed-loop runs; open-loop runs count messages inside the
    #: measurement window, and so do their ``delivered``, ``timed_out``,
    #: ``undeliverable`` and ``dropped``, which always sum to it).
    offered: int
    delivered: int
    timed_out: int
    cycles: int
    max_queue: int
    throughput: float
    mean_latency: float
    p50: float
    p99: float
    max_latency: float
    #: Messages refused by the router (no healthy route on the live fault
    #: graph).  Always 0 on pristine guest tori — serialised only when
    #: nonzero, so pre-router result JSON is unchanged.
    undeliverable: int = 0
    #: Delivery-integrity counts under a Byzantine fault model (see
    #: :class:`~repro.sim.routing.ByzantinePlan`).  ``dropped`` is a loss
    #: bucket, counted like ``timed_out``; ``corrupted``/``misrouted``
    #: messages were delivered, and open-loop runs count them over the
    #: measurement window too, so each is at most ``delivered``.  All zero
    #: without a model, and then omitted from JSON so pre-model result
    #: files are unchanged.
    dropped: int = 0
    corrupted: int = 0
    misrouted: int = 0
    #: Per-QoS-class rows (:func:`repro.sim.metrics.per_class_stats`);
    #: ``None`` for single-class runs and then omitted from JSON.
    per_class: list | None = None

    def to_dict(self) -> dict:
        """JSON-stable per-trial record (floats kept exact, not rounded)."""
        out = {
            "offered": self.offered,
            "delivered": self.delivered,
            "timed_out": self.timed_out,
            "cycles": self.cycles,
            "max_queue": self.max_queue,
            "throughput": self.throughput,
            "mean_latency": self.mean_latency,
            "p50": self.p50,
            "p99": self.p99,
            "max_latency": self.max_latency,
        }
        if self.undeliverable:
            out["undeliverable"] = self.undeliverable
        for key in ("dropped", "corrupted", "misrouted"):
            if getattr(self, key):
                out[key] = getattr(self, key)
        if self.per_class is not None:
            out["per_class"] = self.per_class
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "TrafficOutcome":
        return cls(
            offered=int(d["offered"]),
            delivered=int(d["delivered"]),
            timed_out=int(d["timed_out"]),
            cycles=int(d["cycles"]),
            max_queue=int(d["max_queue"]),
            throughput=float(d["throughput"]),
            mean_latency=float(d["mean_latency"]),
            p50=float(d["p50"]),
            p99=float(d["p99"]),
            max_latency=float(d["max_latency"]),
            undeliverable=int(d.get("undeliverable", 0)),
            dropped=int(d.get("dropped", 0)),
            corrupted=int(d.get("corrupted", 0)),
            misrouted=int(d.get("misrouted", 0)),
            per_class=d.get("per_class"),
        )


@dataclass
class TrafficResult:
    """Aggregated traffic outcomes of one grid point.

    ``outcomes`` stays in seed order and merges concatenate parts in chunk
    order — the property that keeps serial, parallel and batched runs of
    the same spec byte-identical (like
    :class:`~repro.api.lifetime.LifetimeResult`, summary statistics are
    recomputed from the per-trial records, never accumulated).
    """

    trials: int
    outcomes: list[TrafficOutcome] = field(default_factory=list)

    # -- summary statistics --------------------------------------------------

    @property
    def delivered_fraction(self) -> float:
        offered = sum(o.offered for o in self.outcomes)
        return sum(o.delivered for o in self.outcomes) / offered if offered else 1.0

    @property
    def mean_throughput(self) -> float:
        if not self.outcomes:
            return float("nan")
        return float(np.mean([o.throughput for o in self.outcomes]))

    @property
    def mean_latency(self) -> float:
        lats = [o.mean_latency for o in self.outcomes if not np.isnan(o.mean_latency)]
        return float(np.mean(lats)) if lats else float("nan")

    @property
    def worst_p99(self) -> float:
        p99s = [o.p99 for o in self.outcomes if not np.isnan(o.p99)]
        return float(np.max(p99s)) if p99s else float("nan")

    def summary(self) -> str:
        parts = [
            f"{self.trials} runs: delivered {self.delivered_fraction:.1%}, "
            f"thpt={self.mean_throughput:.3g}/cyc, "
            f"lat mean={self.mean_latency:.3g} p99<={self.worst_p99:g}"
        ]
        # Name every bucket a message can end in besides a clean delivery.
        for key in ("timed_out", "undeliverable", "dropped", "corrupted", "misrouted"):
            count = sum(getattr(o, key) for o in self.outcomes)
            if count:
                parts.append(f"{key}={count}")
        return "; ".join(parts)

    # -- persistence / merging ---------------------------------------------

    def to_dict(self) -> dict:
        """JSON-stable representation (see docs/results-format.md)."""
        return {
            "kind": "traffic",
            "trials": self.trials,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrafficResult":
        return cls(
            trials=int(d["trials"]),
            outcomes=[TrafficOutcome.from_dict(o) for o in d.get("outcomes", [])],
        )

    def add(self, part: "TrafficResult") -> None:
        """Merge a disjoint trial batch into this result, in place."""
        self.trials += part.trials
        self.outcomes.extend(part.outcomes)

    @classmethod
    def merged(cls, parts: Sequence["TrafficResult"]) -> "TrafficResult":
        """Concatenate disjoint trial batches in the order given."""
        out = cls(trials=0)
        for part in parts:
            out.add(part)
        return out


def aggregate_traffic(outcomes: Iterable[TrafficOutcome]) -> TrafficResult:
    """Fold a stream of traffic outcomes into one :class:`TrafficResult`."""
    res = TrafficResult(trials=0)
    for out in outcomes:
        res.trials += 1
        res.outcomes.append(out)
    return res


def traffic_rng(spec: TrafficSpec, seed: int) -> np.random.Generator:
    """The trial's generator, keyed by every workload-shaping spec field."""
    return spawn_rng(
        seed, "traffic", spec.pattern, spec.injection,
        f"{spec.rate:g}", spec.messages, spec.cycles,
    )


def _model_sim_kwargs(shape, spec: TrafficSpec, seed: int) -> dict:
    """Engine kwargs a spec's fault model adds to the trial.

    The model draws its one-shot state from a dedicated
    ``"traffic-model"`` stream (keyed by the canonical model token), so
    the workload stream is untouched — the same messages flow over the
    perturbed guest, and model-free trials are byte-identical to the
    pre-model code.  ``crash`` models become router health predicates;
    ``byzantine`` models become a :class:`~repro.sim.routing.ByzantinePlan`
    with its own ``"traffic-byz"`` action stream.
    """
    if spec.fault_model is None:
        return {}
    from repro.faults.registry import make_fault_model, model_token
    from repro.sim.routing import ByzantinePlan, fault_predicates

    model = make_fault_model(spec.fault_model)
    token = model_token(spec.fault_model)
    mask = model.sample(tuple(shape), spawn_rng(seed, "traffic-model", token))
    if model.behavior == "byzantine":
        return {
            "byzantine": ByzantinePlan(
                mask, model.mix(), spawn_rng(seed, "traffic-byz", token)
            )
        }
    node_ok, edge_ok = fault_predicates(mask)
    return {"node_ok": node_ok, "edge_ok": edge_ok}


def run_traffic_trial(
    shape: tuple[int, ...],
    spec: TrafficSpec,
    seed: int,
    *,
    engine: Callable[..., SimResult] | None = None,
) -> TrafficOutcome:
    """One seeded traffic workload on the ``shape`` torus.

    ``engine`` selects the execution backend (default: the scalar
    reference engine); workload generation is identical either way, and
    conforming engines return identical ``SimResult``\\ s, so the outcome
    never depends on the backend.  A spec-carried fault model perturbs
    the guest per trial — crash models through the health predicates,
    Byzantine models through a route-perturbation plan (docs/faults.md).
    """
    sim = engine if engine is not None else simulate
    rng = traffic_rng(spec, seed)
    if spec.open_loop:
        traffic, inject = make_open_loop(
            shape, spec.pattern, spec.rate, spec.cycles, rng, injection=spec.injection
        )
        measured = inject >= spec.warmup
    else:
        traffic = make_traffic(shape, spec.pattern, spec.messages, rng)
        inject = measured = None
    classes = message_classes(len(traffic), spec.qos_classes)
    result = sim(
        shape, traffic, inject=inject, max_cycles=spec.max_cycles,
        router=spec.router, classes=classes, credits=spec.credits,
        **_model_sim_kwargs(shape, spec, seed),
    )
    if spec.open_loop:
        stats = open_loop_stats(result, inject, warmup=spec.warmup, horizon=spec.cycles)
    else:
        stats = latency_stats(result)
        stats["offered"] = stats.pop("total")
    return TrafficOutcome(
        offered=stats["offered"],
        delivered=stats["delivered"],
        timed_out=stats["timed_out"],
        cycles=result.cycles,
        max_queue=result.max_queue,
        throughput=stats["throughput"],
        mean_latency=stats["mean"],
        p50=stats["p50"],
        p99=stats["p99"],
        max_latency=stats["max"],
        undeliverable=stats.get("undeliverable", 0),
        dropped=stats.get("dropped", 0),
        corrupted=stats.get("corrupted", 0),
        misrouted=stats.get("misrouted", 0),
        per_class=(
            None if classes is None
            else per_class_stats(result, classes, measured=measured)
        ),
    )
