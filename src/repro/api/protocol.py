"""The unified ``Construction`` protocol and its fault-model spec.

Every fault-tolerant host in this library — the paper's three theorems
(``bn``, ``an``, ``dn``) and the three comparators (``alon_chung``,
``replication``, ``sparerows``) — conforms to one structural interface:

* ``name``           registry key of the construction,
* ``num_nodes``      host size (Theorem claims are about this),
* ``degree``         maximum node degree (ditto),
* ``graph()``        the materialised :class:`~repro.topology.graph.CSRGraph`
                     (cached; never required by the recovery hot paths),
* ``sample_faults``  draw a fault state for a :class:`FaultSpec` from an rng,
* ``recover``        attempt verified recovery; raises
                     :class:`~repro.errors.ReconstructionError` on failure,
* ``trial``          one seeded sample-recover-classify round returning a
                     :class:`~repro.api.outcome.TrialOutcome`.

Constructions may additionally advertise the optional *batch capability*
(:class:`BatchCapable`): ``supports_batch(spec)`` says whether a fault
point can run on the construction's vectorized backend and
``run_batch(spec, seeds)`` then returns the same ``TrialOutcome``
sequence as ``[trial(spec, s) for s in seeds]`` — identical outcomes,
not just statistically equivalent ones, so experiment JSON is
byte-identical whichever path executes (see docs/fastpath.md).  The
capability is deliberately *not* part of :class:`Construction`: the
runner probes for it with ``getattr`` and falls back per-trial.

The *lifetime capability* (:class:`LifetimeCapable`) is the third pillar:
``lifetime_trial(spec, seed)`` drives a :class:`LifetimeSpec` fault
timeline against the construction's ``live_machine()`` on its
``lifetime_rng(seed)`` until recovery first fails, and the optional
``supports_lifetime_batch``/``run_lifetime_batch`` pair vectorizes whole
seed chunks of lifetime trials under the same identical-outcome contract
as ``run_batch`` (see docs/lifetime.md).

The *traffic capability* (:class:`TrafficCapable`) is the fourth pillar:
``traffic_trial(spec, seed)`` routes a :class:`TrafficSpec` workload —
closed-loop batch or open-loop injection — over the torus the
construction emulates (``guest_shape``) and measures service quality,
with the optional ``run_traffic_batch`` dispatching to the vectorized
simulator kernel under the usual identical-outcome contract (see
docs/traffic.md).

The fault *state* passed between ``sample_faults`` and ``recover`` is
deliberately opaque (``Any``): ``B``/``D`` use boolean node arrays, ``A``
uses an :class:`~repro.core.an.AnFaultState` with lazy half-edge bits,
replication uses a per-cluster matrix.  Consumers that only run trials
never need to look inside.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.faults.registry import (
    FAULT_PATTERN_NAMES,
    TIMELINE_KINDS,
    validate_model_dict,
)

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.api.outcome import TrialOutcome
    from repro.topology.graph import CSRGraph

__all__ = [
    "BatchCapable",
    "Construction",
    "FaultSpec",
    "LifetimeCapable",
    "LifetimeSpec",
    "TrafficCapable",
    "TrafficSpec",
]


@dataclass(frozen=True)
class FaultSpec:
    """One point of a fault model.

    ``pattern == "bernoulli"`` means i.i.d. node faults at rate ``p`` with
    optional i.i.d. edge faults at rate ``q`` (folded or modelled per
    construction).  Any other pattern names an adversarial campaign from
    :data:`repro.faults.adversary.ADVERSARY_PATTERNS` with fault budget
    ``k`` (``None`` = the construction's rated budget).

    ``fault_model`` replaces the pattern machinery wholesale with a
    registered model from :mod:`repro.faults.registry`, carried as its
    serialized ``{"name": ..., **params}`` dict.  It is mutually
    exclusive with the legacy knobs (``p``/``q``/``k`` must stay at their
    defaults) and serialises only when set, so model-free spec JSON is
    byte-identical to the pre-model format.
    """

    p: float = 0.0
    q: float = 0.0
    pattern: str = "bernoulli"
    k: int | None = None
    fault_model: dict | None = None

    def __post_init__(self) -> None:
        if self.pattern not in FAULT_PATTERN_NAMES:
            raise ValueError(
                f"unknown pattern {self.pattern!r}; options: {FAULT_PATTERN_NAMES}"
            )
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p={self.p} out of [0, 1]")
        if not (0.0 <= self.q <= 1.0):
            raise ValueError(f"q={self.q} out of [0, 1]")
        if self.k is not None and self.k < 0:
            raise ValueError(f"k={self.k} must be >= 0")
        if self.fault_model is not None:
            validate_model_dict(self.fault_model)
            if self.p or self.q or self.pattern != "bernoulli" or self.k is not None:
                raise ValueError(
                    "fault_model replaces the p/q/pattern/k knobs; leave them "
                    "at their defaults when a model is given"
                )

    @property
    def adversarial(self) -> bool:
        return self.fault_model is None and self.pattern != "bernoulli"

    def label(self) -> str:
        """Compact human/JSON-key label for tables and result files."""
        if self.fault_model is not None:
            params = [
                f"{key}={val:g}" if isinstance(val, float) else f"{key}={val}"
                for key, val in sorted(self.fault_model.items())
                if key != "name"
            ]
            return " ".join([f"model/{self.fault_model['name']}"] + params)
        if self.adversarial:
            return f"{self.pattern}" + (f"/k={self.k}" if self.k is not None else "")
        parts = [f"p={self.p:g}"]
        if self.q:
            parts.append(f"q={self.q:g}")
        return " ".join(parts)

    def to_dict(self) -> dict:
        """JSON record; ``fault_model`` serialises only when set so
        model-free result files stay byte-stable."""
        d = asdict(self)
        if self.fault_model is None:
            del d["fault_model"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FaultSpec":
        return cls(**d)


@dataclass(frozen=True)
class LifetimeSpec:
    """One point of a lifetime (fault-*arrival*) model.

    Where :class:`FaultSpec` describes a single fault draw, a
    ``LifetimeSpec`` describes an arrival process from
    :mod:`repro.faults.timeline`: ``timeline`` names the kind, ``rate`` is
    the Bernoulli per-step fault rate, ``burst`` the per-step burst size,
    ``pattern``/``k`` the adversarial campaign, ``repair_rate`` the rate
    ``rho`` at which faulty nodes are fixed, and ``max_steps`` bounds the
    stream (required for the step-driven ``bernoulli``/``burst`` kinds).
    A grid point of this type makes the runner measure *lifetimes* —
    arrivals survived before recovery first fails — instead of one-shot
    trial outcomes.

    ``fault_model`` swaps the timeline kind for a registered model's
    arrival stream (its one-shot draw delivered one node per step; see
    :class:`repro.faults.timeline.ModelTimeline`).  It composes with
    ``repair_rate`` and ``max_steps`` but is mutually exclusive with the
    kind-selecting knobs, and serialises only when set.
    """

    timeline: str = "uniform"
    rate: float = 0.0
    burst: int = 0
    pattern: str = ""
    k: int | None = None
    repair_rate: float = 0.0
    max_steps: int | None = None
    fault_model: dict | None = None

    def __post_init__(self) -> None:
        if self.timeline not in TIMELINE_KINDS:
            raise ValueError(
                f"unknown timeline {self.timeline!r}; options: {TIMELINE_KINDS}"
            )
        if self.fault_model is not None:
            validate_model_dict(self.fault_model)
            if (
                self.timeline != "uniform"
                or self.rate
                or self.burst
                or self.pattern
                or self.k is not None
            ):
                raise ValueError(
                    "fault_model replaces the timeline/rate/burst/pattern/k "
                    "knobs; leave them at their defaults when a model is given"
                )
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"rate={self.rate} out of [0, 1]")
        if not (0.0 <= self.repair_rate <= 1.0):
            raise ValueError(f"repair_rate={self.repair_rate} out of [0, 1]")
        if self.timeline == "bernoulli" and (self.rate <= 0.0 or self.max_steps is None):
            raise ValueError("bernoulli timelines need rate > 0 and max_steps")
        if self.timeline == "burst" and (self.burst < 1 or self.max_steps is None):
            raise ValueError("burst timelines need burst >= 1 and max_steps")
        if self.timeline == "adversarial" and not self.pattern:
            raise ValueError("adversarial timelines need a pattern")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    def label(self) -> str:
        """Compact human/JSON-key label for tables and result files."""
        if self.fault_model is not None:
            parts = [f"life/model/{self.fault_model['name']}"]
        else:
            parts = [f"life/{self.timeline}"]
            if self.timeline == "bernoulli":
                parts.append(f"rate={self.rate:g}")
            elif self.timeline == "burst":
                parts.append(f"burst={self.burst}")
            elif self.timeline == "adversarial":
                parts.append(
                    self.pattern + (f"/k={self.k}" if self.k is not None else "")
                )
        if self.repair_rate:
            parts.append(f"rho={self.repair_rate:g}")
        if self.max_steps is not None:
            parts.append(f"steps={self.max_steps}")
        return " ".join(parts)

    def to_dict(self) -> dict:
        """JSON record; ``fault_model`` serialises only when set so
        model-free result files stay byte-stable."""
        d = asdict(self)
        if self.fault_model is None:
            del d["fault_model"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LifetimeSpec":
        return cls(**d)


#: Traffic patterns accepted by :class:`TrafficSpec` (mirrors
#: :data:`repro.sim.traffic.TRAFFIC_PATTERNS`; kept literal so this module
#: stays import-light).
_TRAFFIC_PATTERNS = ("uniform", "transpose", "neighbor", "hotspot", "bitreverse")

#: Injection processes accepted by :class:`TrafficSpec`: ``batch`` is the
#: closed loop (all ``messages`` at cycle 0); the open-loop kinds mirror
#: :data:`repro.sim.workload.INJECTIONS`.
_INJECTIONS = ("batch", "bernoulli", "periodic")

#: Routers accepted by :class:`TrafficSpec` (mirrors
#: :data:`repro.sim.routing.ROUTERS`; kept literal so this module stays
#: import-light).
_TRAFFIC_ROUTERS = ("dimension", "adaptive")

#: QoS class-count ceiling: class 0 (highest priority) .. 2.
_MAX_QOS_CLASSES = 3


@dataclass(frozen=True)
class TrafficSpec:
    """One point of a traffic (service-measurement) model.

    Where :class:`FaultSpec` asks "does recovery succeed" and
    :class:`LifetimeSpec` asks "how long until it fails", a
    ``TrafficSpec`` asks "how well does the guest torus *serve its
    workload*" — the paper's whole motivation.  ``pattern`` names a
    workload from :data:`repro.sim.traffic.TRAFFIC_PATTERNS`;
    ``injection`` selects the model:

    * ``"batch"`` — closed loop: exactly ``messages`` messages injected
      at cycle 0 and drained (``rate``/``cycles``/``warmup`` unused);
    * ``"bernoulli"`` / ``"periodic"`` — open loop: every node injects at
      per-cycle rate ``rate`` over a horizon of ``cycles`` cycles, and
      statistics are measured over messages injected at or after
      ``warmup`` (see :mod:`repro.sim.workload`).

    ``max_cycles`` bounds the simulation either way; messages still
    undelivered then are reported as ``timed_out``, never dropped
    silently.  A grid point of this type makes the runner measure
    :class:`~repro.api.traffic.TrafficOutcome`\\ s on the construction's
    guest torus.

    ``router`` selects the routing algorithm (``"dimension"`` static
    e-cube, ``"adaptive"`` fault-aware detours — identical on fault-free
    guests; see docs/routing.md), ``qos_classes`` the number of traffic
    priority classes (1–3; messages are assigned round-robin by id,
    class 0 highest priority), and ``credits`` the per-class credit pool
    of the flow-control gate (0 = unlimited, the historical behaviour).
    The three fields serialise only when non-default, so existing result
    JSON is unchanged byte for byte.

    ``fault_model`` runs the workload over a *perturbed* guest: a
    registered model (dict form) is sampled per trial, and its declared
    behavior decides the semantics — ``crash`` faults become node/edge
    health predicates for the routers, ``byzantine`` nodes stay up but
    misroute/drop/corrupt traversing messages per the model's mix (see
    docs/faults.md).  It composes freely with the router/QoS knobs and
    serialises only when set.
    """

    pattern: str = "uniform"
    messages: int = 200
    injection: str = "batch"
    rate: float = 0.0
    cycles: int = 0
    warmup: int = 0
    max_cycles: int = 10_000
    router: str = "dimension"
    qos_classes: int = 1
    credits: int = 0
    fault_model: dict | None = None

    def __post_init__(self) -> None:
        if self.fault_model is not None:
            validate_model_dict(self.fault_model)
        if self.pattern not in _TRAFFIC_PATTERNS:
            raise ValueError(
                f"unknown pattern {self.pattern!r}; options: {_TRAFFIC_PATTERNS}"
            )
        if self.injection not in _INJECTIONS:
            raise ValueError(
                f"unknown injection {self.injection!r}; options: {_INJECTIONS}"
            )
        if self.router not in _TRAFFIC_ROUTERS:
            raise ValueError(
                f"unknown router {self.router!r}; options: {_TRAFFIC_ROUTERS}"
            )
        if not (1 <= self.qos_classes <= _MAX_QOS_CLASSES):
            raise ValueError(
                f"qos_classes={self.qos_classes} out of [1, {_MAX_QOS_CLASSES}]"
            )
        if self.credits < 0:
            raise ValueError(f"credits={self.credits} must be >= 0 (0 = unlimited)")
        if self.injection == "batch":
            if self.messages < 1:
                raise ValueError("batch injection needs messages >= 1")
        else:
            if not (0.0 < self.rate <= 1.0):
                raise ValueError(f"open-loop rate={self.rate} out of (0, 1]")
            if self.cycles < 1:
                raise ValueError("open-loop injection needs cycles >= 1")
            if not (0 <= self.warmup < self.cycles):
                raise ValueError(
                    f"warmup={self.warmup} must lie in [0, cycles={self.cycles})"
                )
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")

    @property
    def open_loop(self) -> bool:
        return self.injection != "batch"

    def label(self) -> str:
        """Compact human/JSON-key label for tables and result files."""
        parts = [f"traffic/{self.pattern}"]
        if self.open_loop:
            parts.append(f"{self.injection} rate={self.rate:g}")
            parts.append(f"cycles={self.cycles}")
        else:
            parts.append(f"m={self.messages}")
        if self.router != "dimension":
            parts.append(self.router)
        if self.qos_classes > 1:
            parts.append(f"qos={self.qos_classes}")
        if self.credits:
            parts.append(f"credits={self.credits}")
        if self.fault_model is not None:
            parts.append(f"model={self.fault_model['name']}")
        return " ".join(parts)

    def to_dict(self) -> dict:
        """JSON record; the PR-7 fields and ``fault_model`` serialise only
        when non-default so result files written before routers/QoS/models
        existed stay byte-stable."""
        d = asdict(self)
        if self.router == "dimension":
            del d["router"]
        if self.qos_classes == 1:
            del d["qos_classes"]
        if not self.credits:
            del d["credits"]
        if self.fault_model is None:
            del d["fault_model"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrafficSpec":
        return cls(**d)


@runtime_checkable
class Construction(Protocol):
    """Structural interface shared by all six registered constructions."""

    name: str

    @property
    def num_nodes(self) -> int: ...

    @property
    def degree(self) -> int: ...

    def graph(self) -> "CSRGraph": ...

    def sample_faults(self, spec: FaultSpec, rng: "np.random.Generator") -> Any: ...

    def recover(self, faults: Any) -> Any: ...

    def trial(self, spec: FaultSpec, seed: int) -> "TrialOutcome": ...


@runtime_checkable
class BatchCapable(Protocol):
    """Optional vectorized-backend capability of a construction.

    ``run_batch`` must return *identical* outcomes to the per-trial loop
    for the same seeds whenever ``supports_batch`` approved the spec; it
    may delegate individual hard trials back to ``trial`` to keep that
    guarantee.
    """

    def supports_batch(self, spec: FaultSpec) -> bool: ...

    def run_batch(self, spec: FaultSpec, seeds: "list[int]") -> "list[TrialOutcome]": ...


@runtime_checkable
class LifetimeCapable(Protocol):
    """Optional lifetime capability of a construction.

    ``live_machine()`` returns a fresh fault-free live machine that takes
    fault/repair events by flat node id, ``lifetime_rng(seed)`` the
    stream a trial's timeline draws from, and ``lifetime_trial`` runs one
    seeded fault-arrival timeline through them to first recovery failure
    (:func:`~repro.api.lifetime.drive_timeline`), returning a
    :class:`~repro.api.lifetime.LifetimeOutcome`.  Constructions may
    additionally expose the batched pair
    ``supports_lifetime_batch``/``run_lifetime_batch`` with the same
    identical-outcome contract as :class:`BatchCapable`; the runner probes
    for them with ``getattr`` exactly as it does for batch trials.
    """

    def live_machine(self): ...

    def lifetime_rng(self, seed: int) -> "np.random.Generator": ...

    def lifetime_trial(self, spec: LifetimeSpec, seed: int): ...


@runtime_checkable
class TrafficCapable(Protocol):
    """Optional traffic capability of a construction.

    ``guest_shape`` is the torus the construction emulates (what its
    recovery hands back to the workload); ``traffic_trial`` runs one
    seeded :class:`TrafficSpec` workload on it and returns a
    :class:`~repro.api.traffic.TrafficOutcome`.  Constructions may
    additionally expose ``run_traffic_batch(spec, seeds)`` with the same
    identical-outcome contract as :class:`BatchCapable` (the batched path
    swaps the scalar engine for the vectorized kernel of
    :mod:`repro.fastpath.traffic_batch`, which covers every spec;
    workload generation is shared).  The runner probes with ``getattr``
    exactly as for the other capabilities; hosts without a torus guest
    (the expander path) simply don't expose it.
    """

    def guest_shape(self) -> tuple: ...

    def traffic_trial(self, spec: TrafficSpec, seed: int): ...
