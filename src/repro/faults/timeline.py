"""Fault-arrival timelines: the lifetime subsystem's event generators.

A deployed machine does not draw one fault set and stop — faults *arrive*
over its lifetime (the introduction's ``Theta(N log^{-3d} N)`` claim is
about accumulated random faults), and related work studies networks under
sustained or adversarially scheduled arrivals.  A
:class:`FaultTimeline` turns that regime into a deterministic event
stream: given a node shape and a generator it yields
:class:`TimelineEvent`\\ s — ``"fault"`` arrivals and (for timelines with
a repair process) ``"repair"`` departures — grouped into integer *steps*.

Timeline kinds (registry :data:`TIMELINE_KINDS`):

* ``uniform``      one uniformly random node per step, each node at most
                   once (a random permutation — exactly the historical
                   bn lifetime model);
* ``bernoulli``    every node fails independently with probability
                   ``rate`` at every step (a node may be hit again while
                   already faulty — such arrivals are redundant and the
                   drivers count them as trivially masked);
* ``burst``        ``burst`` co-located faults per step (a compact box at
                   a random corner, via the ``cluster`` adversary);
* ``adversarial``  one fault per step following a planned campaign from
                   :data:`repro.faults.adversary.ADVERSARY_PATTERNS`.

Any kind composes with :class:`RepairTimeline`, which fixes each
currently-faulty node with probability ``repair_rate`` after every step.

Determinism contract: a timeline is a pure function of ``(its parameters,
shape, rng stream)``.  All draws come from the ``rng`` passed to
:meth:`~FaultTimeline.events` in a fixed order, so the same seeded
generator always reproduces the same event stream — the property the
batched lifetime kernel (:mod:`repro.fastpath.lifetime_batch`) relies on
to replay scalar trials bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.faults.adversary import ADVERSARY_PATTERNS
from repro.faults.registry import TIMELINE_KINDS, make_fault_model

__all__ = [
    "AdversarialTimeline",
    "BernoulliTimeline",
    "BurstTimeline",
    "FaultTimeline",
    "ModelTimeline",
    "RepairTimeline",
    "TIMELINE_KINDS",
    "TimelineEvent",
    "UniformTimeline",
    "make_timeline",
]


@dataclass(frozen=True)
class TimelineEvent:
    """One lifetime event: node ``node`` (flat index) fails or is fixed."""

    step: int
    kind: str  # "fault" | "repair"
    node: int


@runtime_checkable
class FaultTimeline(Protocol):
    """Structural interface of every timeline kind."""

    name: str

    def events(
        self, shape: Sequence[int], rng: np.random.Generator
    ) -> Iterator[TimelineEvent]: ...


def _size(shape: Sequence[int]) -> int:
    return int(np.prod(np.asarray(shape, dtype=np.int64)))


@dataclass(frozen=True)
class UniformTimeline:
    """Uniformly random distinct nodes, one arrival per step.

    The single upfront ``rng.permutation(size)`` draw is bit-identical to
    the historical bn lifetime sampling, so lifetime trials keyed with
    the same generator reproduce the pre-subsystem numbers exactly.
    """

    name: str = "uniform"

    def events(self, shape, rng) -> Iterator[TimelineEvent]:
        order = rng.permutation(_size(shape))
        for step, node in enumerate(order):
            yield TimelineEvent(step, "fault", int(node))


@dataclass(frozen=True)
class BernoulliTimeline:
    """Every node fails independently with probability ``rate`` per step.

    Arrivals within a step are emitted in flat-index order.  Nodes already
    faulty can be drawn again; drivers treat those arrivals as redundant
    (trivially masked).  ``steps`` bounds the stream — without it the
    process never ends.
    """

    rate: float
    steps: int
    name: str = "bernoulli"

    def __post_init__(self) -> None:
        if not (0.0 < self.rate <= 1.0):
            raise ValueError(f"rate={self.rate} out of (0, 1]")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    def events(self, shape, rng) -> Iterator[TimelineEvent]:
        size = _size(shape)
        for step in range(self.steps):
            hits = np.flatnonzero(rng.random(size) < self.rate)
            for node in hits:
                yield TimelineEvent(step, "fault", int(node))


@dataclass(frozen=True)
class BurstTimeline:
    """``burst`` co-located faults per step (random compact box).

    Each step reuses the ``cluster`` adversary to draw one axis-aligned
    box at a random corner; bursts may overlap earlier ones.
    """

    burst: int
    steps: int
    name: str = "burst"

    def __post_init__(self) -> None:
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    def events(self, shape, rng) -> Iterator[TimelineEvent]:
        shape = tuple(int(s) for s in shape)
        cluster = ADVERSARY_PATTERNS["cluster"]
        for step in range(self.steps):
            for node in cluster(shape, min(self.burst, _size(shape)), rng):
                yield TimelineEvent(step, "fault", int(node))


@dataclass(frozen=True)
class AdversarialTimeline:
    """A planned ``k``-fault campaign delivered one node per step.

    The whole campaign is drawn upfront from
    :data:`~repro.faults.adversary.ADVERSARY_PATTERNS` (``k = None``
    plans for the full node count), then replayed in plan order — the
    adversary commits to its schedule before seeing any repairs.
    """

    pattern: str
    k: int | None = None
    name: str = "adversarial"

    def __post_init__(self) -> None:
        if self.pattern not in ADVERSARY_PATTERNS:
            raise ValueError(
                f"unknown pattern {self.pattern!r}; options: {sorted(ADVERSARY_PATTERNS)}"
            )

    def events(self, shape, rng) -> Iterator[TimelineEvent]:
        shape = tuple(int(s) for s in shape)
        k = _size(shape) if self.k is None else min(self.k, _size(shape))
        plan = ADVERSARY_PATTERNS[self.pattern](shape, k, rng)
        for step, node in enumerate(np.asarray(plan, dtype=np.int64)):
            yield TimelineEvent(step, "fault", int(node))


@dataclass(frozen=True)
class RepairTimeline:
    """Wrap any timeline with a repair process at rate ``repair_rate``.

    After *every* step — including steps where the inner timeline emitted
    no arrivals — every currently-faulty node is fixed independently with
    probability ``repair_rate`` (one draw per faulty node, in ascending
    flat-index order — the fixed order is what keeps the composed stream
    deterministic).  When the inner timeline declares its span (a
    ``steps`` attribute, as the step-driven kinds do), repair passes
    continue through trailing arrival-free steps; arrival-exhausted kinds
    (``uniform``, ``adversarial``) end after their last step's pass.  The
    live fault set is tracked here, so kinds that can revisit nodes
    (``bernoulli``, ``burst``) genuinely re-fault repaired nodes.
    """

    inner: (
        "UniformTimeline | BernoulliTimeline | BurstTimeline | "
        "AdversarialTimeline | ModelTimeline"
    )
    repair_rate: float
    name: str = "repair"

    def __post_init__(self) -> None:
        if not (0.0 < self.repair_rate <= 1.0):
            raise ValueError(f"repair_rate={self.repair_rate} out of (0, 1]")

    def events(self, shape, rng) -> Iterator[TimelineEvent]:
        faulty: set[int] = set()

        def repairs(at_step: int) -> Iterator[TimelineEvent]:
            order = sorted(faulty)
            fixed = np.asarray(order)[rng.random(len(order)) < self.repair_rate]
            for node in fixed:
                faulty.discard(int(node))
                yield TimelineEvent(at_step, "repair", int(node))

        step: int | None = None
        for ev in self.inner.events(shape, rng):
            if step is None:
                # Steps before the first arrival have no faulty nodes, so
                # their repair passes are vacuous and elided.
                step = ev.step
            while ev.step > step:
                yield from repairs(step)  # close this step, empty ones too
                step += 1
            faulty.add(ev.node)
            yield ev
        if step is not None:
            total = getattr(self.inner, "steps", step + 1)
            while step < total:
                yield from repairs(step)
                step += 1


@dataclass(frozen=True)
class ModelTimeline:
    """A registered fault model's one-shot draw as an arrival stream.

    Samples the model once, then delivers its fault set one node per
    step in a random order (the model's own ``events`` default) — the
    model analogue of :class:`UniformTimeline`, and like it composable
    with :class:`RepairTimeline`.  ``model`` is the serialized
    ``{"name": ..., **params}`` dict (hashable-field-free dataclasses
    don't nest in frozen specs; the dict is the canonical form anyway).
    """

    model: dict
    name: str = "model"

    def events(self, shape, rng) -> Iterator[TimelineEvent]:
        return make_fault_model(dict(self.model)).events(
            tuple(int(s) for s in shape), rng
        )


def make_timeline(
    kind: str,
    *,
    rate: float = 0.0,
    burst: int = 0,
    pattern: str = "",
    k: int | None = None,
    repair_rate: float = 0.0,
    max_steps: int | None = None,
    fault_model: dict | None = None,
) -> FaultTimeline:
    """Build a timeline from :class:`~repro.api.protocol.LifetimeSpec` fields.

    ``max_steps`` bounds the step-driven kinds (``bernoulli``/``burst``
    require it — their streams are otherwise endless); ``repair_rate > 0``
    wraps the result in a :class:`RepairTimeline`.  A ``fault_model``
    dict replaces the timeline kind outright: the model's sampled fault
    set arrives one node per step (:class:`ModelTimeline`), still
    composable with the repair process.
    """
    if fault_model is not None:
        tl: FaultTimeline = ModelTimeline(model=fault_model)
        if repair_rate > 0.0:
            tl = RepairTimeline(inner=tl, repair_rate=repair_rate)
        return tl
    if kind == "uniform":
        tl: FaultTimeline = UniformTimeline()
    elif kind == "bernoulli":
        if max_steps is None:
            raise ValueError("bernoulli timelines need max_steps")
        tl = BernoulliTimeline(rate=rate, steps=max_steps)
    elif kind == "burst":
        if max_steps is None:
            raise ValueError("burst timelines need max_steps")
        tl = BurstTimeline(burst=burst, steps=max_steps)
    elif kind == "adversarial":
        tl = AdversarialTimeline(pattern=pattern, k=k)
    else:
        raise ValueError(f"unknown timeline kind {kind!r}; options: {TIMELINE_KINDS}")
    if repair_rate > 0.0:
        tl = RepairTimeline(inner=tl, repair_rate=repair_rate)
    return tl
