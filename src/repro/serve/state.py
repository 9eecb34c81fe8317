"""Per-machine live state: lifetime ingestion, traffic queries, digests.

:class:`MachineState` is the synchronous core the daemon owns per
simulated machine — any registered construction at any size.  It holds
the construction's live machine (``live_machine()``: the incremental
:class:`~repro.core.online.OnlineRecovery` on ``bn``, the generic
full-recompute machine elsewhere) and one
:class:`~repro.api.lifetime.LifetimeOutcome`, and applies every event
with :func:`~repro.api.lifetime.lifetime_step` — the step the offline
:func:`~repro.api.lifetime.drive_timeline` loops.  The contract is
checkable: :meth:`MachineState.digest` canonicalises the machine state,
and :func:`offline_digest` builds the same structure after driving the
same :class:`~repro.api.protocol.LifetimeSpec` offline — ingesting
:func:`scripted_events` online must yield a byte-identical digest
(asserted in tests/test_serve.py and gated by bench_e20).

Traffic queries route through the **live** machine with
:func:`repro.sim.lifetime_traffic.serve_traffic`, the path lifetime
traffic snapshots take too: on ``bn`` every message's e-cube route is
mapped through the current embedding and checked against the live fault
set (or detoured around it), and the workload runs on the vectorized
kernel with broken-path messages counted ``undeliverable``.
Constructions without a maintained embedding serve their pristine guest
torus (their recovery re-embeds it whole after every event).

:class:`MachineActor` is the asyncio wrapper: an ``asyncio.Lock`` (FIFO
for waiters) serialises mutation per machine, so concurrent clients'
events interleave in a single well-defined order while queries — pure
synchronous reads on the loop thread — fan out between them.

:func:`scripted_session` replays a canned session (events + queries +
telemetry snapshot) without sockets; it backs the ``serve-session``
golden artifact and doubles as the reference the socket tests compare
wire results against.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.api.lifetime import LifetimeOutcome, drive_timeline, lifetime_step, timeline_events
from repro.api.protocol import LifetimeSpec
from repro.api.registry import get
from repro.errors import ParameterError
from repro.faults.registry import fault_model_names
from repro.serve.protocol import MAX_QUERY_CYCLES, MAX_QUERY_HOPS
from repro.serve.telemetry import MachineTelemetry
from repro.sim.metrics import latency_stats
from repro.sim.traffic import TRAFFIC_PATTERNS, make_traffic
from repro.util.rng import spawn_rng

__all__ = [
    "MachineActor",
    "MachineState",
    "offline_digest",
    "scripted_events",
    "scripted_session",
]

#: Format tag of the canonical state digest (bump on structure change).
DIGEST_FORMAT = "repro-serve-state-v1"


def scripted_events(
    construction_key: str, params: dict, spec: LifetimeSpec, seed: int
) -> list[tuple[str, int]]:
    """The ``(kind, flat_node)`` event list a :class:`LifetimeSpec` trial
    would feed the machine — the same timeline, RNG stream and
    ``max_steps`` cutoff as :func:`repro.api.lifetime.drive_timeline`, so
    ingesting this list online reproduces the offline trial exactly."""
    construction = get(construction_key, **params)
    events = timeline_events(
        spec, construction._lifetime_shape(), construction.lifetime_rng(seed)
    )
    return [(ev.kind, ev.node) for ev in events]


def _digest(construction_key: str, machine, outcome: LifetimeOutcome,
            model_faults: dict | None = None) -> dict:
    """Canonical state of a live machine and its tallies (see
    :meth:`MachineState.digest`)."""
    out = {
        "format": DIGEST_FORMAT,
        "construction": construction_key,
        "alive": not outcome.failed,
        "death_category": outcome.category if outcome.failed else "",
        "lifetime": outcome.lifetime,
        "masked": outcome.masked,
        "replaced": outcome.replaced,
        "repaired": outcome.repaired,
        "num_faults": int(machine.faults.sum()),
        "fault_nodes": [int(i) for i in np.flatnonzero(machine.faults)],
    }
    if model_faults:
        # Only when model-tagged events were ingested: untagged sessions
        # (and offline_digest, whose driver has no tags) omit the key, so
        # online/offline byte-identity is preserved.
        out["model_faults"] = {k: int(v) for k, v in sorted(model_faults.items())}
    rec = machine.recovery
    if rec is not None:
        out["bottoms"] = [int(b) for b in np.asarray(rec.bands.bottoms).ravel()]
        out["phi_crc32"] = int(
            zlib.crc32(np.ascontiguousarray(rec.phi, dtype=np.int64).tobytes())
        )
    return out


@dataclass
class MachineState:
    """The live lifetime + traffic state of one simulated machine."""

    name: str
    construction_key: str
    params: dict
    construction: object = field(init=False)
    #: The construction's live machine (``live_machine()``).
    machine: object = field(init=False)
    #: Its tallies: the offline trial's record, advanced event by event.
    outcome: LifetimeOutcome = field(init=False)
    #: Monotone per-machine sequence number of *applied* mutations — the
    #: serialisation witness concurrent clients observe.
    seq: int = field(init=False, default=0)
    #: Fault arrivals per fault-model tag — populated only by model-tagged
    #: ``event`` frames, so untagged sessions keep a byte-identical digest.
    model_faults: dict = field(init=False, default_factory=dict)
    telemetry: MachineTelemetry = field(init=False, default_factory=MachineTelemetry)

    def __post_init__(self) -> None:
        self.params = dict(self.params)
        self.construction = get(self.construction_key, **self.params)
        self.machine = self.construction.live_machine()
        self.outcome = LifetimeOutcome(lifetime=0, steps=0, category="ok", failed=False)

    # -- introspection -------------------------------------------------------

    @property
    def alive(self) -> bool:
        return not self.outcome.failed

    @property
    def num_faults(self) -> int:
        return int(self.machine.faults.sum())

    def info(self) -> dict:
        c = self.construction
        guest = c.guest_shape() if hasattr(c, "guest_shape") else None
        return {
            "name": self.name,
            "construction": self.construction_key,
            "params": dict(self.params),
            "num_nodes": int(c.num_nodes),
            "degree": int(c.degree),
            "shape": list(self.machine.faults.shape),
            "guest_shape": None if guest is None else [int(s) for s in guest],
            "incremental": self.machine.recovery is not None,
        }

    # -- mutation (must be called under the actor's lock) --------------------

    def _check_event(self, kind: str, node: int, model: str | None = None) -> int:
        """Validate one event without applying it; returns ``node`` as an
        int.  Raises :class:`~repro.errors.ParameterError` on an unknown
        kind, a node outside the host or an unregistered model tag."""
        node = int(node)
        size = self.machine.faults.size
        if not (0 <= node < size):
            raise ParameterError(f"node {node} out of range [0, {size})")
        if kind not in ("fault", "repair"):
            raise ParameterError(f"unknown event kind {kind!r} (fault | repair)")
        if model is not None:
            names = fault_model_names()
            if model not in names:
                raise ParameterError(
                    f"unknown fault model {model!r}; options: {', '.join(names)}"
                )
        return node

    def apply_event(self, kind: str, node: int, model: str | None = None) -> dict:
        """Apply one fault/repair event; returns the applied record.

        ``action`` is :func:`~repro.api.lifetime.lifetime_step`'s:
        ``"masked"`` / ``"replaced"`` / ``"repaired"`` for applied events,
        ``"failed"`` for the arrival that killed the machine, ``"dead"``
        for events acknowledged-but-ignored after death — the offline
        trial stops consuming its timeline at the same arrival.

        ``model`` optionally tags a fault event with the registered
        :mod:`repro.faults` model that produced it (e.g. an operator
        relaying a ``ByzantineNodeFaults`` sample); applied fault
        arrivals are tallied per tag in :attr:`model_faults` and the
        tally is surfaced in :meth:`digest` / :meth:`telemetry_snapshot`
        only when non-empty.
        """
        node = self._check_event(kind, node, model)
        action = lifetime_step(self.machine, self.outcome, kind, node)
        if action == "dead":
            self.telemetry.rejected_dead += 1
            return {"seq": self.seq, "action": "dead", "num_faults": self.num_faults,
                    "alive": False}
        if kind == "fault" and model is not None:
            self.model_faults[model] = self.model_faults.get(model, 0) + 1
        self.seq += 1
        out = {"seq": self.seq, "action": action, "num_faults": self.num_faults,
               "alive": self.alive}
        if action == "failed":
            out["category"] = self.outcome.category
        return out

    def apply_events(self, events: Sequence[Sequence]) -> list[dict]:
        """Apply a batch all-or-nothing: every event is checked
        (:meth:`_check_event`) before any is applied, so a bad one leaves
        the machine and ``seq`` untouched.

        Each event is ``(kind, node)`` or ``(kind, node, model)``; the
        optional third element is a fault-model tag (see
        :meth:`apply_event`).
        """
        batch = [
            (str(e[0]), int(e[1]), None if len(e) < 3 or e[2] is None else str(e[2]))
            for e in events
        ]
        for kind, node, model in batch:
            self._check_event(kind, node, model)
        return [self.apply_event(*e) for e in batch]

    # -- queries -------------------------------------------------------------

    def traffic_query(
        self,
        pattern: str,
        messages: int,
        seed: int,
        *,
        live: bool = True,
        max_cycles: int = 10_000,
        router: str = "dimension",
        qos_classes: int = 1,
        credits: int = 0,
    ) -> dict:
        """Route one seeded workload through the machine; returns stats.

        On ``bn`` with ``live=True`` (the default) every route is walked
        through the *current* embedding against the live fault set;
        messages crossing a broken host element are refused and counted
        ``undeliverable`` — in ``total`` and in their ``per_class`` row —
        beside the simulated rest.  With ``router="adaptive"`` broken
        e-cube routes are instead detoured around the live fault set, so
        only disconnected endpoints stay undeliverable.
        ``qos_classes``/``credits`` enable priority arbitration and credit
        flow control exactly as in
        :class:`~repro.api.protocol.TrafficSpec`.  Constructions without
        a maintained embedding serve their pristine guest torus
        (recovery re-embeds it whole).
        """
        c = self.construction
        if not hasattr(c, "guest_shape"):
            raise ParameterError(
                f"construction {self.construction_key!r} has no torus guest "
                "(no traffic capability)"
            )
        from repro.api.traffic import message_classes
        from repro.sim.lifetime_traffic import serve_traffic
        from repro.sim.routing import ROUTERS

        for name, value, least in (
            ("messages", messages, 0), ("max_cycles", max_cycles, 0),
            ("qos_classes", qos_classes, 1), ("credits", credits, 0),
        ):
            if value < least:
                raise ParameterError(f"{name} must be >= {least}, got {value}")
        guest = tuple(int(s) for s in c.guest_shape())
        diameter = sum(n // 2 for n in guest)
        if messages * diameter > MAX_QUERY_HOPS:
            raise ParameterError(
                f"messages x guest diameter must be <= MAX_QUERY_HOPS={MAX_QUERY_HOPS}, "
                f"got {messages} x {diameter}"
            )
        if max_cycles > MAX_QUERY_CYCLES:
            raise ParameterError(
                f"max_cycles must be <= MAX_QUERY_CYCLES={MAX_QUERY_CYCLES}, got {max_cycles}"
            )
        if router not in ROUTERS:
            raise ParameterError(f"unknown router {router!r}; options: {ROUTERS}")
        if pattern not in TRAFFIC_PATTERNS:
            raise ParameterError(
                f"unknown pattern {pattern!r}; options: {', '.join(sorted(TRAFFIC_PATTERNS))}"
            )
        rng = spawn_rng(int(seed), "serve-traffic", pattern)
        try:
            traffic = make_traffic(guest, pattern, int(messages), rng)
        except ValueError as exc:  # a pattern the guest's shape has no traffic for
            raise ParameterError(f"pattern {pattern!r}: {exc}") from None
        classes = message_classes(len(traffic), int(qos_classes))
        live_path = bool(live) and self.machine.recovery is not None
        result, lengths = serve_traffic(
            guest, traffic, self.machine if live_path else None, router=router,
            max_cycles=max_cycles, classes=classes, credits=credits,
        )
        stats = latency_stats(result)
        stats["offered"] = stats["total"]
        stats.setdefault("undeliverable", 0)
        stats["cycles"] = int(result.cycles)
        stats["max_queue"] = int(result.max_queue)
        stats["live"] = live_path
        if router != "dimension":
            stats["router"] = router
        if classes is not None:
            from repro.sim.metrics import per_class_stats

            stats["per_class"] = per_class_stats(result, classes)
        # Utilization: busy link-cycles of delivered messages over the
        # guest's directed-link capacity for the run's span.
        hops = int(lengths[result.message_latencies >= 0].sum())
        links = int(np.prod(guest)) * 2 * len(guest)
        stats["link_utilization"] = (
            hops / (links * result.cycles) if result.cycles else 0.0
        )
        self.telemetry.record_traffic(stats)
        return stats

    def health(self) -> dict | None:
        """Lemma-4 healthiness of the live fault set (``bn`` only)."""
        if self.construction_key != "bn":
            return None
        report = self.construction.torus.check_health(self.machine.faults)
        return {
            "healthy": report.healthy,
            "sufficient": report.sufficient,
            "cond1_ok": report.cond1_ok,
            "cond2_ok": report.cond2_ok,
            "cond3_ok": report.cond3_ok,
            "cond3_faulty_ok": report.cond3_faulty_ok,
            "max_brick_faults": report.max_brick_faults,
        }

    def telemetry_snapshot(self, *, health: bool = False) -> dict:
        """One wall-clock-free telemetry frame for this machine."""
        state = {
            "machine": self.name,
            "construction": self.construction_key,
            "alive": self.alive,
            "death_category": self.outcome.category if self.outcome.failed else "",
            "arrivals_survived": self.outcome.lifetime,
            "live_faults": self.num_faults,
            #: faulty nodes still awaiting a repair event
            "repair_backlog": self.num_faults,
            "seq": self.seq,
        }
        if self.model_faults:
            state["model_faults"] = {k: int(v) for k, v in sorted(self.model_faults.items())}
        if health:
            state["health"] = self.health()
        return self.telemetry.snapshot(self.outcome, state)

    def digest(self) -> dict:
        """Canonical machine state for byte-identity comparisons.

        The fields are exactly what the offline lifetime path determines:
        tallies, the live fault set, and (for ``bn``) the maintained band
        placement and embedding.  Serialise with
        :func:`repro.util.serialization.save_json` semantics and compare
        bytes — :func:`offline_digest` produces the matching reference.
        """
        return _digest(self.construction_key, self.machine, self.outcome, self.model_faults)


def offline_digest(
    construction_key: str, params: dict, spec: LifetimeSpec, seed: int
) -> dict:
    """Digest of the state the *offline* lifetime path leaves behind.

    Drives ``spec`` through :func:`~repro.api.lifetime.drive_timeline` on
    a fresh live machine of the construction — the loop a lifetime trial
    runs — and canonicalises the final state in the exact
    :meth:`MachineState.digest` structure.  Ingesting
    :func:`scripted_events` for the same ``(spec, seed)`` into a live
    daemon must produce byte-identical JSON.
    """
    construction = get(construction_key, **params)
    machine = construction.live_machine()
    outcome = drive_timeline(spec, machine, construction.lifetime_rng(seed))
    return _digest(construction_key, machine, outcome)


class MachineActor:
    """Asyncio wrapper: serialised mutation, fan-out queries.

    The lock's waiter queue is FIFO, so events from concurrent
    connections are applied in lock-acquisition order and the machine's
    ``seq`` is a total order over mutations.  Queries never take the lock:
    state methods are synchronous (no await points), hence atomic with
    respect to the event loop.  CPU-bound numpy work therefore runs inline
    on the loop — acceptable at operator scale, and the honest baseline a
    worker-pool offload would be measured against.
    """

    def __init__(self, state: MachineState) -> None:
        import asyncio

        self.state = state
        self._lock = asyncio.Lock()

    async def apply_event(self, kind: str, node: int, model: str | None = None) -> dict:
        async with self._lock:
            return self.state.apply_event(kind, node, model=model)

    async def apply_events(self, events: Sequence[Sequence]) -> list[dict]:
        """Apply a batch atomically — one lock hold, no interleaving, and
        all-or-nothing (:meth:`MachineState.apply_events`)."""
        async with self._lock:
            return self.state.apply_events(events)


def scripted_session(
    *,
    construction: str = "bn",
    params: dict | None = None,
    spec: LifetimeSpec | None = None,
    seed: int = 3,
    queries: Sequence[dict] | None = None,
    health: bool = True,
) -> dict:
    """Replay a canned serve session synchronously; return its payload.

    Creates one machine, ingests the spec's scripted events, answers the
    scripted traffic queries, and closes with a telemetry snapshot and the
    state digest.  Fully deterministic and wall-clock-free — this is the
    computation behind the ``serve-session`` golden artifact, and the
    reference the socket tests hold the wire path to.
    """
    params = dict(params) if params else {"d": 2, "b": 3, "s": 1, "t": 2}
    if spec is None:
        # Exercises faults *and* repairs and leaves the machine alive with
        # a small live fault set (seed-checked), so the golden pins a
        # serving machine rather than a corpse.
        spec = LifetimeSpec(
            timeline="bernoulli", rate=0.0005, repair_rate=0.3, max_steps=40
        )
    if queries is None:
        queries = (
            {"pattern": "uniform", "messages": 40, "seed": 1},
            {"pattern": "transpose", "messages": 32, "seed": 2},
            # The adaptive/QoS service path, pinned by the same golden:
            # detoured routing around the live fault set with two priority
            # classes under credit flow control.
            {"pattern": "uniform", "messages": 40, "seed": 1,
             "router": "adaptive", "qos_classes": 2, "credits": 8},
        )
    state = MachineState("golden", construction, params)
    applied = [
        state.apply_event(kind, node)
        for kind, node in scripted_events(construction, params, spec, seed)
    ]
    query_stats = [
        state.traffic_query(
            q["pattern"], q["messages"], q["seed"], live=q.get("live", True),
            router=q.get("router", "dimension"),
            qos_classes=q.get("qos_classes", 1),
            credits=q.get("credits", 0),
        )
        for q in queries
    ]
    return {
        "format": "repro-serve-session-v1",
        "machine": state.info(),
        "spec": spec.to_dict(),
        "seed": seed,
        "events_applied": len(applied),
        "queries": query_stats,
        "telemetry": state.telemetry_snapshot(health=health),
        "digest": state.digest(),
    }
