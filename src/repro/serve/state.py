"""Per-machine live state: lifetime ingestion, traffic queries, digests.

:class:`MachineState` is the synchronous core the daemon owns per
simulated machine — any registered construction at any size.  It applies
fault/repair events with exactly the semantics of the offline lifetime
path (:func:`repro.api.lifetime.drive_timeline`): ``bn`` machines run the
genuinely incremental :class:`~repro.core.online.OnlineRecovery`
pipeline, every other construction the generic full-recompute handlers.
The contract is checkable: :meth:`MachineState.digest` canonicalises the
machine state, and :func:`offline_digest` produces the same structure by
driving the same :class:`~repro.api.protocol.LifetimeSpec` through the
*offline* drivers — ingesting :func:`scripted_events` online must yield a
byte-identical digest (asserted in tests/test_serve.py and gated by
bench_e20).

Traffic queries route through the **live** machine: on ``bn`` every
message's e-cube route is mapped through the current embedding and
checked against the live fault set
(:func:`repro.sim.lifetime_traffic.route_health_mask`), broken-path
messages are counted ``undeliverable``, and the survivors run on the
vectorized kernel (:func:`repro.fastpath.traffic_batch.simulate_batch`).
Constructions without the bn incremental machinery serve their pristine
guest torus (their recovery re-embeds it whole after every event).

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

from repro.api.lifetime import timeline_for
from repro.api.protocol import LifetimeSpec
from repro.api.registry import get
from repro.errors import ReconstructionError
from repro.faults.registry import fault_model_names
from repro.serve.telemetry import MachineTelemetry
from repro.sim.metrics import latency_stats
from repro.sim.traffic import make_traffic
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


def _lifetime_rng(construction, seed: int) -> np.random.Generator:
    """The exact RNG stream the construction's offline lifetime path uses,
    so online ingestion of :func:`scripted_events` replays it 1:1."""
    if construction.name == "bn":
        return spawn_rng(seed, "lifetime", construction.params.n, construction.params.d)
    return spawn_rng(seed, f"{construction.name}-lifetime")


def scripted_events(
    construction_key: str, params: dict, spec: LifetimeSpec, seed: int
) -> list[tuple[str, int]]:
    """The ``(kind, flat_node)`` event list a :class:`LifetimeSpec` trial
    would feed the machine — the same timeline, RNG stream and
    ``max_steps`` cutoff as :func:`repro.api.lifetime.drive_timeline`, so
    ingesting this list online reproduces the offline trial exactly."""
    construction = get(construction_key, **params)
    shape = construction._lifetime_shape()
    rng = _lifetime_rng(construction, seed)
    events: list[tuple[str, int]] = []
    for ev in timeline_for(spec).events(shape, rng):
        if spec.max_steps is not None and ev.step >= spec.max_steps:
            break
        events.append((ev.kind, ev.node))
    return events


@dataclass
class MachineState:
    """The live lifetime + traffic state of one simulated machine."""

    name: str
    construction_key: str
    params: dict
    construction: object = field(init=False)
    shape: tuple = field(init=False)
    alive: bool = field(init=False, default=True)
    death_category: str = field(init=False, default="")
    #: Fault arrivals survived (the offline LifetimeOutcome.lifetime).
    lifetime: int = field(init=False, default=0)
    masked: int = field(init=False, default=0)
    replaced: int = field(init=False, default=0)
    repaired: int = field(init=False, default=0)
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
        self.shape = tuple(int(s) for s in self.construction._lifetime_shape())
        if self.construction_key == "bn":
            from repro.core.online import OnlineRecovery

            self._online = OnlineRecovery(
                self.construction.torus,
                incremental=True,
                strategy=self.construction.strategy,
            )
            self._faults = self._online.faults
        else:
            self._online = None
            self._faults = np.zeros(self.shape, dtype=bool)
        self._flat = self._faults.ravel()

    # -- introspection -------------------------------------------------------

    @property
    def num_faults(self) -> int:
        return int(self._faults.sum())

    def info(self) -> dict:
        c = self.construction
        guest = c.guest_shape() if hasattr(c, "guest_shape") else None
        return {
            "name": self.name,
            "construction": self.construction_key,
            "params": dict(self.params),
            "num_nodes": int(c.num_nodes),
            "degree": int(c.degree),
            "shape": list(self.shape),
            "guest_shape": None if guest is None else [int(s) for s in guest],
            "incremental": self._online is not None,
        }

    # -- mutation (must be called under the actor's lock) --------------------

    def apply_event(self, kind: str, node: int, model: str | None = None) -> dict:
        """Apply one fault/repair event; returns the applied record.

        ``action`` is ``"masked"`` / ``"replaced"`` / ``"repaired"`` for
        applied events, ``"failed"`` for the arrival that killed the
        machine, ``"dead"`` for events acknowledged-but-ignored after
        death — exactly the offline driver's semantics, where the trial
        stops consuming the timeline at the first unrecoverable arrival.

        ``model`` optionally tags a fault event with the registered
        :mod:`repro.faults` model that produced it (e.g. an operator
        relaying a ``ByzantineNodeFaults`` sample); applied fault
        arrivals are tallied per tag in :attr:`model_faults` and the
        tally is surfaced in :meth:`digest` / :meth:`telemetry_snapshot`
        only when non-empty.
        """
        node = int(node)
        if not (0 <= node < self._flat.size):
            raise ValueError(f"node {node} out of range [0, {self._flat.size})")
        if kind not in ("fault", "repair"):
            raise ValueError(f"unknown event kind {kind!r} (fault | repair)")
        if model is not None:
            names = fault_model_names()
            if model not in names:
                raise ValueError(
                    f"unknown fault model {model!r}; options: {', '.join(names)}"
                )
        if not self.alive:
            self.telemetry.record_event(kind, "dead")
            return {"seq": self.seq, "action": "dead", "num_faults": self.num_faults,
                    "alive": False}
        if kind == "repair":
            action = self._apply_repair(node)
            self.repaired += 1
        else:
            if model is not None:
                self.model_faults[model] = self.model_faults.get(model, 0) + 1
            try:
                action = self._apply_fault(node)
            except ReconstructionError as exc:
                self.alive = False
                self.death_category = exc.category
                self.seq += 1
                self.telemetry.record_event(kind, "failed")
                return {"seq": self.seq, "action": "failed",
                        "category": exc.category,
                        "num_faults": self.num_faults, "alive": False}
            if action == "masked":
                self.masked += 1
            else:
                self.replaced += 1
            self.lifetime += 1
        self.seq += 1
        self.telemetry.record_event(kind, action)
        return {"seq": self.seq, "action": action, "num_faults": self.num_faults,
                "alive": True}

    def _apply_fault(self, node: int) -> str:
        if self._online is not None:
            return self._online.add_fault(np.unravel_index(node, self.shape)).action
        # Generic full-recompute handlers — the same semantics as
        # repro.api.lifetime.run_timeline's on_fault.
        if self._flat[node]:
            return "masked"
        self._flat[node] = True
        self.construction._lifetime_recover(self._faults)  # raises on death
        return "replaced"

    def _apply_repair(self, node: int) -> str:
        if self._online is not None:
            self._online.remove_fault(np.unravel_index(node, self.shape))
        else:
            self._flat[node] = False
        return "repaired"

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
        messages crossing a broken host element count ``undeliverable``
        and the rest are simulated on the vectorized kernel.  With
        ``router="adaptive"`` broken e-cube routes are instead detoured
        around the live fault set, so only disconnected endpoints stay
        undeliverable.  ``qos_classes``/``credits`` enable priority
        arbitration and credit flow control exactly as in
        :class:`~repro.api.protocol.TrafficSpec`.  Constructions without
        the bn incremental machinery serve their pristine guest torus
        (recovery re-embeds it whole).
        """
        c = self.construction
        if not hasattr(c, "guest_shape"):
            raise ValueError(
                f"construction {self.construction_key!r} has no torus guest "
                "(no traffic capability)"
            )
        if messages < 0:
            raise ValueError(f"messages must be >= 0, got {messages}")
        if max_cycles < 0:
            raise ValueError(f"max_cycles must be >= 0, got {max_cycles}")
        from repro.api.traffic import message_classes
        from repro.fastpath.traffic_batch import (
            build_routes_batch,
            routes_batch,
            simulate_batch,
        )
        from repro.sim.routing import ROUTERS

        if router not in ROUTERS:
            raise ValueError(f"unknown router {router!r}; options: {ROUTERS}")
        guest = tuple(int(s) for s in c.guest_shape())
        rng = spawn_rng(int(seed), "serve-traffic", pattern)
        traffic = make_traffic(guest, pattern, int(messages), rng)
        offered = len(traffic)
        # Classes are assigned by original message id, before any
        # deliverability filtering, so a message keeps its class no matter
        # which router or fault set it meets.
        classes = message_classes(len(traffic), int(qos_classes))
        live_path = bool(live) and self._online is not None
        # Routes are built once per query and shared by the health check,
        # the simulation and the utilisation sum below.
        if live_path and router == "adaptive":
            from repro.sim.routing import embedded_predicates

            g_ok, ge_ok = embedded_predicates(
                self._online.recovery.phi, self._flat, c.torus.bn.is_adjacent
            )
            nodes, lengths, routable = build_routes_batch(
                guest, traffic, router="adaptive", node_ok=g_ok, edge_ok=ge_ok
            )
            undeliverable = int((~routable).sum())
        else:
            nodes, lengths = routes_batch(guest, traffic)
            routable = np.ones(len(traffic), dtype=bool)
            undeliverable = 0
            if live_path:
                from repro.sim.lifetime_traffic import route_health_mask

                # Only messages whose mapped route is healthy are simulated.
                deliverable = route_health_mask(
                    nodes, self._online.recovery.phi, self._flat,
                    c.torus.bn.is_adjacent,
                )
                undeliverable = int((~deliverable).sum())
                traffic, nodes, lengths, routable = (
                    traffic[deliverable], nodes[deliverable],
                    lengths[deliverable], routable[deliverable],
                )
                if classes is not None:
                    classes = classes[deliverable]
        result = simulate_batch(
            guest, traffic, max_cycles=max_cycles, classes=classes,
            credits=credits, routes=(nodes, lengths, routable),
        )
        stats = latency_stats(result)
        stats["offered"] = offered
        stats["undeliverable"] = undeliverable
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
        report = self.construction.torus.check_health(self._faults)
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
            "death_category": self.death_category,
            "arrivals_survived": self.lifetime,
            "live_faults": self.num_faults,
            #: faulty nodes still awaiting a repair event
            "repair_backlog": self.num_faults,
            "seq": self.seq,
        }
        if self.model_faults:
            state["model_faults"] = {k: int(v) for k, v in sorted(self.model_faults.items())}
        if health:
            state["health"] = self.health()
        return self.telemetry.snapshot(state)

    def digest(self) -> dict:
        """Canonical machine state for byte-identity comparisons.

        The fields are exactly what the offline lifetime path determines:
        tallies, the live fault set, and (for ``bn``) the maintained band
        placement and embedding.  Serialise with
        :func:`repro.util.serialization.save_json` semantics and compare
        bytes — :func:`offline_digest` produces the matching reference.
        """
        out = {
            "format": DIGEST_FORMAT,
            "construction": self.construction_key,
            "alive": self.alive,
            "death_category": self.death_category,
            "lifetime": self.lifetime,
            "masked": self.masked,
            "replaced": self.replaced,
            "repaired": self.repaired,
            "num_faults": self.num_faults,
            "fault_nodes": [int(i) for i in np.flatnonzero(self._flat)],
        }
        if self.model_faults:
            # Only when model-tagged events were ingested: untagged sessions
            # (and offline_digest, whose driver has no tags) omit the key, so
            # online/offline byte-identity is preserved.
            out["model_faults"] = {k: int(v) for k, v in sorted(self.model_faults.items())}
        if self._online is not None and self._online.recovery is not None:
            rec = self._online.recovery
            out["bottoms"] = [int(b) for b in np.asarray(rec.bands.bottoms).ravel()]
            out["phi_crc32"] = int(
                zlib.crc32(np.ascontiguousarray(rec.phi, dtype=np.int64).tobytes())
            )
        return out


def offline_digest(
    construction_key: str, params: dict, spec: LifetimeSpec, seed: int
) -> dict:
    """Digest of the state the *offline* lifetime path leaves behind.

    Drives ``spec`` through the construction's own offline driver — the
    incremental :class:`~repro.core.online.OnlineRecovery` pipeline for
    ``bn`` (:func:`repro.core.online.run_online_timeline`), the shared
    :func:`~repro.api.lifetime.drive_timeline` loop with the generic
    full-recompute handlers elsewhere — and canonicalises the final state
    in the exact :meth:`MachineState.digest` structure.  Ingesting
    :func:`scripted_events` for the same ``(spec, seed)`` into a live
    daemon must produce byte-identical JSON.
    """
    construction = get(construction_key, **params)
    rng = _lifetime_rng(construction, seed)
    if construction_key == "bn":
        from repro.core.online import OnlineRecovery, run_online_timeline

        online = OnlineRecovery(
            construction.torus, incremental=True, strategy=construction.strategy
        )
        outcome = run_online_timeline(online, spec, rng)
        faults_flat = online.faults.ravel()
        recovery = online.recovery
    else:
        from repro.api.lifetime import drive_timeline

        shape = tuple(int(s) for s in construction._lifetime_shape())
        faults = np.zeros(shape, dtype=bool)
        faults_flat = faults.ravel()

        def on_fault(node: int) -> str:
            if faults_flat[node]:
                return "masked"
            faults_flat[node] = True
            construction._lifetime_recover(faults)
            return "replaced"

        def on_repair(node: int) -> None:
            faults_flat[node] = False

        outcome = drive_timeline(spec, shape, rng, on_fault=on_fault, on_repair=on_repair)
        recovery = None
    out = {
        "format": DIGEST_FORMAT,
        "construction": construction_key,
        "alive": not outcome.failed,
        "death_category": outcome.category if outcome.failed else "",
        "lifetime": outcome.lifetime,
        "masked": outcome.masked,
        "replaced": outcome.replaced,
        "repaired": outcome.repaired,
        "num_faults": int(faults_flat.sum()),
        "fault_nodes": [int(i) for i in np.flatnonzero(faults_flat)],
    }
    if recovery is not None:
        out["bottoms"] = [int(b) for b in np.asarray(recovery.bands.bottoms).ravel()]
        out["phi_crc32"] = int(
            zlib.crc32(np.ascontiguousarray(recovery.phi, dtype=np.int64).tobytes())
        )
    return out


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
        """Apply a batch atomically — one lock hold, no interleaving.

        Each event is ``(kind, node)`` or ``(kind, node, model)``; the
        optional third element is a fault-model tag (see
        :meth:`MachineState.apply_event`).
        """
        async with self._lock:
            out = []
            for e in events:
                model = None if len(e) < 3 or e[2] is None else str(e[2])
                out.append(self.state.apply_event(str(e[0]), int(e[1]), model=model))
            return out


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
