"""Fault-adaptive routing, QoS classes and credit flow control (ISSUE 7).

Four layers:

* router properties — hypothesis over shapes/workloads asserting the
  fault-free identity (adaptive returns the dimension-ordered route
  byte for byte) and, under random fault masks, the delivery contract:
  the adaptive router returns a healthy minimal path exactly when the
  endpoints are connected on the surviving subgraph (checked against
  :func:`repro.testkit.oracles.adaptive_router_oracle`'s independent
  BFS);
* engine semantics — the headline claim (adaptive reports zero
  ``undeliverable`` wherever dimension-order reports some, on every
  connected fault set), default-knob equivalence with the historical
  engine, priority arbitration and credit admission on hand-built
  deterministic scenarios;
* backend identity — scalar vs vectorized engines field for field under
  router/class/credit knobs (hypothesis), and the pillar-level
  ``trial_backend_oracle`` over QoS-bearing :class:`TrafficSpec` draws;
* spec plumbing — TrafficSpec validation/round-trip, the
  default-omission rule that keeps pre-QoS result JSON byte-stable, and
  per-class stats accounting.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.protocol import TrafficSpec
from repro.api.registry import get
from repro.api.traffic import message_classes, run_traffic_trial
from repro.fastpath.traffic_batch import (
    build_routes_batch,
    link_ids,
    simulate_batch,
)
from repro.sim.engine import MSG_DELIVERED, MSG_UNDELIVERABLE, simulate
from repro.sim.metrics import per_class_stats
from repro.sim.routing import (
    ROUTERS,
    ByzantinePlan,
    adaptive_route,
    dimension_ordered_route,
    embedded_predicates,
    fault_predicates,
    route_is_healthy,
)
from repro.sim.traffic import make_traffic
from repro.sim.workload import make_open_loop
from repro.testkit.oracles import adaptive_router_oracle, compare_sim_results
from repro.testkit.strategies import patterns_for, shapes, traffic_specs
from repro.util.rng import spawn_rng


def _random_faults(shape, seed, density):
    size = int(np.prod(shape))
    return spawn_rng(seed, "routing-qos-faults", str(shape)).random(size) < density


# ---------------------------------------------------------------------------
# Router properties
# ---------------------------------------------------------------------------


class TestAdaptiveRouter:
    @settings(max_examples=60, deadline=None)
    @given(shape=shapes(), seed=st.integers(0, 500), n=st.integers(1, 20))
    def test_fault_free_identity(self, shape, seed, n):
        """With no faults the adaptive router IS the dimension-ordered
        router — same nodes, same order, for every message."""
        traffic = make_traffic(shape, "uniform", n, spawn_rng(seed, "ffi"))
        for src, dst in traffic:
            a = adaptive_route(shape, int(src), int(dst))
            d = dimension_ordered_route(shape, int(src), int(dst))
            assert np.array_equal(a, d)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=shapes(),
        seed=st.integers(0, 200),
        density=st.sampled_from((0.05, 0.15, 0.3)),
    )
    def test_delivery_contract_vs_bfs(self, shape, seed, density):
        """Adaptive routes exist iff endpoints are connected on the healthy
        subgraph, are themselves healthy, and are minimal — per the
        independent-BFS oracle."""
        faults = _random_faults(shape, seed, density)
        traffic = make_traffic(shape, "uniform", 15, spawn_rng(seed, "dc"))
        adaptive_router_oracle(shape, traffic, faults).raise_on_mismatch()

    def test_route_is_healthy_and_detour(self):
        shape = (6, 6)
        faults = np.zeros(36, dtype=bool)
        node_ok, edge_ok = fault_predicates(faults)
        dim = dimension_ordered_route(shape, 0, 3)
        assert route_is_healthy(dim, node_ok, edge_ok)
        faults[dim[1]] = True  # break the e-cube path mid-route
        assert not route_is_healthy(dim, node_ok, edge_ok)
        detour = adaptive_route(shape, 0, 3, node_ok=node_ok, edge_ok=edge_ok)
        assert detour is not None and route_is_healthy(detour, node_ok, edge_ok)

    def test_faulty_endpoints_refused(self):
        shape = (4, 4)
        faults = np.zeros(16, dtype=bool)
        faults[5] = True
        node_ok, edge_ok = fault_predicates(faults)
        assert adaptive_route(shape, 5, 9, node_ok=node_ok, edge_ok=edge_ok) is None
        assert adaptive_route(shape, 9, 5, node_ok=node_ok, edge_ok=edge_ok) is None
        # A faulty node is unreachable even from itself.
        assert adaptive_route(shape, 5, 5, node_ok=node_ok, edge_ok=edge_ok) is None

    def test_unknown_router_rejected_everywhere(self):
        with pytest.raises(ValueError, match="unknown router"):
            simulate((4, 4), [(0, 3)], router="wormhole")
        with pytest.raises(ValueError, match="unknown router"):
            simulate_batch((4, 4), [(0, 3)], router="wormhole")
        assert set(ROUTERS) == {"dimension", "adaptive"}


# ---------------------------------------------------------------------------
# Engine semantics
# ---------------------------------------------------------------------------


class TestEngineSemantics:
    @settings(max_examples=30, deadline=None)
    @given(
        shape=shapes(),
        seed=st.integers(0, 200),
        density=st.sampled_from((0.05, 0.15)),
    )
    def test_adaptive_delivers_every_connected_message(self, shape, seed, density):
        """The headline claim: wherever dimension-order refuses messages,
        the adaptive router refuses only genuinely disconnected pairs —
        and the rest all arrive (below saturation there is no timeout)."""
        faults = _random_faults(shape, seed, density)
        node_ok, edge_ok = fault_predicates(faults)
        traffic = make_traffic(shape, "uniform", 30, spawn_rng(seed, "conn"))
        dim = simulate(shape, traffic, node_ok=node_ok, edge_ok=edge_ok)
        ada = simulate(
            shape, traffic, router="adaptive", node_ok=node_ok, edge_ok=edge_ok
        )
        # Count the genuinely disconnected pairs with the router itself
        # (its iff-connected contract is proven against BFS above).
        disconnected = sum(
            1
            for src, dst in traffic
            if adaptive_route(shape, int(src), int(dst),
                              node_ok=node_ok, edge_ok=edge_ok) is None
        )
        assert ada.undeliverable == disconnected <= dim.undeliverable
        assert ada.delivered == len(traffic) - disconnected
        assert ada.timed_out == 0
        assert dim.delivered + dim.timed_out + dim.undeliverable == len(traffic)

    def test_default_knobs_reproduce_historical_engine(self):
        shape = (4, 4)
        traffic = make_traffic(shape, "transpose", 24, spawn_rng(3, "hist"))
        old = simulate(shape, traffic)
        new = simulate(
            shape, traffic, router="dimension",
            classes=np.zeros(len(traffic), dtype=np.int64), credits=0,
        )
        assert not compare_sim_results(old, new)
        assert old.undeliverable == 0

    def test_priority_class_wins_contended_link(self):
        """Two messages, same first link, one per class: the class-0
        message advances first even though it has the higher id."""
        shape = (6,)
        traffic = np.array([[0, 2], [0, 3]])  # both route forward via 0->1
        classes = np.array([1, 0])  # message 1 is the high-priority one
        r = simulate(shape, traffic, classes=classes)
        # id order would deliver message 0 first (latency 2 vs 3+1); class
        # order must flip the winner: message 1 (3 hops) is never blocked,
        # message 0 (2 hops) loses cycle 0 and finishes one cycle late.
        assert list(r.message_latencies) == [3, 3]
        flipped = simulate(shape, traffic, classes=np.array([0, 1]))
        assert list(flipped.message_latencies) == [2, 4]

    def test_credits_gate_admission(self):
        """credits=1: one message in flight per class; the next enters only
        after a delivery frees its credit."""
        shape = (6,)
        traffic = np.array([[0, 1], [2, 3], [4, 5]])  # disjoint links
        free = simulate(shape, traffic)
        assert list(free.message_latencies) == [1, 1, 1]
        gated = simulate(shape, traffic, credits=1)
        # Admitted in id order, one at a time; latency counts from the
        # scheduled inject cycle, so queueing at the source is visible.
        assert list(gated.message_latencies) == [1, 2, 3]
        assert not compare_sim_results(gated, simulate_batch(shape, traffic, credits=1))

    def test_generous_credits_equal_unlimited(self):
        shape = (4, 4)
        traffic = make_traffic(shape, "uniform", 40, spawn_rng(9, "gen"))
        classes = message_classes(len(traffic), 3)
        a = simulate(shape, traffic, classes=classes, credits=0)
        b = simulate(shape, traffic, classes=classes, credits=len(traffic))
        assert not compare_sim_results(a, b)

    def test_bad_knobs_rejected(self):
        shape = (4, 4)
        t = [(0, 3)]
        with pytest.raises(ValueError, match="classes"):
            simulate(shape, t, classes=np.zeros(5, dtype=np.int64))
        with pytest.raises(ValueError, match="credits"):
            simulate(shape, t, credits=-1)
        with pytest.raises(ValueError, match="classes"):
            simulate_batch(shape, t, classes=np.zeros(5, dtype=np.int64))
        with pytest.raises(ValueError, match="credits"):
            simulate_batch(shape, t, credits=-1)


# ---------------------------------------------------------------------------
# Backend identity under the new knobs
# ---------------------------------------------------------------------------


class TestBackendIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=shapes(),
        seed=st.integers(0, 300),
        router=st.sampled_from(ROUTERS),
        density=st.sampled_from((0.0, 0.1, 0.25)),
        qos=st.sampled_from((1, 2, 3)),
        credits=st.sampled_from((0, 1, 5)),
        max_cycles=st.sampled_from((4, 10_000)),
    )
    def test_engines_identical_under_all_knobs(
        self, shape, seed, router, density, qos, credits, max_cycles
    ):
        faults = _random_faults(shape, seed, density)
        node_ok, edge_ok = fault_predicates(faults) if density else (None, None)
        traffic = make_traffic(shape, "uniform", 25, spawn_rng(seed, "ident"))
        classes = message_classes(len(traffic), qos)
        kwargs = dict(
            router=router, node_ok=node_ok, edge_ok=edge_ok,
            classes=classes, credits=credits, max_cycles=max_cycles,
        )
        a = simulate(shape, traffic, **kwargs)
        b = simulate_batch(shape, traffic, **kwargs)
        assert not compare_sim_results(a, b), "\n".join(
            m.describe() for m in compare_sim_results(a, b)
        )
        assert a.undeliverable == b.undeliverable

    @settings(max_examples=15, deadline=None)
    @given(spec=traffic_specs(with_qos=True, patterns=("uniform", "hotspot")))
    def test_trial_backend_oracle_with_qos_specs(self, spec):
        """The pillar-level scalar-vs-batch contract holds for every
        QoS-bearing TrafficSpec the strategy can draw."""
        from repro.testkit.oracles import trial_backend_oracle

        bn = get("bn", d=2, b=3, s=1, t=2)
        trial_backend_oracle(bn, spec, range(2)).raise_on_mismatch()

    @pytest.mark.parametrize("router", ROUTERS)
    def test_self_addressed_message_on_a_faulty_node_is_refused(self, router):
        """A faulty node cannot reach even itself: both engines refuse its
        self-addressed message (no hop to check, only the source)."""
        faults = np.zeros(16, dtype=bool)
        faults[5] = True
        node_ok, edge_ok = fault_predicates(faults)
        traffic = np.array([[5, 5], [0, 1]])
        kwargs = dict(router=router, node_ok=node_ok, edge_ok=edge_ok)
        a = simulate((4, 4), traffic, **kwargs)
        b = simulate_batch((4, 4), traffic, **kwargs)
        assert not compare_sim_results(a, b)
        assert b.undeliverable == 1 and b.delivered == 1
        assert b.message_status.tolist() == [MSG_UNDELIVERABLE, MSG_DELIVERED]

    @pytest.mark.parametrize("router", ROUTERS)
    def test_self_addressed_message_on_a_faulty_host_is_refused_live(
        self, bn2_small, router
    ):
        """The same through ``serve_traffic`` on a live bn machine: a guest
        node whose host image is faulty cannot reach itself."""
        from repro.core.bn import BTorus
        from repro.core.online import OnlineRecovery
        from repro.sim.lifetime_traffic import serve_traffic

        machine = OnlineRecovery(BTorus(bn2_small))
        shape = tuple(int(n) for n in machine.recovery.guest_shape())
        phi = np.asarray(machine.recovery.phi, dtype=np.int64).ravel()
        machine.faults.ravel()[phi[5]] = True
        traffic = np.array([[5, 5], [0, 1]])
        live, lengths = serve_traffic(shape, traffic, machine, router=router)
        node_ok, edge_ok = embedded_predicates(
            phi, machine.faults.ravel(), machine.bt.bn.is_adjacent
        )
        scalar = simulate(shape, traffic, router=router, node_ok=node_ok, edge_ok=edge_ok)
        assert not compare_sim_results(scalar, live)
        assert live.message_status.tolist() == [MSG_UNDELIVERABLE, MSG_DELIVERED]
        assert lengths.tolist() == [0, 1]

    @pytest.mark.parametrize("credits", [0, 1])
    def test_fast_forward_with_classes_byzantine_plan_and_detours(
        self, kernel_log, credits
    ):
        """Three QoS classes, a Byzantine plan and adaptive detours around
        crash faults in one sparse open-loop run: the kernel fast-forwards
        the cycles between contended ones and still matches the scalar
        engine field for field, with or without credit-gated admission."""
        shape = (8, 8)
        faults = spawn_rng(1, "ff-crash").random(64) < 0.1
        traitors = spawn_rng(1, "ff-traitors").random(64) < 0.15
        node_ok, edge_ok = fault_predicates(faults)
        traffic, inject = make_open_loop(shape, "uniform", 0.02, 60, spawn_rng(1, "ff-t"))
        kwargs = dict(
            inject=inject, router="adaptive", node_ok=node_ok, edge_ok=edge_ok,
            classes=message_classes(len(traffic), 3), credits=credits,
        )

        def plan():
            return ByzantinePlan(traitors, (0.5, 0.25, 0.25), spawn_rng(1, "ff-plan"))

        batch = simulate_batch(shape, traffic, byzantine=plan(), **kwargs)
        assert not compare_sim_results(simulate(shape, traffic, byzantine=plan(), **kwargs),
                                       batch)
        skipped = sum(span for _, span in kernel_log["windows"])
        assert skipped > batch.cycles // 4
        assert batch.misrouted and batch.dropped and batch.corrupted
        ecube = simulate_batch(shape, traffic, inject=inject, node_ok=node_ok, edge_ok=edge_ok)
        detoured = (ecube.message_status == MSG_UNDELIVERABLE) & (
            batch.message_status != MSG_UNDELIVERABLE
        )
        assert detoured.any()

    def test_batch_route_builder_matches_scalar_routes(self):
        """Each ragged row is the link ids of the scalar adaptive route —
        the e-cube route where it is healthy, else the appended detour —
        and a message with no healthy route is refused with length 0."""
        shape = (6, 6)
        faults = _random_faults(shape, 21, 0.15)
        node_ok, edge_ok = fault_predicates(faults)
        traffic = make_traffic(shape, "uniform", 40, spawn_rng(21, "routes"))
        ids, offsets, lengths, routable = build_routes_batch(
            shape, traffic, router="adaptive", node_ok=node_ok, edge_ok=edge_ok
        )
        detoured = 0
        for i, (src, dst) in enumerate(traffic):
            r = adaptive_route(shape, int(src), int(dst),
                               node_ok=node_ok, edge_ok=edge_ok)
            if r is None:
                assert not routable[i] and lengths[i] == 0
            else:
                assert routable[i] and lengths[i] == len(r) - 1
                row = ids[offsets[i] : offsets[i] + lengths[i]]
                assert row.tolist() == link_ids(shape, r[None])[0].tolist()
                detoured += not np.array_equal(r, dimension_ordered_route(shape, src, dst))
        assert detoured and not routable.all()


# ---------------------------------------------------------------------------
# Spec plumbing and per-class stats
# ---------------------------------------------------------------------------


class TestSpecPlumbing:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TrafficSpec(router="wormhole")
        with pytest.raises(ValueError):
            TrafficSpec(qos_classes=0)
        with pytest.raises(ValueError):
            TrafficSpec(qos_classes=4)
        with pytest.raises(ValueError):
            TrafficSpec(credits=-1)

    def test_default_specs_serialize_as_before(self):
        """Specs at default knobs must omit the new keys — the rule that
        keeps every pre-QoS golden artifact byte-stable."""
        d = TrafficSpec(pattern="uniform", messages=10).to_dict()
        assert "router" not in d and "qos_classes" not in d and "credits" not in d
        full = TrafficSpec(
            pattern="uniform", messages=10, router="adaptive",
            qos_classes=2, credits=8,
        ).to_dict()
        assert (full["router"], full["qos_classes"], full["credits"]) == (
            "adaptive", 2, 8,
        )
        assert TrafficSpec.from_dict(full) == TrafficSpec.from_dict(dict(full))

    @settings(max_examples=30, deadline=None)
    @given(spec=traffic_specs())
    def test_spec_round_trips(self, spec):
        assert TrafficSpec.from_dict(spec.to_dict()) == spec
        label = spec.label()
        if spec.router != "dimension":
            assert "adaptive" in label
        if spec.qos_classes > 1:
            assert f"qos={spec.qos_classes}" in label

    def test_outcome_carries_per_class_rows(self):
        spec = TrafficSpec(pattern="uniform", messages=30, qos_classes=3)
        out = run_traffic_trial((4, 4), spec, seed=1)
        assert out.per_class is not None
        assert [row["qos_class"] for row in out.per_class] == [0, 1, 2]
        assert sum(row["offered"] for row in out.per_class) == out.offered
        assert sum(row["delivered"] for row in out.per_class) == out.delivered
        d = out.to_dict()
        assert d["per_class"] == out.per_class
        # Single-class outcomes serialize exactly as before.
        plain = run_traffic_trial(
            (4, 4), TrafficSpec(pattern="uniform", messages=30), seed=1
        ).to_dict()
        assert "per_class" not in plain and "undeliverable" not in plain

    def test_same_workload_across_routers(self):
        """The RNG stream keys only on workload-shaping fields, so the
        router/QoS knobs compare service on *identical* message sets."""
        from repro.api.traffic import traffic_rng

        base = dict(pattern="uniform", messages=40)
        r1 = traffic_rng(TrafficSpec(**base), 7)
        r2 = traffic_rng(
            TrafficSpec(**base, router="adaptive", qos_classes=3, credits=4), 7
        )
        assert r1.integers(1 << 30) == r2.integers(1 << 30)

    def test_per_class_stats_shape_guard(self):
        r = simulate((4,), [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="classes shape"):
            per_class_stats(r, np.zeros(5, dtype=np.int64))

    @settings(max_examples=10, deadline=None)
    @given(shape=shapes(), seed=st.integers(0, 50))
    def test_patterns_guarded(self, shape, seed):
        # QoS knobs must not break any valid pattern on any pooled shape.
        for pattern in patterns_for(shape):
            spec = TrafficSpec(pattern=pattern, messages=8, qos_classes=2, credits=3)
            out = run_traffic_trial(shape, spec, seed)
            assert out.offered == 8


# ---------------------------------------------------------------------------
# Per-class conservation under route-breaking fault masks
# ---------------------------------------------------------------------------


class TestPerClassConservation:
    """Every per-class row obeys ``offered == delivered + timed_out +
    undeliverable + dropped`` with each loss bucket attributed by the
    engine's own classification (never inferred from the ``-1`` latency
    sentinel), and the rows are field-identical scalar vs batch."""

    @settings(max_examples=25, deadline=None)
    @given(
        shape=shapes(),
        seed=st.integers(0, 300),
        density=st.sampled_from((0.15, 0.3)),
        qos=st.sampled_from((2, 3)),
        credits=st.sampled_from((0, 3)),
        max_cycles=st.sampled_from((5, 10_000)),
    )
    def test_conservation_and_backend_identity_under_adaptive(
        self, shape, seed, density, qos, credits, max_cycles
    ):
        faults = _random_faults(shape, seed, density)
        node_ok, edge_ok = fault_predicates(faults)
        traffic = make_traffic(shape, "uniform", 30, spawn_rng(seed, "cons"))
        classes = message_classes(len(traffic), qos)
        kwargs = dict(
            router="adaptive", node_ok=node_ok, edge_ok=edge_ok,
            classes=classes, credits=credits, max_cycles=max_cycles,
        )
        a = simulate(shape, traffic, **kwargs)
        b = simulate_batch(shape, traffic, **kwargs)
        rows_a = per_class_stats(a, classes)
        rows_b = per_class_stats(b, classes)
        # Canonical-JSON equality: field-identical rows, NaN-tolerant for
        # classes that delivered nothing (NaN != NaN under dict equality).
        assert json.dumps(rows_a, sort_keys=True) == json.dumps(rows_b, sort_keys=True)
        for row in rows_a:
            assert row["offered"] == (
                row["delivered"] + row["timed_out"]
                + row.get("undeliverable", 0) + row.get("dropped", 0)
            ), row
        # The rows tile the aggregate counters exactly.
        assert sum(r["timed_out"] for r in rows_a) == a.timed_out
        assert sum(r.get("undeliverable", 0) for r in rows_a) == a.undeliverable
        assert sum(r.get("dropped", 0) for r in rows_a) == a.dropped

    def test_undeliverable_never_counted_as_timed_out(self):
        # Isolate node 5 on a (4, 4) torus: messages touching it are
        # undeliverable, and must not leak into the timeout bucket even
        # though both carry the -1 latency sentinel.
        shape = (4, 4)
        faults = np.zeros(16, dtype=bool)
        faults[5] = True
        node_ok, edge_ok = fault_predicates(faults)
        traffic = np.array([[5, 9], [0, 5], [1, 2], [2, 1]])
        classes = np.array([0, 0, 1, 1])
        r = simulate(shape, traffic, router="adaptive",
                     node_ok=node_ok, edge_ok=edge_ok, classes=classes)
        rows = per_class_stats(r, classes)
        assert rows[0]["undeliverable"] == 2 and rows[0]["timed_out"] == 0
        assert rows[0]["delivered"] == 0
        assert rows[1]["delivered"] == 2
        assert "undeliverable" not in rows[1] and "dropped" not in rows[1]
