"""Tests for the routing simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.engine import simulate
from repro.sim.metrics import latency_stats
from repro.sim.routing import (
    all_pairs_mean_distance,
    dimension_ordered_route,
    route_length,
)
from repro.sim.traffic import TRAFFIC_PATTERNS, make_traffic
from repro.util.rng import spawn_rng


class TestRouting:
    def test_route_endpoints(self):
        path = dimension_ordered_route((5, 5), 0, 24)
        assert path[0] == 0 and path[-1] == 24

    def test_route_steps_are_torus_edges(self):
        shape = (6, 7)
        path = dimension_ordered_route(shape, 3, 40)
        from repro.topology.torus import torus_graph

        g = torus_graph(shape)
        assert g.has_edges(path[:-1], path[1:]).all()

    def test_route_is_minimal(self):
        shape = (8, 8)
        rng = spawn_rng(0)
        for _ in range(30):
            s, d = rng.integers(0, 64, 2)
            path = dimension_ordered_route(shape, int(s), int(d))
            assert len(path) - 1 == route_length(shape, int(s), int(d))

    def test_wraparound_shorter(self):
        # 0 -> 7 on C_8 must go backwards (1 hop), not 7 hops
        assert route_length((8,), 0, 7) == 1

    def test_mean_distance_formula(self):
        # C_4: distances 0,1,2,1 -> mean 1; two axes -> 2
        assert all_pairs_mean_distance((4, 4)) == pytest.approx(2.0)


class TestTraffic:
    @pytest.mark.parametrize("pattern", sorted(TRAFFIC_PATTERNS))
    def test_pairs_in_range_and_exact_count(self, pattern):
        # (8, 8): power-of-two size, so every pattern (incl. bitreverse)
        # is defined; exactly the requested number of rows comes back.
        t = make_traffic((8, 8), pattern, 50, spawn_rng(1, pattern))
        assert t.shape == (50, 2)
        assert (t >= 0).all() and (t < 64).all()

    def test_neighbor_pattern_distance_one(self):
        t = make_traffic((8, 8), "neighbor", 40, spawn_rng(2))
        for s, d in t:
            assert route_length((8, 8), int(s), int(d)) == 1

    def test_unknown_pattern(self):
        with pytest.raises(KeyError):
            make_traffic((4, 4), "nope", 5, spawn_rng(0))


class TestEngine:
    def test_all_delivered(self):
        t = make_traffic((6, 6), "uniform", 40, spawn_rng(3))
        res = simulate((6, 6), t)
        assert res.delivered == res.total

    def test_single_message_latency_is_distance(self):
        t = np.array([[0, 8]])
        res = simulate((4, 4), t)
        assert res.latencies[0] == route_length((4, 4), 0, 8)

    def test_contention_increases_latency(self):
        # many messages into one destination > isolated latencies
        hot = 0
        srcs = np.arange(1, 13)
        t = np.stack([srcs, np.full_like(srcs, hot)], axis=1)
        res = simulate((6, 6), t)
        iso = max(route_length((6, 6), int(s), hot) for s in srcs)
        assert res.latencies.max() > iso

    def test_latency_stats_fields(self):
        t = make_traffic((5, 5), "uniform", 20, spawn_rng(4))
        stats = latency_stats(simulate((5, 5), t))
        assert stats["delivered"] == stats["total"]
        assert stats["p99"] >= stats["p50"]

    def test_arbitration_lowest_id_first(self):
        """Deterministic link arbitration: when several messages contend for
        the same link every cycle, they must drain in ascending message-id
        order — latencies are exactly distance, distance+1, distance+2, ...
        regardless of how the contenders were interleaved internally."""
        shape = (6, 6)
        # Three identical messages: same source, same destination, same route.
        t = np.array([[0, 3], [0, 3], [0, 3]])
        res = simulate(shape, t)
        dist = route_length(shape, 0, 3)
        assert res.latencies.tolist() == [dist, dist + 1, dist + 2]

    def test_simulation_is_deterministic(self):
        t = make_traffic((5, 5), "uniform", 30, spawn_rng(11))
        a = simulate((5, 5), t)
        b = simulate((5, 5), t)
        assert a.latencies.tolist() == b.latencies.tolist()
        assert (a.cycles, a.max_queue, a.delivered) == (b.cycles, b.max_queue, b.delivered)

    def test_timeout_counts_undelivered_and_filters_sentinels(self):
        """When max_cycles cuts the run short, undelivered messages are
        reported via ``timed_out`` and their -1 sentinels never reach
        ``latencies``."""
        t = make_traffic((6, 6), "uniform", 40, spawn_rng(3))
        res = simulate((6, 6), t, max_cycles=2)
        assert res.timed_out == res.total - res.delivered > 0
        assert (res.latencies >= 0).all()
        assert len(res.latencies) == res.delivered
        stats = latency_stats(res)
        assert stats["timed_out"] == res.timed_out

    def test_no_timeout_when_all_delivered(self):
        t = make_traffic((6, 6), "uniform", 30, spawn_rng(8))
        res = simulate((6, 6), t)
        assert res.timed_out == 0
        assert latency_stats(res)["timed_out"] == 0

    def test_recovered_torus_routes_identically(self, bn2_small):
        """Dilation-1 embedding: the recovered torus is exactly an n^d torus,
        so hop counts match the pristine torus."""
        from repro.core.bn import BTorus

        bt = BTorus(bn2_small)
        rec = bt.recover(np.zeros(bn2_small.shape, dtype=bool))
        shape = rec.guest_shape()
        t = make_traffic(shape, "transpose", 30, spawn_rng(5))
        res = simulate(shape, t)
        assert res.delivered == res.total


class TestLifetimeTraffic:
    def test_snapshots_on_evolving_network(self, bn2_small):
        from repro.api.adapters import BnConstruction
        from repro.api.protocol import LifetimeSpec
        from repro.sim.lifetime_traffic import lifetime_traffic_snapshots

        report = lifetime_traffic_snapshots(
            BnConstruction(bn2_small), LifetimeSpec(), seed=0,
            checkpoints=[2, 4, 10_000], messages=60,
        )
        assert report["lifetime"] > 0
        # every requested checkpoint appears; those beyond the lifetime are
        # explicit "reached": False entries, never silent omissions
        arrivals = [s["arrivals"] for s in report["snapshots"]]
        assert arrivals == [2, 4, 10_000]
        by_arrival = {s["arrivals"]: s for s in report["snapshots"]}
        assert not by_arrival[10_000]["reached"]
        assert "stats" not in by_arrival[10_000]
        for snap in report["snapshots"]:
            if not snap["reached"]:
                continue
            # The nontrivial per-checkpoint claim: the aged embedding still
            # verifies end to end against the host graph and fault set.
            assert snap["embedding_verified"]
            assert snap["matches_pristine"]
            assert snap["stats"]["timed_out"] == 0
            assert 0 < snap["num_faults"] <= snap["arrivals"]

    def test_live_traffic_measures_and_matches(self, bn2_small, monkeypatch):
        from repro.api.adapters import BnConstruction
        from repro.api.protocol import LifetimeSpec
        from repro.fastpath import traffic_batch
        from repro.sim.lifetime_traffic import lifetime_traffic_snapshots

        builds = []
        real_routes = traffic_batch.routes_batch

        def counted_routes(*args, **kwargs):
            builds.append(1)
            return real_routes(*args, **kwargs)

        monkeypatch.setattr(traffic_batch, "routes_batch", counted_routes)
        live = lifetime_traffic_snapshots(
            BnConstruction(bn2_small), LifetimeSpec(), seed=0,
            checkpoints=[2], messages=60, live_traffic=True,
        )
        # One route build per checkpoint serves the health check and the
        # simulation.
        assert len(builds) == 1
        assumed = lifetime_traffic_snapshots(
            BnConstruction(bn2_small), LifetimeSpec(), seed=0,
            checkpoints=[2], messages=60,
        )
        snap = live["snapshots"][0]
        assert snap["reached"] and snap["matches_pristine"]
        # every route's mapped host elements checked out healthy...
        assert snap["stats"]["undeliverable"] == 0
        # ...and the re-measured stats equal the assumed (pristine) ones —
        # the dilation-1 claim, verified empirically instead of asserted
        measured = {k: v for k, v in snap["stats"].items() if k != "undeliverable"}
        assert measured == assumed["snapshots"][0]["stats"]

    def test_route_health_mask_detects_broken_embedding(self, bn2_small):
        """The live-traffic measurement is not vacuous: a fault landing on
        a host node the embedding still maps through makes exactly the
        routes over it undeliverable."""
        import numpy as np

        from repro.core.bn import BTorus
        from repro.fastpath.traffic_batch import routes_batch
        from repro.sim.lifetime_traffic import route_health_mask

        bt = BTorus(bn2_small)
        rec = bt.recover(np.zeros(bn2_small.shape, dtype=bool))
        shape = rec.guest_shape()
        traffic = make_traffic(shape, "uniform", 50, spawn_rng(9))
        nodes, _ = routes_batch(shape, traffic)
        fault_flat = np.zeros(bt.bn.codec.size, dtype=bool)
        healthy = route_health_mask(nodes, rec.phi, fault_flat, bt.bn.is_adjacent)
        assert healthy.all()  # pristine machine: everything deliverable
        # Break the host node under one message's source: every message
        # whose mapped route visits it (at least that one) goes dark.
        phi = np.asarray(rec.phi, dtype=np.int64).ravel()
        victim = int(phi[traffic[0, 0]])
        fault_flat[victim] = True
        broken = route_health_mask(nodes, rec.phi, fault_flat, bt.bn.is_adjacent)
        assert not broken[0]
        assert broken.sum() < len(traffic)

