"""Byzantine fault-model behavior: ByzantinePlan, engine accounting,
scalar-vs-batch identity (docs/faults.md).

The semantics under test: traitor nodes stay up (health predicates never
see them), a message is perturbed at the first traitor *intermediate*
hop and at most once, and the integrity counters obey message
conservation — ``delivered + dropped + timed_out + undeliverable ==
total`` — with corrupted/misrouted messages still counted in
``delivered``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastpath.traffic_batch import simulate_batch
from repro.faults.models import ByzantineNodeFaults
from repro.sim.engine import sim_result, simulate
from repro.sim.routing import (
    BYZ_CORRUPT,
    BYZ_DROP,
    BYZ_MISROUTE,
    BYZ_NONE,
    ByzantinePlan,
    dimension_ordered_route,
    route_length,
)
from repro.util.rng import spawn_rng

SHAPE = (6, 6)


def plan_with(mix, traitors, seed=7, shape=SHAPE):
    """Fresh plan with the given traitor node ids and action mix."""
    mask = np.zeros(shape, dtype=bool).ravel()
    mask[list(traitors)] = True
    return ByzantinePlan(mask, mix, spawn_rng(seed, "test-byz"))


class TestByzantinePlan:
    def test_endpoints_are_trusted(self):
        # Route [0, 1]: no intermediate hops, so even an all-traitor
        # machine perturbs nothing.
        plan = plan_with((1.0, 1.0, 1.0), range(36))
        assert plan.first_traitor_hop(np.array([0, 1])) == -1
        assert plan.first_traitor_hop(np.array([0])) == -1

    def test_first_traitor_intermediate_wins(self):
        # (0,0) -> (0,3): route 0,1,2,3 (tie on the 6-cycle breaks toward +).
        route = dimension_ordered_route(SHAPE, 0, 3)
        assert route.tolist() == [0, 1, 2, 3]
        assert plan_with((1, 1, 1), [2]).first_traitor_hop(route) == 2
        # The endpoint traitor (3) never acts; the first intermediate wins.
        assert plan_with((1, 1, 1), [1, 2, 3]).first_traitor_hop(route) == 1

    def test_apply_is_deterministic(self):
        traffic_routes = [dimension_ordered_route(SHAPE, s, d)
                          for s, d in [(0, 4), (6, 9), (12, 33), (1, 1)]]
        a = plan_with((1, 1, 1), [2, 8, 20]).apply(SHAPE, list(traffic_routes))
        b = plan_with((1, 1, 1), [2, 8, 20]).apply(SHAPE, list(traffic_routes))
        assert np.array_equal(a[1], b[1])
        for ra, rb in zip(a[0], b[0]):
            assert np.array_equal(ra, rb)

    def test_untouched_messages_draw_nothing(self):
        # Only messages that traverse a traitor consume RNG draws: a plan
        # applied to traitor-free routes leaves its stream untouched, so
        # the next touched message draws exactly what it would have drawn
        # first — the contract that keeps scalar and batch plans aligned.
        clean = [dimension_ordered_route(SHAPE, 30, 33)]  # bottom row, no traitor
        hit = [dimension_ordered_route(SHAPE, 0, 3)]
        direct = plan_with((1, 1, 1), [2]).apply(SHAPE, list(hit))
        assert direct[1][0] != BYZ_NONE  # the hit route really was touched
        plan = plan_with((1, 1, 1), [2])
        plan.apply(SHAPE, clean * 5)
        after_clean = plan.apply(SHAPE, list(hit))
        assert np.array_equal(direct[1], after_clean[1])
        assert np.array_equal(direct[0][0], after_clean[0][0])

    def test_drop_truncates_at_the_traitor(self):
        plan = plan_with((0.0, 1.0, 0.0), [2])
        routes, actions = plan.apply(SHAPE, [dimension_ordered_route(SHAPE, 0, 3)])
        assert actions[0] == BYZ_DROP
        assert routes[0].tolist() == [0, 1, 2]

    def test_corrupt_keeps_the_route(self):
        plan = plan_with((0.0, 0.0, 1.0), [2])
        routes, actions = plan.apply(SHAPE, [dimension_ordered_route(SHAPE, 0, 3)])
        assert actions[0] == BYZ_CORRUPT
        assert routes[0].tolist() == [0, 1, 2, 3]

    def test_misroute_detours_through_a_wrong_neighbor(self):
        plan = plan_with((1.0, 0.0, 0.0), [2])
        routes, actions = plan.apply(SHAPE, [dimension_ordered_route(SHAPE, 0, 3)])
        assert actions[0] == BYZ_MISROUTE
        r = routes[0].tolist()
        assert r[:3] == [0, 1, 2] and r[-1] == 3
        assert r[3] != 3  # the wrong forward
        assert len(r) > 4  # genuinely longer than the e-cube route

    def test_none_routes_pass_through(self):
        plan = plan_with((1, 1, 1), [2])
        routes, actions = plan.apply(SHAPE, [None])
        assert routes == [None] and actions[0] == BYZ_NONE


class TestEngineAccounting:
    def traffic(self, rng, m=40):
        size = int(np.prod(SHAPE))
        return rng.integers(0, size, size=(m, 2))

    def test_conservation_and_split(self):
        rng = spawn_rng(3, "byz-traffic")
        traffic = self.traffic(rng)
        plan = plan_with((1, 1, 1), [2, 8, 14, 27], seed=11)
        res = simulate(SHAPE, traffic, byzantine=plan)
        assert res.delivered + res.dropped + res.timed_out + res.undeliverable \
            == res.total
        assert res.dropped + res.corrupted + res.misrouted > 0
        # Dropped messages carry the -1 sentinel; delivered ones do not.
        assert int((res.message_latencies < 0).sum()) == res.dropped + res.timed_out
        assert len(res.latencies) == res.delivered

    def test_drop_only_mix_never_corrupts(self):
        rng = spawn_rng(4, "byz-traffic")
        res = simulate(SHAPE, self.traffic(rng),
                       byzantine=plan_with((0, 1, 0), [2, 8, 14], seed=5))
        assert res.corrupted == res.misrouted == 0
        assert res.dropped > 0

    def test_corrupt_only_mix_delivers_everything(self):
        rng = spawn_rng(5, "byz-traffic")
        traffic = self.traffic(rng)
        base = simulate(SHAPE, traffic)
        res = simulate(SHAPE, traffic,
                       byzantine=plan_with((0, 0, 1), [2, 8, 14], seed=5))
        # Corruption damages payloads, not schedules: identical delivery.
        assert res.delivered == base.delivered == res.total
        assert res.corrupted > 0 and res.dropped == res.misrouted == 0
        assert np.array_equal(res.message_latencies, base.message_latencies)

    def test_misroute_only_mix_arrives_late(self):
        plan = plan_with((1, 0, 0), [2], seed=5)
        res = simulate(SHAPE, np.array([[0, 3]]), byzantine=plan)
        assert res.misrouted == 1 and res.delivered == 1
        assert int(res.latencies[0]) > route_length(SHAPE, 0, 3)

    def test_no_traitors_matches_plain_engine(self):
        rng = spawn_rng(6, "byz-traffic")
        traffic = self.traffic(rng)
        base = simulate(SHAPE, traffic)
        res = simulate(SHAPE, traffic, byzantine=plan_with((1, 1, 1), []))
        assert res.dropped == res.corrupted == res.misrouted == 0
        assert res.delivered == base.delivered
        assert np.array_equal(res.message_latencies, base.message_latencies)

    def test_byzantine_counts_reclassifies_drops(self):
        actions = np.array([BYZ_NONE, BYZ_DROP, BYZ_CORRUPT, BYZ_MISROUTE, BYZ_DROP])
        done = np.array([True, True, True, True, False])
        latencies = np.array([3, 2, 4, 9, -1])
        res = sim_result(done, np.ones(5, dtype=bool), latencies, actions, 10, 1)
        assert (res.dropped, res.corrupted, res.misrouted) == (1, 1, 1)
        # The done drop reverted to the sentinel; the not-done one (a drop
        # whose truncated route timed out) is someone else's count.
        assert res.message_latencies.tolist() == [3, -1, 4, 9, -1]


class TestScalarBatchIdentity:
    @pytest.mark.parametrize("mix_weights", [(1, 1, 1), (0.5, 2.0, 0.5)])
    def test_simulate_batch_is_field_identical(self, mix_weights):
        model = ByzantineNodeFaults(rate=0.12, misroute=mix_weights[0],
                                    drop=mix_weights[1], corrupt=mix_weights[2])
        mask = model.sample(SHAPE, spawn_rng(9, "byz-mask"))
        rng = spawn_rng(9, "byz-traffic")
        size = int(np.prod(SHAPE))
        traffic = rng.integers(0, size, size=(60, 2))

        def plan():
            # The plan's stream advances during apply, so each engine gets
            # its own identically-seeded instance.
            return ByzantinePlan(mask, model.mix(), spawn_rng(9, "byz-plan"))

        scalar = simulate(SHAPE, traffic, byzantine=plan())
        batch = simulate_batch(SHAPE, traffic, byzantine=plan())
        for f in ("delivered", "total", "cycles", "max_queue", "timed_out",
                  "undeliverable", "dropped", "corrupted", "misrouted"):
            assert getattr(scalar, f) == getattr(batch, f), f
        assert np.array_equal(scalar.message_latencies, batch.message_latencies)
        assert np.array_equal(scalar.latencies, batch.latencies)


class TestByzantineModel:
    def test_mix_normalises(self):
        model = ByzantineNodeFaults(rate=0.1, misroute=0.5, drop=2.0, corrupt=0.5)
        mix = model.mix()
        assert mix == (1 / 6, 4 / 6, 1 / 6)
        assert abs(sum(mix) - 1.0) < 1e-12

    def test_rate_zero_samples_nothing_without_rng(self):
        model = ByzantineNodeFaults(rate=0.0)
        rng = spawn_rng(1, "untouched")
        assert not model.sample(SHAPE, rng).any()
        assert float(rng.random()) == float(spawn_rng(1, "untouched").random())

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ByzantineNodeFaults(rate=1.5)
        with pytest.raises(ValueError):
            ByzantineNodeFaults(rate=0.1, drop=-1.0)
        with pytest.raises(ValueError):
            ByzantineNodeFaults(rate=0.1, misroute=0.0, drop=0.0, corrupt=0.0)


class TestPerClassByzantineConservation:
    """Per-class rows under drop-heavy Byzantine mixes: drops land in the
    ``dropped`` bucket (never misclassified as ``timed_out`` despite the
    shared ``-1`` latency sentinel), conservation holds per row, and the
    rows are field-identical scalar vs batch."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 200),
        rate=st.sampled_from((0.1, 0.25)),
        drop=st.sampled_from((2.0, 5.0)),
        qos=st.sampled_from((2, 3)),
    )
    def test_rows_conserve_and_match_across_engines(self, seed, rate, drop, qos):
        import json

        from repro.api.traffic import message_classes
        from repro.sim.metrics import per_class_stats

        model = ByzantineNodeFaults(rate=rate, misroute=0.5, drop=drop,
                                    corrupt=0.5)
        mask = model.sample(SHAPE, spawn_rng(seed, "byz-cons-mask"))
        size = int(np.prod(SHAPE))
        traffic = spawn_rng(seed, "byz-cons-traffic").integers(
            0, size, size=(50, 2))
        classes = message_classes(len(traffic), qos)

        def plan():
            return ByzantinePlan(mask, model.mix(),
                                 spawn_rng(seed, "byz-cons-plan"))

        scalar = simulate(SHAPE, traffic, byzantine=plan(), classes=classes)
        batch = simulate_batch(SHAPE, traffic, byzantine=plan(),
                               classes=classes)
        rows_s = per_class_stats(scalar, classes)
        rows_b = per_class_stats(batch, classes)
        assert json.dumps(rows_s, sort_keys=True) == json.dumps(
            rows_b, sort_keys=True)
        for row in rows_s:
            assert row["offered"] == (
                row["delivered"] + row["timed_out"]
                + row.get("undeliverable", 0) + row.get("dropped", 0)
            ), row
        assert sum(r.get("dropped", 0) for r in rows_s) == scalar.dropped
        assert sum(r["timed_out"] for r in rows_s) == scalar.timed_out

    def test_certain_drop_is_dropped_not_timed_out(self):
        from repro.sim.metrics import per_class_stats

        # A drop-only all-traitor machine: every multi-hop message is
        # dropped at its first intermediate hop; none may count as a
        # timeout even though both outcomes share the -1 sentinel.
        plan = plan_with((0, 1, 0), range(36), seed=3)
        traffic = np.array([[0, 3], [6, 9], [12, 15]])
        classes = np.array([0, 0, 1])
        res = simulate(SHAPE, traffic, byzantine=plan, classes=classes)
        assert res.dropped == 3 and res.timed_out == 0
        rows = per_class_stats(res, classes)
        assert rows[0]["dropped"] == 2 and rows[0]["timed_out"] == 0
        assert rows[1]["dropped"] == 1 and rows[1]["delivered"] == 0


class TestOpenLoopConservation:
    """Open-loop outcomes under fault models count every loss bucket over
    the measured window, classified by ``message_status`` — never by the
    shared ``-1`` latency sentinel — so ``offered == delivered +
    timed_out + undeliverable + dropped`` on both engines."""

    @pytest.mark.parametrize("warmup", [0, 10])
    @pytest.mark.parametrize("model, bucket", [
        ({"name": "bernoulli", "p": 0.1}, "undeliverable"),
        ({"name": "byzantine", "rate": 0.15}, "dropped"),
    ])
    def test_offered_is_conserved(self, model, bucket, warmup):
        from repro.api.protocol import TrafficSpec
        from repro.api.traffic import run_traffic_trial

        spec = TrafficSpec(pattern="uniform", injection="bernoulli", rate=0.1,
                           cycles=40, warmup=warmup, max_cycles=40,
                           fault_model=model)
        for seed in range(3):
            scalar = run_traffic_trial(SHAPE, spec, seed)
            batch = run_traffic_trial(SHAPE, spec, seed, engine=simulate_batch)
            assert scalar.to_dict() == batch.to_dict()
            assert scalar.offered == (scalar.delivered + scalar.timed_out
                                      + scalar.undeliverable + scalar.dropped)
            assert getattr(scalar, bucket) > 0 and scalar.timed_out > 0

    def test_integrity_counts_are_windowed(self):
        """``corrupted``/``misrouted`` count the measured window's
        deliveries, like every other count of the record — here a short
        window at the end of the run."""
        from repro.api.protocol import TrafficSpec
        from repro.api.traffic import run_traffic_trial

        spec = TrafficSpec(pattern="uniform", injection="bernoulli", rate=0.1,
                           cycles=40, warmup=35, max_cycles=40,
                           fault_model={"name": "byzantine", "rate": 0.15})
        for seed in range(3):
            scalar = run_traffic_trial((8, 8), spec, seed)
            batch = run_traffic_trial((8, 8), spec, seed, engine=simulate_batch)
            assert scalar.to_dict() == batch.to_dict()
            assert scalar.corrupted + scalar.misrouted <= scalar.delivered


class TestSummaryNamesEveryBucket:
    """The one-line ``TrafficResult.summary`` the CLI prints names every
    bucket a message can end in besides a plain delivery, each only when
    it is nonzero."""

    @staticmethod
    def _result(model=None, **knobs):
        from repro.api.protocol import TrafficSpec
        from repro.api.traffic import aggregate_traffic, run_traffic_trial

        spec = TrafficSpec(pattern="uniform", messages=48, fault_model=model, **knobs)
        return aggregate_traffic(
            run_traffic_trial(SHAPE, spec, seed, engine=simulate_batch) for seed in range(3)
        )

    def test_byzantine_drops_are_named(self):
        res = self._result({"name": "byzantine", "rate": 0.15, "drop": 2})
        assert res.summary().endswith("; dropped=22; corrupted=4; misrouted=5")
        assert sum(o.dropped for o in res.outcomes) == 22

    def test_crash_refusals_are_named(self):
        res = self._result({"name": "bernoulli", "p": 0.1})
        assert res.summary().endswith("; undeliverable=43")
        assert sum(o.undeliverable for o in res.outcomes) == 43

    def test_clean_run_summary_is_unchanged(self):
        assert self._result().summary() == (
            "3 runs: delivered 100.0%, thpt=6.95/cyc, lat mean=3.48 p99<=7.53"
        )
        assert self._result(max_cycles=5).summary() == (
            "3 runs: delivered 90.3%, thpt=8.67/cyc, lat mean=3.18 p99<=5; timed_out=14"
        )
