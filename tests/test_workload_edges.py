"""Edge cases of the open-loop workload model (``sim/workload.py``).

Degenerate-but-legal inputs the saturation methodology must survive: a
rate ladder with a single rate, a horizon that injects nothing, identity-
degenerate shapes under ``pattern_destinations`` (the PR-4
``ValueError`` contracts), and periodic injection whose period exceeds
the run.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api.protocol import TrafficSpec
from repro.api.traffic import run_traffic_trial
from repro.fastpath.traffic_batch import simulate_batch
from repro.sim.engine import simulate
from repro.sim.traffic import pattern_destinations
from repro.sim.workload import make_open_loop, open_loop_stats
from repro.util.rng import spawn_rng


def rate_ladder(rates, engine, *, seed, **spec):
    """One open-loop ``run_traffic_trial`` row per rate: the saturation
    sweep ``repro-ft traffic --rate a,b,c`` runs, on a 6x6 torus."""
    return [
        run_traffic_trial(
            (6, 6), TrafficSpec(injection="bernoulli", rate=rate, **spec), seed,
            engine=engine,
        ).to_dict()
        for rate in rates
    ]


class TestSaturationSweepSingleRate:
    def test_single_rate_yields_one_complete_row(self):
        for engine in (simulate, simulate_batch):
            rows = rate_ladder([0.05], engine, seed=3, cycles=40, warmup=10,
                               max_cycles=500)
            assert len(rows) == 1
            (row,) = rows
            for key in ("offered", "delivered", "timed_out", "cycles", "max_queue",
                        "throughput", "mean_latency", "p50", "p99", "max_latency"):
                assert key in row
            # The window is cycles - warmup = 30, never the drain:
            # throughput counts the deliveries completing inside it.
            assert row["cycles"] > 40
            in_window = row["throughput"] * 30
            assert in_window == pytest.approx(round(in_window))
            assert 0 < round(in_window) <= row["delivered"]

    def test_single_rate_matches_the_same_point_of_a_ladder(self):
        """Seed discipline: each rate draws its own keyed stream, so a
        1-rate ladder equals that rate's row in any larger ladder."""
        for engine in (simulate, simulate_batch):
            solo = rate_ladder([0.05], engine, seed=3, cycles=40)
            ladder = rate_ladder([0.01, 0.05, 0.2], engine, seed=3, cycles=40)
            assert solo[0] == ladder[1]


class TestZeroInjectionHorizon:
    #: A rate this small injects nothing over one cycle for any realistic
    #: seed; the workload model must degrade to empty arrays, not crash.
    TINY = 1e-12

    def test_empty_workload_arrays(self):
        traffic, inject = make_open_loop((4, 4), "uniform", self.TINY, 1,
                                         spawn_rng(0))
        assert traffic.shape == (0, 2) and inject.shape == (0,)

    def test_stats_on_empty_injection(self):
        traffic, inject = make_open_loop((4, 4), "uniform", self.TINY, 1,
                                         spawn_rng(0))
        res = simulate((4, 4), traffic, inject=inject)
        stats = open_loop_stats(res, inject, horizon=1)
        assert stats["offered"] == stats["delivered"] == stats["timed_out"] == 0
        assert stats["offered_rate"] == 0.0 and stats["throughput"] == 0.0
        assert math.isnan(stats["mean"]) and math.isnan(stats["p99"])

    def test_traffic_trial_on_empty_injection(self):
        spec = TrafficSpec(pattern="uniform", injection="bernoulli",
                           rate=self.TINY, cycles=1)
        out = run_traffic_trial((4, 4), spec, seed=0)
        assert out.offered == 0 and out.delivered == 0 and out.timed_out == 0
        assert math.isnan(out.mean_latency) and math.isnan(out.p50)

    def test_warmup_can_exclude_every_injection(self):
        """All messages injected before the warmup line: the measured
        window is legitimately empty while deliveries still happen."""
        traffic, inject = make_open_loop((4, 4), "uniform", 0.3, 5, spawn_rng(1))
        assert len(traffic) > 0 and inject.max() < 5
        res = simulate((4, 4), traffic, inject=inject)
        stats = open_loop_stats(res, inject, warmup=5, horizon=6)
        assert stats["offered"] == 0 and stats["throughput"] == 0.0
        assert math.isnan(stats["mean"])


class TestPatternDestinationsDegenerateShapes:
    def test_transpose_identity_shapes_raise(self):
        src = np.array([0])
        for shape in [(8,), (1, 6), (6, 1), (2, 3, 1), (1, 1)]:
            with pytest.raises(ValueError, match="identity"):
                pattern_destinations(shape, src, "transpose", spawn_rng(0))

    def test_bitreverse_non_pow2_raises(self):
        src = np.array([0])
        for shape in [(6, 6), (5, 7), (3,), (2,), (1,)]:
            with pytest.raises(ValueError, match="power-of-two"):
                pattern_destinations(shape, src, "bitreverse", spawn_rng(0))

    def test_single_node_random_patterns_raise(self):
        src = np.array([0])
        for pattern in ("uniform", "hotspot"):
            with pytest.raises(ValueError, match="at least 2 nodes"):
                pattern_destinations((1,), src, pattern, spawn_rng(0))

    def test_unit_axis_neighbor_raises(self):
        with pytest.raises(ValueError, match="every side >= 2"):
            pattern_destinations((1, 6), np.array([0]), "neighbor", spawn_rng(0))

    def test_open_loop_propagates_the_same_errors(self):
        with pytest.raises(ValueError, match="identity"):
            make_open_loop((1, 6), "transpose", 0.5, 4, spawn_rng(0))
        with pytest.raises(ValueError, match="power-of-two"):
            make_open_loop((6, 6), "bitreverse", 0.5, 4, spawn_rng(0))


class TestPeriodicPeriodLongerThanRun:
    def test_only_low_phase_nodes_inject_once(self):
        # rate 0.02 -> period 50 > cycles 10: node n injects at cycle
        # n % 50, so exactly nodes 0..9 inject, once each, at cycle == id.
        traffic, inject = make_open_loop((6, 6), "uniform", 0.02, 10,
                                         spawn_rng(2), injection="periodic")
        assert len(traffic) == 10
        assert traffic[:, 0].tolist() == list(range(10))
        assert inject.tolist() == list(range(10))

    def test_period_beyond_every_phase_still_legal(self):
        # 4 nodes, period 50, horizon 3: only phases 0..2 fire.
        traffic, inject = make_open_loop((2, 2), "neighbor", 0.02, 3,
                                         spawn_rng(3), injection="periodic")
        assert traffic[:, 0].tolist() == [0, 1, 2]
        assert inject.tolist() == [0, 1, 2]
        res = simulate((2, 2), traffic, inject=inject)
        stats = open_loop_stats(res, inject, horizon=3)
        assert stats["offered"] == 3
