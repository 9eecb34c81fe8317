"""Tests for the analysis stack (stats, Monte-Carlo, sweeps, predictions)."""

from __future__ import annotations

import pytest

from repro.analysis.chernoff import predict_healthiness
from repro.analysis.montecarlo import MCResult, aggregate_outcomes
from repro.analysis.stats import binomial_tail, wilson_interval
from repro.analysis.sweep import estimate_threshold, ThresholdPoint
from repro.api import ExperimentRunner, ExperimentSpec
from repro.core.bn import TrialOutcome


class TestStats:
    def test_wilson_contains_p_hat(self):
        lo, hi = wilson_interval(7, 10)
        assert lo < 0.7 < hi

    def test_wilson_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0 and hi < 0.25

    def test_wilson_range_check(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

    def test_binomial_tail_exact(self):
        # P[Bin(3, 0.5) > 1] = 4/8
        assert binomial_tail(3, 0.5, 1) == pytest.approx(0.5)

    def test_binomial_tail_edge(self):
        assert binomial_tail(5, 0.3, 5) == 0.0


class TestAggregation:
    def test_aggregation(self):
        def fn(seed):
            ok = seed % 3 != 0
            return TrialOutcome(
                success=ok, category="ok" if ok else "unhealthy", num_faults=seed
            )

        res = aggregate_outcomes(fn(seed) for seed in range(9))
        assert res.successes == 6
        assert res.categories["unhealthy"] == 3
        assert res.mean_faults == pytest.approx(4.0)
        assert "unhealthy" in res.summary()

    def test_ci_property(self):
        res = MCResult(trials=10, successes=10)
        lo, hi = res.ci
        assert lo > 0.7 and hi == 1.0


class TestSweeps:
    def test_bn_threshold_monotone_shape(self, bn2_small):
        spec = ExperimentSpec.from_grid(
            "bn", {"d": bn2_small.d, "b": bn2_small.b, "s": bn2_small.s,
                   "t": bn2_small.t},
            p_values=[bn2_small.paper_fault_probability, 0.05], trials=6,
        )
        low_p, high_p = (pt.result for pt in ExperimentRunner().run(spec).points)
        assert low_p.success_rate >= high_p.success_rate

    def test_dn_campaign_all_ok(self, dn2_small):
        """Theorem 3: every trial recovers at the rated budget k."""
        spec = ExperimentSpec.from_grid(
            "dn", {"d": dn2_small.d, "n": dn2_small.n, "b": dn2_small.b},
            patterns=["random", "diagonal"], k=dn2_small.k, trials=3,
        )
        for pt in ExperimentRunner().run(spec).points:
            assert pt.result.success_rate == 1.0, pt.fault_spec.pattern

    def test_estimate_threshold_interpolates(self):
        pts = [
            ThresholdPoint(0.001, MCResult(trials=10, successes=10)),
            ThresholdPoint(0.01, MCResult(trials=10, successes=5)),
            ThresholdPoint(0.1, MCResult(trials=10, successes=0)),
        ]
        th = estimate_threshold(pts, level=0.5)
        assert 0.001 < th <= 0.01

    def test_estimate_threshold_all_above(self):
        pts = [ThresholdPoint(0.1, MCResult(trials=5, successes=5))]
        assert estimate_threshold(pts) == 0.1


class TestPredictions:
    def test_bounds_decrease_with_p(self, bn2_medium):
        hi = predict_healthiness(bn2_medium, 1e-3)
        lo = predict_healthiness(bn2_medium, 1e-5)
        assert lo.total_bound <= hi.total_bound

    def test_bounds_are_probabilities(self, bn2_medium):
        pred = predict_healthiness(bn2_medium, 1e-4)
        for v in (pred.cond1_bound, pred.cond2_bound, pred.cond3_bound, pred.total_bound):
            assert 0.0 <= v <= 1.0

    def test_bound_actually_bounds_measured(self, bn2_medium):
        """The union bound must upper-bound the measured unhealthiness
        (sampled) — the whole point of E4."""
        from repro.core.bn import BTorus

        p = 1e-5
        pred = predict_healthiness(bn2_medium, p)
        bt = BTorus(bn2_medium)
        fails = 0
        trials = 10
        for s in range(trials):
            out = bt.trial(p, seed=s, check_health=True)
            fails += not out.health.healthy
        assert fails / trials <= pred.total_bound + 0.35  # slack for tiny sample
