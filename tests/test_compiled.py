"""The compiled kernel tier: cores vs their numpy twins, and dispatch.

The cores in :mod:`repro.fastpath.compiled` are plain Python functions
when numba is absent (the offline-container default), so *these tests
run everywhere* — core-vs-numpy equivalence is proven whether or not the
JIT actually engages.  Tier availability and the fail-fast contract of
:mod:`repro.fastpath.dispatch` are covered either way: assertions branch
on :func:`compiled_available` so no behavior is silently untested on
either kind of machine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BackendUnavailableError
from repro.fastpath.compiled import (
    COMPILED_AVAILABLE,
    bn_cover_core,
    lifetime_step_core,
    longest_false_run_core,
    traffic_arbitrate_core,
)
from repro.fastpath.dispatch import (
    BACKENDS,
    TIERS,
    available_tiers,
    compiled_available,
    resolve_backend,
)
from repro.util.rng import spawn_rng


class TestBnCoverCore:
    def rand_case(self, seed, trials=16, m=12, b=3, k=4):
        rng = spawn_rng(seed, "cover-core")
        fault_rows = rng.random((trials, m)) < 0.3
        bottoms = rng.integers(0, m, size=(trials, k)).astype(np.int64)
        # Out-of-range rows must still reduce modulo m like the numpy twin.
        bottoms[rng.random(trials) < 0.2] = -1
        return fault_rows, bottoms, m, b

    def numpy_twin(self, fault_rows, bottoms, m, b):
        rows = np.arange(m)
        masked = ((rows[None, :, None] - bottoms[:, None, :]) % m < b).any(axis=2)
        return (~fault_rows | masked).all(axis=1)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_numpy_twin(self, seed):
        fault_rows, bottoms, m, b = self.rand_case(seed)
        got = bn_cover_core(fault_rows, bottoms, m, b)
        want = self.numpy_twin(fault_rows, bottoms, m, b)
        assert np.array_equal(got, want)

    def test_no_faults_always_covered(self):
        fault_rows = np.zeros((3, 10), dtype=bool)
        bottoms = np.full((3, 2), -1, dtype=np.int64)
        assert bn_cover_core(fault_rows, bottoms, 10, 2).all()


class TestLongestFalseRunCore:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_python_reference(self, seed):
        rng = spawn_rng(seed, "streak-core")
        marked = rng.random((8, 20)) < 0.4
        got = longest_false_run_core(marked)
        for i in range(marked.shape[0]):
            best = run = 0
            for v in marked[i]:
                run = 0 if v else run + 1
                best = max(best, run)
            assert got[i] == best

    def test_all_false_and_all_true(self):
        assert longest_false_run_core(np.zeros((1, 7), dtype=bool))[0] == 7
        assert longest_false_run_core(np.ones((1, 7), dtype=bool))[0] == 0


class TestLifetimeStepCore:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_numpy_twin(self, seed):
        rng = spawn_rng(seed, "step-core")
        trials, m, b, k = 24, 12, 3, 4
        r = rng.integers(0, m, size=trials).astype(np.int64)
        bottoms = rng.integers(0, m, size=(trials, k)).astype(np.int64)
        got = lifetime_step_core(r, bottoms, m, b)
        want = ((r[:, None] - bottoms) % m < b).any(axis=1)
        assert np.array_equal(got, want)


class TestTrafficArbitrateCore:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_lexsort_twin(self, seed):
        rng = spawn_rng(seed, "arb-core")
        n, num_classes = int(rng.integers(1, 40)), int(rng.integers(1, 4))
        live = np.sort(rng.choice(200, size=n, replace=False)).astype(np.int64)
        wanted = rng.integers(0, 12, size=n).astype(np.int64)
        cls_live = rng.integers(0, num_classes, size=n).astype(np.int64)

        win_pos, depth = traffic_arbitrate_core(wanted, cls_live, num_classes)

        order = np.lexsort((live, cls_live, wanted))
        lk = wanted[order]
        first = np.flatnonzero(np.r_[True, lk[1:] != lk[:-1]])
        queue_depths = np.diff(np.r_[first, lk.size])
        assert np.array_equal(live[win_pos], live[order[first]])
        assert depth == queue_depths.max()

    def test_single_message_wins_with_depth_one(self):
        win_pos, depth = traffic_arbitrate_core(
            np.array([5], dtype=np.int64), np.array([0], dtype=np.int64), 1
        )
        assert win_pos.tolist() == [0] and depth == 1

    def test_priority_class_beats_lower_id(self):
        # Same link: message 1 (class 0) must beat message 0 (class 1).
        wanted = np.array([7, 7], dtype=np.int64)
        cls_live = np.array([1, 0], dtype=np.int64)
        win_pos, depth = traffic_arbitrate_core(wanted, cls_live, 2)
        assert win_pos.tolist() == [1] and depth == 2


class TestDispatch:
    def test_vocabulary(self):
        assert TIERS == ("scalar", "batch", "compiled")
        assert BACKENDS == ("auto", "scalar", "batch", "compiled")
        assert set(available_tiers()) <= set(TIERS)
        assert "scalar" in available_tiers() and "batch" in available_tiers()

    def test_resolve_fixed_tiers(self):
        assert resolve_backend("scalar") == "scalar"
        assert resolve_backend("batch") == "batch"

    def test_resolve_auto_prefers_best_available(self):
        expect = "compiled" if compiled_available() else "batch"
        assert resolve_backend("auto") == expect
        assert resolve_backend(None) == expect

    def test_unknown_backend_is_value_error(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu")

    def test_compiled_resolution_matches_availability(self):
        if compiled_available():
            assert resolve_backend("compiled") == "compiled"
        else:
            with pytest.raises(BackendUnavailableError, match="numba"):
                resolve_backend("compiled")

    def test_availability_flags_agree(self):
        assert compiled_available() == COMPILED_AVAILABLE
        assert ("compiled" in available_tiers()) == COMPILED_AVAILABLE

    def test_unavailable_error_is_value_error(self):
        # The CLI catches ValueError for clean exit-2 diagnostics; the
        # dedicated class must stay in that hierarchy.
        assert issubclass(BackendUnavailableError, ValueError)


class TestRunnerBackendArg:
    def test_runner_rejects_backend_plus_legacy_batch(self):
        from repro.api.experiment import ExperimentRunner

        with pytest.raises(ValueError, match="not both"):
            ExperimentRunner(backend="batch", batch=True)

    def test_runner_resolves_eagerly(self):
        from repro.api.experiment import ExperimentRunner

        assert ExperimentRunner(backend="scalar").backend == "scalar"
        assert ExperimentRunner(batch=False).backend == "scalar"
        assert ExperimentRunner(batch=True).backend == "batch"
        if not compiled_available():
            with pytest.raises(BackendUnavailableError, match="available tiers"):
                ExperimentRunner(backend="compiled")

    def test_legacy_default_resolves_auto(self):
        from repro.api.experiment import ExperimentRunner

        assert ExperimentRunner().backend == resolve_backend("auto")
