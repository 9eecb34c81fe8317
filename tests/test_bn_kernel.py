"""The batched bn survival kernel's three layers, each against its reference.

* **RNG** — :func:`repro.util.rng.iter_rngs` derives a whole block of
  generators at once; each must be in exactly the state
  ``spawn_rng(root, *keys)`` would construct, and draw the same values.
* **Classifier** — the vectorised straight-cover greedy must succeed on
  exactly the row profiles the scalar ``_cover_rows_cyclic`` does, and
  every covered trial must be one where the scalar ``auto`` placement
  returns straight bands.
* **Runner blocks** — grouping consecutive chunks into one kernel call
  must leave the result JSON byte-identical however the run is executed
  or resumed, and never put more than :data:`BLOCK_TRIALS` trials in a
  multi-chunk block.

Plus the memory contract: the kernel's per-trial estimate describes its
real arrays, so a ``max_batch_bytes`` budget bounds its peak.
"""

from __future__ import annotations

import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExperimentRunner, ExperimentSpec, FaultSpec, get
from repro.api import experiment as ex
from repro.core.params import BnParams
from repro.core.placement import _cover_rows_cyclic, place_bands
from repro.errors import ReconstructionError
from repro.fastpath.bn_batch import (
    _masks_cover,
    _straight_cover,
    bn_bytes_per_trial,
    run_bn_batch,
    sample_bn_faults_batch,
    straight_survival_batch,
)
from repro.testkit.cases import (
    BN_PARAM_SETS,
    COVER_GEOMETRIES,
    RNG_KEY_TUPLES,
    RNG_ROOTS,
    adversarial_row_profiles,
)
from repro.testkit.oracles import batched_rng_oracle, straight_cover_oracle
from repro.util.rng import iter_rngs, spawn_rng

# ---------------------------------------------------------------------------
# RNG: block-derived generators == spawn_rng
# ---------------------------------------------------------------------------


def _draws(rng) -> tuple:
    return (rng.bit_generator.state, rng.random(2).tolist(),
            rng.integers(0, 2**62, 2).tolist())


class TestBatchedRng:
    @settings(max_examples=60, deadline=None)
    @given(
        roots=st.lists(st.integers(-(2**80), 2**80) | st.sampled_from(RNG_ROOTS),
                       min_size=1, max_size=24),
        keys=st.sampled_from(RNG_KEY_TUPLES) | st.lists(
            st.text(max_size=6) | st.integers(-(2**40), 2**40), max_size=6
        ).map(tuple),
    )
    def test_matches_spawn_rng(self, roots, keys):
        for root, rng in zip(roots, iter_rngs(roots, *keys), strict=True):
            assert _draws(rng) == _draws(spawn_rng(root, *keys))

    def test_conformance_stage_green(self):
        report = batched_rng_oracle(RNG_ROOTS, RNG_KEY_TUPLES)
        report.raise_on_mismatch()
        assert report.cases == len(RNG_ROOTS) * len(RNG_KEY_TUPLES)

    def test_kernel_keys_cover_short_and_long_entropy(self):
        """The kernel's (root, "bn-trial", n, d) fills numpy's 4-word pool
        exactly; the case pool must also hold shorter and longer keys so
        the general mixing path stays checked."""
        lengths = {1 + len(keys) for keys in RNG_KEY_TUPLES}
        assert {4} < lengths and min(lengths) < 4 < max(lengths)

    def test_empty_block(self):
        assert list(iter_rngs([], "bn-trial", 36, 2)) == []


# ---------------------------------------------------------------------------
# Classifier: vectorised greedy == scalar greedy
# ---------------------------------------------------------------------------


def _scalar_ok(rows: np.ndarray, m: int, b: int, K: int) -> bool:
    try:
        _cover_rows_cyclic(np.flatnonzero(rows), m, b, K)
        return True
    except ReconstructionError:
        return False


def _assert_exact(profiles: np.ndarray, b: int, K: int) -> None:
    m = profiles.shape[1]
    ok, bottoms = _straight_cover(profiles, b, K)
    assert bottoms.dtype == np.int64 and bottoms.shape == (len(profiles), K)
    assert ((bottoms >= 0) & (bottoms < m)).all()
    masked = _masks_cover(profiles, bottoms, b)
    for t, rows in enumerate(profiles):
        assert bool(ok[t]) == _scalar_ok(rows, m, b, K), np.flatnonzero(rows)
        if ok[t]:
            assert masked[t], np.flatnonzero(rows)


class TestStraightCover:
    @settings(max_examples=40, deadline=None)
    @given(
        geometry=st.sampled_from(COVER_GEOMETRIES),
        density=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_profiles(self, geometry, density, seed):
        m, b, K = geometry
        profiles = np.random.default_rng(seed).random((48, m)) < density
        _assert_exact(profiles, b, K)

    @pytest.mark.parametrize("geometry", COVER_GEOMETRIES, ids=str)
    def test_adversarial_profiles(self, geometry):
        m, b, K = geometry
        _assert_exact(adversarial_row_profiles(m, b, K), b, K)

    def test_geometry_pool_includes_tight_spacing(self):
        assert any(m // K == b + 1 for m, b, K in COVER_GEOMETRIES)

    def test_masks_cover_exactly_b_rows_cyclically(self):
        m, b = 12, 3
        rows = np.zeros((4, m), dtype=bool)
        rows[0, 2] = rows[1, 3] = rows[2, 1] = rows[3, 2] = True
        bottoms = np.array([[0], [0], [m - 1], [m - 1]], dtype=np.int64)
        assert _masks_cover(rows, bottoms, b).tolist() == [True, False, True, False]

    def test_unused_slots_repeat_a_real_bottom(self):
        m, b, K = 54, 3, 6
        profile = np.zeros((1, m), dtype=bool)
        profile[0, m - 1] = True  # one band at the top row, five unused slots
        ok, bottoms = _straight_cover(profile, b, K)
        assert ok[0] and set(bottoms[0].tolist()) == {m - 1}

    def test_covered_means_scalar_auto_goes_straight(self):
        # The second half of the contract (fault stacks, not bare profiles):
        # covered <=> scalar straight placement succeeds, and auto then
        # returns straight bands.
        report = straight_cover_oracle([], BN_PARAM_SETS[:3], trials=24)
        report.raise_on_mismatch()
        assert report.cases > 0


# ---------------------------------------------------------------------------
# Memory: the per-trial estimate bounds the kernel's peak
# ---------------------------------------------------------------------------


def _traced(fn):
    """``(result, peak bytes above what the result keeps alive)``."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - kept


@pytest.mark.parametrize("kw, p", [
    (dict(d=2, b=3, s=1, t=2), 1e-3),
    (dict(d=2, b=4, s=1, t=2), 2.44140625e-4),
])
def test_kernel_peak_stays_within_budget(kw, p):
    """With the budget sized for 512-trial slices and two slices of seeds,
    the traced peak may exceed the budget only by one trial's sampling
    temporaries (a float64 draw and its bool mask per node), the largest
    single scalar fallback trial, and 64 KiB of fixed overhead."""
    construction = get("bn", **kw)
    spec = FaultSpec(p=p)
    params = construction.params
    nodes = int(np.prod(params.shape))
    budget = 512 * bn_bytes_per_trial(params)
    seeds = list(range(1024))
    covered, _ = straight_survival_batch(
        params, sample_bn_faults_batch(construction.torus, p, 0.0, seeds))
    fallback = [s for s, ok in zip(seeds, covered) if not ok]
    run_bn_batch(construction, spec, seeds[:2] + fallback[:1])  # warm caches
    fallback_peak = max(
        (_traced(lambda s=s: construction.trial(spec, s))[1] for s in fallback),
        default=0,
    )
    outcomes, peak = _traced(
        lambda: run_bn_batch(construction, spec, seeds, max_batch_bytes=budget))
    assert len(outcomes) == len(seeds)
    assert peak <= budget + 9 * nodes + fallback_peak + 64 * 1024


# ---------------------------------------------------------------------------
# Runner blocks: byte-identical however executed, capped in size
# ---------------------------------------------------------------------------

BN = {"d": 2, "b": 3, "s": 1, "t": 2}


def _spec(chunk_size: int, trials: int = 300) -> ExperimentSpec:
    return ExperimentSpec(
        construction="bn", params=BN,
        grid=(FaultSpec(p=1e-3), FaultSpec(p=0.004, q=1e-3)),
        trials=trials, chunk_size=chunk_size, name=f"blocks-{chunk_size}",
    )


def _bytes(result) -> bytes:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True).encode()


class TestRunnerBlocks:
    @pytest.mark.parametrize("chunk_size", [1, 16, 2048])
    def test_byte_identical_serial_pooled_scalar_and_resumed(
        self, tmp_path, chunk_size
    ):
        spec = _spec(chunk_size)
        ref = _bytes(ExperimentRunner(backend="scalar").run(spec))
        assert _bytes(ExperimentRunner().run(spec)) == ref
        assert _bytes(ExperimentRunner(workers=2).run(spec)) == ref
        journal = tmp_path / "run.ndjson"
        ExperimentRunner().run(spec, checkpoint=journal)
        lines = journal.read_bytes().split(b"\n")[:-1]
        chunks = len(lines) - 1
        # Cut inside the first block (or after the first chunk when every
        # chunk is a block of its own), then resume serially and pooled.
        keep = min(chunks - 1, max(1, ex.BLOCK_TRIALS // chunk_size // 2))
        for workers in (1, 2):
            journal.write_bytes(b"\n".join(lines[: 1 + keep]) + b"\n")
            resumed = ExperimentRunner(workers=workers).run(
                spec, checkpoint=journal, resume=True)
            assert _bytes(resumed) == ref

    @pytest.mark.parametrize("chunk_size", [1, 7, 16, 100, 256, 300, 2048])
    def test_blocks_never_exceed_the_cap(self, chunk_size):
        spec = _spec(chunk_size, trials=1000)
        runner = ExperimentRunner()
        skip = {(0, 3), (1, 0)}
        covered = []
        for point, first, task in runner._iter_tasks(spec, skip):
            seed, counts = task[3], task[4]
            assert len(counts) == 1 or sum(counts) <= ex.BLOCK_TRIALS
            assert seed == spec.seed0 + first * chunk_size
            covered += [(point, first + j) for j in range(len(counts))]
        chunks = -(-spec.trials // chunk_size)
        expected = [(p, c) for p in range(2) for c in range(chunks)
                    if (p, c) not in skip]
        assert covered == expected

    def test_scalar_backend_and_other_points_stay_one_chunk_per_task(self):
        from repro.api.protocol import LifetimeSpec

        spec = ExperimentSpec(construction="bn", params=BN,
                              grid=(FaultSpec(p=1e-3), LifetimeSpec()), trials=64)

        def counts(runner):
            return [task[4] for _, _, task in runner._iter_tasks(spec)]

        grouped = counts(ExperimentRunner())
        assert grouped[0] == (16, 16, 16, 16)
        assert all(len(c) == 1 for c in grouped[1:])
        assert all(len(c) == 1 for c in counts(ExperimentRunner(backend="scalar")))

    def test_run_chunk_single_chunk_task(self):
        spec = _spec(16, trials=48)
        fsd = spec.grid[0].to_dict()
        params_items = tuple(sorted(BN.items()))
        direct = [ex._run_chunk(("bn", params_items, fsd, start, 16, "batch", None))
                  for start in (0, 16, 32)]
        block = ex._run_block(("bn", params_items, fsd, 0, (16, 16, 16), "batch", None))
        assert direct == block
