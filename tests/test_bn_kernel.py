"""The batched bn survival kernel's three layers, each against its reference.

* **RNG** — :func:`repro.util.rng.iter_rngs` derives a whole block of
  generators at once; each must be in exactly the state
  ``spawn_rng(root, *keys)`` would construct, and draw the same values.
* **Classifier** — the vectorised straight-cover greedy must succeed on
  exactly the row profiles the scalar ``_cover_rows_cyclic`` does, with
  exactly its sorted bottoms, and every covered trial must be one where
  the scalar ``auto`` placement returns straight bands.
* **Runner blocks** — grouping consecutive chunks into one kernel call
  must leave the result JSON byte-identical however the run is executed
  or resumed, never put more than :data:`BLOCK_TRIALS` trials in a
  multi-chunk block, and leave every pool worker a unit.

Plus the memory contract: each kernel's per-trial estimate describes its
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
from repro.api.protocol import LifetimeSpec, TrafficSpec
from repro.core.placement import _cover_rows_cyclic
from repro.errors import ReconstructionError
from repro.fastpath.bn_batch import (
    _masks_cover,
    _straight_cover,
    bn_bytes_per_trial,
    run_bn_batch,
    sample_bn_faults_batch,
    straight_survival_batch,
)
from repro.fastpath.lifetime_batch import lifetime_bytes_per_trial, run_bn_lifetime_batch
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


def _scalar_bottoms(rows: np.ndarray, m: int, b: int, K: int) -> list | None:
    try:
        return sorted(_cover_rows_cyclic(np.flatnonzero(rows), m, b, K))
    except ReconstructionError:
        return None


def _assert_exact(profiles: np.ndarray, b: int, K: int) -> None:
    m = profiles.shape[1]
    ok, bottoms = _straight_cover(profiles, b, K)
    assert bottoms.dtype == np.int64 and bottoms.shape == (len(profiles), K)
    assert ((bottoms >= 0) & (bottoms < m)).all()
    masked = _masks_cover(profiles, bottoms, b)
    for t, rows in enumerate(profiles):
        want = _scalar_bottoms(rows, m, b, K)
        assert bool(ok[t]) == (want is not None), np.flatnonzero(rows)
        if ok[t]:
            assert masked[t], np.flatnonzero(rows)
            assert bottoms[t].tolist() == want, np.flatnonzero(rows)


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

    def test_single_fault_pads_like_the_scalar_greedy(self):
        m, b, K = 54, 3, 6
        profile = np.zeros((1, m), dtype=bool)
        profile[0, m - 1] = True  # one band at the top row, five padded
        ok, bottoms = _straight_cover(profile, b, K)
        assert ok[0] and bottoms[0].tolist() == [3, 7, 11, 15, 19, m - 1]
        assert bottoms[0].tolist() == sorted(_cover_rows_cyclic([m - 1], m, b, K))

    def test_padding_tie_goes_to_the_later_arc(self):
        # Faults at rows 0 and m/2 leave two free arcs of equal capacity;
        # the scalar padding fills the one after the later bottom.
        m, b, K = 128, 4, 8
        profile = np.zeros((1, m), dtype=bool)
        profile[0, [0, m // 2]] = True
        ok, bottoms = _straight_cover(profile, b, K)
        assert ok[0] and bottoms[0].tolist() == [0, 5, 10, 15, 20, 25, 30, m // 2]
        assert bottoms[0].tolist() == sorted(_cover_rows_cyclic([0, m // 2], m, b, K))

    @pytest.mark.parametrize("geometry", [(54, 3, 6), (128, 4, 8), (40, 3, 10)], ids=str)
    def test_adversarial_profiles_include_equal_capacity_arcs(self, geometry):
        # Two 2-row clusters at 0 and g: free arcs of length g and m - g.
        m, b, K = geometry
        clusters = [np.flatnonzero(p) for p in adversarial_row_profiles(m, b, K)]
        assert any(
            len(r) == 4 and r[:2].tolist() == [0, 1] and r[3] == r[2] + 1
            and r[2] // (b + 1) == (m - r[2]) // (b + 1)
            for r in clusters
        )

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


def test_lifetime_kernel_peak_stays_within_budget():
    """The lifetime kernel at b=4, budget sized for 64-trial slices and two
    slices of seeds: the traced peak may exceed the budget only by one
    trial's permutation draw (int64 per node), the largest paper-strategy
    recovery the kernel runs on a failed trial (with its bool fault
    stack), and 64 KiB of fixed overhead."""
    construction = get("bn", d=2, b=4, s=1, t=2)
    params = construction.params
    nodes = params.num_nodes
    spec = LifetimeSpec()
    seeds = list(range(128))
    budget = 64 * lifetime_bytes_per_trial(params)
    run_bn_lifetime_batch(construction, spec, seeds[:2])  # warm caches
    outcomes = run_bn_lifetime_batch(construction, spec, seeds)
    recovery_peak = 0
    for seed, out in zip(seeds, outcomes):
        order = spawn_rng(seed, "lifetime", params.n, params.d).permutation(nodes)
        stack = np.zeros(nodes, dtype=bool)
        stack[order[: out.lifetime + 1]] = True

        def recover(stack=stack.reshape(params.shape)):
            try:
                construction.torus.recover(stack, strategy="paper")
            except ReconstructionError:
                pass

        recovery_peak = max(recovery_peak, _traced(recover)[1])
    traced, peak = _traced(
        lambda: run_bn_lifetime_batch(construction, spec, seeds, max_batch_bytes=budget))
    assert traced == outcomes
    assert peak <= budget + 9 * nodes + recovery_peak + 64 * 1024


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
        # One-shot and lifetime points are grouped on the batch backend;
        # traffic points, and every point on the scalar backend, are not.
        spec = ExperimentSpec(construction="bn", params=BN,
                              grid=(FaultSpec(p=1e-3), LifetimeSpec(),
                                    TrafficSpec(messages=8)), trials=64)

        def counts(runner):
            return [task[4] for _, _, task in runner._iter_tasks(spec)]

        grouped = counts(ExperimentRunner())
        assert grouped[:2] == [(16, 16, 16, 16)] * 2
        assert grouped[2:] == [(16,)] * 4
        assert all(len(c) == 1 for c in counts(ExperimentRunner(backend="scalar")))

    @pytest.mark.parametrize("trials, chunk_size", [(256, 16), (64, 16), (48, 16),
                                                    (40, 16), (16, 16), (1000, 7)])
    def test_every_worker_gets_a_unit(self, trials, chunk_size):
        spec = ExperimentSpec(construction="bn", params=BN,
                              grid=(FaultSpec(p=1e-3), LifetimeSpec()),
                              trials=trials, chunk_size=chunk_size)
        chunks = -(-trials // chunk_size)
        for workers in (1, 2, 3, 4):
            tasks = list(ExperimentRunner(workers=workers)._iter_tasks(spec))
            for point in (0, 1):
                counts = [task[4] for p, _, task in tasks if p == point]
                assert len(counts) >= min(workers, chunks), (workers, point)
                assert max(map(len, counts)) <= -(-chunks // workers)
                assert sum(map(sum, counts)) == trials

    def test_byte_identical_across_worker_counts(self):
        spec = ExperimentSpec(construction="bn", params=BN,
                              grid=(FaultSpec(p=0.004), LifetimeSpec(max_steps=40)),
                              trials=64, name="worker-cap")
        ref = _bytes(ExperimentRunner(backend="scalar").run(spec))
        for workers in (1, 2, 4):
            assert _bytes(ExperimentRunner(workers=workers).run(spec)) == ref, workers

    def test_run_chunk_single_chunk_task(self):
        spec = _spec(16, trials=48)
        fsd = spec.grid[0].to_dict()
        params_items = tuple(sorted(BN.items()))
        direct = [ex._run_chunk(("bn", params_items, fsd, start, 16, "batch", None))
                  for start in (0, 16, 32)]
        block = ex._run_block(("bn", params_items, fsd, 0, (16, 16, 16), "batch", None))
        assert direct == block
