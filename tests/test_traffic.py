"""The traffic pillar: pattern properties, kernel equivalence, workloads.

Three layers, strongest first:

* hypothesis properties over every ``TRAFFIC_PATTERNS`` entry — exact row
  counts (the undercounting regression), ids in range, ``src != dst``
  where the pattern demands it, involutions of the deterministic maps on
  the shapes where they hold, host-adjacency of neighbor traffic, and the
  explicit ``ValueError`` paths for degenerate shapes;
* a hypothesis property asserting the vectorized kernel
  (:func:`repro.fastpath.traffic_batch.simulate_batch`) returns
  ``SimResult``\\ s identical *field for field* to the scalar engine over
  random shapes, patterns, counts, timeouts and injection schedules;
* open-loop workload model coverage (injection order, warmup windows,
  saturation sweep) and the engine's zero-cycle throughput definition.

Shape pools and the pattern-validity guard come from
``repro.testkit.strategies``; the field-for-field ``SimResult``
comparison is ``repro.testkit.oracles.compare_sim_results`` — the same
diff the conformance suite and mutation tests use.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.protocol import TrafficSpec
from repro.api.traffic import message_classes, run_traffic_trial
from repro.fastpath.traffic_batch import (
    ROUTE_BLOCK,
    _free_window,
    link_ids,
    routes_batch,
    simulate_batch,
)
from repro.sim.engine import MSG_UNDELIVERABLE, simulate
from repro.sim.routing import (
    BYZ_MISROUTE,
    ByzantinePlan,
    dimension_ordered_route,
    fault_predicates,
    route_length,
)
from repro.sim.traffic import (
    TRAFFIC_PATTERNS,
    bitreverse_index,
    make_traffic,
    pattern_destinations,
    transpose_index,
)
from repro.sim.workload import make_open_loop, open_loop_stats
from repro.testkit.oracles import compare_sim_results
from repro.testkit.strategies import (
    NON_POW2_SHAPES,
    UNIVERSAL_SHAPES,
    patterns_for,
)
from repro.topology.coords import CoordCodec
from repro.util.rng import spawn_rng


# ---------------------------------------------------------------------------
# Pattern properties (ISSUE 4 satellites 1, 2 and 4)
# ---------------------------------------------------------------------------


class TestPatternProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(UNIVERSAL_SHAPES + NON_POW2_SHAPES),
        pattern=st.sampled_from(sorted(TRAFFIC_PATTERNS)),
        count=st.integers(min_value=0, max_value=400),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_exact_count_in_range_and_distinct(self, shape, pattern, count, seed):
        if pattern not in patterns_for(shape):
            return  # covered by the ValueError tests below
        t = make_traffic(shape, pattern, count, spawn_rng(seed, pattern))
        size = int(np.prod(shape))
        # The undercounting regression: exactly the requested row count.
        assert t.shape == (count, 2)
        assert (t >= 0).all() and (t < size).all()
        if pattern != "neighbor":
            assert (t[:, 0] != t[:, 1]).all()

    def test_count_was_undercounted_before(self):
        """The seed-dependent shortfall the old sampler produced is gone."""
        for pattern in sorted(TRAFFIC_PATTERNS):
            for seed in range(5):
                t = make_traffic((4, 4), pattern, 100, spawn_rng(seed, pattern))
                assert len(t) == 100, (pattern, seed)

    def test_deterministic_for_same_rng(self):
        for pattern in sorted(TRAFFIC_PATTERNS):
            a = make_traffic((4, 4), pattern, 50, spawn_rng(7, pattern))
            b = make_traffic((4, 4), pattern, 50, spawn_rng(7, pattern))
            assert (a == b).all()

    @settings(max_examples=20, deadline=None)
    @given(shape=st.sampled_from([(4, 4), (7, 7), (3, 3, 3), (5, 5)]))
    def test_transpose_involution_on_equal_sides(self, shape):
        codec = CoordCodec(shape)
        idx = codec.all_indices()
        once = transpose_index(codec, idx)
        assert len(np.unique(once)) == codec.size  # a permutation
        back = once
        for _ in range(len(shape) - 1):
            back = transpose_index(codec, back)
        # d applications of the rotation give the identity; for d == 2
        # that is the classic involution.
        assert (back == idx).all()

    @settings(max_examples=20, deadline=None)
    @given(shape=st.sampled_from([(2, 8), (5, 7), (3, 9, 2), (4, 2)]))
    def test_transpose_generalizes_to_non_square(self, shape):
        """On non-square shapes the map is the corner-turn permutation:
        rotated coordinates re-flattened in the rotated shape — a
        bijection, never the old '% shape' corruption."""
        codec = CoordCodec(shape)
        idx = codec.all_indices()
        out = transpose_index(codec, idx)
        assert (out >= 0).all() and (out < codec.size).all()
        assert len(np.unique(out)) == codec.size
        rolled_shape = tuple(int(s) for s in np.roll(shape, 1))
        expect = CoordCodec(rolled_shape).ravel(np.roll(codec.unravel(idx), 1, axis=-1))
        assert (out == expect).all()

    def test_transpose_identity_shapes_raise(self):
        for shape in [(8,), (1, 6), (6, 1), (2, 3, 1), (1, 1)]:
            with pytest.raises(ValueError, match="identity"):
                make_traffic(shape, "transpose", 5, spawn_rng(0))

    @settings(max_examples=20, deadline=None)
    @given(shape=st.sampled_from(UNIVERSAL_SHAPES + [(16,), (32,)]))
    def test_bitreverse_involution_on_pow2(self, shape):
        codec = CoordCodec(shape)
        idx = codec.all_indices()
        out = bitreverse_index(codec, idx)
        assert len(np.unique(out)) == codec.size  # a permutation
        assert (bitreverse_index(codec, out) == idx).all()  # involution

    def test_bitreverse_non_pow2_raises(self):
        for shape in [(6, 6), (5, 7), (3,), (36, 36), (2,), (1,)]:
            with pytest.raises(ValueError, match="power-of-two"):
                make_traffic(shape, "bitreverse", 5, spawn_rng(0))

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from(UNIVERSAL_SHAPES + NON_POW2_SHAPES),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_neighbor_is_host_adjacent(self, shape, seed):
        t = make_traffic(shape, "neighbor", 60, spawn_rng(seed))
        for s, d in t:
            assert route_length(shape, int(s), int(d)) == 1

    def test_unknown_pattern(self):
        with pytest.raises(KeyError):
            make_traffic((4, 4), "nope", 5, spawn_rng(0))

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from(UNIVERSAL_SHAPES),
        pattern=st.sampled_from(sorted(TRAFFIC_PATTERNS)),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_pattern_destinations_match_pattern_semantics(self, shape, pattern, seed):
        codec = CoordCodec(shape)
        src = spawn_rng(seed, "src").integers(0, codec.size, 80)
        dst = pattern_destinations(shape, src, pattern, spawn_rng(seed, "dst"))
        assert dst.shape == src.shape
        assert (dst >= 0).all() and (dst < codec.size).all()
        if pattern in ("uniform", "hotspot"):
            assert (dst != src).all()  # resampled, never self-addressed
        elif pattern == "neighbor":
            for s, d in zip(src, dst):
                assert route_length(shape, int(s), int(d)) == 1
        elif pattern == "transpose":
            assert (dst == transpose_index(codec, src)).all()
        else:
            assert (dst == bitreverse_index(codec, src)).all()


# ---------------------------------------------------------------------------
# Scalar engine vs vectorized kernel: identical SimResults
# ---------------------------------------------------------------------------


def assert_results_identical(a, b):
    mismatches = compare_sim_results(a, b)
    assert not mismatches, "\n".join(m.describe() for m in mismatches)


class TestBatchKernelEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(UNIVERSAL_SHAPES + NON_POW2_SHAPES),
        pattern=st.sampled_from(sorted(TRAFFIC_PATTERNS)),
        count=st.integers(min_value=0, max_value=150),
        max_cycles=st.sampled_from([1, 2, 7, 10_000]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_closed_loop_identical(self, shape, pattern, count, max_cycles, seed):
        if pattern not in patterns_for(shape):
            return
        t = make_traffic(shape, pattern, count, spawn_rng(seed, pattern))
        assert_results_identical(
            simulate(shape, t, max_cycles=max_cycles),
            simulate_batch(shape, t, max_cycles=max_cycles),
        )

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from([(6, 6), (4, 4), (5, 7), (2, 4, 8)]),
        pattern=st.sampled_from(["uniform", "transpose", "neighbor", "hotspot"]),
        injection=st.sampled_from(["bernoulli", "periodic"]),
        rate=st.sampled_from([0.01, 0.05, 0.2]),
        cycles=st.sampled_from([1, 13, 60]),
        max_cycles=st.sampled_from([3, 5, 12, 10_000]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_open_loop_identical(
        self, shape, pattern, injection, rate, cycles, max_cycles, seed
    ):
        traffic, inject = make_open_loop(
            shape, pattern, rate, cycles, spawn_rng(seed, "ol"), injection=injection
        )
        assert_results_identical(
            simulate(shape, traffic, inject=inject, max_cycles=max_cycles),
            simulate_batch(shape, traffic, inject=inject, max_cycles=max_cycles),
        )

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from(UNIVERSAL_SHAPES + NON_POW2_SHAPES),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_routes_batch_matches_scalar_routes(self, shape, seed):
        t = make_traffic(shape, "uniform", 40, spawn_rng(seed))
        ids, offsets, lengths = routes_batch(shape, t)
        assert ids.dtype == np.int32 and len(ids) == lengths.sum()
        for i, (s, d) in enumerate(t):
            r = dimension_ordered_route(shape, int(s), int(d))
            assert lengths[i] == len(r) - 1
            row = ids[offsets[i] : offsets[i] + lengths[i]]
            assert row.tolist() == link_ids(shape, r[None])[0].tolist()

    @pytest.mark.parametrize(
        "shape",
        [(1,), (2,), (7,), (8,), (1, 4), (2, 2), (6, 5), (2, 1, 3), (4, 4, 4),
         (2, 3, 1, 4), (3, 2, 3, 2)],
    )
    def test_routes_batch_matches_scalar_routes_across_blocks(self, shape):
        """Every (src, dst) pair — so every n/2 tie on even sides — tiled and
        shuffled past ROUTE_BLOCK rows, so rows land on both sides of the
        block boundaries; each ragged row must be the link ids of the
        scalar e-cube route, and the rows must follow each other."""
        size = int(np.prod(shape))
        pairs = np.indices((size, size)).reshape(2, -1).T
        ref = [
            link_ids(shape, dimension_ordered_route(shape, int(s), int(d))[None])[0]
            for s, d in pairs
        ]
        reps = ROUTE_BLOCK // len(pairs) + 2
        idx = spawn_rng(size, "route-blocks").permutation(np.tile(np.arange(len(pairs)), reps))
        assert len(idx) > ROUTE_BLOCK
        ids, offsets, lengths = routes_batch(shape, pairs[idx])
        np.testing.assert_array_equal(lengths, [len(ref[k]) for k in idx])
        np.testing.assert_array_equal(offsets, np.cumsum(lengths) - lengths)
        np.testing.assert_array_equal(ids, np.concatenate([ref[k] for k in idx]))
        empty = routes_batch(shape, np.empty((0, 2), dtype=np.int64))
        assert [a.shape for a in empty] == [(0,), (0,), (0,)]

    def test_routes_batch_peak_memory_is_blocked(self):
        """The builder's peak is its ragged output, its O(M * d) legs and
        O(ROUTE_BLOCK * L) block temporaries — never an (M, L) temporary,
        and below one int64 node id per route position (8 * M * (L + 1)
        bytes)."""
        shape = (36, 36)
        traffic = make_traffic(shape, "uniform", 100_000, spawn_rng(5, "peak"))
        tracemalloc.start()
        try:
            ids, offsets, lengths = routes_batch(shape, traffic)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m, d, width = len(traffic), len(shape), int(lengths.max())
        out = ids.nbytes + offsets.nbytes + lengths.nbytes
        legs = 4 * m * d * 8
        block = 8 * ROUTE_BLOCK * width * 8
        assert peak <= out + legs + block
        assert peak < 8 * m * (width + 1)

    def test_edge_cases_identical(self):
        # self-addressed only, empty traffic, mixed
        for t in (
            np.array([[3, 3], [2, 2]]),
            np.empty((0, 2), dtype=np.int64),
            np.array([[0, 1], [5, 5], [1, 0]]),
        ):
            assert_results_identical(simulate((4, 4), t), simulate_batch((4, 4), t))

    def test_inject_validation_matches(self):
        t = np.array([[0, 1]])
        for engine in (simulate, simulate_batch):
            with pytest.raises(ValueError):
                engine((4, 4), t, inject=np.array([1, 2]))
            with pytest.raises(ValueError):
                engine((4, 4), t, inject=np.array([-1]))


def _torus_hops(shape):
    """Every directed torus hop ``(u, v)``, one row per (node, axis,
    direction) — so side-2 axes list their single neighbour twice."""
    codec = CoordCodec(shape)
    coords = codec.unravel(codec.all_indices())
    hops = []
    for axis, n in enumerate(shape):
        if n == 1:
            continue
        for step in (1, -1):
            moved = coords.copy()
            moved[:, axis] = (moved[:, axis] + step) % n
            hops.append(np.stack([codec.all_indices(), codec.ravel(moved)], axis=1))
    return np.concatenate(hops) if hops else np.empty((0, 2), dtype=np.int64)


class TestDenseLinkKernel:
    """The cycle loop's dense link ids and its sort-free arbitration."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_link_ids_are_one_to_one_on_hops(self, d):
        """On every shape with sides 1, 2 and 3 the id ``u * 2d + port``
        is a bijection between distinct hops and their ids: the two
        directions of a side-2 axis (one neighbour) share one id, and no
        other pair of hops does."""
        for shape in itertools.product((1, 2, 3), repeat=d):
            hops = _torus_hops(shape)
            ids = link_ids(shape, hops)[:, 0]
            size = int(np.prod(shape))
            assert ((ids >= 0) & (ids < size * 2 * d)).all(), shape
            assert (ids // (2 * d) == hops[:, 0]).all(), shape
            pairs = {tuple(h) for h in hops.tolist()}
            assert len(set(ids.tolist())) == len(pairs), shape
            by_id = {}
            for i, hop in zip(ids.tolist(), map(tuple, hops.tolist())):
                assert by_id.setdefault(i, hop) == hop, shape

    @pytest.mark.parametrize(
        "shape", [(1,), (2,), (3,), (2, 2), (1, 3), (3, 2), (2, 1, 3), (3, 3, 2),
                  (2, 2, 2, 2), (1, 2, 3, 2), (3, 3, 3, 3)],
    )
    def test_engines_identical_on_small_sides(self, shape):
        size = int(np.prod(shape))
        traffic = spawn_rng(size, "small-sides", str(shape)).integers(0, size, (150, 2))
        assert_results_identical(simulate(shape, traffic), simulate_batch(shape, traffic))

    def test_congested_adaptive_detours_identical(self):
        shape = (6, 6)
        faults = spawn_rng(3, "dense-adaptive").random(36) < 0.12
        node_ok, edge_ok = fault_predicates(faults)
        traffic = make_traffic(shape, "uniform", 300, spawn_rng(3, "dense-adaptive-t"))
        kwargs = dict(node_ok=node_ok, edge_ok=edge_ok)
        adaptive = simulate_batch(shape, traffic, router="adaptive", **kwargs)
        assert adaptive.undeliverable < simulate_batch(shape, traffic, **kwargs).undeliverable
        assert_results_identical(simulate(shape, traffic, router="adaptive", **kwargs),
                                 adaptive)

    def test_congested_byzantine_misroutes_identical(self):
        shape = (6, 6)
        traitors = spawn_rng(4, "dense-byz").random(36) < 0.2
        traffic = make_traffic(shape, "uniform", 300, spawn_rng(4, "dense-byz-t"))

        def plan():
            return ByzantinePlan(traitors, (0.6, 0.2, 0.2), spawn_rng(4, "dense-byz-plan"))

        batch = simulate_batch(shape, traffic, byzantine=plan())
        assert batch.misrouted > 0 and batch.dropped > 0
        assert_results_identical(simulate(shape, traffic, byzantine=plan()), batch)

    @pytest.mark.parametrize("router", ["dimension", "adaptive"])
    def test_crash_faults_and_byzantine_plan_together_identical(self, router):
        """Crash predicates and a Byzantine plan in one run.  Under the
        adaptive router some detoured row is misrouted too, so its
        route is rewritten twice — the detour, then the misroute tail."""
        shape = (6, 6)
        faults = spawn_rng(8, "crash-byz").random(36) < 0.12
        traitors = spawn_rng(8, "crash-byz-traitors").random(36) < 0.2
        node_ok, edge_ok = fault_predicates(faults)
        traffic = make_traffic(shape, "uniform", 300, spawn_rng(8, "crash-byz-t"))
        kwargs = dict(router=router, node_ok=node_ok, edge_ok=edge_ok)

        def plan():
            return ByzantinePlan(traitors, (0.6, 0.2, 0.2), spawn_rng(8, "crash-byz-plan"))

        batch = simulate_batch(shape, traffic, byzantine=plan(), **kwargs)
        assert batch.undeliverable > 0 and batch.misrouted > 0 and batch.dropped > 0
        assert_results_identical(simulate(shape, traffic, byzantine=plan(), **kwargs), batch)
        if router == "adaptive":
            ecube = simulate_batch(shape, traffic, node_ok=node_ok, edge_ok=edge_ok)
            detoured = (ecube.message_status == MSG_UNDELIVERABLE) & (
                batch.message_status != MSG_UNDELIVERABLE
            )
            assert (detoured & (batch.message_actions == BYZ_MISROUTE)).any()

    def test_credits_hold_arrivals_in_the_pools(self):
        """Three classes with two credits each: arrivals of every class
        queue at the source, and each class admits its lowest ids first.
        The schedule is shuffled, so a message arriving later can have a
        lower id than one already waiting and must go ahead of it."""
        shape = (6, 6)
        traffic, inject = make_open_loop(shape, "uniform", 0.2, 30, spawn_rng(5, "pools"))
        inject = spawn_rng(5, "pools-shuffle").permutation(inject)
        classes = message_classes(len(traffic), 3)
        gated = simulate_batch(shape, traffic, inject=inject, classes=classes, credits=2)
        free = simulate_batch(shape, traffic, inject=inject, classes=classes)
        assert gated.cycles > free.cycles
        assert_results_identical(
            simulate(shape, traffic, inject=inject, classes=classes, credits=2), gated
        )

    def test_max_cycles_cut_identical(self):
        shape = (6, 6)
        traffic = make_traffic(shape, "uniform", 400, spawn_rng(6, "cut"))
        cut = simulate_batch(shape, traffic, max_cycles=7)
        assert cut.cycles == 7 and cut.timed_out > 0 and cut.delivered > 0
        assert_results_identical(simulate(shape, traffic, max_cycles=7), cut)

    def test_link_ids_peak_memory_is_blocked(self):
        """The id build's peak is its int32 output, its displacement
        table and O(ROUTE_BLOCK * L) block temporaries — never one
        (M, L) int64 temporary, which is what building all rows at once
        costs.  The padded node routes are rebuilt from the ragged e-cube
        ids (each hop's tail, then the destination), so the ids of the
        padded rows must also give those ids back."""
        shape = (36, 36)
        traffic = make_traffic(shape, "uniform", 100_000, spawn_rng(5, "peak"))
        ragged, _, lengths = routes_batch(shape, traffic)
        nodes = np.full((len(traffic), int(lengths.max()) + 1), -1, dtype=np.int64)
        on_route = np.arange(nodes.shape[1] - 1) < lengths[:, None]
        nodes[:, :-1][on_route] = ragged // (2 * len(shape))
        nodes[np.arange(len(traffic)), lengths] = traffic[:, 1]
        tracemalloc.start()
        try:
            ids = link_ids(shape, nodes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ids.dtype == np.int32 and ids.shape == (len(nodes), nodes.shape[1] - 1)
        np.testing.assert_array_equal(ids[on_route], ragged)
        table = 8 * (2 * 36 * 36 + 1)
        block = 8 * ROUTE_BLOCK * nodes.shape[1] * 8
        assert peak <= ids.nbytes + table + block
        assert table + block < 8 * ids.size  # tighter than one int64 (M, L) copy


def _node(shape, row, col):
    return row * shape[1] + col


def _meeting_pair(shape, k):
    """Two messages whose e-cube routes first want the same link at hop
    ``k``: message 0 goes ``k`` hops down column 0, then along row ``k``;
    message 1 starts ``k`` hops before column 0 on row ``k`` and runs the
    same way, so both ask for the link ``(k, 0) -> (k, 1)`` at hop ``k``."""
    return np.array([
        [_node(shape, 0, 0), _node(shape, k, 6)],
        [_node(shape, k, -k % shape[1]), _node(shape, k, 2)],
    ])


class TestFastForward:
    """The kernel fast-forwards runs of cycles in which every requester
    wins its link; each case must still match the scalar engine."""

    shape = (16, 16)
    n_links = 16 * 16 * 4

    def _window(self, traffic, cap, advance=0):
        flat, offsets, lengths = routes_batch(self.shape, traffic)
        return _free_window(flat, offsets + advance, lengths - advance, cap, self.n_links)

    def test_disjoint_routes_give_the_whole_window(self):
        rows = np.array([[_node(self.shape, r, 0), _node(self.shape, r, 7)] for r in (0, 3, 9)])
        assert self._window(rows, 7) == 7
        assert self._window(rows, 4) == 4
        assert self._window(rows, 5, advance=2) == 5

    @pytest.mark.parametrize("k", [0, 1, 4, 6])
    def test_routes_meeting_at_hop_k_give_k(self, k):
        pair = _meeting_pair(self.shape, k)
        assert self._window(pair, 20) == k
        assert self._window(pair, k + 1) == k
        if k:
            assert self._window(pair, k) == k  # the cap stops short of the meeting
            assert self._window(pair, 20, advance=1) == k - 1

    def test_routes_meet_inside_a_window(self, kernel_log):
        """Cycle 0 runs alone; the look at cycle 1 finds the meeting at
        hop 4, so cycles 1-3 are fast-forwarded and cycle 4 is arbitrated:
        message 0 wins, message 1 waits one cycle."""
        pair = _meeting_pair(self.shape, 4)
        batch = simulate_batch(self.shape, pair)
        assert_results_identical(simulate(self.shape, pair), batch)
        assert kernel_log["windows"][0] == (9, 3)
        assert batch.message_latencies.tolist() == [10, 7] and batch.max_queue == 2

    def test_window_ends_at_the_next_injection(self, kernel_log):
        """An open-loop schedule with gaps: each window stops at the next
        injection, whose cycle admits the new message as usual."""
        s = self.shape
        traffic = np.array([
            [_node(s, 0, 0), _node(s, 8, 8)],
            [_node(s, 3, 3), _node(s, 10, 1)],
            [_node(s, 1, 9), _node(s, 5, 15)],
        ])
        inject = np.array([0, 6, 20])
        batch = simulate_batch(s, traffic, inject=inject)
        assert_results_identical(simulate(s, traffic, inject=inject), batch)
        assert kernel_log["windows"][0] == (5, 5)  # cycles 1-5, then 6 admits
        assert batch.message_latencies.tolist() == [16, 9, 10]

    @pytest.mark.parametrize("max_cycles", [2, 3, 7, 12])
    def test_max_cycles_inside_a_window(self, kernel_log, max_cycles):
        """The window after cycle 0 ends at ``max_cycles``; with one cycle
        left there is nothing to look for."""
        route = np.array([[_node(self.shape, 0, 0), _node(self.shape, 8, 8)]])
        batch = simulate_batch(self.shape, route, max_cycles=max_cycles)
        assert_results_identical(simulate(self.shape, route, max_cycles=max_cycles), batch)
        assert batch.cycles == max_cycles and batch.timed_out == 1
        left = max_cycles - 1
        assert kernel_log["windows"] == ([(left, left)] if left > 1 else [])

    def test_window_stops_at_the_first_delivery_while_credits_wait(self, kernel_log):
        """Two credits, four messages at cycle 0 and one late: two wait in
        the pool, so the first window ends when message 0 delivers — its
        credit admits message 2 the cycle after."""
        s = self.shape
        traffic = np.array([
            [_node(s, 0, 0), _node(s, 0, 3)],
            [_node(s, 2, 0), _node(s, 7, 5)],
            [_node(s, 9, 9), _node(s, 12, 12)],
            [_node(s, 10, 1), _node(s, 14, 4)],
            [_node(s, 5, 5), _node(s, 5, 9)],
        ])
        inject = np.array([0, 0, 0, 0, 30])
        batch = simulate_batch(s, traffic, inject=inject, credits=2)
        assert_results_identical(simulate(s, traffic, inject=inject, credits=2), batch)
        assert kernel_log["windows"][0] == (2, 2)
        assert batch.message_latencies.tolist() == [3, 10, 9, 16, 4]

    def test_serve_query_runs_few_ordinary_cycles(self, kernel_log):
        """32 uniform messages on the 36x36 guest, as a serve query sends
        them, run about 32 cycles of which on average at most 3 are
        arbitrated one at a time; the rest are fast-forwarded."""
        shape, queries = (36, 36), 40
        cycles = 0
        for seed in range(queries):
            traffic = make_traffic(shape, "uniform", 32, spawn_rng(seed, "serve-traffic"))
            batch = simulate_batch(shape, traffic)
            cycles += batch.cycles
            assert_results_identical(simulate(shape, traffic), batch)
        assert cycles >= 25 * queries
        assert kernel_log["ordinary"] <= 3 * queries


# ---------------------------------------------------------------------------
# Engine semantics (ISSUE 4 satellite 3)
# ---------------------------------------------------------------------------


class TestEngineSemantics:
    def test_zero_cycle_throughput_counts_deliveries(self):
        """Self-addressed-only traffic delivers in zero cycles; throughput
        reports delivered-per-(one)-cycle instead of the old 0.0."""
        res = simulate((4, 4), np.array([[3, 3], [7, 7]]))
        assert res.cycles == 0 and res.delivered == 2
        assert res.throughput == 2.0
        empty = simulate((4, 4), np.empty((0, 2), dtype=np.int64))
        assert empty.throughput == 0.0

    def test_message_latencies_align_with_ids(self):
        t = np.array([[0, 3], [5, 5], [0, 3]])
        res = simulate((6, 6), t)
        dist = route_length((6, 6), 0, 3)
        assert res.message_latencies.tolist() == [dist, 0, dist + 1]
        assert res.latencies.tolist() == [dist, 0, dist + 1]

    def test_injected_latency_measured_from_injection(self):
        t = np.array([[0, 3]])
        base = simulate((6, 6), t)
        late = simulate((6, 6), t, inject=np.array([10]))
        assert late.latencies.tolist() == base.latencies.tolist()
        assert late.cycles == base.cycles + 10

    def test_never_injected_counts_timed_out(self):
        t = np.array([[0, 3], [3, 0]])
        res = simulate((6, 6), t, inject=np.array([0, 50]), max_cycles=20)
        assert res.delivered == 1 and res.timed_out == 1


# ---------------------------------------------------------------------------
# Open-loop workload model
# ---------------------------------------------------------------------------


class TestWorkload:
    def test_injection_order_is_cycle_major(self):
        traffic, inject = make_open_loop((6, 6), "uniform", 0.1, 30, spawn_rng(0))
        assert (np.diff(inject) >= 0).all()
        assert len(traffic) == len(inject)
        assert inject.max() < 30

    def test_bernoulli_rate_scales_message_count(self):
        lo = make_open_loop((8, 8), "uniform", 0.01, 100, spawn_rng(1))[0]
        hi = make_open_loop((8, 8), "uniform", 0.2, 100, spawn_rng(1))[0]
        assert len(hi) > len(lo) > 0

    def test_periodic_is_deterministic_and_staggered(self):
        a_t, a_i = make_open_loop((6, 6), "neighbor", 0.25, 24, spawn_rng(2),
                                  injection="periodic")
        b_t, b_i = make_open_loop((6, 6), "neighbor", 0.25, 24, spawn_rng(2),
                                  injection="periodic")
        assert (a_t == b_t).all() and (a_i == b_i).all()
        # period 4: every node injects cycles/period times, phases 0..3
        assert set(np.unique(a_i % 4)) == {0, 1, 2, 3}
        assert len(a_t) == 36 * (24 // 4)

    def test_transpose_fixed_points_not_injected(self):
        traffic, _ = make_open_loop((4, 4), "transpose", 1.0, 1, spawn_rng(3))
        diag = {int(CoordCodec((4, 4)).ravel(np.array([i, i]))) for i in range(4)}
        assert set(traffic[:, 0]).isdisjoint(diag)
        assert (traffic[:, 0] != traffic[:, 1]).all()

    def test_validation(self):
        rng = spawn_rng(0)
        with pytest.raises(ValueError):
            make_open_loop((4, 4), "uniform", 0.0, 10, rng)
        with pytest.raises(ValueError):
            make_open_loop((4, 4), "uniform", 0.1, 0, rng)
        with pytest.raises(ValueError):
            make_open_loop((4, 4), "uniform", 0.1, 10, rng, injection="nope")

    def test_open_loop_stats_warmup_window(self):
        shape = (6, 6)
        traffic, inject = make_open_loop(shape, "uniform", 0.05, 80, spawn_rng(4))
        res = simulate(shape, traffic, inject=inject)
        full = open_loop_stats(res, inject, horizon=80)
        warm = open_loop_stats(res, inject, warmup=40, horizon=80)
        assert full["offered"] == len(traffic)
        assert warm["offered"] == int((inject >= 40).sum()) < full["offered"]
        assert warm["delivered"] + warm["timed_out"] == warm["offered"]
        # The window is the injection span, never the drain-inclusive run.
        assert full["window"] == 80 and warm["window"] == 40

    def test_window_is_injection_span_not_drain(self):
        """Offered load is normalised by the injection horizon: the
        congested drain after injection stops must not dilute it."""
        shape = (4, 4)
        # Everything injected in cycle 0 at once; the drain takes longer.
        t = np.stack([np.zeros(12, dtype=np.int64), np.arange(1, 13)], axis=1)
        inject = np.zeros(12, dtype=np.int64)
        res = simulate(shape, t, inject=inject)
        assert res.cycles > 1
        stats = open_loop_stats(res, inject, horizon=1)
        assert stats["window"] == 1
        assert stats["offered_rate"] == 12.0  # not 12 / drain_length
        # throughput counts only completions inside the window; the rest
        # of the deliveries are drain, still visible in "delivered"
        assert stats["delivered"] == 12
        assert stats["throughput"] < 12.0

    def test_final_window_cycle_delivery_counts(self):
        """A delivery completing in the window's last cycle is in-window
        (the off-by-one the old `finish < window` convention dropped)."""
        t = np.array([[0, 3]])
        inject = np.array([0])
        res = simulate((6, 6), t, inject=inject)
        lat = int(res.latencies[0])
        stats = open_loop_stats(res, inject, horizon=lat)
        assert stats["timed_out"] == 0 and stats["delivered"] == 1
        assert stats["throughput"] * stats["window"] == 1  # completion at lat-1
        # one cycle earlier and the completion is post-horizon drain
        assert open_loop_stats(res, inject, horizon=lat - 1)["throughput"] == 0.0

    def test_saturation_sweep_offered_monotone(self):
        def ladder(engine):
            return [
                run_traffic_trial(
                    (6, 6),
                    TrafficSpec(injection="bernoulli", rate=rate, cycles=60,
                                warmup=10, max_cycles=400),
                    5, engine=engine,
                ).to_dict()
                for rate in (0.01, 0.05, 0.2)
            ]

        rows = ladder(simulate)
        offered = [r["offered"] for r in rows]  # one 50-cycle window each
        assert offered == sorted(offered)
        assert rows == ladder(simulate_batch)  # engines agree row for row

    def test_open_loop_max_is_a_float(self):
        """``max`` never flips type with emptiness (NaN when nothing was
        delivered), as ``latency_stats`` promises."""
        shape = (6, 6)
        traffic, inject = make_open_loop(shape, "uniform", 0.05, 40, spawn_rng(4))
        stats = open_loop_stats(simulate(shape, traffic, inject=inject), inject)
        assert stats["delivered"] > 0
        assert type(stats["max"]) is float
