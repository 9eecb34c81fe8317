"""Tests for the healthiness checker (Lemma 4's three conditions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.healthiness import check_healthiness, find_enclosing_frame
from repro.testkit.oracles import reference_enclosing_frame
from repro.topology.grid import TileGeometry


def empty_faults(p):
    return np.zeros(p.shape, dtype=bool)


class TestNoFaults:
    def test_fault_free_is_healthy(self, bn2_small):
        rep = check_healthiness(bn2_small, empty_faults(bn2_small))
        assert rep.healthy
        assert rep.num_faults == 0
        assert "healthy=True" in rep.summary()


class TestCondition1:
    def test_dense_rows_violate(self, bn2_small):
        p = bn2_small
        faults = empty_faults(p)
        # one fault every 2 rows in rows 0..17 of column 0: no run of
        # 2b = 6 consecutive fault-free rows in the brick at row-tile 0/1
        faults[0:18:2, 0] = True
        rep = check_healthiness(p, faults)
        assert not rep.cond1_ok
        assert rep.cond1_violations

    def test_sparse_rows_ok(self, bn2_small):
        p = bn2_small
        faults = empty_faults(p)
        faults[0, 0] = True
        rep = check_healthiness(p, faults)
        assert rep.cond1_ok


class TestCondition2:
    def test_many_faults_in_one_brick(self, bn2_small):
        p = bn2_small
        faults = empty_faults(p)
        # s = 1, so two faults in one brick violate condition 2 (but give
        # them distance so condition 1 survives)
        faults[0, 0] = True
        faults[8, 3] = True
        rep = check_healthiness(p, faults)
        assert not rep.cond2_ok
        assert rep.max_brick_faults >= 2

    def test_single_fault_ok(self, bn2_small):
        p = bn2_small
        faults = empty_faults(p)
        faults[20, 20] = True
        rep = check_healthiness(p, faults)
        assert rep.cond2_ok


class TestCondition3:
    def test_isolated_fault_has_frame(self, bn2_small):
        p = bn2_small
        faults = empty_faults(p)
        faults[0, 0] = True
        rep = check_healthiness(p, faults)
        # The faulty tile itself is enclosable (what Lemma 5 needs)...
        assert rep.cond3_faulty_ok
        assert rep.sufficient
        # ...but at b=3 the strict every-node condition already fails for
        # the neighbours of the faulty tile (their only 3-frame contains it).
        assert not rep.cond3_ok

    def test_fault_lattice_blocks_frames(self, bn2_small):
        p = bn2_small
        faults = empty_faults(p)
        # a fault in every second tile leaves no fault-free 3-frame
        geo = TileGeometry(p.shape, p.b)
        for r in range(0, geo.grid_shape[0], 2):
            for c in range(geo.grid_shape[1]):
                faults[r * geo.tile_side, c * geo.tile_side] = True
        rep = check_healthiness(p, faults)
        assert not rep.cond3_ok


class TestFindEnclosingFrame:
    def test_finds_centred_frame(self, bn2_small):
        p = bn2_small
        geo = TileGeometry(p.shape, p.b)
        tf = np.zeros(geo.grid.size, dtype=bool)
        tf[geo.grid.ravel(np.array([2, 2]))] = True
        found = find_enclosing_frame(geo, tf, (2, 2))
        assert found is not None
        corner, s = found
        assert s == 3
        _, interior = geo.frame_and_interior(corner, s)
        assert geo.grid.ravel(np.array([2, 2])) in interior

    def test_none_when_saturated(self, bn2_small):
        p = bn2_small
        geo = TileGeometry(p.shape, p.b)
        tf = np.ones(geo.grid.size, dtype=bool)
        assert find_enclosing_frame(geo, tf, (0, 0)) is None


    @pytest.mark.parametrize("grid, b", [
        ((4, 4), 3), ((4, 4), 4), ((8, 6), 3), ((8, 6), 5), ((5, 7), 4), ((4, 4, 4), 3),
    ], ids=str)
    def test_gather_equals_the_centre_first_scan(self, grid, b):
        geo = TileGeometry(tuple(b * b * g for g in grid), b)
        rng = np.random.default_rng(sum(grid) * 10 + b)
        for density in (0.0, 0.05, 0.15, 0.3, 0.5):
            tf = rng.random(geo.grid.size) < density
            for tile in np.ndindex(*grid):
                found = find_enclosing_frame(geo, tf, tile)
                assert found == reference_enclosing_frame(geo, tf, tile), (density, tile)
                if found is not None:
                    assert all(isinstance(c, int) for c in found[0])


class TestHealthinessVsRecovery:
    def test_sufficient_instances_always_recover(self, bn2_small):
        """The paper's Lemma 5: (sufficient) healthiness => reconstructible.
        We check the implication empirically on random instances."""
        from repro.core.bn import BTorus
        from repro.util.rng import spawn_rng

        bt = BTorus(bn2_small)
        p_fault = bn2_small.paper_fault_probability
        tested = 0
        for seed in range(30):
            rng = spawn_rng(seed, "health-vs-recovery")
            faults = bt.sample_faults(p_fault, rng)
            rep = bt.check_health(faults)
            assert rep.sufficient or not rep.healthy  # healthy => sufficient
            if rep.sufficient:
                tested += 1
                assert bt.survives(faults), f"sufficient instance failed (seed {seed})"
        # s=1 makes condition 2 strict (any brick with 2 faults fails), so
        # only require a meaningful sample of sufficient instances here.
        assert tested >= 8
