"""Tests for tile / brick / frame geometry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.testkit.oracles import reference_frame_and_interior
from repro.topology.grid import TileGeometry


@pytest.fixture()
def geo():
    # b=3 -> tile 9; shape (54, 36) -> grid (6, 4)
    return TileGeometry((54, 36), 3)


class TestConstruction:
    def test_grid_shape(self, geo):
        assert geo.grid_shape == (6, 4)
        assert geo.tile_side == 9

    def test_rejects_indivisible(self):
        with pytest.raises(ParameterError):
            TileGeometry((50, 36), 3)

    def test_rejects_small_b(self):
        with pytest.raises(ParameterError):
            TileGeometry((16, 16), 2)

    def test_rejects_tiny_grid(self):
        # grid would be 2x2 < b=3 tiles
        with pytest.raises(ParameterError):
            TileGeometry((18, 18), 3)


class TestTiles:
    def test_tile_of_coords(self, geo):
        assert geo.tile_of_coords(np.array([10, 30])).tolist() == [1, 3]

    def test_tile_fault_counts(self, geo):
        faults = np.zeros((54, 36), dtype=bool)
        faults[0, 0] = True
        faults[1, 2] = True  # same tile (0,0)
        faults[53, 35] = True  # tile (5,3)
        counts = geo.tile_fault_counts(faults)
        assert counts[0, 0] == 2
        assert counts[5, 3] == 1
        assert counts.sum() == 3

    def test_count_shape_mismatch(self, geo):
        with pytest.raises(ValueError):
            geo.tile_fault_counts(np.zeros((10, 10), dtype=bool))


class TestBricks:
    def test_brick_count(self, geo):
        assert len(list(geo.brick_corners())) == 6 * 4

    def test_brick_tiles_span_b_wide(self, geo):
        tiles = geo.brick_tiles((0, 0))
        # 1 tile tall x b=3 tiles wide
        assert len(tiles) == 3
        coords = geo.grid.unravel(tiles)
        assert set(coords[:, 0].tolist()) == {0}
        assert sorted(coords[:, 1].tolist()) == [0, 1, 2]

    def test_brick_node_block_shape_and_wrap(self, geo):
        faults = np.zeros((54, 36), dtype=bool)
        faults[0, 0] = True
        block = geo.brick_node_block(faults, (0, 3))  # wraps columns 27..36+... -> 27..53 mod 36
        assert block.shape == (9, 27)
        assert block.sum() == 1  # column 0 == wrapped column 36


class TestFrames:
    def test_frame_and_interior_sizes(self, geo):
        frame, interior = geo.frame_and_interior((0, 0), 3)
        assert len(frame) == 8 and len(interior) == 1
        assert len(np.intersect1d(frame, interior)) == 0

    def test_frame_too_small(self, geo):
        with pytest.raises(ValueError):
            geo.frame_and_interior((0, 0), 2)

    def test_frame_too_large(self, geo):
        with pytest.raises(ValueError):
            geo.frame_and_interior((0, 0), 5)  # grid min is 4 -> s <= 4

    def test_enclosing_corners_contain_tile(self, geo):
        tile = (2, 1)
        for corner in geo.enclosing_corners(tile, 3):
            _, interior = geo.frame_and_interior(corner, 3)
            flat = geo.grid.ravel(np.array(tile))
            assert flat in interior

    def test_concentric_corner_is_enclosing(self, geo):
        tile = (4, 2)
        corner = geo.concentric_corners(tile, 3)
        _, interior = geo.frame_and_interior(corner, 3)
        assert geo.grid.ravel(np.array(tile)) in interior


#: Tile grids for the template-vs-reference checks: square, both
#: rectangular orientations (even and odd sides) and a 3-D grid.
TEMPLATE_GRIDS = [(4, 4), (8, 6), (5, 7), (4, 4, 4)]


class TestFrameTemplates:
    @pytest.mark.parametrize("grid", TEMPLATE_GRIDS, ids=str)
    def test_every_size_and_corner_matches_the_reference(self, grid):
        geo = TileGeometry(tuple(9 * g for g in grid), 3)
        for s in range(3, min(grid) + 1):
            for corner in np.ndindex(*grid):
                frame, interior = geo.frame_and_interior(corner, s)
                ref_frame, ref_interior = reference_frame_and_interior(geo, corner, s)
                assert frame.tolist() == ref_frame.tolist(), (corner, s)
                assert interior.tolist() == ref_interior.tolist(), (corner, s)

    @pytest.mark.parametrize("grid", TEMPLATE_GRIDS, ids=str)
    def test_enclosing_frames_are_the_enclosing_corners_frames(self, grid):
        geo = TileGeometry(tuple(9 * g for g in grid), 3)
        tile = tuple(g - 1 for g in grid)
        for s in range(3, min(grid) + 1):
            corners, frames = geo.enclosing_frames(tile, s)
            assert [tuple(c) for c in corners.tolist()] == list(
                geo.enclosing_corners(tile, s))
            for corner, frame in zip(corners, frames):
                assert frame.tolist() == geo.frame_and_interior(corner, s)[0].tolist()

    def test_built_once_per_size(self, geo):
        assert geo._template(3) is geo._template(3)
        assert geo._template(4) is not geo._template(3)

    def test_reference_rejects_the_same_sizes(self, geo):
        for s in (2, 5):
            with pytest.raises(ValueError):
                reference_frame_and_interior(geo, (0, 0), s)


class TestExtent:
    def test_extent_simple(self, geo):
        tiles = geo.grid.ravel(np.array([[0, 0], [0, 2]]))
        assert geo.tile_extent(tiles, 1) == 3

    def test_extent_wraps(self, geo):
        tiles = geo.grid.ravel(np.array([[0, 3], [0, 0]]))
        # columns 3 and 0 are cyclically adjacent in a 4-grid -> extent 2
        assert geo.tile_extent(tiles, 1) == 2

    def test_extent_full(self, geo):
        tiles = geo.grid.ravel(np.array([[0, 0], [0, 1], [0, 2], [0, 3]]))
        assert geo.tile_extent(tiles, 1) == 4
