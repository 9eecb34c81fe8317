"""Tests for the painting procedure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.painting import paint_tiles
from repro.errors import ReconstructionError
from repro.topology.grid import TileGeometry


@pytest.fixture()
def geo(bn2_small):
    return TileGeometry(bn2_small.shape, bn2_small.b)


def faults_at(params, coords):
    f = np.zeros(params.shape, dtype=bool)
    for c in coords:
        f[c] = True
    return f


class TestBasicPainting:
    def test_no_faults_no_regions(self, bn2_small, geo):
        res = paint_tiles(bn2_small, faults_at(bn2_small, []), geo)
        assert not res.black.any()
        assert res.regions == []

    def test_single_fault_single_region(self, bn2_small, geo):
        res = paint_tiles(bn2_small, faults_at(bn2_small, [(20, 20)]), geo)
        assert len(res.regions) == 1
        # the faulty tile (2,2) must be black
        assert res.black[2, 2]

    def test_faulty_tiles_black(self, bn2_small, geo):
        coords = [(0, 0), (27, 18)]  # tiles (0,0) and (3,2): frames disjoint
        res = paint_tiles(bn2_small, faults_at(bn2_small, coords), geo)
        for (r, c) in coords:
            assert res.black[r // 9, c // 9]

    def test_dilation_along_dim0(self, bn2_small, geo):
        res = paint_tiles(bn2_small, faults_at(bn2_small, [(20, 20)]), geo)
        # tile (2,2) faulty -> tiles (1,2) and (3,2) dilated black
        assert res.black[1, 2] and res.black[3, 2]

    def test_labels_match_black(self, bn2_small, geo):
        res = paint_tiles(bn2_small, faults_at(bn2_small, [(20, 20), (0, 0)]), geo)
        assert ((res.labels >= 0) == res.black).all()


class TestRegions:
    def test_far_faults_separate_regions(self, bn2_small, geo):
        res = paint_tiles(bn2_small, faults_at(bn2_small, [(0, 0), (27, 18)]), geo)
        assert len(res.regions) == 2

    def test_near_faults_merge(self, bn2_small, geo):
        # same tile -> one region
        res = paint_tiles(bn2_small, faults_at(bn2_small, [(20, 20), (21, 21)]), geo)
        assert len(res.regions) == 1

    def test_strip_range_contiguous(self, bn2_small, geo):
        res = paint_tiles(bn2_small, faults_at(bn2_small, [(20, 20)]), geo)
        region = res.regions[0]
        rows = np.unique(geo.grid.unravel(region.tiles_flat)[..., 0])
        assert region.strip_count == len(rows)

    def test_region_wrap_strip_range(self, bn2_small, geo):
        # fault in tile-row 0: dilation wraps to the last tile-row
        res = paint_tiles(bn2_small, faults_at(bn2_small, [(0, 20)]), geo)
        region = res.regions[0]
        assert region.strip_count == 3
        assert region.strip_start == geo.grid_shape[0] - 1  # starts at wrapped row


class TestFailureModes:
    def test_saturated_grid_no_frame(self, bn2_small, geo):
        p = bn2_small
        coords = []
        for r in range(0, geo.grid_shape[0], 2):
            for c in range(geo.grid_shape[1]):
                coords.append((r * 9, c * 9))
        with pytest.raises(ReconstructionError) as ei:
            paint_tiles(p, faults_at(p, coords), geo)
        assert ei.value.category == "no-frame"


class TestLabellingReference:
    """``_label_regions`` against networkx connected components of the
    cyclic king graph on random black tile grids."""

    @staticmethod
    def _king_graph(nx, grid_shape):
        """Tiles are adjacent when every coordinate differs by at most one,
        cyclically (so a side of 3 makes all its rows mutual neighbours)."""
        coords = np.indices(grid_shape).reshape(len(grid_shape), -1).T.tolist()
        graph = nx.Graph()
        graph.add_nodes_from(range(len(coords)))
        for u, cu in enumerate(coords):
            for v in range(u + 1, len(coords)):
                if all((a - c) % side in (0, 1, side - 1)
                       for a, c, side in zip(cu, coords[v], grid_shape)):
                    graph.add_edge(u, v)
        return graph

    @staticmethod
    def _strip_range(rows, n_rows):
        """The tile-row range a region covers: the shortest cyclic window
        holding its rows, starting after the first largest gap."""
        rows = sorted(set(rows))
        if len(rows) == n_rows:
            return 0, n_rows
        gaps = [(rows[(i + 1) % len(rows)] - r - 1) % n_rows for i, r in enumerate(rows)]
        j = gaps.index(max(gaps))
        return rows[(j + 1) % len(rows)], n_rows - max(gaps)

    @pytest.mark.parametrize("grid_shape", [(3, 3), (6, 4), (8, 7), (3, 4, 3), (5, 4, 4)])
    def test_matches_networkx_components(self, grid_shape):
        from types import SimpleNamespace

        from repro.core.painting import _label_regions

        nx = pytest.importorskip("networkx")
        geo = TileGeometry(tuple(9 * side for side in grid_shape), 3)
        # A band width no region can exceed, so no draw overflows.
        params = SimpleNamespace(b=max(grid_shape))
        graph = self._king_graph(nx, grid_shape)
        rng = np.random.default_rng(len(graph))
        for density in (0.05, 0.15, 0.3, 0.5, 0.8):
            for _ in range(4):
                black = rng.random(grid_shape) < density
                labels, regions = _label_regions(black, geo, params)
                tiles = graph.subgraph(np.flatnonzero(black).tolist())
                comps = sorted(sorted(c) for c in nx.connected_components(tiles))
                assert [r.label for r in regions] == list(range(len(comps)))
                assert [r.tiles_flat.tolist() for r in regions] == comps
                expected = np.full(black.size, -1)
                for label, comp in enumerate(comps):
                    expected[comp] = label
                assert labels.ravel().tolist() == expected.tolist()
                for region, comp in zip(regions, comps):
                    rows = np.unravel_index(comp, grid_shape)[0].tolist()
                    assert (region.strip_start, region.strip_count) == self._strip_range(
                        rows, grid_shape[0])
