"""The painting procedure (proof of Lemma 5, step 1).

Localises faults:  every faulty tile must end up *black*, enclosed by
fault-free *white* frames; the connected components of black tiles
("black regions") are small (fit inside a ``b^3``-cube of tiles) and
pairwise well-separated, so straight band segments can be laid per region
and interpolated through the white area.

Implementation notes (see DESIGN.md §2):

* Regions are labelled with **king-move connectivity** (paper: torus-edge
  adjacency).  Overriding paint can make two frames' interiors touch
  diagonally; king connectivity merges them, which is always safe.
  Labelling walks a table of each tile's cyclic king neighbours, built
  once per tile-grid shape; labels ascend with each region's smallest
  flat tile.
* After painting, black regions are **dilated by one tile along dim 0** so
  that straight segments whose masked window pokes across a tile-row
  boundary are still pinned by black tiles at every column they mask.
* Extent invariants are verified: a region may span at most ``b`` tiles in
  every column axis and ``b + 2`` tiles along dim 0 (b from the frame
  interior + 2 from dilation); violations raise ``region-overflow``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from repro.core.healthiness import find_enclosing_frame
from repro.core.params import BnParams
from repro.errors import ReconstructionError
from repro.topology.grid import TileGeometry

__all__ = ["PaintResult", "Region", "paint_tiles"]


@dataclass
class Region:
    """A black region: a king-connected set of black tiles."""

    label: int
    tiles_flat: np.ndarray  # flat tile-grid indices
    #: contiguous cyclic range of tile-rows covered: (first_strip, num_strips)
    strip_start: int = 0
    strip_count: int = 0


@dataclass
class PaintResult:
    black: np.ndarray  # boolean tile grid (True = black), after dilation
    labels: np.ndarray  # int tile grid, -1 = white, else region label
    regions: list[Region]


def paint_tiles(params: BnParams, faults: np.ndarray, geo: TileGeometry) -> PaintResult:
    """Run the painting procedure; raises ``no-frame`` / ``region-overflow``."""
    tile_faulty = geo.tile_fault_counts(faults) > 0
    flat_faulty = tile_faulty.ravel()
    # 0 = unpainted, 1 = white, 2 = black
    color = np.zeros(geo.grid.size, dtype=np.int8)

    for tile_flat in np.flatnonzero(flat_faulty):
        if color[tile_flat] == 2:  # already enclosed in black
            continue
        tile = tuple(geo.grid.unravel(int(tile_flat)))
        found = find_enclosing_frame(geo, flat_faulty, tile)
        if found is None:
            raise ReconstructionError(
                f"no fault-free enclosing frame for faulty tile {tile}",
                category="no-frame",
            )
        corner, size = found
        frame, interior = geo.frame_and_interior(corner, size)
        color[frame] = 1
        color[interior] = 2

    # Sanity: every faulty tile is black; every white tile is fault-free.
    if (flat_faulty & (color != 2)).any():
        raise ReconstructionError(
            "painting left a faulty tile outside black", category="no-frame"
        )

    black = (color == 2).reshape(geo.grid_shape)
    black = _dilate_dim0(black)
    labels, regions = _label_regions(black, geo, params)
    return PaintResult(black=black, labels=labels, regions=regions)


def _dilate_dim0(black: np.ndarray) -> np.ndarray:
    """Black := black ∪ shift(black, ±1 along axis 0) (cyclic)."""
    return black | np.roll(black, 1, axis=0) | np.roll(black, -1, axis=0)


def _label_regions(
    black: np.ndarray, geo: TileGeometry, params: BnParams
) -> tuple[np.ndarray, list[Region]]:
    """Cyclic king-connectivity components of the black tile set.

    A depth-first walk over the grid shape's king-neighbour table
    (:func:`_king_neighbours`), started from each unlabelled black tile
    in flat order, so labels ascend with each region's smallest flat
    tile."""
    neighbours = _king_neighbours(black.shape)
    is_black = black.ravel().tolist()
    lab = [-1] * len(is_black)
    regions: list[Region] = []
    for start in np.flatnonzero(black).tolist():
        if lab[start] != -1:
            continue
        label = len(regions)
        lab[start] = label
        stack = [start]
        members = []
        while stack:
            cur = stack.pop()
            members.append(cur)
            for nb in neighbours[cur]:
                if is_black[nb] and lab[nb] == -1:
                    lab[nb] = label
                    stack.append(nb)
        region = Region(label=label, tiles_flat=np.array(sorted(members), dtype=np.int64))
        _finish_region(region, geo, params)
        regions.append(region)
    return np.array(lab, dtype=np.int64).reshape(black.shape), regions


@functools.lru_cache(maxsize=16)
def _king_neighbours(grid_shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Per flat tile of a ``grid_shape`` tile grid, the flat indices of its
    ``3^d - 1`` cyclic king neighbours; built once per grid shape."""
    ndim = len(grid_shape)
    tiles = np.indices(grid_shape).reshape(ndim, -1).T
    nbrs = (tiles[:, None, :] + np.array(_king_offsets(ndim))) % np.array(grid_shape)
    flat = np.ravel_multi_index(tuple(np.moveaxis(nbrs, -1, 0)), grid_shape)
    return tuple(map(tuple, flat.tolist()))


def _king_offsets(ndim: int):
    return [
        off
        for off in itertools.product((-1, 0, 1), repeat=ndim)
        if any(o != 0 for o in off)
    ]


def _finish_region(region: Region, geo: TileGeometry, params: BnParams) -> None:
    """Compute the strip range and verify extent bounds."""
    b = params.b
    # Column-axis extent <= b tiles (a region fits in a b^3-cube).
    for axis in range(1, geo.ndim):
        ext = geo.tile_extent(region.tiles_flat, axis)
        if ext > b:
            raise ReconstructionError(
                f"black region {region.label} spans {ext} tiles on axis {axis} "
                f"(> b = {b})",
                category="region-overflow",
            )
    # Dim-0 extent <= b + 2 tiles (b from the frame interior + dilation).
    ext0 = geo.tile_extent(region.tiles_flat, 0)
    if ext0 > b + 2:
        raise ReconstructionError(
            f"black region {region.label} spans {ext0} tile-rows (> b+2 = {b + 2})",
            category="region-overflow",
        )
    # Contiguous cyclic strip range.
    rows = np.unique(geo.grid.unravel(region.tiles_flat)[..., 0])
    n_rows = geo.grid_shape[0]
    present = np.zeros(n_rows, dtype=bool)
    present[rows] = True
    if present.all():
        region.strip_start, region.strip_count = 0, n_rows
        return
    # Find the largest cyclic gap; the range starts right after it.
    from repro.util.cyclic import max_free_run

    gap = max_free_run(present)
    idx = np.flatnonzero(present)
    ext = np.concatenate([idx, [idx[0] + n_rows]])
    runs = np.diff(ext) - 1
    j = int(np.argmax(runs))
    region.strip_start = int(ext[j] + 1 + runs[j]) % n_rows
    region.strip_count = n_rows - int(gap)
