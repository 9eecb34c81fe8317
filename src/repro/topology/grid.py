"""Tile / brick / frame geometry for the ``B^d_n`` construction (Section 3).

The paper partitions the augmented torus into **tiles** of side ``b^2`` in
every dimension.  On top of tiles it defines:

* **bricks** — ``b^2 x b^3 x ... x b^3`` tiled submeshes (1 tile tall in the
  first dimension, ``b`` tiles wide in every other dimension),
* **s-frames** — the boundary tiles of an ``s b^2 x ... x s b^2`` tiled
  submesh (``s >= 3``), used to *enclose* faults during painting.

All boxes are tile-aligned and cyclic (the host is a torus).  Tiles are
addressed by coordinates on the *tile grid*, whose shape is the node shape
divided by ``b^2`` per axis.

An s-frame has the same shape wherever it sits on the tile grid, so its
(frame, interior) tile offsets are a *template* computed once per ``s``
and per geometry; placing a frame is adding its corner modulo the grid.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.topology.coords import CoordCodec

__all__ = ["TileGeometry"]


class TileGeometry:
    """Tile bookkeeping for a ``shape`` torus with band parameter ``b``.

    Frame geometry is translation-invariant, so each ``s`` gets one
    template, built lazily on first use and reused for every corner: the
    frame and interior offsets from the box corner, and the centre-first
    offsets of the boxes that enclose a tile with their frames.

    Parameters
    ----------
    shape:
        Node-level side lengths; every entry must be divisible by ``b**2``.
    b:
        The paper's band-width parameter (``b ~ log n``); tiles have side
        ``b**2``.
    """

    def __init__(self, shape: Sequence[int], b: int) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.b = int(b)
        if self.b < 3:
            raise ParameterError("b must be >= 3 (s-frames need s >= 3)")
        self.tile_side = self.b * self.b
        for s in self.shape:
            if s % self.tile_side != 0:
                raise ParameterError(f"side {s} not divisible by tile side {self.tile_side}")
        self.grid_shape = tuple(s // self.tile_side for s in self.shape)
        self.grid = CoordCodec(self.grid_shape)
        self._grid_sides = np.asarray(self.grid_shape, dtype=np.int64)
        self._templates: dict[int, tuple[np.ndarray, ...]] = {}
        self.ndim = len(self.shape)
        if min(self.grid_shape) < self.b:
            raise ParameterError(
                f"tile grid {self.grid_shape} too small for frames up to size b={self.b}"
            )

    # -- tiles ----------------------------------------------------------------

    def tile_of_coords(self, coords: np.ndarray) -> np.ndarray:
        """Tile-grid coordinates of node coordinates (shape (..., d))."""
        return np.asarray(coords, dtype=np.int64) // self.tile_side

    def tile_fault_counts(self, faults: np.ndarray) -> np.ndarray:
        """Per-tile fault counts. ``faults``: boolean array of node shape."""
        if faults.shape != self.shape:
            raise ValueError(f"fault array shape {faults.shape} != {self.shape}")
        view_shape = []
        for g in range(self.ndim):
            view_shape += [self.grid_shape[g], self.tile_side]
        v = faults.reshape(view_shape)
        axes = tuple(range(1, 2 * self.ndim, 2))
        return v.sum(axis=axes)

    # -- bricks -----------------------------------------------------------------

    def brick_corners(self) -> Iterator[tuple[int, ...]]:
        """Tile-grid corners of every brick position.

        A brick spans 1 tile along axis 0 and ``b`` tiles along each other
        axis; corners range over the whole (cyclic) tile grid.
        """
        ranges = [range(self.grid_shape[0])]
        for g in range(1, self.ndim):
            ranges.append(range(self.grid_shape[g]))
        yield from _product(ranges)

    def brick_tiles(self, corner: Sequence[int]) -> np.ndarray:
        """Flat tile-grid indices of the tiles of the brick at ``corner``."""
        sizes = [1] + [self.b] * (self.ndim - 1)
        return self._box_tiles(corner, sizes)

    def brick_node_block(self, faults: np.ndarray, corner: Sequence[int]) -> np.ndarray:
        """The node-level fault sub-array of the brick at tile ``corner``.

        Returned with shape ``(b^2, b^3, ..., b^3)`` — cyclic wrap handled by
        ``np.take``.
        """
        out = faults
        sizes = [1] + [self.b] * (self.ndim - 1)
        for axis in range(self.ndim):
            start = corner[axis] * self.tile_side
            length = sizes[axis] * self.tile_side
            idx = (start + np.arange(length)) % self.shape[axis]
            out = np.take(out, idx, axis=axis)
        return out

    # -- boxes and frames -------------------------------------------------------

    def _box_tiles(self, corner: Sequence[int], sizes: Sequence[int]) -> np.ndarray:
        """Flat tile indices of the (cyclic) tile box at ``corner`` of ``sizes``."""
        grids = [
            (corner[axis] + np.arange(sizes[axis])) % self.grid_shape[axis]
            for axis in range(self.ndim)
        ]
        mesh = np.meshgrid(*grids, indexing="ij")
        coords = np.stack([mm.ravel() for mm in mesh], axis=-1)
        return self.grid.ravel(coords)

    def _template(self, s: int) -> tuple[np.ndarray, ...]:
        """``(frame, interior, leads, enclosing)`` offsets of an s-box.

        ``frame``/``interior``: ``(k, ndim)`` offsets from the box corner
        in C order.  ``leads``: ``(C, ndim)`` offsets ``tile - corner`` of
        every box that has a tile in its interior, centre-first.
        ``enclosing``: ``(C, F, ndim)`` frame offsets of those boxes from
        the enclosed tile.  Built once per ``s``.
        """
        if s < 3:
            raise ValueError("s-frames require s >= 3")
        if s > min(self.grid_shape):
            raise ValueError(f"s={s} exceeds tile grid {self.grid_shape}")
        template = self._templates.get(s)
        if template is None:
            box = np.indices((s,) * self.ndim).reshape(self.ndim, -1).T
            inner = ((box >= 1) & (box <= s - 2)).all(axis=1)
            frame, interior = box[~inner], box[inner]
            offsets = sorted(range(1, s - 1), key=lambda o: abs(o - (s - 1) / 2))
            leads = np.array(list(_product([offsets] * self.ndim)), dtype=np.int64)
            enclosing = frame[None, :, :] - leads[:, None, :]
            template = self._templates[s] = (frame, interior, leads, enclosing)
        return template

    def frame_and_interior(self, corner: Sequence[int], s: int) -> tuple[np.ndarray, np.ndarray]:
        """Boundary (frame) and interior flat tile indices of an s-box.

        ``s >= 3``; the box spans ``s`` tiles per axis starting at ``corner``.
        Both lists are in C order of the box's own coordinates.
        """
        frame, interior = self._template(s)[:2]
        corner = np.asarray(corner, dtype=np.int64)
        return (
            self.grid.ravel((corner + frame) % self._grid_sides),
            self.grid.ravel((corner + interior) % self._grid_sides),
        )

    def enclosing_frames(self, tile: Sequence[int], s: int) -> tuple[np.ndarray, np.ndarray]:
        """Every s-box that strictly encloses ``tile``, centre-first.

        Returns ``(corners, frames)``: ``(C, ndim)`` box corners in the
        order of :meth:`enclosing_corners` and ``(C, F)`` flat tile indices
        of each box's frame, so one gather tests all candidates of one size.
        """
        _, _, leads, enclosing = self._template(s)
        tile = np.asarray(tile, dtype=np.int64)
        return (
            (tile - leads) % self._grid_sides,
            self.grid.ravel((tile + enclosing) % self._grid_sides),
        )

    def concentric_corners(self, tile: Sequence[int], s: int) -> tuple[int, ...]:
        """Corner of the s-box centred (as centred as parity allows) on ``tile``."""
        return tuple((tile[a] - (s - 1) // 2) % self.grid_shape[a] for a in range(self.ndim))

    def enclosing_corners(self, tile: Sequence[int], s: int) -> Iterator[tuple[int, ...]]:
        """All corners whose s-box strictly encloses ``tile`` (tile in interior).

        Ordered centre-first so greedy searches prefer symmetric frames.
        """
        leads = self._template(s)[2]
        corners = (np.asarray(tile, dtype=np.int64) - leads) % self._grid_sides
        for corner in corners.tolist():
            yield tuple(corner)

    # -- misc ---------------------------------------------------------------------

    def tile_extent(self, tiles: np.ndarray, axis: int) -> int:
        """Smallest cyclic window length (in tiles) covering ``tiles`` on ``axis``.

        Used to verify the "each black region fits in a b^3-cube" invariant.
        """
        coords = self.grid.unravel(np.asarray(tiles, dtype=np.int64))[..., axis]
        present = np.zeros(self.grid_shape[axis], dtype=bool)
        present[coords % self.grid_shape[axis]] = True
        if present.all():
            return self.grid_shape[axis]
        from repro.util.cyclic import max_free_run

        # Longest cyclic run of absent positions = the largest gap; everything
        # else is the minimal covering window.
        return self.grid_shape[axis] - max_free_run(present)


def _product(ranges):
    """itertools.product over a list of iterables, yielding tuples."""
    import itertools

    return itertools.product(*ranges)
