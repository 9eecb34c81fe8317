"""Batched healthiness checking (Lemma 4) as pure array reductions.

:func:`check_healthiness_batch` evaluates the three healthiness
conditions for a whole stack of fault arrays at once and returns one
:class:`~repro.core.healthiness.HealthReport` per trial that is
field-for-field identical to what the scalar
:func:`~repro.core.healthiness.check_healthiness` produces — including
the bounded violation samples, which both implementations enumerate in
C-order (the scalar brick/tile scan order *is* ``np.argwhere`` order).

How the scalar loops become reductions (``T`` = trials, grid = tile grid):

* condition 2: per-tile fault counts (reshape + sum) -> cyclic sliding
  window sums of width ``b`` along every non-0 grid axis give every
  brick's fault count at every corner simultaneously: ``(T, *grid)``.
* condition 1: per-(row, tile-column) fault flags -> cyclic window ORs of
  width ``b`` give each brick position's faulty-row profile; the longest
  fault-free run inside each ``b^2``-row strip is computed with the
  running-streak trick (``idx - maximum.accumulate(where(faulty, idx,
  -1))``), no Python loop over bricks.
* condition 3 (:func:`frame_enclosed`): a frame is fault-free iff (box
  fault count) - (interior fault count) is zero; box sums over tiles are
  separable into per-axis window sums (products with 0/1 band
  matrices), and "some enclosing frame exists" is one more box sum per
  size, over the ``(s-2)^d`` corners whose frame encloses a tile — the
  exact same candidate set the scalar centre-first search enumerates.
  Its restriction to the faulty tiles, :func:`faulty_tiles_framed`, is
  also how both bn kernels find their ``no-frame`` deaths without
  painting.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.healthiness import HealthReport
from repro.core.params import BnParams
from repro.topology.grid import TileGeometry

__all__ = ["check_healthiness_batch", "faulty_tiles_framed", "frame_enclosed",
           "tile_fault_counts"]


def _window_reduce(arr: np.ndarray, width: int, axis: int, op) -> np.ndarray:
    """Cyclic sliding-window reduction: out[..., j, ...] aggregates the
    ``width`` entries ``j .. j+width-1 (mod len)`` along ``axis``."""
    out = arr.copy()
    for off in range(1, width):
        op(out, np.roll(arr, -off, axis=axis), out=out)
    return out


def _longest_false_run(marked: np.ndarray, axis: int) -> np.ndarray:
    """Longest run of False along ``axis`` (linear, not cyclic) — the
    batched equivalent of the scalar ``_linear_max_free_run``."""
    marked = np.moveaxis(marked, axis, -1)
    length = marked.shape[-1]
    idx = np.arange(length, dtype=np.int64)
    last_true = np.maximum.accumulate(np.where(marked, idx, -1), axis=-1)
    # Streak of False ending at each position; 0 wherever marked is True.
    return (idx - last_true).max(axis=-1)


def frame_enclosed(tile_faulty: np.ndarray, b: int) -> np.ndarray:
    """Condition 3's frame search on a ``(T, *grid)`` faulty-tile stack:
    per tile, whether some fault-free s-frame (``3 <= s <= b``) strictly
    encloses it.

    The candidates are every size and offset that
    :func:`~repro.core.healthiness.find_enclosing_frame` tries, so a
    faulty tile reads False here exactly when painting finds no frame for
    it (``no-frame``).
    """
    faulty = tile_faulty.astype(np.float64)
    enclosing = np.zeros(tile_faulty.shape)
    for size in range(3, b + 1):
        # The frame at corner c holds the box's faulty tiles minus its
        # interior's (the box shifted by one, size - 2 wide).
        free = _box_sums(faulty, 0, size) == _box_sums(faulty, 1, size - 2)
        # It encloses tile t iff t - c lies in [1, size - 2] on every axis.
        enclosing += _box_sums(free.astype(np.float64), 2 - size, size - 2)
    return enclosing > 0


def _box_sums(stack: np.ndarray, lo: int, width: int) -> np.ndarray:
    """Cyclic box sums of a ``(T, *grid)`` float stack: entry ``c`` of a
    trial sums its tiles ``c + lo + [0, width)`` on every grid axis, one
    product with a 0/1 band matrix per axis.  The sums are small integers,
    exact in float64, which numpy multiplies several times faster than
    int64 (2.8x at b=4)."""
    # Sum along the last axis, then rotate it to the front of the grid
    # axes; after one turn per axis the order is back where it started.
    rotate = (0, stack.ndim - 1) + tuple(range(1, stack.ndim - 1))
    for _ in range(1, stack.ndim):
        stack = (stack @ _band(stack.shape[-1], lo, width)).transpose(rotate)
    return stack


@functools.lru_cache(maxsize=64)
def _band(n: int, lo: int, width: int) -> np.ndarray:
    """``(n, n)`` matrix with ``M[i, c] = 1`` iff ``(i - c - lo) mod n <
    width``: a product with it along an axis sums the ``width`` cyclic
    entries from ``c + lo`` on."""
    idx = np.arange(n)
    band = (((idx[:, None] - idx[None, :] - lo) % n) < width).astype(np.float64)
    band.flags.writeable = False
    return band


def faulty_tiles_framed(tile_faulty: np.ndarray, b: int,
                        enclosed: np.ndarray | None = None) -> np.ndarray:
    """Per trial of a ``(T, *grid)`` faulty-tile stack: does every faulty
    tile lie strictly inside some fault-free s-frame?  False exactly where
    ``paint_tiles`` raises ``no-frame``: it skips a faulty tile only when an
    earlier fault-free frame encloses it.  ``enclosed`` is
    :func:`frame_enclosed` of the stack, when the caller has it already."""
    if enclosed is None:
        enclosed = frame_enclosed(tile_faulty, b)
    return (enclosed | ~tile_faulty).all(axis=tuple(range(1, tile_faulty.ndim)))


def tile_fault_counts(faults: np.ndarray, geo: TileGeometry) -> np.ndarray:
    """Per-tile fault counts of a ``(T, *geo.shape)`` node stack, as a
    ``(T, *geo.grid_shape)`` array."""
    view = [faults.shape[0]]
    for side in geo.grid_shape:
        view += [side, geo.tile_side]
    return faults.reshape(view).sum(axis=tuple(range(2, len(view), 2)))


def check_healthiness_batch(
    params: BnParams,
    faults: np.ndarray,
    geometry: TileGeometry | None = None,
    *,
    max_violations: int = 8,
) -> list[HealthReport]:
    """Check Lemma 4's conditions on a ``(T, *params.shape)`` fault stack.

    Returns ``T`` reports identical to running the scalar checker on each
    slice (tests/test_fastpath.py asserts this field-for-field).
    """
    geo = geometry or TileGeometry(params.shape, params.b)
    if faults.shape[1:] != geo.shape:
        raise ValueError(f"fault stack shape {faults.shape} != (T, {geo.shape})")
    trials = faults.shape[0]
    b, s, d = params.b, params.s, params.d
    tile = geo.tile_side
    grid = geo.grid_shape  # (G0, G1, ..., G_{d-1})
    num_faults = faults.reshape(trials, -1).sum(axis=1)
    counts = tile_fault_counts(faults, geo)  # (T, G0, G1, ...)

    # Condition 2 — brick fault counts at every corner: bricks span one
    # tile along axis 0 and b tiles (cyclically) along every other axis.
    brick_counts = counts
    for axis in range(2, d + 1):
        brick_counts = _window_reduce(brick_counts, b, axis, np.add)
    cond2_ok = (brick_counts.reshape(trials, -1) <= s).all(axis=1)
    max_brick = brick_counts.reshape(trials, -1).max(axis=1)

    # Condition 1 — per brick, some 2b consecutive fault-free node rows.
    # row_seg[T, m, G1..]: does node-row r meet any fault inside tile
    # column (j1..)?  Window-OR width b over the column axes turns that
    # into each brick corner's faulty-row profile.
    seg_view = [trials, geo.shape[0]]
    for g in range(1, d):
        seg_view += [grid[g], tile]
    row_seg = faults.reshape(seg_view)
    if d > 1:
        row_seg = row_seg.any(axis=tuple(range(3, 2 * d + 1, 2)))
    brick_rows = row_seg
    for axis in range(2, d + 1):
        brick_rows = _window_reduce(brick_rows, b, axis, np.logical_or)
    # Split the m node rows into (G0, tile) strips: brick at corner
    # (i, j..) covers node rows [i*tile, (i+1)*tile) — never wrapping.
    strips = brick_rows.reshape((trials, grid[0], tile) + grid[1:])
    free_run = _longest_false_run(strips, axis=2)  # (T, G0, G1, ...)
    cond1_grid = free_run >= 2 * b
    cond1_ok = cond1_grid.reshape(trials, -1).all(axis=1)

    # Condition 3 — every tile strictly inside some fault-free s-frame.
    tile_faulty = counts > 0
    has_frame = frame_enclosed(tile_faulty, b)
    cond3_ok = has_frame.reshape(trials, -1).all(axis=1)
    cond3_faulty_ok = faulty_tiles_framed(tile_faulty, b, has_frame)

    reports = []
    for t in range(trials):
        report = HealthReport(
            bool(cond1_ok[t]),
            bool(cond2_ok[t]),
            bool(cond3_ok[t]),
            cond3_faulty_ok=bool(cond3_faulty_ok[t]),
            num_faults=int(num_faults[t]),
            max_brick_faults=int(max_brick[t]),
        )
        if not report.cond1_ok:
            report.cond1_violations = [
                tuple(int(c) for c in corner)
                for corner in np.argwhere(~cond1_grid[t])[:max_violations]
            ]
        if not report.cond2_ok:
            bad = np.argwhere(brick_counts[t] > s)[:max_violations]
            report.cond2_violations = [
                (tuple(int(c) for c in corner), int(brick_counts[t][tuple(corner)]))
                for corner in bad
            ]
        if not report.cond3_ok:
            report.cond3_violations = [
                tuple(int(c) for c in tile_coord)
                for tile_coord in np.argwhere(~has_frame[t])[:max_violations]
            ]
        reports.append(report)
    return reports
