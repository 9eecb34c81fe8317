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
* condition 3: a frame is fault-free iff (box fault count) - (interior
  fault count) is zero; box sums over tiles are separable into per-axis
  window sums, and "some enclosing frame exists" is an OR over the
  ``sum_s (s-2)^d`` (size, offset) combinations of rolled copies — the
  exact same candidate set the scalar centre-first search enumerates.
"""

from __future__ import annotations

import numpy as np

from repro.core.healthiness import HealthReport
from repro.core.params import BnParams
from repro.topology.grid import TileGeometry

__all__ = ["check_healthiness_batch"]


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

    # Per-tile fault counts: (T, G0, G1, ...).
    view = [trials]
    for g in range(d):
        view += [grid[g], tile]
    counts = faults.reshape(view).sum(axis=tuple(range(2, 2 * d + 1, 2)))

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
    has_frame = np.zeros_like(tile_faulty)
    grid_axes = tuple(range(1, d + 1))
    for size in range(3, b + 1):
        box = tile_faulty.astype(np.int64)
        inner = tile_faulty.astype(np.int64)
        for axis in grid_axes:
            box = _window_reduce(box, size, axis, np.add)
            inner = _window_reduce(inner, size - 2, axis, np.add)
        # Interior of the box at corner c starts at c + 1 on every axis.
        for axis in grid_axes:
            inner = np.roll(inner, -1, axis=axis)
        frame_free = (box - inner) == 0  # frame at corner c is fault-free
        # A frame at corner c encloses tile t iff t = c + off with
        # off in [1, size-2]^d; roll by +off so index t reads corner t-off.
        offsets = np.stack(
            np.meshgrid(*([np.arange(1, size - 1)] * d), indexing="ij"), axis=-1
        ).reshape(-1, d)
        for off in offsets:
            has_frame |= np.roll(frame_free, shift=tuple(off), axis=grid_axes)
    flat_frame = has_frame.reshape(trials, -1)
    flat_faulty = tile_faulty.reshape(trials, -1)
    cond3_ok = flat_frame.all(axis=1)
    cond3_faulty_ok = (flat_frame | ~flat_faulty).all(axis=1)

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
