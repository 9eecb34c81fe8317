"""Healthiness of a faulty ``B^d_n`` (Section 3, Lemma 4).

A faulty instance is **healthy** when:

1. every *brick* (``b^2 x b^3 x ... x b^3`` tiled submesh) contains ``2b``
   consecutive fault-free rows,
2. every brick contains at most ``eps*b = s`` faults,
3. every node is enclosed by a fault-free *s-frame* with ``3 <= s <= b``
   (equivalently: every **tile** is, since frames enclose whole tiles).

Healthiness is *sufficient* for the paper's band placement to succeed
(Lemma 5); it is not necessary — the Monte-Carlo reports both quantities.

The checker enumerates all tile-aligned brick positions (cyclically) and,
for condition 3, searches frames centre-first.  Tile grids are small
(``O(t b) x O(t(b-s))^{d-1}``), so exhaustive enumeration is cheap compared
to the node-level work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.params import BnParams
from repro.topology.grid import TileGeometry

__all__ = ["HealthReport", "check_healthiness"]


@dataclass
class HealthReport:
    """Outcome of a healthiness check, with per-condition diagnostics.

    Two grades are reported:

    * :attr:`healthy` — the paper's literal Lemma 4 statement (condition 3
      quantifies over *every* node).  This is what the w.h.p. bound is
      proved for.
    * :attr:`sufficient` — what Lemma 5's constructive proof actually
      consumes: condition 3 only for *faulty* nodes (the painting procedure
      only ever encloses faults).  ``healthy => sufficient``; at small ``b``
      the gap is large (with ``b = 3`` a single fault already breaks the
      strict condition for its neighbour tiles).
    """

    cond1_ok: bool
    cond2_ok: bool
    cond3_ok: bool
    #: condition 3 restricted to faulty tiles (what the painting needs)
    cond3_faulty_ok: bool = True
    #: brick corners (tile coords) violating condition 1 (bounded sample)
    cond1_violations: list = field(default_factory=list)
    #: (brick corner, fault count) violating condition 2 (bounded sample)
    cond2_violations: list = field(default_factory=list)
    #: tile coords with no fault-free enclosing frame (bounded sample)
    cond3_violations: list = field(default_factory=list)
    num_faults: int = 0
    max_brick_faults: int = 0

    @property
    def healthy(self) -> bool:
        """The paper's literal healthiness (Lemma 4)."""
        return self.cond1_ok and self.cond2_ok and self.cond3_ok

    @property
    def sufficient(self) -> bool:
        """The precondition Lemma 5's constructive proof actually uses."""
        return self.cond1_ok and self.cond2_ok and self.cond3_faulty_ok

    def summary(self) -> str:
        flags = "".join(
            "Y" if ok else "n" for ok in (self.cond1_ok, self.cond2_ok, self.cond3_ok)
        )
        return (
            f"healthy={self.healthy} sufficient={self.sufficient} "
            f"[conditions {flags}] faults={self.num_faults} "
            f"max_brick_faults={self.max_brick_faults}"
        )


def _linear_max_free_run(marked: np.ndarray) -> int:
    """Longest run of False in a *linear* (non-cyclic) boolean array."""
    marked = np.asarray(marked, dtype=bool)
    if not marked.any():
        return len(marked)
    idx = np.flatnonzero(marked)
    runs = np.diff(np.concatenate([[-1], idx, [len(marked)]])) - 1
    return int(runs.max())


def check_healthiness(
    params: BnParams,
    faults: np.ndarray,
    geometry: TileGeometry | None = None,
    *,
    max_violations: int = 8,
) -> HealthReport:
    """Check Lemma 4's three conditions on a fault array of shape
    ``params.shape``.  Short-circuits nothing: all three conditions are
    evaluated so the Monte-Carlo can attribute failures."""
    geo = geometry or TileGeometry(params.shape, params.b)
    b, s = params.b, params.s
    report = HealthReport(True, True, True, num_faults=int(faults.sum()))

    # Conditions 1 & 2: scan every brick.
    for corner in geo.brick_corners():
        block = geo.brick_node_block(faults, corner)
        rows_faulty = block.reshape(block.shape[0], -1).any(axis=1)
        count = int(block.sum())
        report.max_brick_faults = max(report.max_brick_faults, count)
        if _linear_max_free_run(rows_faulty) < 2 * b:
            report.cond1_ok = False
            if len(report.cond1_violations) < max_violations:
                report.cond1_violations.append(tuple(corner))
        if count > s:
            report.cond2_ok = False
            if len(report.cond2_violations) < max_violations:
                report.cond2_violations.append((tuple(corner), count))

    # Condition 3: every tile has a fault-free enclosing frame (strict),
    # and separately for faulty tiles only (what Lemma 5 consumes).
    tile_faulty = geo.tile_fault_counts(faults) > 0
    flat_faulty = tile_faulty.ravel()
    for tile_flat in range(geo.grid.size):
        tile = tuple(geo.grid.unravel(tile_flat))
        if find_enclosing_frame(geo, flat_faulty, tile) is None:
            report.cond3_ok = False
            if flat_faulty[tile_flat]:
                report.cond3_faulty_ok = False
            if len(report.cond3_violations) < max_violations:
                report.cond3_violations.append(tile)
    return report


def find_enclosing_frame(
    geo: TileGeometry, tile_faulty_flat: np.ndarray, tile: tuple[int, ...]
) -> tuple[tuple[int, ...], int] | None:
    """Smallest fault-free s-frame enclosing ``tile`` (centre-first search).

    Returns ``(corner, s)`` or ``None``.  Shared by the healthiness check
    and the painting procedure so "checked healthy" implies "painting finds
    a frame".  Each size is one gather over all its candidate frames; the
    first free candidate is the corner a centre-first scan would stop at.
    """
    for size in range(3, geo.b + 1):
        corners, frames = geo.enclosing_frames(tile, size)
        free = ~tile_faulty_flat[frames].any(axis=1)
        if free.any():
            return tuple(corners[free.argmax()].tolist()), size
    return None
