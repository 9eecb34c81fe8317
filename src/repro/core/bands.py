"""Bands on ``B^d_n`` (Section 3).

A **band** is a mapping ``beta : (C_n)^{d-1} -> [m]`` with the *slope
condition* ``beta(z') in {beta(z)-1, beta(z), beta(z)+1} (mod m)`` for
adjacent columns ``z, z'``.  It masks the ``b`` rows
``beta(z), ..., beta(z)+b-1`` of every column ``z``.

Two bands are **untouching** when, on every column, at least one unmasked
row separates them — i.e. their bottoms differ by at least ``b+1``
cyclically.

A valid :class:`BandSet` carries exactly ``(m-n)/b`` mutually untouching
bands; Lemma 6 then guarantees the unmasked nodes contain ``(C_n)^d``.
This module implements the representation and *checks*; placement lives in
:mod:`repro.core.placement`, extraction in :mod:`repro.core.reconstruction`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.params import BnParams
from repro.errors import BandPlacementError
from repro.topology.coords import CoordCodec

__all__ = ["Band", "BandSet"]


@dataclass(frozen=True)
class Band:
    """A single band: bottom row per column (flattened column grid)."""

    bottoms: np.ndarray  # shape (num_columns,)
    b: int
    m: int

    def masks(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Element-wise: does this band mask node (rows[i], cols[i])?"""
        return (np.asarray(rows) - self.bottoms[np.asarray(cols)]) % self.m < self.b


class BandSet:
    """An ordered collection of bands over a ``B^d_n`` instance.

    Parameters
    ----------
    params:
        The host construction's parameters.
    bottoms:
        Integer array of shape ``(K, num_columns)`` (columns flattened
        row-major over the ``(n,)*(d-1)`` column grid); entry ``[k, z]`` is
        the bottom row of band ``k`` on column ``z``, in ``[0, m)``.
    """

    def __init__(self, params: BnParams, bottoms: np.ndarray) -> None:
        self.params = params
        self.col_codec = CoordCodec((params.n,) * (params.d - 1)) if params.d > 1 else CoordCodec((1,))
        bottoms = np.asarray(bottoms, dtype=np.int64)
        if bottoms.ndim != 2 or bottoms.shape[1] != self.col_codec.size:
            raise ValueError(
                f"bottoms shape {bottoms.shape} != (K, {self.col_codec.size})"
            )
        self.bottoms = bottoms % params.m

    # -- basic queries ------------------------------------------------------

    @property
    def num_bands(self) -> int:
        return int(self.bottoms.shape[0])

    @property
    def num_columns(self) -> int:
        return int(self.bottoms.shape[1])

    def band(self, k: int) -> Band:
        return Band(self.bottoms[k], self.params.b, self.params.m)

    @property
    def is_straight(self) -> bool:
        """True when every band is constant across columns (straight)."""
        return bool((self.bottoms == self.bottoms[:, :1]).all())

    def mask(self) -> np.ndarray:
        """Full boolean mask of shape ``params.shape`` (True = masked)."""
        p = self.params
        out = np.zeros((p.m, self.num_columns), dtype=bool)
        rows = (self.bottoms[..., None] + np.arange(p.b)) % p.m  # (K, C, b)
        cols = np.broadcast_to(
            np.arange(self.num_columns)[None, :, None], rows.shape
        )
        out[rows.ravel(), cols.ravel()] = True
        return out.reshape((p.m,) + (p.n,) * (p.d - 1))

    def covers(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Element-wise band-coverage predicate: is node ``(rows[i],
        cols[i])`` (flattened column index) masked by *some* band?

        The one implementation of "is this fault masked" — shared by
        coverage validation and by the online-repair masked check, so the
        two can never drift apart.
        """
        p = self.params
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        cols = np.atleast_1d(np.asarray(cols, dtype=np.int64))
        return (((rows[None, :] - self.bottoms[:, cols]) % p.m) < p.b).any(axis=0)

    def covers_node(self, coord: "tuple[int, ...]") -> bool:
        """Coverage of one node given as a full ``params.shape`` coordinate."""
        col = self.col_codec.ravel(
            np.asarray([coord[1:]], dtype=np.int64)
        )[0] if self.params.d > 1 else 0
        return bool(self.covers(int(coord[0]), int(col))[0])

    def unmasked_rows(self, col: int) -> np.ndarray:
        """Sorted unmasked row indices of flattened column ``col``."""
        p = self.params
        masked = np.zeros(p.m, dtype=bool)
        rows = (self.bottoms[:, col][:, None] + np.arange(p.b)) % p.m
        masked[rows.ravel()] = True
        return np.flatnonzero(~masked)

    # -- validation -----------------------------------------------------------

    def validate(self, faults: np.ndarray | None = None) -> None:
        """Raise :class:`BandPlacementError` unless this is a valid placement.

        Checks (in order): band count, slope condition along every column-grid
        axis (cyclically), mutual untouching on every column, and — if
        ``faults`` is given — that every faulty node is masked.
        """
        p = self.params
        if self.num_bands != p.num_bands:
            raise BandPlacementError(
                f"band count {self.num_bands} != (m-n)/b = {p.num_bands}",
                category="band-invalid",
            )
        if p.d > 1:
            grid = self.bottoms.reshape((self.num_bands,) + (p.n,) * (p.d - 1))
            for axis in range(1, p.d):
                diff = (np.roll(grid, -1, axis=axis) - grid) % p.m
                ok = (diff == 0) | (diff == 1) | (diff == p.m - 1)
                if not ok.all():
                    bad = int((~ok).sum())
                    raise BandPlacementError(
                        f"slope condition violated on {bad} adjacent column "
                        f"pairs along axis {axis}",
                        category="band-invalid",
                    )
        # Untouching: cyclic gaps between sorted bottoms >= b+1 per column.
        if self.num_bands > 1:
            s = np.sort(self.bottoms, axis=0)
            gaps = np.diff(s, axis=0)
            wrap = (s[0] + p.m - s[-1])[None, :]
            all_gaps = np.concatenate([gaps, wrap], axis=0)
            if (all_gaps < p.b + 1).any():
                bad_cols = np.unique(np.nonzero(all_gaps < p.b + 1)[1])
                raise BandPlacementError(
                    f"untouching violated on {len(bad_cols)} columns "
                    f"(first: column {int(bad_cols[0])}, min gap "
                    f"{int(all_gaps[:, bad_cols[0]].min())} < b+1={p.b + 1})",
                    category="band-invalid",
                )
        if faults is not None:
            self._check_coverage(faults)

    def _check_coverage(self, faults: np.ndarray) -> None:
        p = self.params
        flat = faults.reshape(p.m, -1)
        frows, fcols = np.nonzero(flat)
        if len(frows) == 0:
            return
        covered = self.covers(frows, fcols)
        if not covered.all():
            miss = int((~covered).sum())
            i = int(np.flatnonzero(~covered)[0])
            raise BandPlacementError(
                f"{miss} faults unmasked (first: row {int(frows[i])}, "
                f"column {int(fcols[i])})",
                category="coverage",
            )

    # -- constructors ------------------------------------------------------------

    @classmethod
    def straight(cls, params: BnParams, bottoms_1d: np.ndarray) -> "BandSet":
        """A set of straight (constant) bands at the given bottom rows."""
        cols = params.n ** (params.d - 1) if params.d > 1 else 1
        b1 = np.asarray(bottoms_1d, dtype=np.int64).reshape(-1, 1)
        return cls(params, np.broadcast_to(b1, (b1.shape[0], cols)).copy())
