"""Online fault arrival with incremental repair, and lifetime measurement.

A deployed machine accumulates faults over its lifetime; the introduction's
quantitative claim is that ``B^d_n`` tolerates ``Theta(N log^{-3d} N)``
random faults — "larger than the best previously known constant-degree
construction [BCH93b] that tolerates Theta(N^{1/3})".

:class:`OnlineRecovery` maintains a fault set and a current valid band
placement; arriving faults are handled with the cheapest sufficient
response:

* ``"masked"``    — the fault already lies under a band of the current
  placement (shared predicate :meth:`BandSet.covers`; no recomputation,
  and the placement object identity is untouched);
* ``"replaced"``  — the placement is recomputed.  In incremental mode
  (the default) only the *placement* is recomputed from the maintained
  dim-0 fault-row profile (cost proportional to ``m``, not ``N``), and
  the embedding is rebuilt by :func:`extract_torus_straight`, which
  rewrites only the guest rows whose host row actually changed.  The
  full BFS + Lemma 7 + embedding-verification pipeline runs only when
  the straight cover fails and the paper strategy takes over.
* ``"repaired"``  — a faulty node was fixed (:meth:`remove_fault`).  The
  incremental-repair contract: repairs never recompute — a placement
  masking a fault superset stays valid for the subset.
* failure raises, leaving the previous placement intact.

Nodes are flat ids, as for every live machine (see
:mod:`repro.api.lifetime`); ``BnConstruction.live_machine()`` returns
this class, so lifetime trials, traffic snapshots and the serve daemon
all run it through the same per-event step, which keeps the
masked/replaced tallies in its ``LifetimeOutcome``; the machine keeps no
per-event history, so its memory does not grow with the events it has
seen.

``incremental=False`` is the *full-recompute* reference mode: every
unmasked arrival rebuilds bands and torus through ``BTorus.recover``.
Both modes run the identical placement chain (the same straight-cover
greedy on the same fault-row profile, the same paper fallback), so they
produce the same placements, the same event sequence and the same
lifetimes — hypothesis-asserted in tests/test_online.py, wall-clock
quantified in BENCH_lifetime.json.

A lifetime is :func:`repro.api.lifetime.drive_timeline` over one of
these machines until recovery first fails:
``BnConstruction.lifetime_trial`` for the incremental mode, or an
``OnlineRecovery(bt, incremental=False)`` for the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bn import BTorus
from repro.core.placement import place_straight_rows
from repro.core.reconstruction import Recovery, extract_torus_straight
from repro.errors import ReconstructionError

__all__ = ["OnlineRecovery"]


@dataclass
class OnlineRecovery:
    """Incrementally maintained recovery for a ``BTorus``.

    ``incremental`` selects the repair pipeline (see module docstring);
    ``strategy`` is the band-placement strategy of the full-recompute
    path (``"paper"`` forces every repair through the full pipeline —
    paper placements are not straight, so there is nothing incremental
    to reuse).
    """

    bt: BTorus
    incremental: bool = True
    strategy: str = "auto"
    faults: np.ndarray = field(init=False)
    recovery: Recovery | None = field(init=False, default=None)
    #: Faults per dim-0 row, maintained so placement never rescans the array.
    _row_faults: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.faults = np.zeros(self.bt.params.shape, dtype=bool)
        self._row_faults = np.zeros(self.bt.params.m, dtype=np.int64)
        self.recovery = self._recompute()

    @property
    def num_faults(self) -> int:
        return int(self.faults.sum())

    def _already_masked(self, coord: tuple) -> bool:
        assert self.recovery is not None
        return self.recovery.bands.covers_node(coord)

    def _recompute(self) -> Recovery:
        """One placement + extraction pass over the current fault set.

        The incremental path and the full path run the *same* placement
        chain — straight-cover greedy on the fault-row profile, then the
        paper pipeline — and differ only in how much extraction work they
        redo, which is what makes the two modes outcome-equivalent.
        """
        if self.incremental and self.strategy in ("auto", "straight"):
            try:
                bands = place_straight_rows(
                    self.bt.params, np.flatnonzero(self._row_faults)
                )
            except ReconstructionError:
                if self.strategy == "straight":
                    raise
                # Paper territory: non-straight bands need the full
                # extraction + verification pipeline.
                return self.bt.recover(self.faults, strategy="paper")
            return extract_torus_straight(self.bt.bn, bands, prev=self.recovery)
        return self.bt.recover(self.faults, strategy=self.strategy)

    def full_recompute(self) -> Recovery:
        """Ground-truth recovery of the current fault set via the full
        pipeline (never cached) — the fallback oracle the incremental
        path is tested against."""
        return self.bt.recover(self.faults, strategy=self.strategy)

    def add_fault(self, node: int) -> str:
        """Register one arriving fault (flat node id); repair if needed.
        Returns ``"masked"`` or ``"replaced"``.

        Raises :class:`ReconstructionError` when no placement exists any
        more (state keeps the previous valid placement and the new fault).
        """
        coord = tuple(int(c) for c in np.unravel_index(node, self.faults.shape))
        was_faulty = bool(self.faults[coord])
        if not was_faulty:
            self.faults[coord] = True
            self._row_faults[coord[0]] += 1
        if was_faulty or self._already_masked(coord):
            return "masked"
        self.recovery = self._recompute()  # raises on failure
        return "replaced"

    def remove_fault(self, node: int) -> None:
        """A faulty node (flat id) was repaired.  Never recomputes: the
        current placement masks a superset of the remaining faults, so it
        stays valid by monotonicity (the incremental-repair contract)."""
        coord = tuple(int(c) for c in np.unravel_index(node, self.faults.shape))
        if self.faults[coord]:
            self.faults[coord] = False
            self._row_faults[coord[0]] -= 1

