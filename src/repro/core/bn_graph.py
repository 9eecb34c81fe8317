"""The augmented torus ``B^d_n`` (Section 3).

``B^d_n`` is the torus ``C_m x (C_n)^{d-1}`` plus two extra edge families:

* **vertical jumps**:   ``(i, z) ~ (i ± (b+1) mod m, z)`` within a column,
* **diagonal jumps**:   ``(i, z) ~ (i ± b mod m, z')`` for every column
  ``z'`` adjacent to ``z`` in ``(C_n)^{d-1}``.

Per-node degree: ``2d`` torus + ``2`` vertical + ``4(d-1)`` diagonal
= ``6d - 2`` exactly (Theorem 2(2)).

Vertical jumps let a column's unmasked nodes hop over a band (gap of exactly
``b`` masked rows → span ``b+1``); diagonal jumps let a row shift by ``b``
when crossing a band sideways.  This is precisely what the reconstruction
(Lemma 6) consumes.

Adjacency is answered two ways.  :meth:`BnGraph.is_adjacent` derives it
from coordinates and is the reference every embedding verification uses.
:meth:`BnGraph.has_edges` looks the pair up in the cached
``(N, 6d - 2)`` :meth:`BnGraph.neighbor_table`; the live link check of
:func:`repro.sim.lifetime_traffic.serve_traffic` uses it, where the
analytic check was most of the route health check's time.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import BnParams
from repro.topology.coords import CoordCodec
from repro.topology.graph import CSRGraph
from repro.topology.grid import TileGeometry

__all__ = ["BnGraph"]


class BnGraph:
    """Structure (not state) of ``B^d_n``; fault state lives in plain arrays."""

    def __init__(self, params: BnParams) -> None:
        self.params = params
        self.codec = CoordCodec(params.shape)
        self.tiles = TileGeometry(params.shape, params.b)

    # -- counting / structure ---------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.codec.size

    def edge_families(self) -> dict[str, list[tuple[int, int]]]:
        """Edge generators as (axis, delta) shift descriptors.

        ``axis == 0`` shifts are within a column; diagonal jumps combine a
        dim-0 shift of ``±b`` with a ``±1`` shift along a later axis and are
        listed as (axis, ±1) paired with dim-0 delta — see :meth:`edges`.
        """
        p = self.params
        fam: dict[str, list[tuple[int, int]]] = {
            "torus": [(a, +1) for a in range(p.d)],
            "vertical": [(0, p.b + 1)],
            "diagonal": [],
        }
        for axis in range(1, p.d):
            fam["diagonal"].append((axis, +p.b))
            fam["diagonal"].append((axis, -p.b))
        return fam

    def edges(self) -> np.ndarray:
        """The full ``(E, 2)`` undirected edge array (one orientation each);
        cached, like :meth:`graph` — callers may hold the returned array."""
        if hasattr(self, "_edges"):
            return self._edges
        idx = self.codec.all_indices()
        p = self.params
        us, vs = [], []
        # torus edges: +1 along every axis
        for axis in range(p.d):
            us.append(idx)
            vs.append(self.codec.shift(idx, axis, +1, wrap=True))
        # vertical jumps: +(b+1) along axis 0
        us.append(idx)
        vs.append(self.codec.shift(idx, 0, p.b + 1, wrap=True))
        # diagonal jumps: (+1 along axis j) combined with (±b along axis 0)
        for axis in range(1, p.d):
            stepped = self.codec.shift(idx, axis, +1, wrap=True)
            for delta in (+p.b, -p.b):
                us.append(idx)
                vs.append(self.codec.shift(stepped, 0, delta, wrap=True))
        self._edges = np.stack([np.concatenate(us), np.concatenate(vs)], axis=1)
        return self._edges

    def graph(self) -> CSRGraph:
        """Materialised CSR graph (cached)."""
        if not hasattr(self, "_graph"):
            self._graph = CSRGraph(self.num_nodes, self.edges())
        return self._graph

    def neighbor_table(self) -> np.ndarray:
        """The read-only ``(N, 6d - 2)`` int32 table of every node's
        neighbours (cached): the two torus steps along each axis, the two
        vertical jumps ``±(b+1)``, then for each later axis the four
        diagonal jumps ``(±1 along it, ±b along axis 0)``.  A row lists a
        neighbour twice where two shifts reach the same node (a short
        side)."""
        if not hasattr(self, "_neighbors"):
            p, codec = self.params, self.codec
            idx = codec.all_indices()
            cols = [codec.shift(idx, axis, step) for axis in range(p.d) for step in (1, -1)]
            cols += [codec.shift(idx, 0, step * (p.b + 1)) for step in (1, -1)]
            for axis in range(1, p.d):
                for step in (1, -1):
                    stepped = codec.shift(idx, axis, step)
                    cols += [codec.shift(stepped, 0, delta) for delta in (p.b, -p.b)]
            table = np.stack(cols, axis=1).astype(np.int32)
            table.flags.writeable = False
            self._neighbors = table
        return self._neighbors

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorised: is ``vs[i]`` in the :meth:`neighbor_table` row of
        ``us[i]``?  The same answer as :meth:`is_adjacent`, by lookup."""
        return (self.neighbor_table()[us] == np.asarray(vs)[..., None]).any(axis=-1)

    # -- adjacency predicate (no materialisation needed) ---------------------

    def is_adjacent(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorised: are ``us[i]`` and ``vs[i]`` adjacent in ``B^d_n``?

        Checked analytically against the three edge families.
        """
        p = self.params
        cu = self.codec.unravel(np.asarray(us, dtype=np.int64))
        cv = self.codec.unravel(np.asarray(vs, dtype=np.int64))
        m, n, b = p.m, p.n, p.b
        d0 = (cv[..., 0] - cu[..., 0]) % m  # dim-0 forward gap
        same0 = d0 == 0
        step0 = (d0 == 1) | (d0 == m - 1)
        jump0 = (d0 == b + 1) | (d0 == m - b - 1)
        diag0 = (d0 == b) | (d0 == m - b)

        if p.d == 1:
            return step0 | jump0

        rest_u = cu[..., 1:]
        rest_v = cv[..., 1:]
        dr = (rest_v - rest_u) % n
        is_step = (dr == 1) | (dr == n - 1)
        num_diff = (dr != 0).sum(axis=-1)
        col_same = num_diff == 0
        col_adj = (num_diff == 1) & np.take_along_axis(
            is_step, np.argmax(dr != 0, axis=-1)[..., None], axis=-1
        ).squeeze(-1)

        torus_col = col_same & (step0 | jump0)  # column cycle edges + vertical jump
        torus_row = col_adj & same0  # torus edge to adjacent column
        diagonal = col_adj & diag0  # diagonal jump
        return torus_col | torus_row | diagonal

    # -- invariants -----------------------------------------------------------

    def verify_structure(self) -> dict:
        """Check Theorem 2(1)/(2) exactly: node count and uniform degree."""
        p = self.params
        g = self.graph()
        degs = g.degrees()
        stats = {
            "num_nodes": g.num_nodes,
            "claimed_max_nodes": (1 + p.eps_redundancy) * p.n ** p.d,
            "degree_min": int(degs.min()),
            "degree_max": int(degs.max()),
            "claimed_degree": p.degree,
        }
        return stats
