"""The ``A^d_n`` construction (Theorem 1, Section 4).

Take ``B^d_{n/k}`` and replace every node by an ``h``-clique **supernode**;
between adjacent supernodes put all possible edges.  Nodes fail i.i.d. with
constant probability ``p``; *half-edges* fail i.i.d. with ``sqrt(q)`` and an
edge is faulty iff both halves are (Section 4's trick, making supernode
goodness independent across supernodes).

Recovery:

1. A node is **good** if non-faulty and, toward every relevant supernode
   (its own and each neighbour), at most ``2 sqrt(q) h`` of its half-edges
   are faulty.
2. A supernode is **good** if it has at least ``k^d + 4d sqrt(q) h`` good
   nodes (paper, d=2: ``k^2 + 8 sqrt(q) h``).
3. Bad supernodes are treated as faulty nodes of the ``B^d_{n/k}`` host;
   Theorem 2's recovery yields a torus of good supernodes.
4. The ``n^d`` torus is cut into ``k^d`` submeshes; submesh ``(I_1..I_d)``
   is embedded into supernode ``U_{I_1..I_d}`` by a greedy that always
   finds a good, unused node with non-faulty edges to all
   previously-embedded neighbours (the paper's counting argument; we
   verify instead of trust).

The paper proves ``d = 2`` and states the general case follows by changing
constants; this implementation is dimension-generic (raster order over the
guest torus gives each node at most ``2d`` already-embedded neighbours:
the ``-1`` neighbour per axis plus the wrap neighbour on the last slice).

The ``A^d_n`` edge set is *never materialised*: half-edge fault bits are
drawn lazily per ordered supernode pair from a keyed RNG, so both sides of
a pair see identical bits without storing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.bn import BTorus
from repro.core.params import AnParams, BnParams
from repro.core.reconstruction import Recovery
from repro.errors import ReconstructionError
from repro.faults.models import HalfEdgeFaults
from repro.topology.coords import CoordCodec
from repro.topology.embeddings import verify_torus_embedding
from repro.util.rng import spawn_rng

__all__ = [
    "ATorus",
    "AnFaultState",
    "AnRecovery",
    "an_params_for",
    "an_params_for_reliability",
]


def an_params_for(base: BnParams, k_sub: int, c: float) -> AnParams:
    """Supernode size realising overhead ``c``: ``h = c k^d / (1 + eps')``."""
    kd = k_sub ** base.d
    h = max(kd, int(round(c * kd / (1.0 + base.eps_redundancy))))
    return AnParams(base=base, k_sub=k_sub, h=h)


def an_params_for_reliability(
    base: BnParams,
    k_sub: int,
    p: float,
    q: float = 0.0,
    *,
    super_fail_target: float | None = None,
) -> AnParams:
    """Smallest ``h`` whose supernode-failure probability clears the target.

    The paper sets ``h = c k^2/(1+eps)`` with ``k^2 = alpha log log n`` and
    hides the constant ``alpha`` in "choose alpha = 6 gamma'" — asymptotically
    any ``c > 1/(1-p)`` works.  At laptop scale ``k`` is a small constant, so
    we invert the exact binomial tail instead: find the least ``h`` with
    ``P[Bin(h, 1-p') < k^d + 4d sqrt(q) h] <= target``, where ``p'`` inflates
    ``p`` by the probability that a node violates the half-edge condition.
    Default target: ``b^{-3d}`` of the host (Theorem 2's regime), scaled down
    4x for union-bound slack.
    """
    from scipy.stats import binom

    d = base.d
    if 4.0 * d * math.sqrt(q) >= 1.0 - p:
        raise ValueError(
            f"(p={p}, q={q}) violates the paper's inequality (1): need "
            f"{4 * d} sqrt(q) = {4 * d * math.sqrt(q):.3f} < 1 - p = {1 - p:.3f} "
            "(Theorem 1, d=2, requires q < (1-p-1/c)^2/64)"
        )
    if super_fail_target is None:
        super_fail_target = base.paper_fault_probability / 4.0
    deg_b = base.degree
    kd = k_sub ** d
    for h in range(max(kd + 1, 4), 4096):
        threshold = kd + 4.0 * d * math.sqrt(q) * h
        if q > 0.0:
            p_half = float(binom.sf(math.floor(2.0 * math.sqrt(q) * h), h, math.sqrt(q)))
            p_eff = min(1.0, p + (deg_b + 1) * p_half)
        else:
            p_eff = p
        # good nodes ~ Bin(h, 1 - p_eff); supernode fails if < threshold
        fail = float(binom.cdf(math.ceil(threshold) - 1, h, 1.0 - p_eff))
        if fail <= super_fail_target:
            return AnParams(base=base, k_sub=k_sub, h=h)
    raise ValueError("no feasible h <= 4096 for the requested reliability")


@dataclass
class AnFaultState:
    """Sampled fault state of one trial (half-edge bits stay lazy)."""

    node_faults: np.ndarray  # bool (num_supernodes, h)
    half: HalfEdgeFaults
    p: float
    q: float


@dataclass
class AnRecovery:
    params: AnParams
    super_recovery: Recovery
    #: flat guest (n^d) -> global node id (supernode * h + slot)
    phi: np.ndarray
    stats: dict = field(default_factory=dict)


class ATorus:
    """Theorem 1's construction with its recovery pipeline (general d)."""

    def __init__(self, params: AnParams) -> None:
        self.params = params
        self.host = BTorus(params.base)
        self._adj = self.host.bn.graph()  # supernode-level adjacency
        self._guest_codec = CoordCodec((params.n,) * params.d)
        self._super_codec = CoordCodec((params.base.n,) * params.d)

    # -- structure -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.params.num_nodes

    @property
    def degree(self) -> int:
        return self.params.degree

    # -- fault sampling ---------------------------------------------------------

    def sample_faults(self, p: float, q: float, seed: int) -> AnFaultState:
        rng = spawn_rng(seed, "an-nodes")
        h = self.params.h
        node_faults = rng.random((self.params.num_supernodes, h)) < p
        half_seed = int(spawn_rng(seed, "an-half").integers(0, 2**31))
        return AnFaultState(
            node_faults=node_faults, half=HalfEdgeFaults(q, half_seed), p=p, q=q
        )

    # -- recovery ------------------------------------------------------------------

    def good_nodes(self, state: AnFaultState) -> np.ndarray:
        """Boolean (num_supernodes, h): the paper's good-node predicate."""
        h = self.params.h
        good = ~state.node_faults
        if state.q == 0.0:
            return good
        limit = 2.0 * math.sqrt(state.q) * h
        for u in range(self.params.num_supernodes):
            targets = [u] + [int(w) for w in self._adj.neighbors(u)]
            for w in targets:
                block = state.half.half_block(u, w, (h, h))
                if w == u:
                    block = block.copy()
                    np.fill_diagonal(block, False)
                good[u] &= block.sum(axis=1) <= limit
        return good

    def good_supernodes(self, good_nodes: np.ndarray, q: float) -> np.ndarray:
        threshold = self.params.good_node_threshold(q)
        return good_nodes.sum(axis=1) >= threshold

    def recover(self, state: AnFaultState, *, verify: bool = True) -> AnRecovery:
        p = self.params
        h, k, d = p.h, p.k_sub, p.d
        good = self.good_nodes(state)
        super_ok = self.good_supernodes(good, state.q)
        faulty_super = (~super_ok).reshape(p.base.shape)
        super_rec = self.host.recover(faulty_super)

        # phi_super: guest supernode-torus flat index -> host supernode id
        phi_super = super_rec.phi

        n = p.n
        guest_codec = self._guest_codec
        super_codec = self._super_codec
        num_guest = guest_codec.size
        assign = np.full(num_guest, -1, dtype=np.int64)  # slot within supernode
        used = np.zeros((p.num_supernodes, h), dtype=bool)
        blocks: dict[tuple[int, int], np.ndarray] = {}

        def half(u: int, w: int) -> np.ndarray:
            key = (u, w)
            if key not in blocks:
                blk = state.half.half_block(u, w, (h, h))
                if u == w:
                    blk = blk.copy()
                    np.fill_diagonal(blk, False)
                blocks[key] = blk
            return blocks[key]

        # Supernode of every guest node, vectorised once.
        guest_coords = guest_codec.unravel(guest_codec.all_indices())
        sup_of = phi_super[super_codec.ravel(guest_coords // k)]

        q_zero = state.q == 0.0
        coords = guest_coords  # raster order == ascending flat index
        for g in range(num_guest):
            s = int(sup_of[g])
            cand = good[s] & ~used[s]
            if not q_zero:
                for g2 in _assigned_neighbors(coords[g], n, d, guest_codec):
                    s2 = int(sup_of[g2])
                    a2 = int(assign[g2])
                    # edge (a in s, a2 in s2) faulty iff both halves faulty
                    bad = half(s, s2)[:, a2] & half(s2, s)[a2, :]
                    cand &= ~bad
            slot = int(np.argmax(cand))
            if not cand[slot]:
                raise ReconstructionError(
                    f"greedy embedding ran dry in supernode {s} at guest {g}",
                    category="supernode",
                )
            assign[g] = slot
            used[s, slot] = True

        phi = sup_of * h + assign
        rec = AnRecovery(params=p, super_recovery=super_rec, phi=phi)
        rec.stats["good_supernode_fraction"] = float(super_ok.mean())
        rec.stats["good_node_fraction"] = float(good.mean())
        if verify:
            self._verify(rec, state, half)
        return rec

    def survives(self, p: float, q: float, seed: int) -> bool:
        try:
            self.recover(self.sample_faults(p, q, seed))
            return True
        except ReconstructionError:
            return False

    # -- verification ------------------------------------------------------------

    def _verify(self, rec: AnRecovery, state: AnFaultState, half) -> None:
        p = self.params
        h = p.h
        fault_flat = state.node_faults.ravel()

        def node_ok(ids):
            return ~fault_flat[ids]

        def edge_ok(us, vs):
            us = np.asarray(us)
            vs = np.asarray(vs)
            su, au = us // h, us % h
            sv, av = vs // h, vs % h
            same = su == sv
            adjacent = np.zeros(us.shape, dtype=bool)
            mixed = ~same
            if mixed.any():
                adjacent[mixed] = self.host.bn.is_adjacent(su[mixed], sv[mixed])
            exists = (same & (au != av)) | adjacent
            if state.q == 0.0:
                return exists
            ok = exists.copy()
            for i in np.flatnonzero(exists):
                s1, a1, s2, a2 = int(su[i]), int(au[i]), int(sv[i]), int(av[i])
                if half(s1, s2)[a1, a2] and half(s2, s1)[a2, a1]:
                    ok[i] = False
            return ok

        rec.stats.update(
            verify_torus_embedding((p.n,) * p.d, rec.phi, node_ok, edge_ok)
        )


def _assigned_neighbors(
    coord: np.ndarray, n: int, d: int, codec: CoordCodec
) -> list[int]:
    """Guest-torus neighbours of ``coord`` with smaller raster index.

    Raster (row-major ascending) order means the ``-1`` neighbour along
    every axis precedes, and the ``+1`` (wrap) neighbour precedes exactly
    when this node sits on the last slice of that axis.  At most ``2d``.
    """
    out: list[int] = []
    for axis in range(d):
        c = coord.copy()
        if coord[axis] > 0:
            c[axis] = coord[axis] - 1
            out.append(int(codec.ravel(c)))
        if coord[axis] == n - 1 and n > 2:
            c = coord.copy()
            c[axis] = 0
            out.append(int(codec.ravel(c)))
    return out
