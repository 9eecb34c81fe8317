"""A compact CSR (compressed sparse row) undirected-graph substrate.

``networkx`` is flexible but too slow and memory-hungry for the Monte-Carlo
loops in this library (millions of adjacency queries per trial).  CSRGraph
stores the adjacency of a *static* graph in two NumPy arrays and provides the
vectorised operations the reconstruction algorithms need:

* degree statistics (to verify the paper's degree claims exactly),
* neighbour slices,
* subgraph-surviving connectivity (BFS) after node deletions,
* conversion to ``networkx`` for small instances / cross-checks.

Graphs are built from an edge list once; self-loops are rejected; parallel
edges are collapsed (the constructions never rely on multiplicity — the one
place the paper mentions multigraphs, parallel edges only reduce the
effective edge-failure probability, which we model directly instead).
"""

from __future__ import annotations

import numpy as np

__all__ = ["CSRGraph"]


class CSRGraph:
    """Immutable undirected graph in CSR form."""

    def __init__(self, num_nodes: int, edges: np.ndarray) -> None:
        """Build from an ``(E, 2)`` int array of undirected edges."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
            raise ValueError("edge endpoint out of range")
        if edges.size and (edges[:, 0] == edges[:, 1]).any():
            raise ValueError("self-loops are not allowed")
        self.num_nodes = int(num_nodes)
        # Canonicalise + dedupe.
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        key = lo * num_nodes + hi
        _, keep = np.unique(key, return_index=True)
        self._edges = np.stack([lo[keep], hi[keep]], axis=1) if edges.size else edges
        # CSR of the symmetric adjacency.
        both = np.concatenate([self._edges, self._edges[:, ::-1]], axis=0) if self._edges.size else self._edges
        order = np.argsort(both[:, 0], kind="stable") if both.size else np.array([], dtype=np.int64)
        sorted_src = both[order, 0] if both.size else np.array([], dtype=np.int64)
        self.indices = both[order, 1] if both.size else np.array([], dtype=np.int64)
        counts = np.bincount(sorted_src, minlength=num_nodes) if both.size else np.zeros(num_nodes, dtype=np.int64)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    # -- basic queries ---------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self._edges.shape[0])

    def edges(self) -> np.ndarray:
        """The canonical ``(E, 2)`` edge array (lo < hi)."""
        return self._edges

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def max_degree(self) -> int:
        return int(self.degrees().max()) if self.num_nodes else 0

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors(u)
        # Neighbour lists are sorted by construction order of argsort on dst?
        # They are not guaranteed sorted; use linear scan (short lists).
        return bool((nb == v).any())

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorised membership test for many (u, v) pairs."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        lo = np.minimum(us, vs).astype(np.int64)
        hi = np.maximum(us, vs).astype(np.int64)
        key = lo * self.num_nodes + hi
        ekey = self._edges[:, 0] * self.num_nodes + self._edges[:, 1]
        ekey_sorted = np.sort(ekey)
        pos = np.searchsorted(ekey_sorted, key)
        pos = np.clip(pos, 0, len(ekey_sorted) - 1)
        return (len(ekey_sorted) > 0) & (ekey_sorted[pos] == key)

    # -- algorithms --------------------------------------------------------

    def connected_components(self, alive: np.ndarray | None = None) -> np.ndarray:
        """Component label per node (−1 for dead nodes).

        ``alive`` is a boolean mask of surviving nodes; ``None`` = all alive.
        Iterative BFS with NumPy frontier expansion.
        """
        if alive is None:
            alive = np.ones(self.num_nodes, dtype=bool)
        labels = np.full(self.num_nodes, -1, dtype=np.int64)
        comp = 0
        for start in range(self.num_nodes):
            if not alive[start] or labels[start] != -1:
                continue
            frontier = np.array([start], dtype=np.int64)
            labels[start] = comp
            while frontier.size:
                # Gather all neighbours of the frontier.
                segs = [self.indices[self.indptr[v] : self.indptr[v + 1]] for v in frontier]
                nxt = np.unique(np.concatenate(segs)) if segs else np.array([], dtype=np.int64)
                nxt = nxt[alive[nxt] & (labels[nxt] == -1)]
                labels[nxt] = comp
                frontier = nxt
            comp += 1
        return labels

    def largest_component_size(self, alive: np.ndarray | None = None) -> int:
        labels = self.connected_components(alive)
        labels = labels[labels >= 0]
        if labels.size == 0:
            return 0
        return int(np.bincount(labels).max())

    # -- conversions -------------------------------------------------------

    def to_networkx(self):
        """Export to :mod:`networkx` (small graphs only; O(V+E) python objects)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_nodes))
        g.add_edges_from(map(tuple, self._edges.tolist()))
        return g

    @classmethod
    def from_networkx(cls, g) -> "CSRGraph":
        import networkx as nx

        mapping = {v: i for i, v in enumerate(g.nodes())}
        edges = np.array([[mapping[u], mapping[v]] for u, v in g.edges()], dtype=np.int64)
        return cls(g.number_of_nodes(), edges.reshape(-1, 2))

