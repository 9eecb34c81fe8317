"""Alon–Chung style fault-tolerant paths and meshes (Theorem 12, Section 5).

[AC88] builds, for any constant ``c < 1``, a constant-degree ``O(n)``-node
graph that contains an ``n``-node path after *any* ``c``-fraction of its
nodes/edges fail.  The construction is an expander; the survival argument is
spectral.  The paper uses it twice:

* as the 1-D answer to its open problems (linear worst-case faults,
  constant degree), and
* as the substrate of the "straightforward" ``F_n x (L_n)^{d-1}`` mesh
  construction that tolerates ``O(n)`` worst-case faults (Section 5) — the
  comparison point for ``D^d_{n,k}``.

Extraction: Alon–Chung's proof is existential.  We extract long paths with
the standard DFS argument (in any graph where every induced subgraph of
size ``>= z`` has expansion, a DFS tree has depth ``>= size - 2z``): run
iterative DFS from several roots and keep the deepest root-to-leaf path.
The returned path is *verified* (simple, alive, consecutive adjacency)
before use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.baselines.expander import gabber_galil_expander, random_regular_expander
from repro.errors import ReconstructionError
from repro.topology.coords import CoordCodec
from repro.topology.graph import CSRGraph

__all__ = ["AlonChungPath", "AlonChungMesh", "deep_dfs_path"]


def deep_dfs_path(
    g: CSRGraph, alive: np.ndarray, *, roots: int = 8, rng: np.random.Generator | None = None
) -> np.ndarray:
    """The deepest DFS root-to-leaf path over the alive subgraph.

    A DFS tree path is always a simple path of the graph.  On expanders
    with a constant fraction of nodes removed the deepest branch is a
    constant fraction of the surviving nodes (the Alon–Chung argument).
    """
    rng = rng or np.random.default_rng(0)
    alive_idx = np.flatnonzero(alive)
    if len(alive_idx) == 0:
        return np.array([], dtype=np.int64)
    best: list[int] = []
    starts = rng.choice(alive_idx, size=min(roots, len(alive_idx)), replace=False)
    for root in starts:
        path = _dfs_deepest_from(g, alive, int(root))
        if len(path) > len(best):
            best = path
    return np.array(best, dtype=np.int64)


def _dfs_deepest_from(g: CSRGraph, alive: np.ndarray, root: int) -> list[int]:
    """Iterative DFS; returns the deepest root-to-leaf path.

    Nodes are claimed when *popped* (true DFS order) — claiming at push
    time degenerates toward BFS and produces shallow trees, defeating the
    Alon–Chung depth argument.
    """
    n = g.num_nodes
    visited = np.zeros(n, dtype=bool)
    parent = np.full(n, -1, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    stack: list[tuple[int, int]] = [(root, -1)]
    deepest, deepest_d = root, 0
    while stack:
        v, par = stack.pop()
        if visited[v]:
            continue
        visited[v] = True
        parent[v] = par
        depth[v] = depth[par] + 1 if par != -1 else 0
        if depth[v] > deepest_d:
            deepest, deepest_d = v, int(depth[v])
        for u in g.neighbors(v):
            u = int(u)
            if alive[u] and not visited[u]:
                stack.append((u, v))
    path: list[int] = []
    v = deepest
    while v != -1:
        path.append(v)
        v = int(parent[v])
    path.reverse()
    return path


@dataclass
class PathRecovery:
    path: np.ndarray  # host node ids forming the fault-free path
    requested: int


class AlonChungPath:
    """A linear-size constant-degree network containing a long path after
    a constant fraction of worst-case faults.

    Parameters
    ----------
    n: target path length.
    blowup: node redundancy — the host has ``~blowup * n`` nodes.
    kind: ``"gabber-galil"`` (explicit) or ``"random-regular"``.
    """

    def __init__(
        self,
        n: int,
        *,
        blowup: float = 2.0,
        kind: str = "gabber-galil",
        degree: int = 8,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.n = int(n)
        target = int(math.ceil(blowup * n))
        if kind == "gabber-galil":
            q = int(math.ceil(math.sqrt(target)))
            self.graph = gabber_galil_expander(q)
        elif kind == "random-regular":
            rng = rng or np.random.default_rng(0)
            m = target + (target % 2)  # r-regular needs n*r even
            self.graph = random_regular_expander(m, degree, rng)
        else:
            raise ValueError(f"unknown expander kind {kind!r}")

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def recover(self, faulty: np.ndarray, rng: np.random.Generator | None = None) -> PathRecovery:
        """Find and verify a fault-free path of ``n`` nodes."""
        alive = ~np.asarray(faulty, dtype=bool).ravel()
        if alive.shape[0] != self.num_nodes:
            raise ValueError("fault array size mismatch")
        path = deep_dfs_path(self.graph, alive, rng=rng)
        if len(path) < self.n:
            raise ReconstructionError(
                f"deepest surviving path has {len(path)} < n = {self.n} nodes",
                category="capacity",
            )
        path = path[: self.n]
        self._verify(path, alive)
        return PathRecovery(path=path, requested=self.n)

    def survives(self, faulty: np.ndarray, rng: np.random.Generator | None = None) -> bool:
        try:
            self.recover(faulty, rng=rng)
            return True
        except ReconstructionError:
            return False

    def _verify(self, path: np.ndarray, alive: np.ndarray) -> None:
        if len(np.unique(path)) != len(path):
            raise ReconstructionError("path is not simple", category="embedding")
        if not alive[path].all():
            raise ReconstructionError("path touches faulty node", category="embedding")
        ok = self.graph.has_edges(path[:-1], path[1:])
        if not ok.all():
            raise ReconstructionError("path uses a non-edge", category="embedding")


class AlonChungMesh:
    """Section 5's straightforward construction: ``F_n x (L_n)^{d-1}``.

    Each node of the expander ``F_n`` carries a copy of the
    ``(d-1)``-dimensional mesh (*supernode*); a supernode is faulty when it
    contains any faulty node.  A surviving path of ``n`` supernodes yields
    the ``d``-dimensional mesh.  Tolerates ``O(n)`` worst-case node faults
    (each fault kills at most one supernode).
    """

    def __init__(self, n: int, d: int, *, blowup: float = 2.0) -> None:
        if d < 1:
            raise ValueError("d must be >= 1")
        self.n = int(n)
        self.d = int(d)
        self.path_host = AlonChungPath(n, blowup=blowup)
        self.super_size = n ** (d - 1)

    @property
    def num_nodes(self) -> int:
        return self.path_host.num_nodes * self.super_size

    def recover(self, faulty_nodes: np.ndarray) -> np.ndarray:
        """Map mesh node (x_1, ..., x_d) -> host node; verified construction.

        ``faulty_nodes``: boolean over ``num_nodes`` host nodes.
        Returns ``phi`` of length ``n^d``.
        """
        faulty_nodes = np.asarray(faulty_nodes, dtype=bool).ravel()
        super_faulty = faulty_nodes.reshape(-1, self.super_size).any(axis=1)
        pr = self.path_host.recover(super_faulty)
        # mesh (x, z) -> host node pr.path[x] * super_size + flat(z)
        codec = CoordCodec((self.n,) * self.d)
        idx = codec.all_indices()
        x = codec.axis_coord(idx, 0)
        rest = idx % self.super_size if self.d > 1 else np.zeros_like(idx)
        return pr.path[x] * self.super_size + rest

    def tolerates(self, faulty_nodes: np.ndarray) -> bool:
        try:
            self.recover(faulty_nodes)
            return True
        except ReconstructionError:
            return False
