"""Routing on the ``n^d`` torus: dimension-ordered and fault-adaptive.

Two routers (see docs/routing.md for the full algorithm and
deadlock-freedom notes):

* ``dimension`` — the classic e-cube route: dimension by dimension,
  always the shorter way around each cycle (ties break toward +).
  Minimal and deadlock-orderable — the standard choice for mesh/torus
  machines of the paper's era — but *static*: on an aged machine a route
  crossing a live fault simply cannot be used.
* ``adaptive`` — fault-aware: the e-cube route is used verbatim whenever
  every element it touches is healthy (so on a fault-free machine the
  two routers are *identical*, route for route), and otherwise a
  minimal-length detour is computed by breadth-first search over the
  healthy subgraph, expanding neighbours in weighted dimension order
  (lowest axis first, + before −) so detours are deterministic and
  shadow the e-cube escape order.  Only a source/destination pair that
  is genuinely disconnected in the live fault graph remains unroutable.

Health is expressed through two vectorized predicates so the same router
serves both the plain "guest torus with its own fault mask" case
(:func:`fault_predicates`) and the embedded case where guest routes must
map onto healthy host elements through ``phi``
(:func:`embedded_predicates`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.topology.coords import CoordCodec, shared_codec

__all__ = [
    "BYZ_CORRUPT",
    "BYZ_DROP",
    "BYZ_MISROUTE",
    "BYZ_NONE",
    "ByzantinePlan",
    "ROUTERS",
    "adaptive_route",
    "all_pairs_mean_distance",
    "dimension_ordered_route",
    "embedded_predicates",
    "fault_predicates",
    "route_is_healthy",
    "route_length",
]

#: Router names understood by the engines and :class:`~repro.api.protocol.TrafficSpec`.
ROUTERS = ("dimension", "adaptive")


def _axis_step(src: int, dst: int, n: int) -> int:
    """±1 step along the shorter cyclic direction (0 when equal)."""
    if src == dst:
        return 0
    fwd = (dst - src) % n
    bwd = (src - dst) % n
    return +1 if fwd <= bwd else -1


def dimension_ordered_route(shape: tuple[int, ...], src: int, dst: int) -> np.ndarray:
    """Node sequence of the e-cube route from ``src`` to ``dst`` (inclusive)."""
    codec = shared_codec(shape)
    cur = codec.unravel(np.int64(src)).copy()
    goal = codec.unravel(np.int64(dst))
    path = [int(src)]
    for axis in range(len(shape)):
        n = shape[axis]
        step = _axis_step(int(cur[axis]), int(goal[axis]), n)
        while cur[axis] != goal[axis]:
            cur[axis] = (cur[axis] + step) % n
            path.append(int(codec.ravel(cur)))
    return np.array(path, dtype=np.int64)


def route_length(shape: tuple[int, ...], src: int, dst: int) -> int:
    """Hop count of the minimal route (sum of cyclic distances)."""
    codec = shared_codec(shape)
    a = codec.unravel(np.int64(src))
    b = codec.unravel(np.int64(dst))
    total = 0
    for axis, n in enumerate(shape):
        d = int(abs(a[axis] - b[axis]))
        total += min(d, n - d)
    return total


def fault_predicates(
    fault_flat: np.ndarray,
) -> tuple[Callable, Callable]:
    """``(node_ok, edge_ok)`` for a guest torus carrying its own fault mask.

    A node is usable iff not faulty; a (torus-adjacent) edge is usable iff
    both endpoints are.  Both predicates are vectorized over flat index
    arrays — the form every router and engine in this module consumes.
    """
    fault_flat = np.asarray(fault_flat, dtype=bool).ravel()

    def node_ok(ids):
        return ~fault_flat[np.asarray(ids, dtype=np.int64)]

    def edge_ok(us, vs):
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        return ~fault_flat[us] & ~fault_flat[vs]

    return node_ok, edge_ok


def embedded_predicates(
    phi: np.ndarray,
    fault_flat: np.ndarray,
    is_adjacent: Callable,
) -> tuple[Callable, Callable]:
    """``(node_ok, edge_ok)`` for guest routes mapped through an embedding.

    Guest node ``g`` is usable iff its host image ``phi[g]`` is healthy;
    guest edge ``(u, v)`` iff the host images are adjacent *and* both
    healthy.  :func:`repro.sim.lifetime_traffic.serve_traffic` hands them
    to the route builder: whole e-cube routes are checked with them, and
    the adaptive router uses them to detour in guest space while every
    hop it commits to is a healthy host edge.
    """
    phi = np.asarray(phi, dtype=np.int64).ravel()
    fault_flat = np.asarray(fault_flat, dtype=bool).ravel()

    def node_ok(ids):
        return ~fault_flat[phi[np.asarray(ids, dtype=np.int64)]]

    def edge_ok(us, vs):
        hu = phi[np.asarray(us, dtype=np.int64)]
        hv = phi[np.asarray(vs, dtype=np.int64)]
        return is_adjacent(hu, hv) & ~fault_flat[hu] & ~fault_flat[hv]

    return node_ok, edge_ok


def route_is_healthy(route: np.ndarray, node_ok, edge_ok) -> bool:
    """Every node and every hop of ``route`` passes the predicates."""
    route = np.asarray(route, dtype=np.int64)
    if node_ok is not None and not bool(np.all(node_ok(route))):
        return False
    if edge_ok is not None and len(route) > 1:
        return bool(np.all(edge_ok(route[:-1], route[1:])))
    return True


def _torus_neighbors(codec: CoordCodec, node: int) -> list[int]:
    """Neighbours of ``node`` in weighted dimension order: axis 0 before
    axis 1, + before −.  This is the escape order the adaptive detour
    search expands in, so its BFS tree shadows e-cube's axis priority."""
    coords = codec.unravel(np.int64(node))
    out = []
    for axis, n in enumerate(codec.shape):
        stride = int(codec.strides[axis])
        c = int(coords[axis])
        for step in (+1, -1):
            nc = (c + step) % n
            if nc == c:  # n == 1: no move on this axis
                continue
            out.append(int(node) + (nc - c) * stride)
    return out


def adaptive_route(
    shape: tuple[int, ...],
    src: int,
    dst: int,
    *,
    node_ok=None,
    edge_ok=None,
) -> np.ndarray | None:
    """Fault-adaptive route from ``src`` to ``dst``; ``None`` if disconnected.

    The dimension-ordered route is used verbatim whenever it is healthy
    under the predicates — in particular, with no predicates (or no live
    faults) this router is *identical* to :func:`dimension_ordered_route`.
    Otherwise a minimal detour is found by BFS over the healthy subgraph,
    expanding neighbours in weighted dimension order (axis 0 first, +
    before −), which makes the detour deterministic and minimal in hop
    count among healthy paths.  Returns ``None`` exactly when ``src`` and
    ``dst`` lie in different components of the live fault graph (or an
    endpoint itself is broken) — the only messages that stay
    undeliverable under adaptive routing.
    """
    base = dimension_ordered_route(shape, src, dst)
    if node_ok is None and edge_ok is None:
        return base
    if route_is_healthy(base, node_ok, edge_ok):
        return base
    codec = shared_codec(shape)
    src, dst = int(src), int(dst)
    if node_ok is not None and not (
        bool(node_ok(np.array([src]))[0]) and bool(node_ok(np.array([dst]))[0])
    ):
        return None
    # BFS in escape order over the healthy subgraph: parent pointers give
    # the (deterministic) minimal healthy path.
    parent = {src: src}
    frontier = [src]
    while frontier and dst not in parent:
        nxt: list[int] = []
        for u in frontier:
            for v in _torus_neighbors(codec, u):
                if v in parent:
                    continue
                if node_ok is not None and not bool(node_ok(np.array([v]))[0]):
                    continue
                if edge_ok is not None and not bool(
                    edge_ok(np.array([u]), np.array([v]))[0]
                ):
                    continue
                parent[v] = u
                nxt.append(v)
        frontier = nxt
    if dst not in parent:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    return np.array(path[::-1], dtype=np.int64)


#: Per-message Byzantine action codes (``SimResult`` accounting keys).
BYZ_NONE, BYZ_MISROUTE, BYZ_DROP, BYZ_CORRUPT = 0, 1, 2, 3


class ByzantinePlan:
    """Deterministic per-trial plan of Byzantine node behaviour.

    ``byz_mask`` marks the traitor nodes (they stay *up* — health
    predicates never see them); ``mix`` is the normalised
    ``(misroute, drop, corrupt)`` action distribution of
    :meth:`repro.faults.models.ByzantineNodeFaults.mix`; ``rng`` is the
    plan's own dedicated stream.  A message is perturbed at the *first*
    traitor its route traverses as an intermediate hop (endpoints are
    trusted to inject/consume their own messages — the classic
    convention), and at most once:

    * ``misroute`` — the traitor forwards it to a wrong neighbour; the
      tail is re-routed e-cube from there, so the message still arrives,
      late (the detour is genuine extra hops, visible in latency);
    * ``drop`` — the traitor swallows it: the route is truncated at the
      traitor and the message is never delivered (``latency -1``);
    * ``corrupt`` — delivered on time with damaged payload (route
      unchanged; only the integrity accounting notices).

    Determinism contract: actions are drawn in ascending message-id
    order and *only* for messages that actually traverse a traitor, so
    the scalar engine and the vectorized kernel — which detects touched
    messages differently — consume identical draws and produce identical
    plans.  The scalar and batched engines share :meth:`apply` outright.
    """

    def __init__(self, byz_mask, mix, rng) -> None:
        self.byz_flat = np.asarray(byz_mask, dtype=bool).ravel()
        self.mix = tuple(float(w) for w in mix)
        if len(self.mix) != 3:
            raise ValueError("mix must be (misroute, drop, corrupt)")
        self.rng = rng

    def first_traitor_hop(self, route) -> int:
        """Index of the first Byzantine *intermediate* hop, or -1."""
        route = np.asarray(route, dtype=np.int64)
        if len(route) <= 2:
            return -1
        hits = np.flatnonzero(self.byz_flat[route[1:-1]])
        return int(hits[0]) + 1 if len(hits) else -1

    def _perturb(self, shape, route, pos: int):
        """One action draw for a message whose hop ``pos`` is a traitor."""
        route = np.asarray(route, dtype=np.int64)
        u = float(self.rng.random())
        if u < self.mix[0]:
            codec = shared_codec(shape)
            here, nxt, dst = int(route[pos]), int(route[pos + 1]), int(route[-1])
            wrongs = [v for v in _torus_neighbors(codec, here) if v != nxt]
            if not wrongs:  # degree-1 corner case: nowhere wrong to send it
                return BYZ_CORRUPT, route
            wrong = wrongs[int(self.rng.integers(len(wrongs)))]
            tail = dimension_ordered_route(shape, wrong, dst)
            return BYZ_MISROUTE, np.concatenate([route[: pos + 1], tail])
        if u < self.mix[0] + self.mix[1]:
            return BYZ_DROP, np.ascontiguousarray(route[: pos + 1])
        return BYZ_CORRUPT, route

    def apply(self, shape, routes):
        """Perturb ``routes`` in place-order; returns ``(routes, actions)``.

        ``routes`` is the engine's per-message route list (``None`` =
        undeliverable, untouched); ``actions`` the per-message
        ``BYZ_*`` codes.  Dropped messages keep their truncated route —
        the engine delivers them *to the traitor* and the accounting
        (:func:`repro.sim.engine.sim_result`) reclassifies them.
        """
        actions = np.zeros(len(routes), dtype=np.int8)
        out = list(routes)
        for i, route in enumerate(out):
            if route is None:
                continue
            pos = self.first_traitor_hop(route)
            if pos < 0:
                continue
            actions[i], out[i] = self._perturb(shape, route, pos)
        return out, actions


def all_pairs_mean_distance(shape: tuple[int, ...]) -> float:
    """Closed-form mean torus distance (per-axis mean of cyclic distance)."""
    mean = 0.0
    for n in shape:
        d = np.arange(n)
        cyc = np.minimum(d, n - d)
        mean += float(cyc.mean())
    return mean
