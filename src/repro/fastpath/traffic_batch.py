"""Vectorized lockstep store-and-forward kernel (the traffic fast path).

The scalar engine (:func:`repro.sim.engine.simulate`) walks a Python dict
of per-link queues message by message, every cycle.  This kernel
advances *all* live messages of one simulation in lockstep:

* routes are padded ``(M, L + 1)`` node arrays of dimension-ordered
  routes, built in closed form — one masked numpy pass per axis over
  blocks of rows, never a loop over messages or hops — or handed in by a
  caller that already built them;
* every hop becomes a dense directed-link id ``u * 2d + port``
  (:func:`link_ids`): a d-dimensional torus node has 2d neighbours, so
  the ids fill ``[0, size * 2d)`` and index plain per-link tables;
* the live set is kept incrementally: messages arrive in injection-cycle
  order through one ``searchsorted`` per cycle (under credit flow
  control they wait in id-sorted per-class pools), and delivered
  messages leave it, so no cycle touches all M messages;
* per-cycle arbitration sorts nothing: ``minimum.at`` leaves each wanted
  link the lowest ``(class, id)`` key among its requesters — the scalar
  engine's winner — and ``add.at`` counts them for the queue depth; both
  tables are reset where they were touched;
* winners advance, finishers record ``cycle + 1 - inject`` latencies, and
  the loop repeats until everything is delivered or ``max_cycles`` hits.

The decision sequence is the scalar engine's, replayed with array
reductions, so :func:`simulate_batch` returns a
:class:`~repro.sim.engine.SimResult` identical **field for field** —
delivered order, latency arrays, ``cycles``, ``max_queue``, ``timed_out``
— for any traffic array and injection schedule (hypothesis-tested in
tests/test_traffic.py; the measured wall-clock win at the e14 size is
recorded in BENCH_traffic.json and gated in CI).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim.engine import (
    SimResult,
    byzantine_counts,
    check_sim_inputs,
    classify_messages,
)
from repro.sim.routing import ROUTERS, adaptive_route
from repro.topology.coords import CoordCodec

__all__ = [
    "build_routes_batch",
    "link_ids",
    "routes_batch",
    "routes_health_mask",
    "run_traffic_batch",
    "simulate_batch",
]


#: Rows per pass of :func:`routes_batch`.  Besides the ``(M, L)`` output it
#: allocates only ``(ROUTE_BLOCK, d)`` legs and ``(ROUTE_BLOCK, L)``
#: temporaries, so its peak is the output plus ``O(M * d)``, and no array
#: but the output is big enough to fragment the heap across calls, which
#: raised a long traffic run's peak RSS.
ROUTE_BLOCK = 2048


def _route_legs(codec: CoordCodec, traffic: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-axis legs of the e-cube routes of ``traffic`` rows, each
    ``(rows, d)``: the source coordinate ``s``, the step ``sign`` (the
    shorter way round) and ``count``, the hop count ``start`` of the
    earlier axes, and ``base``, the node the leg leaves from (earlier axes
    at ``dst``, the rest at ``src``)."""
    coords = codec.unravel(traffic)
    sc = coords[:, 0]
    shift = coords[:, 1] - sc
    sides = np.asarray(codec.shape, dtype=np.int64)
    fwd = shift % sides
    sign = np.where(2 * fwd <= sides, 1, -1)  # the n/2 tie breaks toward +
    count = np.minimum(fwd, sides - fwd)
    start = np.cumsum(count, axis=1) - count
    shift *= codec.strides
    base = traffic[:, :1] + np.cumsum(shift, axis=1) - shift
    return sc, sign, count, start, base


def routes_batch(
    shape: tuple[int, ...], traffic: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Padded node sequences of every message's dimension-ordered route.

    Returns ``(nodes, lengths)``: ``nodes[i, :lengths[i] + 1]`` is exactly
    ``dimension_ordered_route(shape, *traffic[i])`` and the padding beyond
    it is ``-1``.

    Closed form: along axis ``a`` the route takes ``count`` steps of
    ``sign`` from ``base`` (see :func:`_route_legs`).  Its leg fills
    columns ``start + 1 .. start + count``, and column ``start + j`` holds
    ``base + ((s + sign * j) mod n - s) * stride``.  Rows are handled in
    blocks of :data:`ROUTE_BLOCK`, one masked numpy pass per axis per
    block: ``O(d * M / ROUTE_BLOCK)`` numpy calls, no per-message or
    per-hop Python, and temporaries bounded by ``O(ROUTE_BLOCK * L)``
    beside the ``(M, L)`` output.
    """
    codec = CoordCodec(shape)
    traffic = np.asarray(traffic, dtype=np.int64).reshape(-1, 2)
    m = len(traffic)
    blocks = [slice(r0, r0 + ROUTE_BLOCK) for r0 in range(0, m, ROUTE_BLOCK)]
    legs = [_route_legs(codec, traffic[rows]) for rows in blocks]
    lengths = np.zeros(m, dtype=np.int64)
    for rows, (_, _, count, _, _) in zip(blocks, legs):
        np.sum(count, axis=1, out=lengths[rows])
    lmax = int(lengths.max(initial=0))
    nodes = np.full((m, lmax + 1), -1, dtype=np.int64)
    nodes[:, 0] = traffic[:, 0]
    cols = np.arange(lmax + 1)
    for rows, (sc, sign, count, start, base) in zip(blocks, legs):
        out = nodes[rows]
        for a, n in enumerate(shape):
            j = cols - start[:, a, None]
            leg = (j >= 1) & (j <= count[:, a, None])
            s = sc[:, a, None]
            j *= sign[:, a, None]
            j += s
            j %= n
            j -= s
            j *= codec.strides[a]
            j += base[:, a, None]
            np.copyto(out, j, where=leg)
    return nodes, lengths


def routes_health_mask(
    nodes: np.ndarray, node_ok, edge_ok
) -> np.ndarray:
    """Per-route health of padded node sequences under the predicates.

    ``mask[i]`` is True iff every node and every hop of route ``i``
    (ignoring ``-1`` padding) passes ``node_ok``/``edge_ok`` — the
    vectorized form of :func:`repro.sim.routing.route_is_healthy`.
    """
    m = len(nodes)
    if m == 0:
        return np.zeros(0, dtype=bool)
    pad = nodes < 0
    safe = np.where(pad, 0, nodes)
    bad = np.zeros(m, dtype=bool)
    if node_ok is not None:
        bad |= (~pad & ~node_ok(safe)).any(axis=1)
    if edge_ok is not None and nodes.shape[1] > 1:
        hop = ~pad[:, 1:]
        bad |= (hop & ~edge_ok(safe[:, :-1], safe[:, 1:])).any(axis=1)
    return ~bad


def build_routes_batch(
    shape: tuple[int, ...],
    traffic: np.ndarray,
    *,
    router: str = "dimension",
    node_ok=None,
    edge_ok=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Padded routes under the selected router and health predicates.

    Returns ``(nodes, lengths, routable)``.  The dimension-ordered batch
    builder covers every message; under predicates, broken routes either
    mark the message unroutable (``router="dimension"``) or are replaced
    by the scalar adaptive detour (``router="adaptive"`` — only the
    usually-few broken messages drop to per-message work, and they call
    the *same* :func:`~repro.sim.routing.adaptive_route` the scalar
    engine uses, so batched and scalar routes are identical by
    construction).  ``routable[i]`` is False for messages no healthy
    route exists for; their ``nodes`` row is all padding.
    """
    if router not in ROUTERS:
        raise ValueError(f"unknown router {router!r}; options: {ROUTERS}")
    traffic = np.asarray(traffic, dtype=np.int64).reshape(-1, 2)
    nodes, lengths = routes_batch(shape, traffic)
    m = len(nodes)
    if node_ok is None and edge_ok is None:
        return nodes, lengths, np.ones(m, dtype=bool)
    routable = routes_health_mask(nodes, node_ok, edge_ok)
    broken = np.flatnonzero(~routable)
    if not len(broken):
        return nodes, lengths, routable
    detours: dict[int, np.ndarray] = {}
    if router == "adaptive":
        for i in broken:
            r = adaptive_route(
                shape, int(traffic[i, 0]), int(traffic[i, 1]),
                node_ok=node_ok, edge_ok=edge_ok,
            )
            if r is not None:
                detours[int(i)] = r
                routable[i] = True
    lmax = nodes.shape[1] - 1
    if detours:
        lmax = max(lmax, max(len(r) - 1 for r in detours.values()))
    out = np.full((m, lmax + 1), -1, dtype=np.int64)
    out[:, : nodes.shape[1]] = nodes
    for i in broken:
        r = detours.get(int(i))
        if r is None:
            out[i, :] = -1  # unroutable: never enters the network
            lengths[i] = 0
        else:
            out[i, :] = -1
            out[i, : len(r)] = r
            lengths[i] = len(r) - 1
    return out, lengths, routable


def _apply_byzantine_batch(plan, shape, nodes, lengths, routable):
    """Perturb the padded route matrix under a Byzantine plan.

    Touched rows — routable, at least two hops, at least one traitor
    intermediate — are detected with one vectorized mask, then perturbed
    by the *same* :meth:`~repro.sim.routing.ByzantinePlan._perturb` the
    scalar engine uses, in the same ascending-id order, consuming the
    same rng draws; the matrix is re-padded since misroute tails can
    exceed the old width.  Returns ``(nodes, lengths, actions)``.
    """
    m = len(nodes)
    actions = np.zeros(m, dtype=np.int8)
    if m == 0 or nodes.shape[1] <= 2:
        return nodes, lengths, actions
    pad = nodes < 0
    mid = plan.byz_flat[np.where(pad, 0, nodes)]
    mid[:, 0] = False
    mid &= np.arange(nodes.shape[1])[None, :] < lengths[:, None]
    mid &= ~pad
    touched = np.flatnonzero(routable & (lengths >= 2) & mid.any(axis=1))
    if not len(touched):
        return nodes, lengths, actions
    new_routes: dict[int, np.ndarray] = {}
    lmax = nodes.shape[1] - 1
    for i in touched:
        route = nodes[i, : lengths[i] + 1]
        pos = plan.first_traitor_hop(route)
        actions[i], nr = plan._perturb(shape, route, pos)
        new_routes[int(i)] = nr
        lmax = max(lmax, len(nr) - 1)
    out = np.full((m, lmax + 1), -1, dtype=np.int64)
    out[:, : nodes.shape[1]] = nodes
    lengths = lengths.copy()  # may be the caller's prebuilt routes
    for i, nr in new_routes.items():
        out[i, :] = -1
        out[i, : len(nr)] = nr
        lengths[i] = len(nr) - 1
    return out, lengths, actions


def link_ids(shape: tuple[int, ...], nodes: np.ndarray) -> np.ndarray:
    """Dense directed-link id of every hop of padded routes.

    ``ids[i, j]`` is ``u * 2d + port`` for the hop ``u -> v`` from
    ``nodes[i, j]`` to ``nodes[i, j + 1]``: every node of a d-dimensional
    torus has 2d neighbours, so the ids fill ``[0, size * 2d)``.  The port
    comes from the displacement ``v - u`` through a table.  Along an axis
    of side ``n`` and stride ``s``, ``+s`` and its wrap ``-(n - 1) s`` are
    the axis's ``+`` port, ``-s`` and ``+(n - 1) s`` its ``-`` port.  On
    side 2 both directions reach the same neighbour, and all four
    displacements fall on the ``+`` port; an axis of side 1 has no hops.
    The strides are nested, so no two axes share a displacement, and the
    id is one-to-one on distinct ``(u, v)`` hops: adaptive detours and
    Byzantine misroute tails get their ids the same way.  Entries past a
    route's end are never read.

    Rows are handled in blocks of :data:`ROUTE_BLOCK`, so the peak is the
    int32 output plus ``O(ROUTE_BLOCK * L)`` temporaries.
    """
    codec = CoordCodec(shape)
    size, ports = codec.size, 2 * len(shape)
    port = np.zeros(2 * size + 1, dtype=np.int64)  # indexed by v - u + size
    for a, n in enumerate(shape):
        s = int(codec.strides[a])
        if n > 1:
            port[size - s] = port[size + (n - 1) * s] = 2 * a + 1
            port[size + s] = port[size - (n - 1) * s] = 2 * a
    m, width = len(nodes), nodes.shape[1] - 1
    dtype = np.int32 if size * ports <= np.iinfo(np.int32).max else np.int64
    ids = np.empty((m, width), dtype=dtype)
    for r0 in range(0, m, ROUTE_BLOCK):
        block = nodes[r0 : r0 + ROUTE_BLOCK]
        hop = block[:, 1:] - block[:, :-1]
        hop += size
        ids[r0 : r0 + ROUTE_BLOCK] = block[:, :-1] * ports + port[hop]
    return ids


#: Empty entry of the per-link winner table (above every message key).
_NO_KEY = np.iinfo(np.int64).max


def simulate_batch(
    shape: tuple[int, ...],
    traffic: np.ndarray,
    *,
    inject: np.ndarray | None = None,
    max_cycles: int = 10_000,
    router: str = "dimension",
    node_ok=None,
    edge_ok=None,
    classes: np.ndarray | None = None,
    credits: int = 0,
    byzantine=None,
    routes: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> SimResult:
    """Vectorized twin of :func:`repro.sim.engine.simulate`.

    Same signature plus ``routes``, same semantics — routers, health
    predicates, QoS classes, credit flow control and Byzantine plans
    included — and an identical :class:`SimResult` field for field; only
    the wall clock differs.

    ``routes`` is ``(nodes, lengths, routable)`` as :func:`build_routes_batch`
    returns it for ``traffic``, passed by a caller that already built them
    (to check them against live faults, or to sum their hops): the build
    is skipped, ``router``/``node_ok``/``edge_ok`` are not consulted, and
    the result is the one the same build would give.
    """
    if routes is None:
        routes = build_routes_batch(
            shape, traffic, router=router, node_ok=node_ok, edge_ok=edge_ok
        )
    nodes, lengths, routable = routes
    actions = np.zeros(len(nodes), dtype=np.int8)
    if byzantine is not None:
        nodes, lengths, actions = _apply_byzantine_batch(
            byzantine, shape, nodes, lengths, routable
        )
    m = len(nodes)
    cls, start = check_sim_inputs(m, inject=inject, classes=classes, credits=credits)
    num_classes = int(cls.max()) + 1 if m else 1
    flat = link_ids(shape, nodes)
    width = flat.shape[1]
    flat = flat.ravel()
    # self-addressed: delivered at injection, latency 0 (unroutable rows
    # also have length 0 but never deliver — mask them out)
    done = (lengths == 0) & routable
    latencies = np.where(done, 0, -1).astype(np.int64)
    # The rest arrive by injection cycle; the stable sort keeps id order
    # within a cycle, so each cycle's arrivals are one id-sorted run.
    arrivals = np.flatnonzero(routable & (lengths > 0))
    arrivals = arrivals[np.argsort(start[arrivals], kind="stable")]
    due = start[arrivals]
    # A link goes to its lowest (class, id); this key orders them, and the
    # message id is ``key % m``.
    key = cls * m + np.arange(m)

    def entering(ids: np.ndarray) -> tuple[np.ndarray, ...]:
        """Live state of messages entering the network: the cursor into
        ``flat``, the cursor's value at delivery, and the key."""
        cursor = ids * width
        return cursor, cursor + lengths[ids], key[ids]

    cursor, end, lkey = entering(arrivals[:0])
    if credits:
        avail = np.full(num_classes, credits, dtype=np.int64)
        # Arrived messages waiting for a credit, one id-sorted pool per class.
        pools = [arrivals[:0]] * num_classes
    else:
        queued = entering(arrivals)
    n_links = CoordCodec(shape).size * 2 * len(shape)
    best = np.full(n_links, _NO_KEY)
    queue = np.zeros(n_links, dtype=np.int64)
    admitted = waiting = 0
    cycles = 0
    max_queue = 0
    while cycles < max_cycles and (admitted < len(due) or waiting or len(lkey)):
        entered = []
        if admitted < len(due):
            nxt = int(np.searchsorted(due, cycles, side="right"))
            if not credits:
                entered.append([q[admitted:nxt] for q in queued])
            else:
                new = arrivals[admitted:nxt]
                for c in range(num_classes):
                    run = new[cls[new] == c]
                    pools[c] = np.insert(pools[c], np.searchsorted(pools[c], run), run)
                waiting += len(new)
            admitted = nxt
        if waiting:
            # Each class admits its lowest ids while its credits last.
            for c in range(num_classes):
                take = pools[c][: avail[c]]
                entered.append(entering(take))
                pools[c] = pools[c][len(take):]
                avail[c] -= len(take)
                waiting -= len(take)
        if entered:
            # The live set is unordered: the keys carry the ids.
            cursor, end, lkey = (
                np.concatenate(parts) for parts in zip((cursor, end, lkey), *entered)
            )
        if len(lkey):
            # intp link ids spare each table access below a conversion.
            wanted = flat[cursor].astype(np.intp)
            # Each wanted link keeps the lowest key among its requesters
            # and counts them; both tables are reset where touched.
            np.minimum.at(best, wanted, lkey)
            win = best[wanted] == lkey
            best[wanted] = _NO_KEY
            np.add.at(queue, wanted, 1)
            max_queue = max(max_queue, int(queue[wanted].max()))
            queue[wanted] = 0
            cursor += win
            fin = cursor == end
            if fin.any():
                ids = lkey[fin] % m
                done[ids] = True
                latencies[ids] = cycles + 1 - start[ids]
                if credits:
                    # Credits released by deliveries feed next cycle's admission.
                    avail += np.bincount(cls[ids], minlength=num_classes)
                keep = ~fin
                cursor, end, lkey = cursor[keep], end[keep], lkey[keep]
        cycles += 1
    dropped = corrupted = misrouted = 0
    if byzantine is not None:
        dropped, corrupted, misrouted = byzantine_counts(actions, done, latencies)
    lat = latencies[done & (latencies >= 0)]
    return SimResult(
        delivered=int(done.sum()) - dropped,
        total=m,
        latencies=np.asarray(lat),
        cycles=cycles,
        max_queue=max_queue,
        timed_out=int((~done & routable).sum()),
        message_latencies=latencies,
        undeliverable=int((~routable).sum()),
        dropped=dropped,
        corrupted=corrupted,
        misrouted=misrouted,
        message_status=classify_messages(done, routable, latencies),
        message_actions=actions,
    )


def run_traffic_batch(shape: tuple[int, ...], spec, seeds: Sequence[int]) -> list:
    """Batched equivalent of ``[traffic_trial(spec, s) for s in seeds]``.

    Each seed's workload generation is shared with the scalar trial (same
    rng keying); only the engine differs, and :func:`simulate_batch`
    returns identical ``SimResult``\\ s, so the outcome sequence — and
    hence experiment JSON — is identical by construction.  Traffic
    vectorizes over *messages within one trial*, never across trials,
    so seeds run one at a time and there is no byte budget to honour.
    """
    from repro.api.traffic import run_traffic_trial

    return [run_traffic_trial(shape, spec, s, engine=simulate_batch) for s in seeds]
