"""Vectorized lockstep store-and-forward kernel (the traffic fast path).

The scalar engine (:func:`repro.sim.engine.simulate`) walks a Python dict
of per-link queues message by message, every cycle.  This kernel
advances *all* live messages of one simulation in lockstep:

* every hop is a dense directed-link id ``u * 2d + port``: a
  d-dimensional torus node has 2d neighbours, so the ids fill
  ``[0, size * 2d)`` and index plain per-link tables;
* routes are one ragged int32 array of those ids (:func:`routes_batch`):
  message ``i``'s hops are ``ids[offsets[i] : offsets[i] + lengths[i]]``.
  The dimension-ordered routes are built in closed form from their
  per-axis legs — per block of rows, one ``repeat`` of the legs over
  their hop counts and one gather from a per-shape coordinate table,
  never a loop over messages or hops;
* route health is checked once per distinct link the routes use, not
  once per hop; adaptive detours and Byzantine misroute tails are
  appended to the end of ``ids`` and their rows repointed there;
* the live set is kept incrementally: messages arrive in injection-cycle
  order through one ``searchsorted`` per cycle (under credit flow
  control they wait in id-sorted per-class pools), and delivered
  messages leave it, so no cycle touches all M messages;
* per-cycle arbitration sorts nothing: ``minimum.at`` leaves each wanted
  link the lowest ``(class, id)`` key among its requesters — the scalar
  engine's winner — and ``add.at`` counts them for the queue depth; both
  tables are reset where they were touched;
* cycles in which no two messages want the same link are not arbitrated
  one by one: after a cycle without contention, one sort of
  ``k * n_links + link`` keys over the live messages' next hops
  (:func:`_free_window`) finds how many cycles every requester keeps
  winning — up to the next injection, ``max_cycles``, the last delivery
  and, while arrivals wait for credits, the first one — and every live
  message advances that far in one step.  A 32-message serve query on
  the 36x36 guest runs about 32 cycles and arbitrates about 1.4 of them;
* winners advance, finishers record ``cycle + 1 - inject`` latencies, and
  the loop repeats until everything is delivered or ``max_cycles`` hits.

The decision sequence is the scalar engine's, replayed with array
reductions, and both engines end in the same
:func:`~repro.sim.engine.sim_result`, so :func:`simulate_batch` returns a
:class:`~repro.sim.engine.SimResult` identical **field for field** —
latency, status and action arrays, ``cycles``, ``max_queue`` — for any
traffic array and injection schedule (hypothesis-tested in
tests/test_traffic.py; the measured wall-clock win at the e14 size is
recorded in BENCH_traffic.json and gated in CI).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.sim.engine import SimResult, check_sim_inputs, sim_result
from repro.sim.routing import BYZ_DROP, BYZ_MISROUTE, ROUTERS, adaptive_route
from repro.topology.coords import CoordCodec, shared_codec

__all__ = [
    "build_routes_batch",
    "link_ids",
    "routes_batch",
    "run_traffic_batch",
    "simulate_batch",
]


#: Rows per pass of :func:`routes_batch` and :func:`link_ids`.  Besides
#: the output a pass allocates only ``(ROUTE_BLOCK, d)`` legs and
#: ``O(ROUTE_BLOCK * L)`` temporaries, so the peak is the output plus
#: ``O(M * d)``, and no array but the output is big enough to fragment
#: the heap across calls, which raised a long traffic run's peak RSS.
ROUTE_BLOCK = 2048


def _id_dtype(shape: tuple[int, ...]):
    """int32 while every link id ``< size * 2d`` fits, else int64."""
    n_links = int(np.prod(shape)) * 2 * len(shape)
    return np.int32 if n_links <= np.iinfo(np.int32).max else np.int64


@lru_cache(maxsize=16)
def _coord_table(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis gather table of the e-cube route builder.

    Hop ``j`` (``j = 0 .. count - 1``) of a leg along axis ``a`` (side
    ``n``, stride ``st``) from source coordinate ``s`` leaves a node whose
    axis-``a`` coordinate is ``c = (s + sign * j) mod n``; every other
    coordinate is the leg's ``base``.  So its link id is
    ``(base - s * st) * 2d + port + c * st * 2d``, and only the last term
    varies along the leg.  The table holds ``c * st * 2d`` in two runs per
    axis of ``n + n // 2`` entries, so that one index rising with ``j``
    reads it: ``s + j`` for ``sign = +1``, ``(n - 1 - s) + j`` on the
    second run for ``sign = -1``.  Returns ``(table, first, span)``: axis
    ``a``'s runs start at ``first[a]`` and ``first[a] + span[a]``.
    """
    codec = shared_codec(shape)
    ports = 2 * len(shape)
    runs, first, span = [], [], []
    for a, n in enumerate(shape):
        x = np.arange(n + n // 2)
        step = int(codec.strides[a]) * ports
        first.append(sum(len(r) for r in runs))
        span.append(len(x))
        runs += [x % n * step, (n - 1 - x) % n * step]
    table = np.concatenate(runs).astype(_id_dtype(shape))
    first, span = np.array(first), np.array(span)
    for arr in (table, first, span):
        arr.flags.writeable = False
    return table, first, span


@lru_cache(maxsize=16)
def _link_heads(shape: tuple[int, ...]) -> np.ndarray:
    """``heads[u * 2d + port]``: the node link ``u * 2d + port`` enters
    (``u`` itself on a side-1 axis, whose ports no route uses)."""
    codec = shared_codec(shape)
    coords = codec.unravel(codec.all_indices())
    heads = np.empty((codec.size, 2 * len(shape)), dtype=np.int64)
    for a, n in enumerate(shape):
        for port, step in ((2 * a, 1), (2 * a + 1, -1)):
            moved = coords.copy()
            moved[:, a] = (moved[:, a] + step) % n
            heads[:, port] = codec.ravel(moved)
    heads = heads.ravel()
    heads.flags.writeable = False
    return heads


def _route_legs(codec: CoordCodec, traffic: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-axis legs of the e-cube routes of ``traffic`` rows, each
    ``(rows, d)``: the source coordinate ``s``, ``back`` (the shorter way
    round is the ``-`` step) and the hop ``count``, and ``base``, the node
    the leg leaves from (earlier axes at ``dst``, the rest at ``src``)."""
    coords = codec.unravel(traffic)
    sc = coords[:, 0]
    shift = coords[:, 1] - sc
    sides = np.asarray(codec.shape, dtype=np.int64)
    fwd = shift % sides
    back = 2 * fwd > sides  # the n/2 tie breaks toward +
    count = np.minimum(fwd, sides - fwd)
    shift *= codec.strides
    base = traffic[:, :1] + np.cumsum(shift, axis=1) - shift
    return sc, back, count, base


def routes_batch(
    shape: tuple[int, ...], traffic: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense link ids of every message's dimension-ordered route.

    Returns ``(ids, offsets, lengths)``: message ``i``'s hops are
    ``ids[offsets[i] : offsets[i] + lengths[i]]``, exactly
    :func:`link_ids` of ``dimension_ordered_route(shape, *traffic[i])``,
    and rows follow each other in message order.  ``ids`` is int32, or
    int64 where ``size * 2d`` overflows int32.

    Closed form: along axis ``a`` the route takes ``count`` steps from
    ``base``, the shorter way round (see :func:`_route_legs`), and its hop
    ``j`` is a per-leg constant plus the :func:`_coord_table` entry at the
    leg's start index plus ``j``.  Per block of :data:`ROUTE_BLOCK` rows,
    each leg's start index is repeated over its hop count, one gather
    reads the entries, and the leg constants, repeated the same way, are
    added: ``O(M / ROUTE_BLOCK)`` numpy calls, no per-message or per-hop
    Python, and temporaries bounded by ``O(ROUTE_BLOCK * L)`` beside the
    output and ``O(M * d)`` legs.  The side-2 ``-`` step uses the ``+``
    port, as in :func:`link_ids`.
    """
    codec = shared_codec(shape)
    traffic = np.asarray(traffic, dtype=np.int64).reshape(-1, 2)
    m = len(traffic)
    table, first, span = _coord_table(tuple(shape))
    sides = np.asarray(shape, dtype=np.int64)
    ports = 2 * len(shape)
    plus = 2 * np.arange(len(shape))  # the + port of each axis
    lengths = np.zeros(m, dtype=np.int64)
    legs = []
    for r0 in range(0, m, ROUTE_BLOCK):
        sc, back, count, base = _route_legs(codec, traffic[r0 : r0 + ROUTE_BLOCK])
        np.sum(count, axis=1, out=lengths[r0 : r0 + ROUTE_BLOCK])
        start = first + np.where(back, span + sides - 1 - sc, sc)
        const = (base - sc * codec.strides) * ports + plus + (back & (sides > 2))
        count = count.ravel()
        # Less the block position of each leg's first hop, so adding a
        # hop's block position gives its table index.
        start = start.ravel() - (np.cumsum(count) - count)
        legs.append((start, count, const.astype(table.dtype).ravel()))
    offsets = np.cumsum(lengths) - lengths
    ids = np.empty(int(lengths.sum()), dtype=table.dtype)
    lo = 0
    for start, count, const in legs:
        step = np.repeat(start, count)
        step += np.arange(len(step))
        out = ids[lo : lo + len(step)]
        np.take(table, step, out=out)
        out += np.repeat(const, count)
        lo += len(step)
    return ids, offsets, lengths


def _bad_hops(shape, ids, node_ok, edge_ok) -> np.ndarray:
    """``bad[k]`` is True iff hop ``ids[k]`` fails the predicates.

    Each distinct link is checked once: ``node_ok`` on its tail
    ``id // 2d`` and head (:func:`_link_heads`), ``edge_ok`` on the pair;
    the per-link verdict is gathered back per hop.
    """
    heads = _link_heads(tuple(shape))
    marked = np.zeros(len(heads), dtype=bool)
    marked[ids] = True
    links = np.flatnonzero(marked)
    tails, heads = links // (2 * len(shape)), heads[links]
    ok = np.ones(len(links), dtype=bool)
    if node_ok is not None:
        ok &= node_ok(tails)
        ok &= node_ok(heads)
    if edge_ok is not None:
        ok &= edge_ok(tails, heads)
    marked[links] = ~ok  # now: the bad links
    return marked[ids]


def _append_routes(shape, ids, offsets, lengths, routes: dict) -> np.ndarray:
    """Point each row ``i`` of ``routes`` (a node sequence) at its hops,
    appended to the end of ``ids`` through :func:`link_ids`.  ``offsets``
    and ``lengths`` are repointed in place; returns the longer ``ids``."""
    if not routes:
        return ids
    rows = np.fromiter(routes, dtype=np.int64, count=len(routes))
    hops = np.array([len(r) - 1 for r in routes.values()], dtype=np.int64)
    nodes = np.full((len(rows), int(hops.max()) + 1), -1, dtype=np.int64)
    for k, r in enumerate(routes.values()):
        nodes[k, : len(r)] = r
    tail = link_ids(shape, nodes)[np.arange(nodes.shape[1] - 1) < hops[:, None]]
    offsets[rows] = len(ids) + np.cumsum(hops) - hops
    lengths[rows] = hops
    return np.concatenate([ids, tail])


def build_routes_batch(
    shape: tuple[int, ...],
    traffic: np.ndarray,
    *,
    router: str = "dimension",
    node_ok=None,
    edge_ok=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Routes under the selected router and health predicates.

    Returns ``(ids, offsets, lengths, routable)``, the first three as
    :func:`routes_batch` lays them out.  The dimension-ordered batch
    builder covers every message.  Under predicates a message is broken
    when a hop of its route fails them (each distinct link checked once)
    or its source does (so a self-addressed message on a faulty node is
    refused, as the scalar engine refuses it).  A broken message is
    unroutable under ``router="dimension"``; under ``router="adaptive"``
    it gets the scalar adaptive detour — only the usually-few broken
    messages drop to per-message work, and they call the *same*
    :func:`~repro.sim.routing.adaptive_route` the scalar engine uses, so
    batched and scalar routes are identical by construction.  Detours are
    appended to ``ids``.  ``routable[i]`` is False for messages no healthy
    route exists for; their ``lengths`` entry is 0.
    """
    if router not in ROUTERS:
        raise ValueError(f"unknown router {router!r}; options: {ROUTERS}")
    traffic = np.asarray(traffic, dtype=np.int64).reshape(-1, 2)
    ids, offsets, lengths = routes_batch(shape, traffic)
    routable = np.ones(len(traffic), dtype=bool)
    if node_ok is None and edge_ok is None:
        return ids, offsets, lengths, routable
    if node_ok is not None:
        routable &= node_ok(traffic[:, 0])
    bad = _bad_hops(shape, ids, node_ok, edge_ok)
    if bad.any():
        # A row is broken when its running count of bad hops moves
        # across its span.
        seen = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(bad, out=seen[1:])
        routable &= seen[offsets + lengths] == seen[offsets]
    broken = np.flatnonzero(~routable)
    lengths[broken] = 0  # refused: never enters the network
    if router == "adaptive":
        detours = {}
        for i in broken:
            r = adaptive_route(
                shape, int(traffic[i, 0]), int(traffic[i, 1]),
                node_ok=node_ok, edge_ok=edge_ok,
            )
            if r is not None:
                detours[int(i)] = r
                routable[i] = True
        ids = _append_routes(shape, ids, offsets, lengths, detours)
    return ids, offsets, lengths, routable


def _apply_byzantine_batch(plan, shape, ids, offsets, lengths, routable):
    """Perturb the routes under a Byzantine plan.

    Touched rows — routable, at least two hops, at least one traitor
    intermediate (a hop's tail ``id // 2d``, the first hop's excepted) —
    are detected with one running count over the hops, then perturbed by
    the *same* :meth:`~repro.sim.routing.ByzantinePlan._perturb` the
    scalar engine uses, on node rows rebuilt for them alone, in the same
    ascending-id order, consuming the same rng draws.  A drop shortens
    the row in place; a misroute tail is appended to ``ids``.  Returns
    ``(ids, offsets, lengths, actions)``; the arguments are not modified
    (they may be the caller's prebuilt routes).
    """
    actions = np.zeros(len(lengths), dtype=np.int8)
    rows = np.flatnonzero(routable & (lengths >= 2))
    if not len(rows):
        return ids, offsets, lengths, actions
    ports = 2 * len(shape)
    traitors = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(np.repeat(plan.byz_flat, ports)[ids], out=traitors[1:])
    start = offsets[rows]
    touched = rows[traitors[start + lengths[rows]] != traitors[start + 1]]
    if not len(touched):
        return ids, offsets, lengths, actions
    offsets, lengths = offsets.copy(), lengths.copy()
    heads = _link_heads(tuple(shape))
    misroutes = {}
    for i in touched:
        hops = ids[offsets[i] : offsets[i] + lengths[i]]
        route = np.append(hops // ports, heads[hops[-1]])
        actions[i], new = plan._perturb(shape, route, plan.first_traitor_hop(route))
        if actions[i] == BYZ_MISROUTE:
            misroutes[int(i)] = new
        elif actions[i] == BYZ_DROP:
            lengths[i] = len(new) - 1  # a prefix of the route
    ids = _append_routes(shape, ids, offsets, lengths, misroutes)
    return ids, offsets, lengths, actions


def link_ids(shape: tuple[int, ...], nodes: np.ndarray) -> np.ndarray:
    """Dense directed-link id of every hop of padded node routes.

    ``ids[i, j]`` is ``u * 2d + port`` for the hop ``u -> v`` from
    ``nodes[i, j]`` to ``nodes[i, j + 1]``: every node of a d-dimensional
    torus has 2d neighbours, so the ids fill ``[0, size * 2d)``.  The port
    comes from the displacement ``v - u`` through a table.  Along an axis
    of side ``n`` and stride ``s``, ``+s`` and its wrap ``-(n - 1) s`` are
    the axis's ``+`` port, ``-s`` and ``+(n - 1) s`` its ``-`` port.  On
    side 2 both directions reach the same neighbour, and all four
    displacements fall on the ``+`` port; an axis of side 1 has no hops.
    The strides are nested, so no two axes share a displacement, and the
    id is one-to-one on distinct ``(u, v)`` hops.  Adaptive detours and
    Byzantine misroute tails get their ids this way; :func:`routes_batch`
    gives e-cube routes the same ids without a node array.  Entries past
    a route's end are never read.

    Rows are handled in blocks of :data:`ROUTE_BLOCK`, so the peak is the
    output plus ``O(ROUTE_BLOCK * L)`` temporaries.
    """
    codec = shared_codec(shape)
    size, ports = codec.size, 2 * len(shape)
    port = np.zeros(2 * size + 1, dtype=np.int64)  # indexed by v - u + size
    for a, n in enumerate(shape):
        s = int(codec.strides[a])
        if n > 1:
            port[size - s] = port[size + (n - 1) * s] = 2 * a + 1
            port[size + s] = port[size - (n - 1) * s] = 2 * a
    m, width = len(nodes), nodes.shape[1] - 1
    ids = np.empty((m, width), dtype=_id_dtype(shape))
    for r0 in range(0, m, ROUTE_BLOCK):
        block = nodes[r0 : r0 + ROUTE_BLOCK]
        hop = block[:, 1:] - block[:, :-1]
        hop += size
        ids[r0 : r0 + ROUTE_BLOCK] = block[:, :-1] * ports + port[hop]
    return ids


#: Empty entry of the per-link winner table (above every message key).
_NO_KEY = np.iinfo(np.int64).max


def _arbitrate(best, queue, wanted, lkey) -> tuple[np.ndarray, int]:
    """One ordinary cycle's link arbitration.

    Each wanted link keeps the lowest key among its requesters and
    counts them; both tables are reset where touched.  Returns ``(win,
    depth)``: which requesters won their link, and the deepest queue.
    """
    np.minimum.at(best, wanted, lkey)
    win = best[wanted] == lkey
    best[wanted] = _NO_KEY
    np.add.at(queue, wanted, 1)
    depth = int(queue[wanted].max())
    queue[wanted] = 0
    return win, depth


def _free_window(flat, cursor, rem, cap: int, n_links: int) -> int:
    """Cycles, up to ``cap``, before two live messages want one link.

    While every requester wins, live message ``i`` asks for
    ``flat[cursor[i] + k]`` ``k`` cycles from now, for ``k`` below its
    remaining hops ``rem[i]``.  One key ``k * n_links + link`` per
    message and offset below ``cap``, sorted, puts equal keys side by
    side; the smallest repeated key holds the first contended offset.
    Returns that offset, or ``cap`` when no key repeats.
    """
    n = np.minimum(rem, cap)
    k = np.arange(int(n.sum()))
    k -= np.repeat(np.cumsum(n) - n, n)
    keys = flat[np.repeat(cursor, n) + k] + k * n_links
    keys.sort()
    repeated = keys[1:][keys[1:] == keys[:-1]]
    return int(repeated[0]) // n_links if len(repeated) else cap


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
    routes: tuple[np.ndarray, ...] | None = None,
) -> SimResult:
    """Vectorized twin of :func:`repro.sim.engine.simulate`.

    Same signature plus ``routes``, same semantics — routers, health
    predicates, QoS classes, credit flow control and Byzantine plans
    included — and an identical :class:`SimResult` field for field; only
    the wall clock differs.

    ``routes`` is ``(ids, offsets, lengths, routable)`` as
    :func:`build_routes_batch` returns it for ``traffic``, passed by a
    caller that already built them (to check them against live faults, or
    to sum their hops): the build is skipped, ``router``/``node_ok``/
    ``edge_ok`` are not consulted, and the result is the one the same
    build would give.
    """
    if routes is None:
        routes = build_routes_batch(
            shape, traffic, router=router, node_ok=node_ok, edge_ok=edge_ok
        )
    flat, offsets, lengths, routable = routes
    actions = np.zeros(len(lengths), dtype=np.int8)
    if byzantine is not None:
        flat, offsets, lengths, actions = _apply_byzantine_batch(
            byzantine, shape, flat, offsets, lengths, routable
        )
    m = len(lengths)
    cls, start = check_sim_inputs(m, inject=inject, classes=classes, credits=credits)
    num_classes = int(cls.max()) + 1 if m else 1
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
        cursor = offsets[ids]
        return cursor, cursor + lengths[ids], key[ids]

    cursor, end, lkey = entering(arrivals[:0])
    if credits:
        avail = np.full(num_classes, credits, dtype=np.int64)
        # Arrived messages waiting for a credit, one id-sorted pool per class.
        pools = [arrivals[:0]] * num_classes
    else:
        queued = entering(arrivals)
    n_links = math.prod(shape) * 2 * len(shape)
    best = np.full(n_links, _NO_KEY)
    queue = np.zeros(n_links, dtype=np.int64)
    admitted = waiting = 0
    cycles = 0
    max_queue = 0
    look = False
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
        if not len(lkey):
            look = False
            cycles += 1
            continue
        span = 0
        if look:
            # The last cycle had no contention: look for a window of
            # cycles in which every requester wins.  It also ends at the
            # next injection, at max_cycles, at the last delivery, and,
            # while arrivals wait for credits, at the first delivery (its
            # credit admits one the cycle after).
            span = max_cycles - cycles
            if admitted < len(due):
                span = min(span, int(due[admitted]) - cycles)
            if span > 1:
                rem = end - cursor
                span = min(span, int(rem.min() if waiting else rem.max()))
            span = _free_window(flat, cursor, rem, span, n_links) if span > 1 else 0
        if span:
            # Fast-forward: every live message takes ``span`` hops, or its
            # ``rem`` last ones, and the cycle after is ordinary.  No queue
            # holds two messages, and the cycle before already put
            # max_queue at 1.
            look = False
            fin = rem <= span
            arrived = cycles + rem[fin]
            cursor += span
        else:
            # intp link ids spare each table access below a conversion.
            win, depth = _arbitrate(best, queue, flat[cursor].astype(np.intp), lkey)
            max_queue = max(max_queue, depth)
            look = depth == 1
            cursor += win
            fin = cursor == end
            arrived = cycles + 1
            span = 1
        if fin.any():
            ids = lkey[fin] % m
            done[ids] = True
            latencies[ids] = arrived - start[ids]
            if credits:
                # Credits released by deliveries feed the next admission.
                avail += np.bincount(cls[ids], minlength=num_classes)
            keep = ~fin
            cursor, end, lkey = cursor[keep], end[keep], lkey[keep]
        cycles += span
    return sim_result(done, routable, latencies, actions, cycles, max_queue)


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
