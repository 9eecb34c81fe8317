"""Synchronous store-and-forward simulation on the (recovered) torus.

One message occupies one link per cycle; each directed link forwards one
message per cycle (deterministic highest-priority-then-lowest-id
arbitration).  Messages follow precomputed routes from a selectable
router.  This is deliberately simple — enough to show latency/throughput
*shape* and that recovered tori behave identically to pristine ones (the
embedding has dilation 1).

Routers
-------
``router="dimension"`` (default) is the static e-cube route; with health
predicates given, a message whose static route crosses a broken element
is counted ``undeliverable``.  ``router="adaptive"`` detours around the
live fault set (:func:`repro.sim.routing.adaptive_route`): only messages
whose endpoints are disconnected in the live fault graph stay
undeliverable.  Undeliverable messages never enter the network; they
keep a ``-1`` sentinel in ``message_latencies`` and are counted in
``SimResult.undeliverable`` — separately from ``timed_out``.

QoS classes and credit flow control
-----------------------------------
``classes`` assigns each message a priority class (0 = highest).  Link
arbitration grants each contended link to the live message with the
lowest ``(class, id)`` — with a single class this reduces to the
historical lowest-id rule, decision for decision.  ``credits > 0``
switches on credit-based flow control: each class owns a pool of
``credits`` network entries; a message consumes one credit when it
enters the network and releases it on delivery, and injection is
deferred (in id order per class) while the pool is empty.  Latency is
measured from the *scheduled* injection cycle, so source queueing under
backpressure is visible in the numbers.  See docs/routing.md.

Injection models
----------------
By default every message is injected at cycle 0 (the closed-loop batch the
benchmarks historically used).  ``simulate(..., inject=times)`` runs the
same engine open-loop: message ``i`` enters the network at cycle
``times[i]`` and its latency is measured from that cycle.  Self-addressed
messages (``src == dst``) never enter the network — they are delivered at
injection with latency 0 and consume no link bandwidth or credits.

This scalar engine is the reference semantics; the vectorized twin
(:func:`repro.fastpath.traffic_batch.simulate_batch`) reproduces its
:class:`SimResult` field-for-field (hypothesis-tested) at a large
wall-clock win — see docs/traffic.md.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.sim.routing import (
    BYZ_CORRUPT,
    BYZ_DROP,
    BYZ_MISROUTE,
    ROUTERS,
    adaptive_route,
    dimension_ordered_route,
    route_is_healthy,
)

__all__ = [
    "MSG_DELIVERED",
    "MSG_DROPPED",
    "MSG_TIMED_OUT",
    "MSG_UNDELIVERABLE",
    "SimResult",
    "byzantine_counts",
    "check_sim_inputs",
    "classify_messages",
    "simulate",
]

#: Per-message outcome codes carried by :attr:`SimResult.message_status`.
#: The ``-1`` sentinel in ``message_latencies`` is shared by three distinct
#: fates (timed out, undeliverable, byzantine-dropped); the status array is
#: the disambiguation downstream stats must use instead of the sentinel.
MSG_DELIVERED = 0
MSG_TIMED_OUT = 1
MSG_UNDELIVERABLE = 2
MSG_DROPPED = 3


@dataclass
class SimResult:
    delivered: int
    total: int
    latencies: np.ndarray  # per *delivered* message only — never -1 sentinels
    cycles: int
    max_queue: int
    #: *Routed* messages still undelivered when ``max_cycles`` was hit
    #: (including ones whose injection time was never reached).
    #: Self-addressed messages are always delivered — they complete at
    #: injection without entering the network, whatever the horizon.  Kept
    #: separate so lifetime traffic checkpoints can report undelivered
    #: traffic instead of silently averaging sentinel values into latency
    #: stats.
    timed_out: int = 0
    #: Per-message latency in message-id order, ``-1`` for undelivered
    #: messages.  ``latencies`` is the compressed (sentinel-free) view of
    #: this array; the open-loop measurement window
    #: (:func:`repro.sim.workload.open_loop_stats`) needs the alignment
    #: with the injection schedule that only the full array provides.
    message_latencies: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    #: Messages the router could not route at all on the live fault graph
    #: (static route broken under ``router="dimension"``, endpoints
    #: disconnected under ``"adaptive"``).  Never counted in
    #: ``timed_out`` — these were refused at the door, not stranded by
    #: the horizon.
    undeliverable: int = 0
    #: Delivery-integrity accounting under a Byzantine plan (all zero
    #: without one).  ``dropped`` — swallowed by a traitor (never
    #: delivered, latency ``-1``, not in ``delivered`` or ``timed_out``);
    #: ``corrupted`` — delivered on time with damaged payload;
    #: ``misrouted`` — delivered late via a traitor's wrong forward.
    #: Corrupted/misrouted messages *are* counted in ``delivered`` — the
    #: network moved them; only their integrity is suspect.
    dropped: int = 0
    corrupted: int = 0
    misrouted: int = 0
    #: Per-message outcome code (``MSG_*``) in message-id order, aligned
    #: with ``message_latencies``.  This is what disambiguates the shared
    #: ``-1`` latency sentinel: a negative latency can mean timed out,
    #: undeliverable *or* byzantine-dropped, and only this array says
    #: which.  Both engines fill it.
    message_status: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))
    #: Per-message Byzantine action (``BYZ_*`` from :mod:`repro.sim.routing`,
    #: all ``BYZ_NONE`` without a plan) in message-id order.  ``corrupted``
    #: and ``misrouted`` count the delivered messages with each action over
    #: the whole run; this array lets a measurement window count them over
    #: its own messages (:func:`repro.sim.workload.open_loop_stats`).
    message_actions: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))

    @property
    def throughput(self) -> float:
        """Messages delivered per cycle.

        A run can deliver messages in zero cycles — every message
        self-addressed, so the network was never entered.  Those deliveries
        complete within the injection cycle, so the zero-cycle case counts
        the run as one cycle (``delivered / 1``) instead of dividing by
        zero or reporting ``0.0`` for work that *was* delivered.
        """
        return self.delivered / self.cycles if self.cycles else float(self.delivered)


def _build_routes(shape, traffic, router, node_ok, edge_ok):
    """Per-message route list; ``None`` entries are undeliverable."""
    if router not in ROUTERS:
        raise ValueError(f"unknown router {router!r}; options: {ROUTERS}")
    routes: list = []
    for s, d in traffic:
        r = dimension_ordered_route(shape, int(s), int(d))
        if node_ok is None and edge_ok is None:
            routes.append(r)
        elif route_is_healthy(r, node_ok, edge_ok):
            routes.append(r)
        elif router == "adaptive":
            routes.append(
                adaptive_route(shape, int(s), int(d), node_ok=node_ok, edge_ok=edge_ok)
            )
        else:
            routes.append(None)
    return routes


def byzantine_counts(actions, done, latencies):
    """Fold a Byzantine plan's per-message actions into integrity counts.

    Shared by the scalar engine and the vectorized kernel so their
    accounting cannot drift: messages a traitor dropped *completed* their
    truncated route (the engine "delivered" them to the traitor), so here
    their latency reverts to the ``-1`` sentinel and they leave the
    delivered count; corrupt/misroute deliveries keep their latency and
    only tick the integrity counters.  Returns
    ``(dropped, corrupted, misrouted)`` for the messages flagged done.
    """
    actions = np.asarray(actions)
    done = np.asarray(done, dtype=bool)
    drop = (actions == BYZ_DROP) & done
    latencies[drop] = -1
    return (
        int(drop.sum()),
        int(((actions == BYZ_CORRUPT) & done).sum()),
        int(((actions == BYZ_MISROUTE) & done).sum()),
    )


def classify_messages(done, routable, latencies) -> np.ndarray:
    """Per-message ``MSG_*`` status from the engines' terminal state.

    Shared by the scalar engine and the vectorized kernel so the
    classification cannot drift.  The four codes partition the messages:
    ``done`` with a non-negative latency is delivered; ``done`` with the
    ``-1`` sentinel is a byzantine drop (the only way a completed message
    keeps the sentinel); not routable means the router refused it at the
    door; everything else ran out of horizon (timed out).
    """
    done = np.asarray(done, dtype=bool)
    routable = np.asarray(routable, dtype=bool)
    latencies = np.asarray(latencies)
    status = np.full(len(done), MSG_TIMED_OUT, dtype=np.int8)
    status[~routable] = MSG_UNDELIVERABLE
    status[done & (latencies >= 0)] = MSG_DELIVERED
    status[done & (latencies < 0)] = MSG_DROPPED
    return status


def check_sim_inputs(m, *, inject=None, classes=None, credits=0):
    """Validated ``(classes, inject)`` arrays for ``m`` messages.

    Shared by the scalar engine and the vectorized kernel so their
    argument errors cannot drift.  Classes default to all 0 and
    injection cycles to all 0 (the closed-loop batch).
    """
    if classes is None:
        cls = np.zeros(m, dtype=np.int64)
    else:
        cls = np.asarray(classes, dtype=np.int64)
        if cls.shape != (m,):
            raise ValueError(f"classes shape {cls.shape} != ({m},)")
        if m and cls.min() < 0:
            raise ValueError("classes must be >= 0")
    if credits < 0:
        raise ValueError("credits must be >= 0 (0 = unlimited)")
    if inject is None:
        start = np.zeros(m, dtype=np.int64)
    else:
        start = np.asarray(inject, dtype=np.int64)
        if start.shape != (m,):
            raise ValueError(f"inject shape {start.shape} != ({m},)")
        if m and start.min() < 0:
            raise ValueError("inject cycles must be >= 0")
    return cls, start


def simulate(
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
) -> SimResult:
    """Run all (src, dst) messages to completion (or ``max_cycles``).

    ``inject`` — optional per-message injection cycles (default: all 0,
    the closed-loop batch).  A message is eligible to cross its first link
    during cycle ``inject[i]`` and its latency counts from that cycle.
    ``router``/``node_ok``/``edge_ok`` select fault-aware routing,
    ``classes``/``credits`` QoS arbitration and credit flow control (see
    the module docstring).  ``byzantine`` — an optional
    :class:`~repro.sim.routing.ByzantinePlan`: traitor nodes stay up
    (health predicates never see them) but the plan perturbs routes
    before the clock starts and the integrity counters report what the
    traitors did (see docs/faults.md).
    """
    routes = _build_routes(shape, traffic, router, node_ok, edge_ok)
    actions = np.zeros(len(routes), dtype=np.int8)
    if byzantine is not None:
        routes, actions = byzantine.apply(shape, routes)
    cls, start = check_sim_inputs(
        len(routes), inject=inject, classes=classes, credits=credits
    )
    num_classes = int(cls.max()) + 1 if len(cls) else 1
    # message state: position index into its route
    pos = np.zeros(len(routes), dtype=np.int64)
    done = np.zeros(len(routes), dtype=bool)
    latencies = np.full(len(routes), -1, dtype=np.int64)
    avail = [credits] * num_classes if credits else None
    cycles = 0
    max_queue = 0
    undeliverable = 0
    live: list[int] = []
    pending: list[int] = []
    for i, r in enumerate(routes):
        if r is None:
            undeliverable += 1
        elif len(r) <= 1:
            # Self-addressed: delivered at injection, latency 0, no link use.
            done[i] = True
            latencies[i] = 0
        else:
            pending.append(i)
    while (live or pending) and cycles < max_cycles:
        if pending:
            # Admission: arrivals whose scheduled cycle has come, in id
            # order; with credit flow control each class admits only while
            # its pool has credits — the rest wait at the source.
            arrived = [i for i in pending if start[i] <= cycles]
            if arrived:
                if avail is None:
                    admitted = arrived
                else:
                    admitted = []
                    for i in arrived:
                        if avail[cls[i]] > 0:
                            avail[cls[i]] -= 1
                            admitted.append(i)
                if admitted:
                    taken = set(admitted)
                    pending = [i for i in pending if start[i] > cycles or i not in taken]
                    live = sorted(set(live) | taken)
        wants: dict[tuple[int, int], list] = defaultdict(list)
        for i in live:
            r = routes[i]
            link = (int(r[pos[i]]), int(r[pos[i] + 1]))
            wants[link].append(i)
        nxt_live = []
        for link, q in wants.items():
            # Arbitration invariant: the lowest (class, id) wins the link
            # this cycle — with a single class, exactly the historical
            # lowest-message-id rule.  ``live`` is kept sorted, so each
            # queue is built in ascending id order already; the explicit
            # sort normalises the invariant instead of leaning on the
            # iteration order of ``live``.
            q.sort(key=lambda i: (cls[i], i))
            max_queue = max(max_queue, len(q))
            winner = q[0]
            pos[winner] += 1
            if pos[winner] == len(routes[winner]) - 1:
                done[winner] = True
                latencies[winner] = cycles + 1 - start[winner]
                if avail is not None:
                    # Credit released by this delivery is available to the
                    # next cycle's admission pass.
                    avail[cls[winner]] += 1
            else:
                nxt_live.append(winner)
            nxt_live.extend(q[1:])  # losers retry next cycle
        live = sorted(set(nxt_live))
        cycles += 1
    dropped = corrupted = misrouted = 0
    if byzantine is not None:
        dropped, corrupted, misrouted = byzantine_counts(actions, done, latencies)
    # Undelivered messages keep their -1 sentinel in ``latencies``; filter
    # them out so downstream stats can never average a sentinel, and count
    # them explicitly.
    lat = latencies[done & (latencies >= 0)]
    routable = np.array([r is not None for r in routes], dtype=bool)
    return SimResult(
        delivered=int(done.sum()) - dropped,
        total=len(routes),
        latencies=np.asarray(lat),
        cycles=cycles,
        max_queue=max_queue,
        timed_out=int((~done).sum()) - undeliverable,
        message_latencies=latencies,
        undeliverable=undeliverable,
        dropped=dropped,
        corrupted=corrupted,
        misrouted=misrouted,
        message_status=classify_messages(done, routable, latencies),
        message_actions=actions,
    )
