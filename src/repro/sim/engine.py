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
keep a ``-1`` sentinel in ``message_latencies`` and the status
``MSG_UNDELIVERABLE`` — separate from ``MSG_TIMED_OUT``.

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

Results
-------
Both engines end in :func:`sim_result`, which gives every message one
of the four ``MSG_*`` fates.  :class:`SimResult` stores only the
per-message latency, status and Byzantine action arrays plus ``cycles``
and ``max_queue``; every count on it (``delivered``, ``timed_out``,
``undeliverable``, ``dropped``, ...) is derived from those arrays by
:func:`repro.sim.metrics.message_stats`, so the fates partition the
messages by construction.

This scalar engine is the reference semantics; the vectorized twin
(:func:`repro.fastpath.traffic_batch.simulate_batch`) reproduces its
:class:`SimResult` field-for-field (hypothesis-tested) at a large
wall-clock win — see docs/traffic.md.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.sim.routing import (
    BYZ_DROP,
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
    "check_sim_inputs",
    "sim_result",
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


def _derived(key: str, doc: str) -> property:
    """A read-only :class:`SimResult` summary: ``key`` of the run's
    :func:`~repro.sim.metrics.latency_stats`, 0 where it omits the key."""
    return property(lambda self: self._summary.get(key, 0), doc=doc)


@dataclass(frozen=True)
class SimResult:
    """One run's outcome, message by message.

    Only the per-message arrays (message-id order) and two run totals are
    stored; only :func:`sim_result` builds one, and nothing modifies it
    after.  Every count is derived from ``message_status``, so ``total ==
    delivered + timed_out + undeliverable + dropped`` holds by
    construction.
    """

    #: Latency of each message, ``-1`` for one that was not delivered.
    message_latencies: np.ndarray
    #: Fate of each message (``MSG_*``).  A negative latency can mean timed
    #: out, undeliverable *or* byzantine-dropped; only this array says which.
    message_status: np.ndarray
    #: Byzantine action of each message (``BYZ_*`` from
    #: :mod:`repro.sim.routing`), all ``BYZ_NONE`` without a plan; lets a
    #: measurement window count integrity over its own messages.
    message_actions: np.ndarray
    cycles: int
    max_queue: int

    @cached_property
    def _summary(self) -> dict:
        """The run's :func:`~repro.sim.metrics.latency_stats`, computed once
        for all the derived counts."""
        from repro.sim.metrics import latency_stats  # metrics imports this module

        return latency_stats(self)

    @property
    def total(self) -> int:
        """Messages offered."""
        return len(self.message_status)

    @property
    def latencies(self) -> np.ndarray:
        """Latencies of the delivered messages in message-id order — never
        a ``-1`` sentinel."""
        return self.message_latencies[self.message_status == MSG_DELIVERED]

    delivered = _derived(
        "delivered",
        "Messages delivered, corrupted and misrouted ones included: the "
        "network moved them; only their integrity is suspect.",
    )
    timed_out = _derived(
        "timed_out",
        "Routed messages still undelivered when ``max_cycles`` was hit "
        "(including ones whose injection time was never reached).  "
        "Self-addressed messages are always delivered, whatever the horizon.",
    )
    undeliverable = _derived(
        "undeliverable",
        "Messages the router refused at the door: static route broken under "
        '``router="dimension"``, endpoints disconnected under ``"adaptive"``.',
    )
    dropped = _derived(
        "dropped", "Messages a Byzantine traitor swallowed (latency ``-1``)."
    )
    corrupted = _derived(
        "corrupted", "Delivered messages whose payload a traitor damaged."
    )
    misrouted = _derived(
        "misrouted", "Delivered messages a traitor forwarded the wrong way (late)."
    )
    throughput = _derived(
        "throughput", "Messages delivered per cycle (see ``latency_stats``)."
    )


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


def sim_result(done, routable, latencies, actions, cycles, max_queue) -> SimResult:
    """The :class:`SimResult` of a finished run, shared by both engines so
    their accounting cannot drift.

    ``done`` marks messages that completed their route, ``routable`` those
    the router accepted, ``actions`` each message's Byzantine action, and
    ``latencies`` (updated in place) holds ``cycle + 1 - inject`` for done
    messages and ``-1`` for the rest.  The four ``MSG_*`` codes partition
    the messages: not routable is undeliverable; done is delivered, unless
    a traitor dropped it — such a message completed its truncated route
    (the engine "delivered" it to the traitor), so it is dropped and its
    latency reverts to ``-1``; the rest ran out of horizon (timed out).
    Corrupted and misrouted deliveries keep their latency.
    """
    done = np.asarray(done, dtype=bool)
    dropped = done & (np.asarray(actions) == BYZ_DROP)
    latencies[dropped] = -1
    status = np.full(len(done), MSG_TIMED_OUT, dtype=np.int8)
    status[~np.asarray(routable, dtype=bool)] = MSG_UNDELIVERABLE
    status[done] = MSG_DELIVERED
    status[dropped] = MSG_DROPPED
    return SimResult(
        message_latencies=latencies,
        message_status=status,
        message_actions=actions,
        cycles=cycles,
        max_queue=max_queue,
    )


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
    live: list[int] = []
    pending: list[int] = []
    routable = np.array([r is not None for r in routes], dtype=bool)
    for i, r in enumerate(routes):
        if r is None:
            continue
        if len(r) <= 1:
            # Self-addressed: delivered at injection, latency 0, no link use.
            done[i] = True
            latencies[i] = 0
        else:
            pending.append(i)
    # Messages not yet arrived, in injection order (a stable sort keeps id
    # order within a cycle) behind a pointer; arrived ones that wait for
    # a credit queue per class in id order.
    pending.sort(key=start.__getitem__)
    arrivals = 0
    waiting: list[list[int]] = [[] for _ in range(num_classes)]
    while (live or arrivals < len(pending) or any(waiting)) and cycles < max_cycles:
        # Admission: arrivals whose scheduled cycle has come, in id order;
        # with credit flow control each class admits only while its pool
        # has credits — the rest wait at the source.
        admitted = []
        while arrivals < len(pending) and start[pending[arrivals]] <= cycles:
            i = pending[arrivals]
            arrivals += 1
            if avail is None:
                admitted.append(i)
            else:
                heapq.heappush(waiting[cls[i]], i)
        if avail is not None:
            for c, queue in enumerate(waiting):
                while queue and avail[c] > 0:
                    avail[c] -= 1
                    admitted.append(heapq.heappop(queue))
        if admitted:
            live = sorted(live + admitted)
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
    return sim_result(done, routable, latencies, actions, cycles, max_queue)
