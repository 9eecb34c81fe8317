"""Traffic snapshots on the evolving (online-repaired) network.

The lifetime subsystem answers "how many faults before recovery fails";
this module answers "is the machine still serving traffic at full
fidelity while the faults accumulate".  At chosen arrival-count
checkpoints of a fault timeline it **verifies the current embedding
end-to-end against the host graph and the live fault set** — every guest
node on a healthy host node, every guest link on a healthy host edge —
which is the claim that *can* fail if the incremental repair pipeline
ever produced a stale or fault-crossing embedding.

Each checkpoint then *measures* the aged machine with
:func:`serve_traffic`, the path the serve daemon's traffic queries take:
every message's route is mapped through the current embedding ``phi``
and each host node / host edge it would actually use is checked against
the live fault set and host adjacency.  Messages whose mapped route
crosses a broken element are refused (``undeliverable`` in the
:class:`~repro.sim.engine.SimResult`, or detoured under
``router="adaptive"``), and the workload is simulated on the vectorized
kernel (guest-space simulation is exact for routes whose mapped
elements are healthy — dilation 1).  ``matches_pristine`` requires the
measured stats to equal the pristine run's, so a stale or fault-crossing
embedding shows up as degraded service, not as an assumed-good number.

Every requested checkpoint appears in the report: checkpoints the trial
died before reaching are explicit ``{"arrivals": c, "reached": False}``
entries rather than silent omissions, so a consumer can distinguish "not
measured" from "forgot to measure".
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from repro.api.lifetime import LifetimeOutcome, drive_timeline
from repro.api.protocol import LifetimeSpec
from repro.errors import EmbeddingError
from repro.sim.engine import simulate
from repro.sim.metrics import latency_stats
from repro.sim.routing import embedded_predicates
from repro.sim.traffic import make_traffic
from repro.topology.embeddings import verify_torus_embedding
from repro.util.rng import spawn_rng

__all__ = ["lifetime_traffic_snapshots", "serve_traffic"]


def route_health_mask(nodes, phi, fault_flat, is_adjacent) -> np.ndarray:
    """Per-route health of padded guest routes ``nodes`` mapped through the
    embedding ``phi`` — :func:`repro.fastpath.traffic_batch.routes_health_mask`
    over :func:`~repro.sim.routing.embedded_predicates`.

    No traffic path calls it: :func:`serve_traffic` refuses messages
    inside :func:`~repro.fastpath.traffic_batch.build_routes_batch`.  It
    stays only while perfbench's ``sim.lifetime_traffic.health_share``
    metric traces it by name.
    """
    from repro.fastpath.traffic_batch import routes_health_mask

    return routes_health_mask(nodes, *embedded_predicates(phi, fault_flat, is_adjacent))


def serve_traffic(guest, traffic, machine=None, *, router: str = "dimension",
                  max_cycles: int = 10_000, classes=None, credits: int = 0):
    """Route ``traffic`` over the guest torus of a live machine and
    simulate it on the vectorized kernel.

    With ``machine`` None the pristine guest serves every message.  Given
    a live ``bn`` machine, routes are checked through its maintained
    embedding ``recovery.phi`` against its fault set and host adjacency
    (:func:`~repro.sim.routing.embedded_predicates`): a broken e-cube
    route is refused, or under ``router="adaptive"`` detoured around the
    live faults so only disconnected endpoints are refused.  The routes
    are built once, by :func:`~repro.fastpath.traffic_batch.build_routes_batch`,
    and the simulation runs on them, so refused messages are counted in
    the result's ``undeliverable`` and ``message_status``.  Returns
    ``(result, lengths)``, ``lengths`` being each message's route length
    (0 for refused ones).
    """
    from repro.fastpath.traffic_batch import build_routes_batch, simulate_batch

    node_ok = edge_ok = None
    if machine is not None:
        node_ok, edge_ok = embedded_predicates(
            machine.recovery.phi, machine.faults.ravel(), machine.bt.bn.is_adjacent
        )
    routes = build_routes_batch(
        guest, traffic, router=router, node_ok=node_ok, edge_ok=edge_ok
    )
    result = simulate_batch(
        guest, traffic, max_cycles=max_cycles, classes=classes,
        credits=credits, routes=routes,
    )
    return result, routes[1]


def lifetime_traffic_snapshots(
    construction,
    spec: LifetimeSpec,
    seed: int,
    checkpoints: Sequence[int],
    *,
    pattern: str = "uniform",
    messages: int = 200,
    max_cycles: int = 10_000,
    router: str = "dimension",
) -> dict:
    """Run one lifetime trial of ``construction`` (the registered ``bn``
    adapter), verifying service at each checkpoint.

    The trial is the construction's own: its ``live_machine()`` driven
    by :func:`~repro.api.lifetime.drive_timeline` on its
    ``lifetime_rng(seed)`` — so ``"lifetime"`` equals
    ``lifetime_trial(spec, seed).lifetime``.  ``checkpoints`` are arrival
    counts (snapshots fire when the trial has survived exactly that many
    arrivals).  Per reached checkpoint the current embedding is
    re-verified against the host adjacency and fault set, the workload is
    served on the aged machine by :func:`serve_traffic`, and
    ``matches_pristine`` requires a verified embedding and measured stats
    equal to the pristine run's (scalar engine, pristine torus), so a
    single refused message breaks it.  ``router="adaptive"`` detours each
    broken e-cube route around the live fault set instead of refusing the
    message — ``undeliverable`` then counts only messages whose endpoints
    are disconnected on the aged machine.  Checkpoints beyond the trial's
    lifetime are reported as ``"reached": False`` entries.  Returns
    ``{"lifetime", "pristine", "snapshots"}``.
    """
    from repro.sim.routing import ROUTERS

    if router not in ROUTERS:
        raise ValueError(f"unknown router {router!r}; options: {ROUTERS}")
    guest_shape = tuple(int(s) for s in construction.guest_shape())
    traffic = make_traffic(
        guest_shape, pattern, messages, spawn_rng(seed, "lifetime-traffic", pattern)
    )
    pristine = latency_stats(simulate(guest_shape, traffic, max_cycles=max_cycles))
    wanted = {int(c) for c in checkpoints}
    snapshots: list[dict] = []
    machine = construction.live_machine()
    is_adjacent = machine.bt.bn.is_adjacent

    def observer(out: LifetimeOutcome) -> None:
        arrivals = out.lifetime
        if arrivals not in wanted:
            return
        fault_flat = machine.faults.ravel()

        def node_ok(ids):
            return ~fault_flat[ids]

        def edge_ok(us, vs):
            return is_adjacent(us, vs) & ~fault_flat[us] & ~fault_flat[vs]

        try:
            verify_torus_embedding(guest_shape, machine.recovery.phi, node_ok, edge_ok)
            verified = True
        except EmbeddingError:
            verified = False
        result, _ = serve_traffic(
            guest_shape, traffic, machine, router=router, max_cycles=max_cycles
        )
        stats = latency_stats(result)
        # json round makes NaN == NaN (both sides computed identically).
        matches = verified and (
            json.dumps(stats, sort_keys=True) == json.dumps(pristine, sort_keys=True)
        )
        snapshots.append(
            {
                "arrivals": arrivals,
                "reached": True,
                "num_faults": machine.num_faults,
                "repair_fraction": out.repair_fraction(),
                "embedding_verified": verified,
                "stats": stats,
                "matches_pristine": matches,
            }
        )

    outcome = drive_timeline(spec, machine, construction.lifetime_rng(seed), observer=observer)
    reached = {s["arrivals"] for s in snapshots}
    for c in sorted(wanted - reached):
        # The trial died (or the timeline ran dry) before this checkpoint:
        # say so explicitly instead of omitting the entry.
        snapshots.append({"arrivals": c, "reached": False})
    snapshots.sort(key=lambda s: s["arrivals"])
    return {
        "lifetime": outcome.lifetime,
        "pristine": pristine,
        "snapshots": snapshots,
    }
