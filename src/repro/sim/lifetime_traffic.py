"""Traffic snapshots on the evolving (online-repaired) network.

The lifetime subsystem answers "how many faults before recovery fails";
this module answers "is the machine still serving traffic at full
fidelity while the faults accumulate".  At chosen arrival-count
checkpoints of a fault timeline it **verifies the current embedding
end-to-end against the host graph and the live fault set** — every guest
node on a healthy host node, every guest link on a healthy host edge —
which is the claim that *can* fail if the incremental repair pipeline
ever produced a stale or fault-crossing embedding.

Traffic numbers come in two flavours:

* by default they are computed once on the pristine guest torus: the
  embedding has dilation 1, so a verified checkpoint serves the guest
  workload exactly like the pristine machine (hop-for-hop,
  cycle-for-cycle) and rerunning the deterministic guest-space simulation
  would reproduce the identical result;
* with ``live_traffic=True`` each checkpoint *measures* the aged
  machine: every message's e-cube route is mapped through the current
  embedding ``phi`` and each host node / host edge it would actually use
  is checked against the live fault set and host adjacency; messages
  whose mapped path crosses a broken element are ``undeliverable``, and
  the surviving traffic is re-simulated through the vectorized kernel
  (guest-space simulation is exact for routes whose mapped elements are
  healthy — dilation 1).  ``matches_pristine`` then requires zero
  undeliverable messages *and* measured-stats equality with the pristine
  run, so a stale or fault-crossing embedding shows up as degraded
  service, not as an assumed-good number.

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

__all__ = ["lifetime_traffic_snapshots", "route_health_mask", "serve_traffic"]


def route_health_mask(nodes, phi, fault_flat, is_adjacent) -> "np.ndarray":
    """Per-message deliverability on the aged machine.

    ``nodes`` are the messages' padded e-cube routes
    (:func:`repro.fastpath.traffic_batch.routes_batch`).  Each route is
    walked through the embedding ``phi`` (guest flat index -> host flat
    index) and each host node and host edge it would actually use is
    checked: ``mask[i]`` is True iff no element of message ``i``'s mapped
    path is faulty or non-adjacent.  This is the measurement behind
    :func:`serve_traffic` — a stale or fault-crossing embedding shows up
    here as undeliverable messages.
    """
    from repro.fastpath.traffic_batch import routes_health_mask

    return routes_health_mask(nodes, *embedded_predicates(phi, fault_flat, is_adjacent))


def serve_traffic(guest, traffic, machine=None, *, router: str = "dimension",
                  max_cycles: int = 10_000, classes=None, credits: int = 0):
    """Route ``traffic`` over the guest torus of a live machine and
    simulate it on the vectorized kernel.

    With ``machine`` None the pristine guest serves every message on its
    e-cube route.  Given a live ``bn`` machine (its maintained embedding
    ``recovery.phi``, fault set and host adjacency), e-cube routes are
    checked by :func:`route_health_mask` — broken ones are undeliverable,
    the rest simulated — or, with ``router="adaptive"``, broken routes are
    detoured around the live faults so only disconnected endpoints stay
    undeliverable.  Routes are built once and the simulation runs on
    them.  Returns ``(result, undeliverable, lengths, classes)``:
    ``lengths`` and ``classes`` are aligned with the simulated messages.
    """
    from repro.fastpath.traffic_batch import build_routes_batch, routes_batch, simulate_batch

    undeliverable = 0
    embedding = None if machine is None else (
        machine.recovery.phi, machine.faults.ravel(), machine.bt.bn.is_adjacent
    )
    if embedding is not None and router == "adaptive":
        g_ok, ge_ok = embedded_predicates(*embedding)
        nodes, lengths, routable = build_routes_batch(
            guest, traffic, router="adaptive", node_ok=g_ok, edge_ok=ge_ok
        )
        undeliverable = int((~routable).sum())
    else:
        nodes, lengths = routes_batch(guest, traffic)
        routable = np.ones(len(traffic), dtype=bool)
        if embedding is not None:
            deliverable = route_health_mask(nodes, *embedding)
            undeliverable = int((~deliverable).sum())
            traffic, nodes, lengths, routable = (
                traffic[deliverable], nodes[deliverable],
                lengths[deliverable], routable[deliverable],
            )
            if classes is not None:
                classes = classes[deliverable]
    result = simulate_batch(
        guest, traffic, max_cycles=max_cycles, classes=classes,
        credits=credits, routes=(nodes, lengths, routable),
    )
    return result, undeliverable, lengths, classes


def lifetime_traffic_snapshots(
    construction,
    spec: LifetimeSpec,
    seed: int,
    checkpoints: Sequence[int],
    *,
    pattern: str = "uniform",
    messages: int = 200,
    max_cycles: int = 10_000,
    live_traffic: bool = False,
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
    re-verified against the host adjacency and fault set; with
    ``live_traffic`` the workload is served on the aged machine by
    :func:`serve_traffic` (undeliverable messages counted, the rest
    re-simulated) and ``matches_pristine`` requires zero undeliverable
    plus measured-stats equality with the pristine run.
    ``router="adaptive"`` (live snapshots only) detours each broken
    e-cube route around the live fault set instead of refusing the
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
        if live_traffic:
            # Measure, don't assume: serve the workload on the aged
            # machine (guest-space simulation is exact for healthy mapped
            # routes — dilation 1).
            result, undeliverable, _, _ = serve_traffic(
                guest_shape, traffic, machine, router=router, max_cycles=max_cycles
            )
            stats = latency_stats(result)
            stats["undeliverable"] = undeliverable
            # json round makes NaN == NaN (both sides computed identically).
            matches = (
                verified
                and stats["undeliverable"] == 0
                and json.dumps(
                    {k: s for k, s in stats.items() if k != "undeliverable"},
                    sort_keys=True,
                )
                == json.dumps(pristine, sort_keys=True)
            )
        else:
            # Dilation 1: a verified embedding serves the workload exactly
            # like the pristine torus, so the shared stats are exact.
            stats = pristine
            matches = verified
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
