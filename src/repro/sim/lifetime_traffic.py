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

from repro.api.protocol import LifetimeSpec
from repro.core.bn import BTorus
from repro.core.online import OnlineRecovery, run_online_timeline
from repro.errors import EmbeddingError
from repro.sim.engine import simulate
from repro.sim.metrics import latency_stats
from repro.sim.traffic import make_traffic
from repro.topology.embeddings import verify_torus_embedding
from repro.util.rng import spawn_rng

__all__ = ["lifetime_traffic_snapshots", "route_health_mask"]


def route_health_mask(nodes, phi, fault_flat, is_adjacent) -> "np.ndarray":
    """Per-message deliverability on the aged machine.

    ``nodes`` are the messages' padded e-cube routes
    (:func:`repro.fastpath.traffic_batch.routes_batch`).  Each route is
    walked through the embedding ``phi`` (guest flat index -> host flat
    index) and each host node and host edge it would actually use is
    checked: ``mask[i]`` is True iff no element of message ``i``'s mapped
    path is faulty or non-adjacent.  This is the measurement behind
    ``live_traffic`` snapshots and the daemon's live queries — a stale or
    fault-crossing embedding shows up here as undeliverable messages.
    """
    from repro.fastpath.traffic_batch import routes_health_mask
    from repro.sim.routing import embedded_predicates

    return routes_health_mask(nodes, *embedded_predicates(phi, fault_flat, is_adjacent))


def lifetime_traffic_snapshots(
    bt: BTorus,
    spec: LifetimeSpec,
    seed: int,
    checkpoints: Sequence[int],
    *,
    pattern: str = "uniform",
    messages: int = 200,
    max_cycles: int = 10_000,
    strategy: str = "auto",
    live_traffic: bool = False,
    router: str = "dimension",
) -> dict:
    """Run one lifetime trial, verifying service at each checkpoint.

    ``checkpoints`` are arrival counts (snapshots fire when the trial has
    survived exactly that many arrivals).  Per reached checkpoint the
    current embedding is re-verified against the host adjacency and fault
    set; with ``live_traffic`` each message's route is additionally walked
    through the embedding against the live fault set (undeliverable
    messages counted, the rest re-simulated) and ``matches_pristine``
    requires zero undeliverable plus measured-stats equality with the
    pristine run.  ``router="adaptive"`` (live snapshots only) lets the
    simulator detour each broken e-cube route around the live fault set
    instead of refusing the message — ``undeliverable`` then counts only
    messages whose endpoints are disconnected on the aged machine.
    Checkpoints beyond the trial's lifetime are reported as
    ``"reached": False`` entries.  Returns ``{"lifetime", "pristine",
    "snapshots"}``.
    """
    from repro.sim.routing import ROUTERS

    if router not in ROUTERS:
        raise ValueError(f"unknown router {router!r}; options: {ROUTERS}")
    n, d = bt.params.n, bt.params.d
    guest_shape = (n,) * d
    traffic = make_traffic(
        guest_shape, pattern, messages, spawn_rng(seed, "lifetime-traffic", pattern)
    )
    pristine = latency_stats(simulate(guest_shape, traffic, max_cycles=max_cycles))
    wanted = {int(c) for c in checkpoints}
    snapshots: list[dict] = []

    def observer(arrivals: int, online: OnlineRecovery) -> None:
        if arrivals not in wanted:
            return
        fault_flat = online.faults.ravel()

        def node_ok(ids):
            return ~fault_flat[ids]

        def edge_ok(us, vs):
            return bt.bn.is_adjacent(us, vs) & ~fault_flat[us] & ~fault_flat[vs]

        try:
            verify_torus_embedding(guest_shape, online.recovery.phi, node_ok, edge_ok)
            verified = True
        except EmbeddingError:
            verified = False
        if live_traffic:
            # Measure, don't assume: walk every message's route through the
            # *current* embedding and check each host node / host edge it
            # would use against the live fault set.  Messages whose mapped
            # path crosses a broken element are undeliverable on the aged
            # machine; the rest are re-simulated (guest-space simulation is
            # exact for healthy mapped routes — dilation 1).
            from repro.fastpath.traffic_batch import routes_batch, simulate_batch

            if router == "adaptive":
                # Route *around* the live fault set: each broken e-cube
                # route is replaced by a healthy detour through the same
                # embedding, so only disconnected endpoints stay refused.
                from repro.sim.routing import embedded_predicates

                g_ok, ge_ok = embedded_predicates(
                    online.recovery.phi, fault_flat, bt.bn.is_adjacent
                )
                result = simulate_batch(
                    guest_shape, traffic, max_cycles=max_cycles,
                    router="adaptive", node_ok=g_ok, edge_ok=ge_ok,
                )
                stats = latency_stats(result)
                stats["undeliverable"] = result.undeliverable
            else:
                # One route build serves the health check and the simulation.
                nodes, lengths = routes_batch(guest_shape, traffic)
                deliverable = route_health_mask(
                    nodes, online.recovery.phi, fault_flat, bt.bn.is_adjacent
                )
                routes = (
                    nodes[deliverable], lengths[deliverable],
                    np.ones(int(deliverable.sum()), dtype=bool),
                )
                stats = latency_stats(
                    simulate_batch(
                        guest_shape, traffic[deliverable], max_cycles=max_cycles,
                        routes=routes,
                    )
                )
                stats["undeliverable"] = int((~deliverable).sum())
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
                "num_faults": online.num_faults,
                "repair_fraction": online.repair_fraction(),
                "embedding_verified": verified,
                "stats": stats,
                "matches_pristine": matches,
            }
        )

    # Same pipeline configuration as BnConstruction.lifetime_trial, so a
    # snapshot trial agrees with the experiment's trial for the same seed.
    online = OnlineRecovery(bt, strategy=strategy)
    rng = spawn_rng(seed, "lifetime", n, d)
    outcome = run_online_timeline(online, spec, rng, observer=observer)
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
