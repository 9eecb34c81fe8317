"""Open-loop workload model: messages injected over time at a given rate.

The historical simulator model — every message injected at cycle 0 —
cannot express *sustained* load at all: it measures how fast one batch
drains, not whether the network keeps up with an arrival process.  This
module closes that gap with the standard open-loop methodology from the
interconnection-network literature:

* an **injection process** per node — ``bernoulli`` (each node flips an
  independent coin of probability ``rate`` every cycle) or ``periodic``
  (each node injects every ``round(1/rate)`` cycles, phase-staggered by
  node id so the load is smooth) — over a horizon of ``cycles`` cycles;
* a **traffic pattern** supplying destinations for the injected sources
  (:func:`repro.sim.traffic.pattern_destinations`); deterministic
  patterns drop their fixed points (a transpose-diagonal node has no one
  to talk to), random patterns resample ``dst == src``;
* a **warmup + steady-state measurement window**: statistics are taken
  over messages injected at or after ``warmup``, so transient start-up
  behaviour does not pollute steady-state numbers.

A saturation sweep is a ladder of ``TrafficSpec`` rates run through
:func:`repro.api.traffic.run_traffic_trial` (``repro-ft traffic --rate
a,b,c``): delivered throughput peels away from offered load at the
saturation point of the (possibly recovered) torus.

Both engines understand the resulting ``(traffic, inject)`` pair: the
scalar reference (:func:`repro.sim.engine.simulate`) and the vectorized
kernel (:func:`repro.fastpath.traffic_batch.simulate_batch`) accept the
injection schedule via ``inject=`` and return identical results.
"""

from __future__ import annotations

import numpy as np

from repro.sim.engine import SimResult
from repro.sim.metrics import message_stats
from repro.sim.traffic import pattern_destinations
from repro.topology.coords import CoordCodec

__all__ = ["INJECTIONS", "make_open_loop", "open_loop_stats"]

#: Injection processes understood by :func:`make_open_loop`.
INJECTIONS = ("bernoulli", "periodic")


def make_open_loop(
    shape: tuple[int, ...],
    pattern: str,
    rate: float,
    cycles: int,
    rng: np.random.Generator,
    *,
    injection: str = "bernoulli",
) -> tuple[np.ndarray, np.ndarray]:
    """Generate an open-loop workload: ``(traffic, inject)`` arrays.

    ``traffic`` is the usual ``(M, 2)`` array of (src, dst) pairs and
    ``inject[i]`` the cycle message ``i`` enters the network.  Messages
    are ordered injection-cycle-major, then source-node-ascending — a
    deterministic order, so message ids (and with them the engine's
    arbitration) are a pure function of ``(shape, pattern, rate, cycles,
    rng state, injection)``.
    """
    if not (0.0 < rate <= 1.0):
        raise ValueError(f"rate={rate} out of (0, 1]")
    if cycles < 1:
        raise ValueError(f"cycles={cycles} must be >= 1")
    if injection not in INJECTIONS:
        raise ValueError(f"unknown injection {injection!r}; options {INJECTIONS}")
    codec = CoordCodec(shape)
    if injection == "bernoulli":
        # One coin per (cycle, node); nonzero of the matrix is row-major =
        # cycle-major then node-ascending, exactly the documented order.
        coins = rng.random((cycles, codec.size)) < rate
        when, src = np.nonzero(coins)
    else:  # periodic
        period = max(1, int(round(1.0 / rate)))
        node = codec.all_indices()
        phase = node % period  # stagger so the load is smooth, not bursty
        kmax = -(-cycles // period)  # repeats covering the horizon
        t = phase[:, None] + np.arange(kmax, dtype=np.int64)[None, :] * period
        mask = t < cycles
        src = np.broadcast_to(node[:, None], t.shape)[mask]
        when = t[mask]
        order = np.lexsort((src, when))
        src, when = src[order], when[order]
    dst = pattern_destinations(shape, src, pattern, rng)
    keep = dst != src  # deterministic patterns: fixed points have no message
    return (
        np.stack([src[keep], dst[keep]], axis=1),
        when[keep].astype(np.int64),
    )


def open_loop_stats(
    result: SimResult,
    inject: np.ndarray,
    *,
    warmup: int = 0,
    horizon: int | None = None,
) -> dict:
    """Steady-state summary over messages injected at or after ``warmup``.

    ``horizon`` is the injection span in cycles (the workload's ``cycles``
    argument; defaults to one past the last injection).  The measurement
    window is ``[warmup, horizon)`` — **not** the full run: a congested run
    keeps draining long after injection stops, and normalising by that
    drain-inclusive length would understate offered load exactly where
    saturation makes it interesting.  The counts and latency statistics
    are :func:`~repro.sim.metrics.message_stats` of the measured messages,
    drain included, so ``offered == delivered + timed_out + undeliverable
    + dropped`` and ``corrupted``/``misrouted`` are at most ``delivered``.
    ``offered_rate`` is measured injections per window cycle;
    ``throughput`` counts deliveries whose completion cycle falls inside
    the window (deliveries during the post-horizon drain remain in
    ``delivered`` but are drain, not sustained service).
    """
    inject = np.asarray(inject, dtype=np.int64)
    lat = result.message_latencies
    if lat.shape != inject.shape:
        raise ValueError(f"result carries {lat.shape} latencies, schedule {inject.shape}")
    if horizon is None:
        horizon = int(inject.max()) + 1 if len(inject) else 1
    window = max(int(horizon) - warmup, 1)
    measured = inject >= warmup
    stats = message_stats(result, measured)
    delivered = measured & (lat >= 0)
    # ``inject + latency`` is the 1-based completion cycle: a message that
    # finished *during* cycle c has latency c + 1 - inject, so it counts as
    # a window delivery when c = inject + latency - 1 lies in
    # [warmup, warmup + window) — deliveries in the window's final cycle
    # included, post-horizon drain excluded.
    completion = inject[delivered] + lat[delivered] - 1
    in_window = int(((completion >= warmup) & (completion < warmup + window)).sum())
    stats["window"] = window
    stats["offered_rate"] = stats["offered"] / window
    stats["throughput"] = in_window / window
    return stats
