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
  behaviour does not pollute steady-state numbers;
* a **saturation sweep**: run the same pattern at increasing rates and
  watch delivered throughput peel away from offered load — the saturation
  point of the (possibly recovered) torus.

Both engines understand the resulting ``(traffic, inject)`` pair: the
scalar reference (:func:`repro.sim.engine.simulate`) and the vectorized
kernel (:func:`repro.fastpath.traffic_batch.simulate_batch`) accept the
injection schedule via ``inject=`` and return identical results.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.sim.engine import (
    MSG_DELIVERED,
    MSG_DROPPED,
    MSG_TIMED_OUT,
    MSG_UNDELIVERABLE,
    SimResult,
    simulate,
)
from repro.sim.routing import BYZ_CORRUPT, BYZ_MISROUTE
from repro.sim.traffic import pattern_destinations
from repro.topology.coords import CoordCodec
from repro.util.rng import spawn_rng

__all__ = ["INJECTIONS", "make_open_loop", "open_loop_stats", "saturation_sweep"]

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
    saturation makes it interesting.  ``offered_rate`` is measured
    injections per window cycle; ``throughput`` counts deliveries whose
    completion cycle falls inside the window (deliveries during the
    post-horizon drain remain in ``delivered`` but are drain, not
    sustained service).  Latency statistics cover every measured delivery,
    drain included.  Lost messages are classified by
    ``result.message_status``, never by the ``-1`` latency sentinel, and
    counted over the same measured messages: ``undeliverable`` and
    ``dropped`` (fault models only) appear when nonzero, so
    ``offered == delivered + timed_out + undeliverable + dropped``.  The
    Byzantine integrity counts ``corrupted`` and ``misrouted`` (nonzero
    only under a plan) count measured deliveries by
    ``result.message_actions``, so both are at most ``delivered``.
    """
    inject = np.asarray(inject, dtype=np.int64)
    lat = result.message_latencies
    if lat.shape != inject.shape:
        raise ValueError(f"result carries {lat.shape} latencies, schedule {inject.shape}")
    if horizon is None:
        horizon = int(inject.max()) + 1 if len(inject) else 1
    window = max(int(horizon) - warmup, 1)
    measured = inject >= warmup
    delivered = measured & (lat >= 0)
    # ``inject + latency`` is the 1-based completion cycle: a message that
    # finished *during* cycle c has latency c + 1 - inject, so it counts as
    # a window delivery when c = inject + latency - 1 lies in
    # [warmup, warmup + window) — deliveries in the window's final cycle
    # included, post-horizon drain excluded.
    completion = inject[delivered] + lat[delivered] - 1
    in_window = int(((completion >= warmup) & (completion < warmup + window)).sum())
    mlat = lat[delivered]
    empty = len(mlat) == 0
    status = result.message_status
    stats = {
        "offered": int(measured.sum()),
        "delivered": int(delivered.sum()),
        "timed_out": int((measured & (status == MSG_TIMED_OUT)).sum()),
        "window": window,
        "offered_rate": float(measured.sum() / window),
        "throughput": float(in_window / window),
        "mean": float("nan") if empty else float(mlat.mean()),
        "p50": float("nan") if empty else float(np.percentile(mlat, 50)),
        "p99": float("nan") if empty else float(np.percentile(mlat, 99)),
        "max": float("nan") if empty else int(mlat.max()),
    }
    for key, code in (("undeliverable", MSG_UNDELIVERABLE), ("dropped", MSG_DROPPED)):
        if count := int((measured & (status == code)).sum()):
            stats[key] = count
    arrived = measured & (status == MSG_DELIVERED)
    for key, code in (("corrupted", BYZ_CORRUPT), ("misrouted", BYZ_MISROUTE)):
        if count := int((arrived & (result.message_actions == code)).sum()):
            stats[key] = count
    return stats


def saturation_sweep(
    shape: tuple[int, ...],
    pattern: str,
    rates: Sequence[float],
    *,
    cycles: int,
    warmup: int = 0,
    injection: str = "bernoulli",
    seed: int = 0,
    max_cycles: int = 10_000,
    engine: Callable[..., SimResult] = simulate,
) -> list[dict]:
    """Offered-load sweep: one open-loop run per rate, same seed discipline.

    Each rate draws a fresh generator keyed by ``(seed, pattern, injection,
    rate)``, so adding rates never perturbs existing points.  Pass
    ``engine=simulate_batch`` for the vectorized kernel (identical numbers).
    Returns one stats row per rate (:func:`open_loop_stats` plus the rate).
    """
    rows = []
    for rate in rates:
        rng = spawn_rng(seed, "workload", pattern, injection, f"{float(rate):g}")
        traffic, inject = make_open_loop(
            shape, pattern, float(rate), cycles, rng, injection=injection
        )
        result = engine(shape, traffic, inject=inject, max_cycles=max_cycles)
        rows.append(
            {
                "rate": float(rate),
                **open_loop_stats(result, inject, warmup=warmup, horizon=cycles),
            }
        )
    return rows
