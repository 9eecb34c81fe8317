"""Latency / throughput summaries for simulator output.

Every summary is :func:`message_stats` over some of a run's messages:
the whole run (:func:`latency_stats`), one QoS class
(:func:`per_class_stats`) or an open-loop measurement window
(:func:`repro.sim.workload.open_loop_stats`).  Messages are counted by
``SimResult.message_status``, never by the ``-1`` latency sentinel that
three fates share (timed out, undeliverable, byzantine-dropped).  Counts
that are zero for the historical workloads (``undeliverable``,
``dropped``, ``corrupted``, ``misrouted``) are serialised only when
nonzero so pre-fault-model result JSON is byte-identical.  Conservation
holds per class and in aggregate::

    offered == delivered + timed_out + undeliverable + dropped

``p50``/``p99`` come from one sort of the delivered latencies
(:func:`_percentiles`), with the arithmetic of numpy's default
``linear`` method, so every float equals ``np.percentile``'s bit for bit
(property-tested in tests/test_sim.py); ``np.percentile`` took more
than ten times as long on a 32-message serve query's latencies.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sim.engine import (
    MSG_DELIVERED,
    MSG_DROPPED,
    MSG_TIMED_OUT,
    MSG_UNDELIVERABLE,
    SimResult,
)
from repro.sim.routing import BYZ_CORRUPT, BYZ_MISROUTE

__all__ = ["latency_stats", "message_stats", "per_class_stats"]


def _percentiles(ordered: np.ndarray, quantiles) -> list[float]:
    """``np.percentile(ordered, 100 * q)`` for each ``q``, from the sorted
    non-empty integer array ``ordered``.

    numpy's ``linear`` method: virtual index ``v = (n - 1) q``; past the
    last index the last value; else ``a, b`` at ``floor(v)`` and the next
    index, ``t = v - floor(v)``, and ``_lerp``: ``a + (b - a) t`` below
    ``t = 0.5``, ``b - (b - a)(1 - t)`` from it.  Python ints and floats
    round like numpy's int64 and float64 here, so the results are equal
    bit for bit.
    """
    last = len(ordered) - 1
    out = []
    for q in quantiles:
        v = last * q
        if v >= last:
            out.append(float(ordered[last]))
            continue
        i = math.floor(v)
        a, b, t = int(ordered[i]), int(ordered[i + 1]), v - i
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def message_stats(result: SimResult, measured: np.ndarray | None = None) -> dict:
    """Counts and latency summary of the messages ``measured`` selects.

    ``measured`` is a boolean mask over message ids (default: every
    message).  ``offered`` counts the selected messages, and the four
    ``MSG_*`` fates partition them: ``delivered`` and ``timed_out`` always
    appear, ``undeliverable`` and ``dropped`` only when nonzero.  So do the
    Byzantine integrity counts ``corrupted`` and ``misrouted``, which count
    delivered messages by ``result.message_actions`` and so are at most
    ``delivered``.  ``mean``/``p50``/``p99``/``max`` summarise the
    delivered latencies and are always floats: NaN when nothing was
    delivered, since a type that flips with emptiness breaks strict
    differential comparison.
    """
    status = result.message_status
    lat = result.message_latencies
    actions = result.message_actions
    if measured is not None:
        status, lat, actions = status[measured], lat[measured], actions[measured]
    fates = np.bincount(status, minlength=4)
    arrived = status == MSG_DELIVERED
    got = lat[arrived]
    empty = len(got) == 0
    p50, p99 = (np.nan, np.nan) if empty else _percentiles(np.sort(got), (0.5, 0.99))
    stats = {
        "offered": len(status),
        "delivered": int(fates[MSG_DELIVERED]),
        "timed_out": int(fates[MSG_TIMED_OUT]),
        "mean": float("nan") if empty else float(got.mean()),
        "p50": float(p50),
        "p99": float(p99),
        "max": float("nan") if empty else float(got.max()),
    }
    for key, count in (
        ("undeliverable", fates[MSG_UNDELIVERABLE]),
        ("dropped", fates[MSG_DROPPED]),
        ("corrupted", np.count_nonzero(actions[arrived] == BYZ_CORRUPT)),
        ("misrouted", np.count_nonzero(actions[arrived] == BYZ_MISROUTE)),
    ):
        if count:
            stats[key] = int(count)
    return stats


def latency_stats(result: SimResult) -> dict:
    """:func:`message_stats` of the whole run, with ``offered`` reported as
    ``total``, plus ``throughput``: messages delivered per cycle.

    A run can deliver messages in zero cycles — every message
    self-addressed, so the network was never entered.  Those deliveries
    complete within the injection cycle, so the zero-cycle case counts
    the run as one cycle instead of dividing by zero or reporting ``0.0``
    for work that *was* delivered.
    """
    stats = message_stats(result)
    stats["total"] = stats.pop("offered")
    stats["throughput"] = stats["delivered"] / max(result.cycles, 1)
    return stats


def per_class_stats(
    result: SimResult,
    classes: np.ndarray,
    *,
    measured: np.ndarray | None = None,
) -> list[dict]:
    """Per-QoS-class delivery and latency summary, one dict per class.

    ``classes`` is the per-message class array the engine ran with
    (aligned with ``result.message_latencies``); ``measured`` optionally
    restricts to the open-loop measurement window (messages injected at
    or after warmup).  Classes are reported ``0..max`` even when a class
    delivered nothing — the JSON row then carries NaN latencies, never a
    silent omission.  Each row is the class's :func:`message_stats`
    without the integrity counts, so ``offered == delivered + timed_out +
    undeliverable + dropped`` holds per class.
    """
    classes = np.asarray(classes, dtype=np.int64)
    lat = result.message_latencies
    if classes.shape != lat.shape:
        raise ValueError(f"classes shape {classes.shape} != {lat.shape}")
    if measured is None:
        measured = np.ones(len(lat), dtype=bool)
    rows = []
    for c in range(int(classes.max()) + 1 if len(classes) else 0):
        row = {"qos_class": c, **message_stats(result, measured & (classes == c))}
        row.pop("corrupted", None)
        row.pop("misrouted", None)
        rows.append(row)
    return rows
