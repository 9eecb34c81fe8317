"""Latency / throughput summaries for simulator output.

Both summaries account for the full message population: a negative entry
in ``message_latencies`` is a shared sentinel for three distinct fates
(timed out, undeliverable, byzantine-dropped), disambiguated by
``SimResult.message_status``.  Fields that are zero for the historical
workloads (``undeliverable``, ``dropped``, ``corrupted``, ``misrouted``)
are serialised only when nonzero so pre-fault-model result JSON is
byte-identical.  Conservation holds per class and in aggregate::

    offered == delivered + timed_out + undeliverable + dropped
"""

from __future__ import annotations

import numpy as np

from repro.sim.engine import (
    MSG_DELIVERED,
    MSG_DROPPED,
    MSG_TIMED_OUT,
    MSG_UNDELIVERABLE,
    SimResult,
)

__all__ = ["latency_stats", "per_class_stats"]


def latency_stats(result: SimResult) -> dict:
    """Mean / p50 / p99 / max latency plus delivery + throughput numbers.

    ``max`` is always a float (it is NaN when nothing was delivered, and a
    type that flips with emptiness breaks strict differential comparison);
    ``undeliverable`` and the byzantine integrity counters appear only
    when nonzero, so ``delivered + timed_out + undeliverable + dropped ==
    total`` can be checked from the dict alone under adaptive routing and
    byzantine models without changing historical JSON.
    """
    lat = result.latencies
    empty = len(lat) == 0
    stats = {
        "delivered": result.delivered,
        "total": result.total,
        "timed_out": result.timed_out,
        "mean": float("nan") if empty else float(lat.mean()),
        "p50": float("nan") if empty else float(np.percentile(lat, 50)),
        "p99": float("nan") if empty else float(np.percentile(lat, 99)),
        "max": float("nan") if empty else float(lat.max()),
        "throughput": result.throughput,
    }
    for key in ("undeliverable", "dropped", "corrupted", "misrouted"):
        value = getattr(result, key)
        if value:
            stats[key] = value
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
    silent omission.

    Each row's negative-latency messages are split by
    ``result.message_status`` into ``timed_out`` / ``undeliverable`` /
    ``dropped`` (the latter two serialised only when nonzero), so
    ``offered == delivered + timed_out + undeliverable + dropped`` holds
    per class.
    """
    classes = np.asarray(classes, dtype=np.int64)
    lat = result.message_latencies
    if classes.shape != lat.shape:
        raise ValueError(f"classes shape {classes.shape} != {lat.shape}")
    if measured is None:
        measured = np.ones(len(lat), dtype=bool)
    status = result.message_status
    rows = []
    for c in range(int(classes.max()) + 1 if len(classes) else 0):
        in_class = measured & (classes == c)
        got = lat[in_class & (status == MSG_DELIVERED)]
        empty = len(got) == 0
        row = {
            "qos_class": c,
            "offered": int(in_class.sum()),
            "delivered": int(len(got)),
            "timed_out": int((in_class & (status == MSG_TIMED_OUT)).sum()),
            "mean": float("nan") if empty else float(got.mean()),
            "p50": float("nan") if empty else float(np.percentile(got, 50)),
            "p99": float("nan") if empty else float(np.percentile(got, 99)),
            "max": float("nan") if empty else float(got.max()),
        }
        undeliverable = int((in_class & (status == MSG_UNDELIVERABLE)).sum())
        dropped = int((in_class & (status == MSG_DROPPED)).sum())
        if undeliverable:
            row["undeliverable"] = undeliverable
        if dropped:
            row["dropped"] = dropped
        rows.append(row)
    return rows
