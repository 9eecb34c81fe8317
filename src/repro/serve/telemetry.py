"""Rolling operator telemetry: counters and latency histograms.

Two aggregation scopes feed the daemon's telemetry frames:

* :class:`MachineTelemetry` — per simulated machine, folded from the
  events it rejects after death and the :class:`~repro.sim.engine.SimResult`
  of every traffic query it answers (applied events are the machine's
  own outcome tallies).  Deliberately wall-clock-free: a
  machine snapshot is a pure function of the ingested event/query
  sequence, which is what lets a scripted serve session be pinned as a
  golden artifact (tests/golden/serve-session.json).
* :class:`ServerTelemetry` — per daemon process: request/frame/byte
  counts per op, connection and subscriber gauges, dropped-snapshot
  counts from subscriber backpressure, and a service-time histogram.

:class:`LatencyHistogram` is the shared histogram: fixed geometric bucket
bounds, so percentiles come from bucket interpolation with bounded memory
no matter how many observations stream through (the property a long-lived
daemon needs — storing raw latencies would grow without bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["LatencyHistogram", "MachineTelemetry", "ServerTelemetry"]


def _geometric_bounds() -> tuple[float, ...]:
    """Bucket upper bounds in milliseconds: 1-2-5 decades, 10us to 100s."""
    bounds: list[float] = []
    for exp in range(-2, 6):
        for mant in (1.0, 2.0, 5.0):
            bounds.append(mant * 10.0**exp)
    return tuple(bounds)


@dataclass
class LatencyHistogram:
    """Bounded-memory latency histogram (milliseconds).

    ``record`` is O(#buckets); ``percentile`` interpolates inside the
    containing bucket, so p50/p99 are approximate to the bucket resolution
    (1-2-5 geometric — at most ~2.5x coarse, in practice well under the
    scheduler noise such latencies carry anyway).  Exact ``count`` /
    ``total_ms`` / ``min`` / ``max`` are tracked alongside.
    """

    bounds: tuple[float, ...] = field(default_factory=_geometric_bounds)
    counts: list[int] = field(init=False)
    count: int = field(init=False, default=0)
    total_ms: float = field(init=False, default=0.0)
    min_ms: float = field(init=False, default=float("inf"))
    max_ms: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)  # +1: overflow bucket

    def record(self, ms: float) -> None:
        self.count += 1
        self.total_ms += ms
        self.min_ms = min(self.min_ms, ms)
        self.max_ms = max(self.max_ms, ms)
        for i, bound in enumerate(self.bounds):
            if ms <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (``q`` in [0, 100])."""
        if self.count == 0:
            return float("nan")
        rank = q / 100.0 * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            lo = self.bounds[i - 1] if i > 0 else 0.0
            hi = self.bounds[i] if i < len(self.bounds) else self.max_ms
            if seen + c >= rank:
                frac = max(0.0, min(1.0, (rank - seen) / c))
                return min(lo + frac * (hi - lo), self.max_ms)
            seen += c
        return self.max_ms

    def to_dict(self) -> dict:
        """Summary stats plus the non-empty buckets (sparse encoding)."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean_ms": self.total_ms / self.count,
            "min_ms": self.min_ms,
            "max_ms": self.max_ms,
            "p50_ms": self.percentile(50),
            "p99_ms": self.percentile(99),
            "buckets": {
                (f"{self.bounds[i]:g}" if i < len(self.bounds) else "inf"): c
                for i, c in enumerate(self.counts)
                if c
            },
        }


@dataclass
class MachineTelemetry:
    """Rolling per-machine counters (wall-clock-free; see module doc)."""

    # -- lifetime event ingestion (the rest is the machine's outcome) --------
    #: Events received after the machine died (acknowledged, not applied).
    rejected_dead: int = 0

    # -- traffic queries -----------------------------------------------------
    traffic_queries: int = 0
    messages_offered: int = 0
    messages_delivered: int = 0
    messages_timed_out: int = 0
    #: Messages whose mapped route crossed a broken host element
    #: (live-embedding queries only).
    messages_undeliverable: int = 0
    #: Deepest per-link queue seen across all queries so far.
    peak_queue_depth: int = 0
    #: Most recent query's service picture, straight from its SimResult.
    last_query: dict = field(default_factory=dict)

    def record_traffic(self, stats: dict) -> None:
        """Fold one traffic query's stats dict (latency_stats + extras)."""
        self.traffic_queries += 1
        self.messages_offered += int(stats.get("offered", stats.get("total", 0)))
        self.messages_delivered += int(stats.get("delivered", 0))
        self.messages_timed_out += int(stats.get("timed_out", 0))
        self.messages_undeliverable += int(stats.get("undeliverable", 0))
        self.peak_queue_depth = max(self.peak_queue_depth, int(stats.get("max_queue", 0)))
        self.last_query = dict(stats)

    def snapshot(self, outcome, state: dict) -> dict:
        """One telemetry frame: these rolling counters merged with the
        machine's *live* state (fault count, repair backlog, survival and
        optional Lemma-4 health — supplied by the caller, who owns the
        state).  Event tallies come from the machine's
        :class:`~repro.api.lifetime.LifetimeOutcome`: every applied fault
        arrival was masked, replaced or the one that killed the machine."""
        return {
            "events": {
                "faults": outcome.masked + outcome.replaced + int(outcome.failed),
                "repairs": outcome.repaired,
                "masked": outcome.masked,
                "replaced": outcome.replaced,
                "rejected_dead": self.rejected_dead,
            },
            "traffic": {
                "queries": self.traffic_queries,
                "offered": self.messages_offered,
                "delivered": self.messages_delivered,
                "timed_out": self.messages_timed_out,
                "undeliverable": self.messages_undeliverable,
                "peak_queue_depth": self.peak_queue_depth,
                "last_query": self.last_query,
            },
            **state,
        }


@dataclass
class ServerTelemetry:
    """Per-process daemon counters behind the ``telemetry`` op."""

    requests: dict = field(default_factory=dict)  # op -> count
    errors: int = 0
    protocol_errors: int = 0
    frames_in: int = 0
    frames_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    connections_open: int = 0
    connections_total: int = 0
    subscribers: int = 0
    #: Telemetry snapshots dropped because a subscriber's queue was full
    #: (the backpressure policy: drop-and-count, never block the loop).
    snapshots_dropped: int = 0
    snapshots_sent: int = 0
    service_hist: LatencyHistogram = field(default_factory=LatencyHistogram)

    def record_request(self, op: str, service_ms: float) -> None:
        self.requests[op] = self.requests.get(op, 0) + 1
        self.service_hist.record(service_ms)

    def snapshot(self, uptime_s: float) -> dict:
        return {
            "uptime_s": uptime_s,
            "requests": dict(sorted(self.requests.items())),
            "errors": self.errors,
            "protocol_errors": self.protocol_errors,
            "frames": {"in": self.frames_in, "out": self.frames_out},
            "bytes": {"in": self.bytes_in, "out": self.bytes_out},
            "connections": {
                "open": self.connections_open,
                "total": self.connections_total,
            },
            "subscribers": self.subscribers,
            "snapshots": {
                "sent": self.snapshots_sent,
                "dropped": self.snapshots_dropped,
            },
            "service": self.service_hist.to_dict(),
        }
