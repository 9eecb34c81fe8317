"""A small synchronous network simulator for recovered tori.

The paper's motivation is a massively parallel machine whose surviving
network still *behaves like* the torus.  This package closes the loop: it
routes synthetic traffic over a recovered embedding and measures latency /
throughput, demonstrating that recovery preserves the torus's communication
properties exactly (dilation-1 embedding => identical hop counts).
"""

from repro.sim.routing import (
    ROUTERS,
    adaptive_route,
    dimension_ordered_route,
    embedded_predicates,
    fault_predicates,
    route_length,
)
from repro.sim.traffic import (
    TRAFFIC_PATTERNS,
    bitreverse_index,
    make_traffic,
    pattern_destinations,
    transpose_index,
)
from repro.sim.engine import SimResult, simulate
from repro.sim.metrics import latency_stats, message_stats, per_class_stats
from repro.sim.workload import INJECTIONS, make_open_loop, open_loop_stats

__all__ = [
    "ROUTERS",
    "adaptive_route",
    "dimension_ordered_route",
    "embedded_predicates",
    "fault_predicates",
    "per_class_stats",
    "route_length",
    "TRAFFIC_PATTERNS",
    "INJECTIONS",
    "bitreverse_index",
    "make_traffic",
    "make_open_loop",
    "open_loop_stats",
    "pattern_destinations",
    "transpose_index",
    "SimResult",
    "simulate",
    "latency_stats",
    "message_stats",
    "lifetime_traffic_snapshots",
]


def __getattr__(name: str):
    # Lazy: lifetime_traffic pulls in the lifetime API and the embedding
    # verifier, which plain simulator users (and the sim tests) never need.
    if name == "lifetime_traffic_snapshots":
        from repro.sim.lifetime_traffic import lifetime_traffic_snapshots

        return lifetime_traffic_snapshots
    raise AttributeError(f"module 'repro.sim' has no attribute {name!r}")
