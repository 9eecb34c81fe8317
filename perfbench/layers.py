"""Per-layer metrics of the traced run: which functions are wrapped, and
how their spans and the workloads' counts become the reported metrics.

Every metric is computed on every workload, so a layer a workload never
calls reads 0 there (the bypass check).  A metric whose target no longer
exists reads :data:`ABSENT` and is listed as absent.

``share`` metrics are self time divided by the traced wall; ``count``
and ``ratio`` metrics are exact counts from spans or program outputs.
"""

from __future__ import annotations

from perfbench.spans import Target

__all__ = ["ABSENT", "METRICS", "TARGETS", "compute"]

#: Value reported for a metric whose traced target is gone.
ABSENT = -1.0


def _frame_op(args, kwargs, result) -> str:
    """Which request a framing call belongs to: ``event``, ``traffic`` or
    ``other`` (read from the request op or the response's shape)."""
    frame = result if isinstance(result, dict) else (args[0] if args else None)
    if not isinstance(frame, dict):
        return "other"
    op = frame.get("op")
    if op is None:
        res = frame.get("result")
        if isinstance(res, dict):
            op = "event" if "action" in res else "traffic" if "cycles" in res else "other"
    return op if op in ("event", "traffic") else "other"


TARGETS = (
    Target("util.rng.spawn_rng", "repro.util.rng", "spawn_rng"),
    Target("fastpath.bn_batch.run_bn_batch", "repro.fastpath.bn_batch", "run_bn_batch"),
    Target("fastpath.bn_batch.sample_bn_faults_batch", "repro.fastpath.bn_batch",
           "sample_bn_faults_batch"),
    Target("fastpath.bn_batch.straight_survival_batch", "repro.fastpath.bn_batch",
           "straight_survival_batch"),
    Target("api.adapters.BnConstruction.trial", "repro.api.adapters",
           "BnConstruction.trial"),
    Target("api.adapters.BnConstruction.lifetime_trial", "repro.api.adapters",
           "BnConstruction.lifetime_trial"),
    Target("core.bn.BTorus.recover", "repro.core.bn", "BTorus.recover"),
    Target("core.painting.paint_tiles", "repro.core.painting", "paint_tiles"),
    Target("api.experiment.ExperimentRunner.run", "repro.api.experiment",
           "ExperimentRunner.run"),
    Target("api.experiment.ExperimentResult.save", "repro.api.experiment",
           "ExperimentResult.save"),
    Target("fastpath.lifetime_batch.run_bn_lifetime_batch", "repro.fastpath.lifetime_batch",
           "run_bn_lifetime_batch"),
    Target("sim.workload.make_open_loop", "repro.sim.workload", "make_open_loop"),
    Target("sim.workload.open_loop_stats", "repro.sim.workload", "open_loop_stats"),
    Target("api.traffic.run_traffic_trial", "repro.api.traffic", "run_traffic_trial"),
    Target("fastpath.traffic_batch.build_routes_batch", "repro.fastpath.traffic_batch",
           "build_routes_batch"),
    Target("fastpath.traffic_batch.routes_batch", "repro.fastpath.traffic_batch",
           "routes_batch"),
    Target("fastpath.traffic_batch.simulate_batch", "repro.fastpath.traffic_batch",
           "simulate_batch"),
    Target("serve.protocol.encode_frame", "repro.serve.protocol", "encode_frame",
           tag=_frame_op),
    Target("serve.protocol.decode_frame", "repro.serve.protocol", "decode_frame",
           tag=_frame_op),
    Target("serve.state.MachineState.apply_event", "repro.serve.state",
           "MachineState.apply_event"),
    Target("serve.state.MachineState.traffic_query", "repro.serve.state",
           "MachineState.traffic_query"),
    Target("core.online.OnlineRecovery.add_fault", "repro.core.online",
           "OnlineRecovery.add_fault"),
    Target("sim.lifetime_traffic.route_health_mask", "repro.sim.lifetime_traffic",
           "route_health_mask"),
)

_RNG = "util.rng.spawn_rng"
_SIM = "fastpath.traffic_batch.simulate_batch"
_ROUTES = "fastpath.traffic_batch.routes_batch"
_BUILD = "fastpath.traffic_batch.build_routes_batch"
_ENC = "serve.protocol.encode_frame"
_DEC = "serve.protocol.decode_frame"
_EVENT = "serve.state.MachineState.apply_event"


def _self(*names):
    return ("self", names)


def _total(*names):
    return ("total", names)


def _calls(per, *names):
    return ("calls", names, per)


#: (metric name, unit, formula).  Formulas: ``("self", names)`` sums self
#: time over ``names`` / traced wall; ``("total", names)`` the same with
#: inclusive time; ``("calls", names, count)`` calls per unit of the named
#: workload count; ``("counts", count, per)`` divides two workload counts;
#: ``("event_wait",)`` is computed in :func:`compute`.
METRICS = (
    # survival: Theorem-2 Monte-Carlo through the batched bn kernel
    ("util.rng.calls_per_trial", "count", _calls("trials", _RNG)),
    ("util.rng.share", "share", _self(_RNG)),
    ("fastpath.bn_batch.sample_share", "share",
     _self("fastpath.bn_batch.sample_bn_faults_batch")),
    ("fastpath.bn_batch.classify_share", "share",
     _self("fastpath.bn_batch.straight_survival_batch")),
    ("fastpath.bn_batch.self_share", "share", _self("fastpath.bn_batch.run_bn_batch")),
    ("fastpath.bn_batch.fallback_frac", "ratio",
     _calls("trials", "api.adapters.BnConstruction.trial")),
    ("core.bn.recover_share", "share", _self("core.bn.BTorus.recover")),
    ("api.experiment.self_share", "share",
     _self("api.experiment.ExperimentRunner.run")),
    ("util.serialization.share", "share", _self("api.experiment.ExperimentResult.save")),
    ("cli.self_share", "share", _self("cli.main")),
    # lifetime: the lockstep lifetime kernel and its paper-strategy recoveries
    ("fastpath.lifetime_batch.self_share", "share",
     _self("fastpath.lifetime_batch.run_bn_lifetime_batch")),
    ("fastpath.lifetime_batch.delegated_frac", "ratio",
     _calls("trials", "api.adapters.BnConstruction.lifetime_trial")),
    ("core.bn.recover_calls_per_trial", "count",
     _calls("trials", "core.bn.BTorus.recover")),
    ("core.painting.share", "share", _self("core.painting.paint_tiles")),
    ("api.lifetime.arrivals_per_trial", "count", ("counts", "arrivals", "trials")),
    # traffic: open-loop simulations on the vectorized engine
    ("sim.workload.share", "share", _self("sim.workload.make_open_loop")),
    ("fastpath.traffic_batch.routes_share", "share", _self(_BUILD, _ROUTES)),
    ("fastpath.traffic_batch.arbitrate_share", "share", _self(_SIM)),
    ("fastpath.traffic_batch.cycles_per_trial", "count",
     ("counts", "cycles", "simulations")),
    ("sim.metrics.share", "share", _self("sim.workload.open_loop_stats")),
    ("api.traffic.self_share", "share", _self("api.traffic.run_traffic_trial")),
    # serve: framing, ingest handlers, live traffic queries, event loop
    ("serve.protocol.share", "share", _self(_ENC, _DEC)),
    ("serve.protocol.calls_per_req", "count", _calls("requests", _ENC, _DEC)),
    ("serve.state.event_share", "share", _self(_EVENT)),
    ("core.online.add_fault_share", "share", _self("core.online.OnlineRecovery.add_fault")),
    ("core.online.replaced_frac", "ratio", ("counts", "replaced", "fault_events")),
    ("serve.event.wait_frac", "ratio", ("event_wait",)),
    ("serve.state.query_share", "share", _self("serve.state.MachineState.traffic_query")),
    ("sim.lifetime_traffic.health_share", "share",
     _self("sim.lifetime_traffic.route_health_mask")),
    ("fastpath.traffic_batch.routes_calls_per_query", "count",
     _calls("queries", _ROUTES)),
    ("fastpath.traffic_batch.simulate_share", "share", _total(_SIM)),
    ("serve.server.self_share", "share", _self("serve.server")),
)

def _spans_of(formula) -> tuple:
    if formula[0] in ("self", "total", "calls"):
        return formula[1]
    if formula[0] == "event_wait":
        return (_EVENT, _ENC, _DEC)
    return ()


def _stat(stats: dict, name: str, attr: str):
    st = stats.get(name)
    return getattr(st, attr) if st is not None else 0


def compute(stats: dict, wall: float, counts: dict, absent) -> tuple[dict, list]:
    """Metric values from reduced spans, the traced wall and the traced
    slices' summed counts.  Returns ``(metrics, absent_metric_names)``."""
    out: dict = {}
    missing: list = []
    for name, unit, formula in METRICS:
        if any(n in absent for n in _spans_of(formula)):
            out[name] = {"value": ABSENT, "unit": unit}
            missing.append(name)
            continue
        kind = formula[0]
        if kind in ("self", "total"):
            attr = "self_s" if kind == "self" else "total_s"
            value = sum(_stat(stats, n, attr) for n in formula[1]) / wall if wall else 0.0
        elif kind == "calls":
            per = counts.get(formula[2], 0)
            value = sum(_stat(stats, n, "calls") for n in formula[1]) / per if per else 0.0
        elif kind == "counts":
            per = counts.get(formula[2], 0)
            value = counts.get(formula[1], 0) / per if per else 0.0
        else:  # event_wait
            latency_s = counts.get("event_ms_total", 0.0) / 1e3
            handled = _stat(stats, _EVENT, "total_s")
            for frame in (_ENC, _DEC):
                st = stats.get(frame)
                tag = st.tags.get("event") if st is not None else None
                handled += tag.total_s if tag is not None else 0.0
            value = 1.0 - handled / latency_s if latency_s else 0.0
        out[name] = {"value": value, "unit": unit}
    return out, missing
