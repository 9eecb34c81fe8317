"""E14 — end-to-end usability: serving traffic on a recovered torus.

The dilation-1 embedding means the surviving machine routes *identically*
to a pristine torus, so traffic is measured on the guest torus the
recovery hands back.  Since the traffic engine became the repo's fourth
pillar this bench runs through the :class:`ExperimentRunner` with
``TrafficSpec`` grid points: a per-pattern closed-loop table (message
counts are now **exact** — the generators resample until precisely the
requested count, where they previously returned a pattern- and
seed-dependent shortfall) and an open-loop saturation sweep the old
inject-everything-at-cycle-0 model could not express at all.

Also times the scalar engine against the vectorized lockstep kernel at
this size and records the headline (>= 10x, identical results) in
``BENCH_traffic.json`` at the repo root, beside ``stage_split``:
perfbench ``traffic``'s ``ops_per_s`` and the traced shares of the cycle
loop and of route building (benchmarks/stage_split.py), for this
checkout and, with ``--split-against CHECKOUT``, another one as
"before".

Runs two ways::

    pytest benchmarks/bench_e14_routing.py      # tables + the artifact
    python benchmarks/bench_e14_routing.py [--split-against CHECKOUT]
                                                # regenerate BENCH_traffic.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np
from conftest import run_once
from stage_split import stage_split_block

from repro.api import ExperimentRunner, ExperimentSpec, TrafficSpec
from repro.api.traffic import message_classes
from repro.core.bn import BTorus
from repro.core.params import BnParams
from repro.errors import ReconstructionError
from repro.fastpath.traffic_batch import sim_results_identical, simulate_batch
from repro.sim import make_open_loop, make_traffic, simulate
from repro.sim.metrics import latency_stats, per_class_stats
from repro.sim.routing import fault_predicates
from repro.topology.coords import CoordCodec
from repro.util.rng import spawn_rng
from repro.util.tables import Table

ROOT = Path(__file__).resolve().parent.parent
TRAFFIC_JSON = ROOT / "BENCH_traffic.json"

#: Per-layer metrics of perfbench's traced ``traffic`` workload (defined
#: in perfbench/README.md): the cycle loop's own time, route building's,
#: and the cycles one simulation runs.
STAGE_METRICS = (
    "fastpath.traffic_batch.arbitrate_share",
    "fastpath.traffic_batch.routes_share",
    "fastpath.traffic_batch.cycles_per_trial",
)

#: Acceptance floor of the scalar-vs-batch speedup at the e14 size.
SPEEDUP_FLOOR = 10.0

PARAMS = BnParams(d=2, b=3, s=1, t=2)
PATTERNS = ("uniform", "transpose", "neighbor", "hotspot")
MESSAGES = 250
#: Per-node per-cycle injection rates; uniform e-cube on this torus has its
#: capacity knee near 4 links / ~18 mean hops ~ 0.22, so the top rates are
#: past saturation.
SATURATION_RATES = (0.01, 0.05, 0.1, 0.2, 0.3)


def _recovered_shape():
    bt = BTorus(PARAMS)
    for seed in range(25):
        faults = bt.sample_faults(
            PARAMS.paper_fault_probability, spawn_rng(seed, "e14")
        )
        try:
            rec = bt.recover(faults)
            return rec.guest_shape(), int(faults.sum())
        except ReconstructionError:
            continue
    raise RuntimeError("no recoverable draw")


def test_e14_recovered_equals_pristine(benchmark, report):
    """Closed-loop per-pattern table, through the runner on the bn guest."""

    def compute():
        shape, nfaults = _recovered_shape()
        # The recovered torus *is* the guest torus the runner's traffic
        # trials measure — the dilation-1 identity this bench exists for.
        assert shape == (PARAMS.n,) * PARAMS.d
        spec = ExperimentSpec.from_grid(
            "bn", {"d": PARAMS.d, "b": PARAMS.b, "s": PARAMS.s, "t": PARAMS.t},
            traffic=[TrafficSpec(pattern=p, messages=MESSAGES) for p in PATTERNS],
            trials=3, seed0=3, name="e14-patterns",
        )
        result = ExperimentRunner(backend="batch").run(spec)
        rows = []
        for pt in result.points:
            r = pt.result
            o = r.outcomes[0]
            rows.append(
                [pt.fault_spec.pattern, o.offered, f"{r.mean_latency:.2f}",
                 f"{r.worst_p99:.0f}", f"{r.mean_throughput:.2f}"]
            )
        return nfaults, rows

    nfaults, rows = run_once(benchmark, compute)
    table = Table(
        ["pattern", "messages (exact)", "mean latency", "p99", "throughput"],
        title=f"E14: traffic on a torus recovered from {nfaults} faults "
        "(identical to pristine by dilation-1; message counts are exact — "
        "generators resample to the requested count)",
    )
    for r in rows:
        table.add_row(r)
    report("e14_routing", table)

    # Shape claims: neighbour traffic is near-1-cycle; transpose/hotspot pay
    # more than uniform (classic ordering).
    stats = {r[0]: float(r[2]) for r in rows}
    assert stats["neighbor"] < stats["uniform"]
    assert stats["hotspot"] >= stats["uniform"] * 0.9
    # Exactness: every pattern presented exactly the requested batch.
    assert all(r[1] == MESSAGES for r in rows)


def test_e14_saturation_sweep(benchmark, report):
    """Open-loop saturation: offered rate vs delivered throughput."""

    def compute():
        spec = ExperimentSpec.from_grid(
            "bn", {"d": PARAMS.d, "b": PARAMS.b, "s": PARAMS.s, "t": PARAMS.t},
            traffic=[
                TrafficSpec(pattern="uniform", injection="bernoulli", rate=r,
                            cycles=300, warmup=60, max_cycles=4000)
                for r in SATURATION_RATES
            ],
            trials=2, name="e14-saturation",
        )
        result = ExperimentRunner(backend="batch").run(spec)
        rows = []
        for rate, pt in zip(SATURATION_RATES, result.points):
            o = pt.result.outcomes[0]  # trial 0 shown; trials agree in shape
            # Same window convention as open_loop_stats: the injection span
            # from the spec, never the drain-inclusive run length.
            window = max(pt.fault_spec.cycles - pt.fault_spec.warmup, 1)
            rows.append(
                [f"{rate:g}", f"{o.offered / window:.2f}", f"{o.throughput:.2f}",
                 f"{o.mean_latency:.1f}", f"{o.p99:.0f}", o.timed_out]
            )
        return rows

    rows = run_once(benchmark, compute)
    table = Table(
        ["inject rate", "offered/cyc", "delivered/cyc", "mean lat", "p99", "timed out"],
        title="E14: open-loop saturation sweep on the bn guest torus "
        "(bernoulli injection, 300-cycle horizon, 60-cycle warmup)",
    )
    for r in rows:
        table.add_row(r)
    report("e14_saturation", table)

    # Below saturation the network keeps up (delivered ~ offered); past it
    # latency blows up and delivered throughput peels away from offered.
    low, high = rows[0], rows[-1]
    assert float(low[2]) >= 0.8 * float(low[1])
    assert float(high[3]) > float(low[3])
    assert float(high[2]) < 0.8 * float(high[1])


def _healthy_connected(shape, fault_flat) -> bool:
    """Is the healthy subgraph of the ``shape`` torus one component?"""
    codec = CoordCodec(shape)
    healthy = np.flatnonzero(~fault_flat)
    if not len(healthy):
        return False
    seen = np.zeros(codec.size, dtype=bool)
    seen[healthy[0]] = True
    q = deque([int(healthy[0])])
    while q:
        u = q.popleft()
        cu = codec.unravel(u)
        for axis, n in enumerate(shape):
            for delta in (1, -1):
                cv = list(cu)
                cv[axis] = (cv[axis] + delta) % n
                v = int(codec.ravel(cv))
                if not seen[v] and not fault_flat[v]:
                    seen[v] = True
                    q.append(v)
    return bool(seen[healthy].all())


def _aged_torus(shape, *, rate=0.0015, repair_rate=0.25, max_steps=60):
    """A lifetimed (bernoulli faults + repairs, no recovery) fault mask.

    Seeds are searched until the timeline leaves live faults that (a)
    keep the healthy subgraph connected and (b) break at least one
    uniform-workload e-cube route — the regime where the router choice
    is visible.  Deterministic: the first qualifying seed is fixed.
    """
    from repro.api.lifetime import timeline_events
    from repro.api.protocol import LifetimeSpec

    spec = LifetimeSpec(
        timeline="bernoulli", rate=rate, repair_rate=repair_rate, max_steps=max_steps
    )
    for seed in range(50):
        flat = np.zeros(shape, dtype=bool).ravel()
        for ev in timeline_events(spec, shape, spawn_rng(seed, "e14-aged")):
            flat[ev.node] = ev.kind == "fault"
        if not flat.any() or not _healthy_connected(shape, flat):
            continue
        node_ok, edge_ok = fault_predicates(flat)
        probe = make_traffic(shape, "uniform", 100, spawn_rng(seed, "e14-probe"))
        alive = ~flat[probe[:, 0]] & ~flat[probe[:, 1]]
        broken = simulate_batch(
            shape, probe[alive], max_cycles=1, node_ok=node_ok, edge_ok=edge_ok
        ).undeliverable
        if broken > 0:
            return seed, flat
    raise RuntimeError("no aged draw with broken-but-connected routes")


def test_e14_router_class_matrix(benchmark, report):
    """Router x QoS-class service matrix on a lifetimed machine.

    The machine has lived through a bernoulli fault/repair timeline and
    carries live faults with **no** recovery layer — the ablation the
    adaptive router exists for (a recovered ``bn`` machine re-embeds
    around its faults, so both routers serve it pristinely; see the
    serve-session golden).  Faulty nodes neither inject nor receive.
    Below saturation the acceptance bar is: dimension-order refuses
    routes through the fault set, the adaptive router delivers **every**
    message (healthy subgraph connected => zero undeliverable, zero
    timed out), and QoS class 0 never waits behind lower classes.
    """

    def compute():
        shape = (PARAMS.n,) * PARAMS.d
        seed, fault_flat = _aged_torus(shape)
        node_ok, edge_ok = fault_predicates(fault_flat)
        traffic, inject = make_open_loop(
            shape, "uniform", 0.05, 300, spawn_rng(seed, "e14-matrix")
        )
        # Live nodes only: a faulty node neither injects nor receives.
        alive = ~fault_flat[traffic[:, 0]] & ~fault_flat[traffic[:, 1]]
        traffic, inject = traffic[alive], inject[alive]
        rows = []
        for router in ("dimension", "adaptive"):
            for qos in (1, 2, 3):
                classes = message_classes(len(traffic), qos)
                r = simulate_batch(
                    shape, traffic, inject=inject, max_cycles=4000,
                    router=router, node_ok=node_ok, edge_ok=edge_ok,
                    classes=classes, credits=0,
                )
                stats = latency_stats(r)
                if classes is not None:
                    per = per_class_stats(r, classes)
                    c0_p99 = per[0]["p99"]
                    cn_p99 = per[-1]["p99"]
                else:
                    c0_p99 = cn_p99 = stats["p99"]
                rows.append({
                    "router": router, "qos": qos,
                    "offered": len(traffic),
                    "delivered": r.delivered,
                    "undeliverable": r.undeliverable,
                    "timed_out": r.timed_out,
                    "p99": stats["p99"],
                    "c0_p99": c0_p99, "cn_p99": cn_p99,
                })
        return int(fault_flat.sum()), rows

    nfaults, rows = run_once(benchmark, compute)
    table = Table(
        ["router", "classes", "offered", "delivered", "undeliverable",
         "timed out", "p99", "class0 p99", "worst-class p99"],
        title=f"E14: router x QoS class matrix on a lifetimed torus with "
        f"{nfaults} live faults and no recovery layer (open loop, rate 0.05 "
        "— below saturation; faulty nodes neither inject nor receive)",
    )
    for r in rows:
        table.add_row(
            [r["router"], r["qos"], r["offered"], r["delivered"],
             r["undeliverable"], r["timed_out"], f"{r['p99']:.0f}",
             f"{r['c0_p99']:.0f}", f"{r['cn_p99']:.0f}"]
        )
    report("e14_router_class", table)

    dim = [r for r in rows if r["router"] == "dimension"]
    ada = [r for r in rows if r["router"] == "adaptive"]
    # Dimension-order refuses routes through the live fault set...
    assert all(r["undeliverable"] > 0 for r in dim)
    # ...and the adaptive router delivers every single message: the
    # healthy subgraph is connected, so nothing is undeliverable, and
    # below saturation nothing times out either.
    assert all(r["undeliverable"] == 0 for r in ada)
    assert all(r["timed_out"] == 0 for r in ada)
    assert all(r["delivered"] == r["offered"] for r in ada)
    # Priority is real: the top class never fares worse than the bottom.
    for r in rows:
        if r["qos"] > 1 and not (np.isnan(r["c0_p99"]) or np.isnan(r["cn_p99"])):
            assert r["c0_p99"] <= r["cn_p99"]


def measure_kernel(messages: int = 2000, repeats: int = 3,
                   split_against: Path | None = None) -> dict:
    """Scalar engine vs vectorized kernel at the e14 size (identity and
    timing), plus perfbench ``traffic``'s ``stage_split`` (after = this
    checkout, before = the checkout at ``split_against`` when given)."""
    shape = (PARAMS.n,) * PARAMS.d
    cases = {}
    closed = make_traffic(shape, "uniform", messages, spawn_rng(3, "bench"))
    open_t, open_i = make_open_loop(
        shape, "uniform", 0.02, 300, spawn_rng(5, "bench-ol")
    )
    for name, args, kwargs in (
        ("closed_batch", (shape, closed), {}),
        ("open_loop", (shape, open_t), {"inject": open_i}),
    ):
        simulate_batch(*args, **kwargs)  # warm
        scalar_s = batch_s = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            a = simulate(*args, **kwargs)
            scalar_s = min(scalar_s, time.perf_counter() - t0)
        for _ in range(repeats):
            t0 = time.perf_counter()
            b = simulate_batch(*args, **kwargs)
            batch_s = min(batch_s, time.perf_counter() - t0)
        cases[name] = {
            "messages": int(len(args[1])),
            "cycles": int(a.cycles),
            "timing_repeats": repeats,
            "scalar_s": round(scalar_s, 4),
            "batch_s": round(batch_s, 4),
            "speedup": round(scalar_s / batch_s, 2) if batch_s > 0 else float("inf"),
            "results_identical": sim_results_identical(a, b),
        }
    return {
        "benchmark": (
            "scalar simulate vs vectorized simulate_batch on the e14 guest "
            f"torus {shape}, identical traffic and SimResults "
            "(repro.fastpath.traffic_batch)"
        ),
        "machine_cpus": os.cpu_count(),
        "shape": list(shape),
        "note": (
            "speedups are same-machine scalar/batched ratios (portable "
            "across runners); the CI perf gate replays a smaller "
            "traffic_quick configuration via bench_e18 --quick --check "
            "against BENCH_fastpath.json"
        ),
        **cases,
        "stage_split": stage_split_block(ROOT, "traffic", STAGE_METRICS, split_against),
    }


def kernel_failures(data: dict) -> list[str]:
    """Acceptance violations of a :func:`measure_kernel` record."""
    out = []
    for key in ("closed_batch", "open_loop"):
        if not data[key]["results_identical"]:
            out.append(f"{key}: batched SimResult differs from the scalar engine's")
        if data[key]["speedup"] < SPEEDUP_FLOOR:
            out.append(f"{key}: batched speedup {data[key]['speedup']}x < {SPEEDUP_FLOOR}x")
    return out


def test_e14_kernel_speedup(benchmark, report):
    """Acceptance: >= 10x at the e14 size, recorded in BENCH_traffic.json."""

    def compute():
        data = measure_kernel()
        TRAFFIC_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        return data

    data = run_once(benchmark, compute)
    table = Table(
        ["case", "messages", "scalar s", "batch s", "speedup", "identical"],
        title="E14: scalar engine vs vectorized traffic kernel (BENCH_traffic.json)",
    )
    for key in ("closed_batch", "open_loop"):
        c = data[key]
        table.add_row(
            [key, c["messages"], c["scalar_s"], c["batch_s"],
             f"{c['speedup']:.1f}x", "yes" if c["results_identical"] else "NO"]
        )
    report("e14_kernel", table)
    assert not kernel_failures(data)


def test_e14_simulator_speed(benchmark):
    shape = (PARAMS.n, PARAMS.n)
    traffic = make_traffic(shape, "uniform", 200, spawn_rng(5))
    benchmark(lambda: simulate(shape, traffic))


def test_e14_batched_simulator_speed(benchmark):
    shape = (PARAMS.n, PARAMS.n)
    traffic = make_traffic(shape, "uniform", 200, spawn_rng(5))
    benchmark(lambda: simulate_batch(shape, traffic))


# -- CLI ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--split-against", dest="split_against", type=Path,
                    metavar="CHECKOUT",
                    help="also measure stage_split on another checkout (e.g. "
                         "the parent commit) as 'before'")
    args = ap.parse_args(argv)
    data = measure_kernel(split_against=args.split_against)
    print(json.dumps(data, indent=2, sort_keys=True))
    TRAFFIC_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {TRAFFIC_JSON}")
    failures = kernel_failures(data)
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
