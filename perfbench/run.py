"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload survival --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  Informational
lines go to stdout first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from the first line of the script

# numpy is imported first and on its own, and set-up excludes it: it is the
# same on every commit and the most erratic part of a cold start here.
import numpy  # noqa: E402,F401

_SETUP_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKDIR = ROOT / ".perfbench"

#: Cold starts measured for ``setup_s``: this process plus this many
#: fresh interpreters.
COLD_STARTS = 8
#: Allowed gap between summed self times and the traced wall.
SELF_TIME_TOLERANCE = 0.01
#: Share of slices dropped from each end before averaging slice rates.
TRIM = 0.1
#: Calibration sensitivity of set-up to the run's probe median.
SETUP_SENSITIVITY = 0.75


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _bootstrap() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no repository sources under {ROOT / 'src'}; run from a full checkout")
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def _parse(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["survival", "lifetime", "traffic", "serve"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, no extra cold starts (the benchmark's own tests)")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage one output before checking it (tests the checks)")
    ap.add_argument("--setup-only", dest="setup_only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _info(label: str, payload) -> None:
    print(f"# {label}: {json.dumps(payload, sort_keys=True)}", flush=True)


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _latency(values) -> dict:
    """p50 and p99 with the number of samples beyond each (failed
    requests are infinite, so they lie beyond every percentile)."""
    out = {"count": len(values)}
    for label, q in (("p50", 0.50), ("p99", 0.99)):
        if values:
            cut = _percentile(values, q)
            out[f"{label}_ms"] = cut
            out[f"{label}_beyond"] = sum(1 for v in values if v > cut)
    return out


def _cold_start(args) -> float:
    """Set up the workload in a fresh interpreter; return its set-up time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _measure(workload, cal, seconds: float, traced=None) -> list:
    """Run slices for ``seconds`` with a probe after each; a slice is
    calibrated by the mean of the probes on either side of it."""
    slices = []
    end = time.perf_counter() + seconds
    while not slices or time.perf_counter() < end:
        before = cal.last
        s = workload.run_slice(traced)
        s.probe_s = (before + cal.take()) / 2
        slices.append(s)
    return slices


def _rate(slices, sensitivity: float = 1.0) -> float:
    """Trimmed mean of per-slice rates (ops per second): the fastest and
    slowest TRIM of slices are dropped.  Sensitivity 0 gives raw rates."""
    from perfbench.calibration import calibrated_rate

    rates = sorted(calibrated_rate(s.ops / s.seconds, s.probe_s, sensitivity)
                   for s in slices)
    cut = int(len(rates) * TRIM)
    return statistics.fmean(rates[cut:len(rates) - cut])


def main(argv=None) -> int:
    args = _parse(argv)
    _bootstrap()
    from perfbench.calibration import Calibration
    from perfbench.workloads import make_workload

    WORKDIR.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.seed, WORKDIR,
                             tiny=args.tiny, corrupt=args.corrupt)
    try:
        workload.setup()
        setups = [time.perf_counter() - _SETUP_T0]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        cal = Calibration()
        cal.take_baseline()
        if args.trace:
            result = _traced(args, workload, cal)
        else:
            slices = _measure(workload, cal, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result = {"slices": slices, "peak_rss_mb": peak_rss_mb}
        chk = workload.check()
    finally:
        workload.close()
    if not args.trace:
        for _ in range(0 if args.tiny else COLD_STARTS):
            setups.append(_cold_start(args))
    from perfbench.calibration import calibrated_time

    _info("calibration", cal.report())
    for flag in cal.flags():
        print(f"# WARNING calibration: {flag}")
    _info("checks", {"attempted": chk.attempted, "failed": chk.failed,
                     "notes": chk.notes})
    failed = chk.failed
    if args.trace:
        metrics = result["metrics"]
        failed += result["failed"]
    else:
        slices = result["slices"]
        metrics = {
            "setup_s": {"value": calibrated_time(statistics.median(setups), cal.median,
                                                 SETUP_SENSITIVITY), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "ops_per_s": {"value": _rate(slices, workload.sensitivity), "unit": "1/s"},
        }
        _info("setup_s samples", [round(v, 4) for v in setups])
        raw = {
            "setup_s": statistics.median(setups),
            "ops_per_s": _rate(slices, 0.0),
            "ops_unit": workload.unit,
            "slices": len(slices),
            "ops": sum(s.ops for s in slices),
        }
        _info("raw (uncalibrated, information only)", raw)
        (WORKDIR / f"{args.workload}-slices.json").write_text(json.dumps({
            "sensitivity": workload.sensitivity,
            "baseline_probe_s": cal.baseline,
            "slices": [[s.ops, s.seconds, s.probe_s] for s in slices],
        }))
        if args.workload == "serve":
            _info("serve latency, calibrated ms (information only)", {
                role: _latency([calibrated_time(v, s.probe_s, workload.sensitivity)
                                for s in slices for v in s.latency_ms[role]])
                for role in ("event", "query")
            })
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, chk.attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _traced(args, workload, cal) -> dict:
    """Half the time untraced, half traced; per-layer metrics from the
    traced half, tracing overhead from the gap between the two."""
    from perfbench import layers
    from perfbench.spans import Tracer

    plain = _measure(workload, cal, args.seconds / 2)
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        traced = _measure(workload, cal, args.seconds / 2, traced=tracer)
    finally:
        tracer.uninstall()
    wall = sum(s.seconds for s in traced)
    counts: dict = {}
    for s in traced:
        for key, value in s.counts.items():
            counts[key] = counts.get(key, 0) + value
    stats = tracer.reduce()
    metrics, missing = layers.compute(stats, wall, counts, tracer.absent)
    self_sum = sum(st.self_s for st in stats.values())
    gap = abs(self_sum - wall) / wall if wall else 0.0
    plain_rate = _rate(plain, workload.sensitivity)
    traced_rate = _rate(traced, workload.sensitivity)
    _info("trace", {
        "overhead": plain_rate / traced_rate - 1.0 if traced_rate else None,
        "traced_wall_s": wall,
        "self_time_sum_s": self_sum,
        "self_time_gap": gap,
        "tolerance": SELF_TIME_TOLERANCE,
        "absent_targets": tracer.absent,
        "absent_metrics": missing,
        "spans": len(tracer.spans),
    })
    layer_table = {name: round(st.self_s / wall, 4) for name, st in
                   sorted(stats.items(), key=lambda kv: -kv[1].self_s)}
    _info("self-time shares by span", layer_table)
    tracer.dump(WORKDIR / f"{args.workload}-spans.json")
    failed = 0
    if gap > SELF_TIME_TOLERANCE:
        print(f"# WARNING trace: self times sum to {self_sum:.4f}s, traced wall "
              f"{wall:.4f}s (gap {gap:.2%} > {SELF_TIME_TOLERANCE:.0%})")
        failed = 1
    return {"metrics": metrics, "failed": failed}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
    except Exception as exc:  # report without printing a result line
        import traceback

        traceback.print_exc()
        _fail(f"{type(exc).__name__}: {exc}")
