"""E18 — scalar vs vectorized batched-trial backend, and the CI perf gate.

Measures wall-clock of the same bn/an survival Monte-Carlo on the scalar
per-trial path and on ``run_batch``, asserts outcome-identity while at it,
and records the numbers in ``BENCH_fastpath.json`` at the repo root.  The
headline claim (ISSUE 2 acceptance): batched bn survival at d=2, b=4 is
>= 10x faster than scalar.

Runs two ways:

* ``pytest benchmarks/bench_e18_fastpath.py`` — bench-suite integration
  (full measurement, table artifact, regenerates both JSON files);
* ``python benchmarks/bench_e18_fastpath.py [--quick] [--check PATH]`` —
  the CI perf-regression gate.  ``--quick`` measures the headline bn
  configuration, the batched *lifetime* kernel on the same instance and
  the batched *traffic* kernel on the e14 guest torus (min-of-N timed,
  about 20 seconds); ``--check`` compares all three against the
  committed baseline and exits 1 on a >30% wall-clock regression of any
  vectorized kernel, or when either side lacks one of them.  Because CI
  runners and the machine that produced the baseline differ, the gate
  normalises by the scalar kernel measured in the same process: the
  batched kernel "regressed by 30%" when its speedup over scalar drops
  below baseline_speedup / 1.3.  That ratio is machine-portable; raw
  seconds are recorded for humans.

The full measurement also records ``stage_split``: perfbench
``survival``'s ``ops_per_s`` beside the traced per-layer shares of the
CLI, fault sampling, the scalar fallback and its painting
(benchmarks/stage_split.py), for this checkout and, with
``--split-against CHECKOUT``, another one as "before".

``BENCH_runner.json`` is regenerated here too (same harness, same
machine) with ``machine_cpus`` taken from the actual runner instead of a
hand-written single-CPU note.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from stage_split import stage_split_block

ROOT = Path(__file__).resolve().parent.parent
FASTPATH_JSON = ROOT / "BENCH_fastpath.json"
RUNNER_JSON = ROOT / "BENCH_runner.json"

#: Gate tolerance: fail on >30% batched-kernel regression (ISSUE 2).
TOLERANCE = 1.3

#: Per-layer metrics of perfbench's traced ``survival`` workload (defined
#: in perfbench/README.md): the CLI's own time, the share of trials that
#: rerun on the scalar path and their recoveries and painting, and fault
#: sampling, the RNG contract's floor.
STAGE_METRICS = (
    "cli.self_share",
    "fastpath.bn_batch.fallback_frac",
    "core.bn.recover_calls_per_trial",
    "core.painting.share",
    "fastpath.bn_batch.sample_share",
)

#: (construction, factory params, trials) per measured case.
FULL_BN = dict(d=2, b=4, s=1, t=2)
FULL_AN = dict(d=2, b=3, s=1, t=2, k_sub=2, h=12)
FULL_TRIALS = 64
QUICK_TRIALS = 64
#: Wall-clock each side of a kernel pair is timed for; each side's
#: minimum is reported, the stable statistic for a deterministic kernel.
#: A batched call is a few milliseconds, inside shared-runner scheduler
#: jitter: with 3 calls (about 5 ms in all) the traffic gate read
#: 25.9x-52.9x over 8 runs of one tree and failed one.  Three scalar
#: calls left the scalar minimum the noisiest number of the gate (14
#: ``quick`` samples read 0.60-1.06 s).  A budget gives even the 64-trial
#: ``quick`` scalar call a few tries.
TIMING_BUDGET_S = 3.0


def _timed_pair(scalar_fn, batch_fn) -> tuple[dict, object, object]:
    """Min-of-N wall-clock of a scalar and a batched kernel.

    Each side is called until its calls add up to
    :data:`TIMING_BUDGET_S`, and the side timed less so far always goes
    next, so a drift in the machine's speed reaches both sides alike.
    Returns the record's timing fields and each side's last result.
    """
    fns = {"scalar": scalar_fn, "batch": batch_fn}
    best = dict.fromkeys(fns, float("inf"))
    spent = dict.fromkeys(fns, 0.0)
    calls = dict.fromkeys(fns, 0)
    out = {}
    while min(spent.values()) < TIMING_BUDGET_S:
        side = min(spent, key=spent.get)
        t0 = time.perf_counter()
        out[side] = fns[side]()
        elapsed = time.perf_counter() - t0
        best[side] = min(best[side], elapsed)
        spent[side] += elapsed
        calls[side] += 1
    timing = {
        "scalar_calls": calls["scalar"],
        "batch_calls": calls["batch"],
        "scalar_s": round(best["scalar"], 4),
        "batch_s": round(best["batch"], 4),
        "speedup": round(best["scalar"] / best["batch"], 2) if best["batch"] > 0 else float("inf"),
    }
    return timing, out["scalar"], out["batch"]


def _measure(name: str, params: dict, trials: int, p: float | None = None) -> dict:
    """Time scalar vs batched execution of the same seeds; verify identity.

    Both kernels are timed min-of-N (:func:`_timed_pair`); the scalar
    reference is re-timed in the same process so the recorded speedup
    stays machine-portable."""
    from repro.api import FaultSpec
    from repro.api.registry import get

    construction = get(name, **params)
    if p is None:
        p = construction.params.paper_fault_probability
    spec = FaultSpec(p=p)
    seeds = list(range(trials))
    construction.run_batch(spec, seeds[:2])  # warm both paths
    construction.trial(spec, 0)
    timing, scalar_outs, batch_outs = _timed_pair(
        lambda: [construction.trial(spec, s) for s in seeds],
        lambda: construction.run_batch(spec, seeds),
    )
    identical = all(
        (a.success, a.category, a.num_faults, a.strategy_used)
        == (b.success, b.category, b.num_faults, b.strategy_used)
        for a, b in zip(batch_outs, scalar_outs)
    )
    return {
        "construction": name,
        "params": params,
        "p": p,
        "trials": trials,
        **timing,
        "outcomes_identical": identical,
        "successes": sum(o.success for o in batch_outs),
    }


#: Lifetime-kernel gate configuration (same instance as the trial gate).
LIFETIME_TRIALS = 32


def _measure_lifetime(params: dict, trials: int) -> dict:
    """Time scalar vs batched lifetime execution of the same seeds; verify
    trial-for-trial identical first-failure records (ISSUE 3 contract)."""
    from repro.api import LifetimeSpec
    from repro.api.registry import get

    construction = get("bn", **params)
    spec = LifetimeSpec()
    seeds = list(range(trials))
    construction.run_lifetime_batch(spec, seeds[:2])  # warm both paths
    construction.lifetime_trial(spec, 0)
    timing, scalar_outs, batch_outs = _timed_pair(
        lambda: [construction.lifetime_trial(spec, s) for s in seeds],
        lambda: construction.run_lifetime_batch(spec, seeds),
    )
    identical = all(
        (a.lifetime, a.steps, a.category, a.failed, a.masked, a.replaced)
        == (b.lifetime, b.steps, b.category, b.failed, b.masked, b.replaced)
        for a, b in zip(batch_outs, scalar_outs)
    )
    return {
        "construction": "bn",
        "params": params,
        "timeline": "uniform",
        "trials": trials,
        **timing,
        "outcomes_identical": identical,
        "median_lifetime": sorted(o.lifetime for o in batch_outs)[trials // 2],
    }


#: Traffic-kernel gate configuration: the e14 guest torus with a uniform
#: closed-loop batch big enough that kernel time dominates route setup.
TRAFFIC_SHAPE = (36, 36)
TRAFFIC_MESSAGES = 1200


def _measure_traffic(shape: tuple, messages: int) -> dict:
    """Time the scalar engine vs the vectorized traffic kernel on the same
    workload; verify the SimResults are identical field for field."""
    from repro.fastpath.traffic_batch import simulate_batch
    from repro.sim import make_traffic, simulate
    from repro.testkit.oracles import compare_sim_results
    from repro.util.rng import spawn_rng

    traffic = make_traffic(shape, "uniform", messages, spawn_rng(3, "e18-traffic"))
    simulate_batch(shape, traffic)  # warm
    timing, a, b = _timed_pair(
        lambda: simulate(shape, traffic), lambda: simulate_batch(shape, traffic)
    )
    return {
        "shape": list(shape),
        "pattern": "uniform",
        "messages": messages,
        **timing,
        "outcomes_identical": not compare_sim_results(a, b),
        "cycles": int(a.cycles),
    }


def measure_quick() -> dict:
    return _measure("bn", FULL_BN, QUICK_TRIALS)


def measure_traffic_quick() -> dict:
    return _measure_traffic(TRAFFIC_SHAPE, TRAFFIC_MESSAGES)


def measure_lifetime_quick() -> dict:
    return _measure_lifetime(FULL_BN, LIFETIME_TRIALS)


#: The CI-gated baseline keys.
GATE_KEYS = ("quick", "lifetime_quick", "traffic_quick")


def measure_gate_data() -> dict:
    """The quick gate measurements, one per gated kernel."""
    return {
        "quick": measure_quick(),
        "lifetime_quick": measure_lifetime_quick(),
        "traffic_quick": measure_traffic_quick(),
    }


def check_gate(data: dict, baselines: dict) -> tuple[bool, list[str]]:
    """Compare each gated speedup against ``baseline / TOLERANCE``.

    Returns ``(ok, lines)`` with one verdict line per key of
    :data:`GATE_KEYS`.  A key missing from the measurement or from the
    baseline fails the gate: every gated kernel is always measured, so a
    gap means the gate has lost coverage.
    """
    ok = True
    lines = []
    for key in GATE_KEYS:
        if key not in data or key not in baselines:
            side = "measurement" if key not in data else "baseline"
            lines.append(f"perf gate [{key}]: missing from the {side} -> MISSING")
            ok = False
            continue
        baseline = baselines[key]["speedup"]
        measured = data[key]["speedup"]
        floor = baseline / TOLERANCE
        passed = measured >= floor
        lines.append(
            f"perf gate [{key}]: measured speedup {measured:.1f}x vs "
            f"baseline {baseline:.1f}x (floor {floor:.1f}x) -> "
            f"{'OK' if passed else 'REGRESSION'}"
        )
        ok = ok and passed
    return ok, lines


def measure_full(split_against: Path | None = None) -> dict:
    """The committed benchmark: bn (headline) + an, the quick config the
    CI gate replays, and perfbench survival's stage split."""
    bn = _measure("bn", FULL_BN, FULL_TRIALS)
    an = _measure("an", FULL_AN, FULL_TRIALS, p=0.1)
    gate = measure_gate_data()
    return {
        **gate,
        "benchmark": (
            "scalar per-trial vs vectorized run_batch / run_lifetime_batch / "
            "traffic kernel, identical seeds and outcomes (repro.fastpath)"
        ),
        "machine_cpus": os.cpu_count(),
        "note": (
            "speedups are same-machine ratios and therefore portable across "
            "runners; the CI perf gate replays the `quick`, "
            "`lifetime_quick` and `traffic_quick` configurations and "
            "fails when any measured speedup drops below speedup/1.3 (a "
            ">30% wall-clock regression of the vectorized kernel, "
            "normalised by the scalar kernel measured in the same "
            "process), or when either side lacks one of the three.  The "
            "lifetime scalar baseline is itself the "
            "incremental OnlineRecovery path, so this gate covers both "
            "lifetime pipelines; the headline traffic measurement at full "
            "size lives in BENCH_traffic.json.  The committed *_quick "
            "baselines are the minimum of several same-machine samples: "
            "the gate is one-sided, so a low-end baseline absorbs "
            "run-to-run scalar-kernel variance without loosening the 30% "
            "rule"
        ),
        "bn_survival_d2_b4": bn,
        "an_survival": an,
        "stage_split": stage_split_block(ROOT, "survival", STAGE_METRICS,
                                         split_against),
    }


def regenerate_runner_json() -> dict:
    """Re-run the PR-1 ExperimentRunner timing with honest machine info."""
    from repro.api import ExperimentRunner, ExperimentSpec

    spec = ExperimentSpec.from_grid(
        "bn", FULL_BN,
        p_values=[2.44140625e-04, 1e-3],
        trials=64,
        name="runner-bench",
    )
    seconds = {}
    dumps = {}
    for workers in (1, 4, 8):
        runner = ExperimentRunner(workers=workers, backend="scalar")
        t0 = time.perf_counter()
        result = runner.run(spec)
        seconds[f"workers={workers}"] = round(time.perf_counter() - t0, 3)
        dumps[workers] = json.dumps(result.to_dict(), sort_keys=True)
    t0 = time.perf_counter()
    batch_result = ExperimentRunner(backend="batch").run(spec)
    batch_s = round(time.perf_counter() - t0, 3)
    cpus = os.cpu_count()
    return {
        "benchmark": (
            "ExperimentRunner wall-clock, bn d=2 b=4 (12288 nodes), "
            "2 fault points x 64 trials"
        ),
        "machine_cpus": cpus,
        "byte_identical_w1_w4": dumps[1] == dumps[4],
        "byte_identical_batch": dumps[1] == json.dumps(
            batch_result.to_dict(), sort_keys=True
        ),
        "seconds": seconds,
        "seconds_batch_backend": batch_s,
        "speedup_w4_vs_w1": round(seconds["workers=1"] / seconds["workers=4"], 2),
        "speedup_batch_vs_w1": round(seconds["workers=1"] / batch_s, 2),
        "note": (
            f"recorded on a {cpus}-CPU runner (machine_cpus); the pool splits "
            "work into worker-count-independent seed chunks, so on an N-core "
            "host the same spec fans out ~N-fold with byte-identical output. "
            "The streaming runner submits its work units to one process "
            "pool, a few in flight per worker (and skips the pool outright "
            "for one task or workers=1), so workers>1 costs only a few "
            "percent even with a single CPU — the historical per-run pool "
            "spawn cost ~15%. "
            "The vectorized batch backend (seconds_batch_backend) still "
            "dominates either way on Bernoulli bn/an points."
        ),
    }


# -- pytest integration ------------------------------------------------------


def test_e18_fastpath_speedup(benchmark, report):
    from conftest import run_once

    from repro.util.tables import Table

    def compute():
        data = measure_full()
        FASTPATH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        RUNNER_JSON.write_text(
            json.dumps(regenerate_runner_json(), indent=2, sort_keys=True) + "\n"
        )
        return data

    data = run_once(benchmark, compute)
    table = Table(
        ["case", "trials", "scalar s", "batch s", "speedup", "identical"],
        title="E18: scalar per-trial vs vectorized batch backend",
    )
    for key in ("bn_survival_d2_b4", "an_survival", *GATE_KEYS):
        c = data[key]
        table.add_row(
            [key, c.get("trials", c.get("messages")), c["scalar_s"], c["batch_s"],
             f"{c['speedup']:.1f}x", "yes" if c["outcomes_identical"] else "NO"]
        )
    report("e18_fastpath", table)

    bn = data["bn_survival_d2_b4"]
    assert bn["outcomes_identical"] and data["an_survival"]["outcomes_identical"]
    assert data["lifetime_quick"]["outcomes_identical"]
    assert data["traffic_quick"]["outcomes_identical"]
    # ISSUE 2 acceptance: >= 10x on bn survival at d=2, b=4.
    assert bn["speedup"] >= 10.0, f"batched speedup {bn['speedup']}x < 10x"


# -- CLI / CI gate -----------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="measure only the headline bn configuration "
                         "(the CI perf gate)")
    ap.add_argument("--check", metavar="BASELINE",
                    help="compare against a committed BENCH_fastpath.json; "
                         "exit 1 on >30%% batched-kernel regression")
    ap.add_argument("--out", metavar="PATH",
                    help="write measurement JSON here (full mode defaults to "
                         "BENCH_fastpath.json + BENCH_runner.json)")
    ap.add_argument("--split-against", dest="split_against", type=Path,
                    metavar="CHECKOUT",
                    help="full mode: also measure stage_split on another "
                         "checkout (e.g. the parent commit) as 'before'")
    args = ap.parse_args(argv)
    if args.quick and args.split_against:
        ap.error("--split-against belongs to the full measurement, not --quick")

    if args.quick:
        data = measure_gate_data()
    else:
        data = measure_full(args.split_against)
    print(json.dumps(data, indent=2, sort_keys=True))

    for key in GATE_KEYS:
        if not data[key]["outcomes_identical"]:
            print(
                f"FAIL: vectorized outcomes differ from scalar outcomes ({key})",
                file=sys.stderr,
            )
            return 1

    if args.out:
        Path(args.out).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    elif not args.quick:
        FASTPATH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        RUNNER_JSON.write_text(
            json.dumps(regenerate_runner_json(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {FASTPATH_JSON} and {RUNNER_JSON}")

    if args.check:
        ok, lines = check_gate(data, json.loads(Path(args.check).read_text()))
        print("\n".join(lines))
        if not ok:
            print(
                "FAIL: a vectorized kernel regressed >30% relative to the "
                "scalar kernel on this machine, or is missing from a side "
                "of the comparison",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
