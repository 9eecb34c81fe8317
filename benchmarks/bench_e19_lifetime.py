"""E19 — lifetime survival curves and the incremental-repair speedup.

Two claims of the ISSUE 3 lifetime subsystem, measured and committed to
``BENCH_lifetime.json`` at the repo root:

* **Survival curves** — fraction of machines still alive after ``g``
  fault arrivals, per timeline kind (uniform, uniform+repair, burst),
  from one ``ExperimentSpec`` per kind on the batched kernel where
  supported.  Repair at rate ``rho`` visibly shifts the curve right —
  the arrival-with-repair regime one-shot trials cannot express.
* **Incremental repair speedup** — ``OnlineRecovery(incremental=True)``
  vs the full-recompute reference on a d=2 lifetime run at the bench_e17
  problem size (b=4, N=12288), identical lifetimes asserted.  Acceptance:
  >= 5x.

It also records ``stage_split``: perfbench ``lifetime``'s ``ops_per_s``
beside the traced shares of painting and of the lockstep kernel itself
(benchmarks/stage_split.py), for this checkout and, with
``--split-against CHECKOUT``, another one as "before".

Runs two ways::

    pytest benchmarks/bench_e19_lifetime.py     # table + both artifacts
    python benchmarks/bench_e19_lifetime.py [--split-against CHECKOUT]
                                                # regenerate BENCH_lifetime.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from stage_split import stage_split_block

ROOT = Path(__file__).resolve().parent.parent
LIFETIME_JSON = ROOT / "BENCH_lifetime.json"

#: Per-layer metrics of perfbench's traced ``lifetime`` workload (defined
#: in perfbench/README.md): the paper-strategy painting the kernel's
#: failed trials run, and the kernel's own time.
STAGE_METRICS = (
    "core.painting.share",
    "fastpath.lifetime_batch.self_share",
)

#: Survival-curve configuration (small instance: 40 trials stay cheap).
CURVE_BN = dict(d=2, b=3, s=1, t=2)
CURVE_TRIALS = 40
CURVE_GRID_POINTS = (0, 2, 4, 6, 8, 10, 12, 15, 20, 30)

#: Incremental-speedup configuration: the bench_e17 problem size (d=2, b=4).
SPEED_BN = dict(d=2, b=4, s=1, t=2)
SPEED_TRIALS = 3
SPEEDUP_FLOOR = 5.0


def measure_survival_curves() -> dict:
    from repro.api import ExperimentRunner, ExperimentSpec, LifetimeSpec

    grid = (
        LifetimeSpec(),
        LifetimeSpec(timeline="uniform", repair_rate=0.05, max_steps=400),
        LifetimeSpec(timeline="burst", burst=3, max_steps=200),
    )
    spec = ExperimentSpec(
        construction="bn", params=CURVE_BN, grid=grid, trials=CURVE_TRIALS,
        name="e19-survival",
    )
    result = ExperimentRunner(backend="batch").run(spec)
    curves = {}
    for pt in result.points:
        life = pt.result
        curves[pt.fault_spec.label()] = {
            "trials": life.trials,
            "median_lifetime": life.median_lifetime,
            "arrivals_grid": list(CURVE_GRID_POINTS),
            "surviving_fraction": [
                round(x, 4) for x in life.survival_curve(CURVE_GRID_POINTS)
            ],
            "recompute_fraction": round(life.repair_fraction(), 4),
        }
    return curves


def measure_incremental_speedup() -> dict:
    from repro.api.adapters import BnConstruction
    from repro.api.lifetime import drive_timeline
    from repro.api.protocol import LifetimeSpec
    from repro.core.online import OnlineRecovery
    from repro.core.params import BnParams

    bn = BnConstruction(BnParams(**SPEED_BN))
    seeds = list(range(SPEED_TRIALS))
    spec = LifetimeSpec()

    def full_lifetime(seed: int) -> int:
        machine = OnlineRecovery(bn.torus, incremental=False, strategy=bn.strategy)
        return drive_timeline(spec, machine, bn.lifetime_rng(seed)).lifetime

    bn.lifetime_trial(LifetimeSpec(max_steps=5), 0)  # warm caches either way

    t0 = time.perf_counter()
    inc = [bn.lifetime_trial(spec, s).lifetime for s in seeds]
    inc_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    full = [full_lifetime(s) for s in seeds]
    full_s = time.perf_counter() - t0

    return {
        "params": SPEED_BN,
        "num_nodes": bn.params.num_nodes,
        "trials": SPEED_TRIALS,
        "lifetimes": inc,
        "lifetimes_identical": inc == full,
        "incremental_s": round(inc_s, 4),
        "full_recompute_s": round(full_s, 4),
        "speedup": round(full_s / inc_s, 2) if inc_s > 0 else float("inf"),
        "acceptance_floor": SPEEDUP_FLOOR,
    }


def measure_all(split_against: Path | None = None) -> dict:
    return {
        "benchmark": (
            "lifetime subsystem: survival curves per timeline kind and "
            "incremental repair vs full recompute (repro.core.online)"
        ),
        "note": (
            "incremental repair recomputes placement from the maintained "
            "row profile and rebuilds only affected torus rows; the full "
            "mode reruns place+extract+verify per unmasked arrival.  Both "
            "produce identical lifetimes (lifetimes_identical); the >=5x "
            "acceptance is on the d=2 bench_e17 problem size"
        ),
        "survival_curves": measure_survival_curves(),
        "incremental_repair": measure_incremental_speedup(),
        "stage_split": stage_split_block(ROOT, "lifetime", STAGE_METRICS,
                                         split_against),
    }


# -- pytest integration ------------------------------------------------------


def test_e19_lifetime_curves_and_incremental_speedup(benchmark, report):
    from conftest import run_once

    from repro.util.tables import Table

    def compute():
        data = measure_all()
        LIFETIME_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        return data

    data = run_once(benchmark, compute)
    table = Table(
        ["timeline", "median life"] + [f">={g}" for g in CURVE_GRID_POINTS],
        title=f"E19: surviving fraction after g arrivals ({CURVE_TRIALS} trials)",
    )
    for label, c in data["survival_curves"].items():
        table.add_row(
            [label, f"{c['median_lifetime']:g}"]
            + [f"{x:.2f}" for x in c["surviving_fraction"]]
        )
    report("e19_lifetime_curve", table)

    inc = data["incremental_repair"]
    assert inc["lifetimes_identical"], "incremental diverged from full recompute"
    assert inc["speedup"] >= SPEEDUP_FLOOR, (
        f"incremental repair speedup {inc['speedup']}x < {SPEEDUP_FLOOR}x"
    )
    # Repair visibly extends life: the rho > 0 curve dominates at the tail.
    plain = data["survival_curves"]["life/uniform"]["surviving_fraction"]
    repaired = next(
        c["surviving_fraction"]
        for label, c in data["survival_curves"].items()
        if "rho" in label
    )
    assert sum(repaired) >= sum(plain)


# -- CLI ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--split-against", dest="split_against", type=Path,
                    metavar="CHECKOUT",
                    help="also measure stage_split on another checkout (e.g. "
                         "the parent commit) as 'before'")
    args = ap.parse_args(argv)
    data = measure_all(args.split_against)
    print(json.dumps(data, indent=2, sort_keys=True))
    LIFETIME_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {LIFETIME_JSON}")
    inc = data["incremental_repair"]
    if not inc["lifetimes_identical"]:
        print("FAIL: incremental lifetimes differ from full recompute", file=sys.stderr)
        return 1
    if inc["speedup"] < SPEEDUP_FLOOR:
        print(
            f"FAIL: incremental speedup {inc['speedup']}x < {SPEEDUP_FLOOR}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
