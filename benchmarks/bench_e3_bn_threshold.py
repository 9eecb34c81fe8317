"""E3 — survival-vs-p threshold shape for B^2_n.

The theorem operates at p = b^{-3d}; pushing p beyond it must degrade
survival monotonically (modulo Monte-Carlo noise), with the 50% crossover
sitting well above the theorem's operating point — i.e. the paper's regime
has slack, it is not a cliff edge.

The sweep is one :class:`ExperimentSpec` whose grid spans the probability
ladder; points are independent seed trees, so extending the ladder never
perturbs existing points.  It runs on the batch backend: the low-p points
classify almost entirely inside the vectorized straight-cover kernel,
while the saturated tail falls back per-trial — same numbers either way.
"""

from __future__ import annotations

from conftest import run_once

from repro.analysis.sweep import ThresholdPoint, estimate_threshold
from repro.api import ExperimentRunner, ExperimentSpec
from repro.core.params import BnParams
from repro.util.tables import Table

PARAMS = BnParams(d=2, b=4, s=1, t=2)
TRIALS = 20


def test_e3_threshold_sweep(benchmark, report):
    p0 = PARAMS.paper_fault_probability
    ps = [p0 / 4, p0, 4 * p0, 16 * p0, 64 * p0, 256 * p0]
    spec = ExperimentSpec.from_grid(
        "bn",
        {"d": PARAMS.d, "b": PARAMS.b, "s": PARAMS.s, "t": PARAMS.t},
        p_values=ps,
        trials=TRIALS,
        name="e3 threshold",
    )

    def compute():
        result = ExperimentRunner(backend="batch").run(spec)
        return [ThresholdPoint(pt.fault_spec.p, pt.result) for pt in result.points]

    points = run_once(benchmark, compute)
    table = Table(
        ["p", "p / b^-3d", "mean faults", "survival", "95% CI"],
        title=f"E3: survival vs fault probability (B^2_{PARAMS.n}, {TRIALS} trials/point)",
    )
    for pt in points:
        lo, hi = pt.result.ci
        table.add_row(
            [f"{pt.p:.2e}", f"{pt.p / p0:.0f}", f"{pt.result.mean_faults:.1f}",
             f"{pt.result.success_rate:.2f}", f"[{lo:.2f},{hi:.2f}]"]
        )
    th = estimate_threshold(points, level=0.5)
    report("e3_bn_threshold", table)
    print(f"estimated 50% survival crossover: p ~ {th:.2e} "
          f"({th / p0:.0f}x the theorem's operating point)")

    rates = [pt.result.success_rate for pt in points]
    # Shape: start near 1, end near 0, no big non-monotone jumps.
    assert rates[0] >= 0.9 and rates[1] >= 0.85
    assert rates[-1] <= 0.2
    assert th > p0  # the theorem's regime is inside the survival plateau
