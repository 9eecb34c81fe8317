"""E2 — Theorem 2 claim (3): survival w.h.p. at p = b^{-3d}.

The paper proves survival probability 1 - n^{-Omega(log log n)} at node
failure rate log^{-3d} n.  The executable shape: at ``p = b^{-3d}``,
verified recovery succeeds in nearly all trials, and the rate *improves*
as b (hence n) grows — despite the absolute fault count growing.

Each case is a declarative :class:`ExperimentSpec` against the ``bn``
registry entry, executed on the vectorized batch backend
(``ExperimentRunner(backend="batch")``); the batch path reproduces the
historical driver loop's outcomes exactly (same seeds, same RNG keying,
byte-identical JSON — the contract of repro.fastpath).
"""

from __future__ import annotations

from conftest import run_once

from repro.api import ExperimentRunner, ExperimentSpec
from repro.core.params import BnParams
from repro.util.tables import Table

CASES = [
    ("d=2 b=3", BnParams(d=2, b=3, s=1, t=2), 40),
    ("d=2 b=4", BnParams(d=2, b=4, s=1, t=2), 30),
    ("d=2 b=5", BnParams(d=2, b=5, s=2, t=2), 15),
    ("d=3 b=3", BnParams(d=3, b=3, s=1, t=2), 10),
]


def spec_for(label: str, params: BnParams, trials: int) -> ExperimentSpec:
    return ExperimentSpec.from_grid(
        "bn",
        {"d": params.d, "b": params.b, "s": params.s, "t": params.t},
        p_values=[params.paper_fault_probability],
        trials=trials,
        name=f"e2 {label}",
    )


def test_e2_survival_at_paper_rate(benchmark, report):
    runner = ExperimentRunner(backend="batch")

    def compute():
        rows = []
        for label, params, trials in CASES:
            p = params.paper_fault_probability
            res = runner.run(spec_for(label, params, trials)).points[0].result
            lo, hi = res.ci
            rows.append(
                [label, params.n, params.num_nodes, f"{p:.2e}", f"{res.mean_faults:.1f}",
                 trials, f"{res.success_rate:.3f}", f"[{lo:.2f},{hi:.2f}]"]
            )
        return rows

    rows = run_once(benchmark, compute)
    table = Table(
        ["case", "n", "nodes", "p=b^-3d", "mean faults", "trials", "survival", "95% CI"],
        title="E2: Theorem 2(3) — verified survival at the paper's fault rate",
    )
    for r in rows:
        table.add_row(r)
    report("e2_bn_survival", table)

    # Shape claims: high survival everywhere; non-decreasing from the
    # smallest (most fragile) instance to the larger ones.
    rates = [float(r[6]) for r in rows]
    assert all(rate >= 0.85 for rate in rates)
    assert rates[1] >= rates[0] - 0.05  # growing b does not hurt
