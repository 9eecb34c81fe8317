"""E5 — Theorem 1: A^2_n survives constant node-failure probability.

Claims verified: node count = c n^2 (exact), degree O(log log n) in the
sense that the supernode size h — the degree driver — does not grow with n
(it depends only on the target reliability), and verified survival at
p in {0.1, 0.2, 0.3}.

Each p is one :class:`ExperimentSpec` against the ``an`` registry entry
(the supernode size is solved by ``an_params_for_reliability`` and passed
as an explicit factory parameter, keeping the spec fully declarative),
executed on the batch backend — ``q == 0`` points classify entirely via
the vectorized good-supernode + straight-cover reductions.
"""

from __future__ import annotations

from conftest import run_once

from repro.api import ExperimentRunner, ExperimentSpec
from repro.core.an import an_params_for_reliability
from repro.core.params import BnParams
from repro.util.tables import Table

BASE = BnParams(d=2, b=3, s=1, t=2)
TRIALS = 10


def test_e5_an_survival_table(benchmark, report):
    runner = ExperimentRunner(backend="batch")

    def compute():
        rows = []
        for p in (0.1, 0.2, 0.3):
            params = an_params_for_reliability(BASE, k_sub=2, p=p, q=0.0)
            spec = ExperimentSpec.from_grid(
                "an",
                {"d": BASE.d, "b": BASE.b, "s": BASE.s, "t": BASE.t,
                 "k_sub": 2, "h": params.h},
                p_values=[p],
                trials=TRIALS,
                name=f"e5 p={p}",
            )
            res = runner.run(spec).points[0].result
            lo, hi = res.ci
            rows.append(
                [p, params.n, params.h, params.num_nodes,
                 f"{params.c_effective:.2f}", params.degree,
                 f"{res.success_rate:.2f}", f"[{lo:.2f},{hi:.2f}]"]
            )
        return rows

    rows = run_once(benchmark, compute)
    table = Table(
        ["p", "n", "h", "nodes", "c = nodes/n^2", "degree", "survival", "95% CI"],
        title=f"E5: Theorem 1 — A^2 survival at constant p ({TRIALS} trials)",
    )
    for r in rows:
        table.add_row(r)
    report("e5_an_survival", table)

    for r in rows:
        assert float(r[6]) >= 0.9  # whp survival at constant p
    # c stays a constant multiple (not growing with n — checked at one n,
    # h-vs-n flatness is E10's job); sanity: c < 10 for p <= 0.3
    assert all(float(r[4]) < 10 for r in rows)
