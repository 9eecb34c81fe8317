#!/usr/bin/env python
"""Wafer-yield scenario: how much redundancy buys how much survival.

The paper's motivation (Section 1): a massively parallel machine is
manufactured with defective processors ("when the network is huge, some
nodes are bound to be faulty").  A machine architect choosing between the
constructions cares about three axes:

* node overhead (extra silicon),
* router degree (extra ports),
* survival probability at the process's defect rate.

This example compares, at a common target torus size:

* ``B^2_n``  (Theorem 2)  — constant degree 10, needs a low defect rate,
* ``A^2_n``  (Theorem 1)  — degree O(log log n), shrugs off 20-30% defects,
* FKP-style replication   — degree O(log n), the pre-paper state of the art.

Run:  python examples/wafer_yield.py
"""

from __future__ import annotations

from repro.analysis.montecarlo import aggregate_outcomes
from repro.baselines.replication import ReplicatedTorus
from repro.core import BnParams, BTorus
from repro.core.an import ATorus, an_params_for_reliability
from repro.core.bn import TrialOutcome
from repro.errors import ReconstructionError
from repro.util.tables import Table

TRIALS = 12


def bn_row(defect_rate: float) -> list:
    params = BnParams(d=2, b=3, s=1, t=2)
    bt = BTorus(params)
    res = aggregate_outcomes(bt.trial(defect_rate, seed) for seed in range(TRIALS))
    return [
        "B^2 (Thm 2)",
        params.n,
        params.num_nodes,
        f"{params.redundancy:.2f}x",
        params.degree,
        defect_rate,
        f"{res.success_rate:.2f}",
    ]


def an_row(defect_rate: float) -> list:
    base = BnParams(d=2, b=3, s=1, t=2)
    params = an_params_for_reliability(base, k_sub=2, p=defect_rate, q=0.0)
    at = ATorus(params)

    def trial(seed: int) -> TrialOutcome:
        try:
            at.recover(at.sample_faults(defect_rate, 0.0, seed))
            return TrialOutcome(success=True, category="ok")
        except ReconstructionError as exc:
            return TrialOutcome(success=False, category=exc.category)

    res = aggregate_outcomes(trial(seed) for seed in range(TRIALS))
    return [
        "A^2 (Thm 1)",
        params.n,
        params.num_nodes,
        f"{params.c_effective:.2f}x",
        params.degree,
        defect_rate,
        f"{res.success_rate:.2f}",
    ]


def replication_row(defect_rate: float, n: int = 72) -> list:
    rt = ReplicatedTorus(n, 2, c_r=1.0)

    def trial(seed: int) -> TrialOutcome:
        ok = rt.survives(defect_rate, seed)
        return TrialOutcome(success=ok, category="ok" if ok else "supernode")

    res = aggregate_outcomes(trial(seed) for seed in range(TRIALS))
    return [
        "FKP-style replication",
        n,
        rt.num_nodes,
        f"{rt.redundancy:.2f}x",
        rt.degree,
        defect_rate,
        f"{res.success_rate:.2f}",
    ]


def main() -> None:
    table = Table(
        ["construction", "n", "built nodes", "overhead", "degree", "defect rate", "survival"],
        title="Wafer-yield comparison (Monte-Carlo, verified recoveries only)",
    )
    # B^2 lives in the low-defect regime the theorem prescribes...
    table.add_row(bn_row(BnParams(d=2, b=3, s=1, t=2).paper_fault_probability))
    # ...A^2 and replication shrug off constant defect rates.
    for rate in (0.1, 0.3):
        table.add_row(an_row(rate))
        table.add_row(replication_row(rate))
    table.print()
    print()
    print("Reading: A^2 matches replication's survival at constant defect")
    print("rates with asymptotically smaller degree (O(log log n) vs O(log n));")
    print("B^2 keeps constant degree but needs the defect rate to fall with n.")


if __name__ == "__main__":
    main()
