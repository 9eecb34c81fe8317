"""E12 — ablation: band-placement strategies (DESIGN.md's design-choice).

``straight`` (fast path), ``paper`` (full pipeline), ``auto`` (straight
with paper fallback).  Claims quantified: auto dominates both pure
strategies in success rate; straight is an order of magnitude faster when
it applies; the paper pipeline rescues instances straight cannot express
(winding bands) and vice versa (paper needs region structure, straight
does not care).
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.analysis.montecarlo import aggregate_outcomes
from repro.core.bn import BTorus
from repro.core.params import BnParams
from repro.util.tables import Table

PARAMS = BnParams(d=2, b=4, s=1, t=2)
TRIALS = 20


def test_e12_strategy_ablation(benchmark, report):
    p0 = PARAMS.paper_fault_probability
    ps = [p0, 4 * p0]
    bt = BTorus(PARAMS)

    def compute():
        rows = []
        for p in ps:
            for strategy in ("straight", "paper", "auto"):
                t0 = time.perf_counter()
                res = aggregate_outcomes(
                    bt.trial(p, seed, strategy=strategy) for seed in range(TRIALS)
                )
                dt = (time.perf_counter() - t0) / TRIALS
                rows.append(
                    [f"{p:.1e}", strategy, f"{res.success_rate:.2f}",
                     f"{1e3 * dt:.1f}", dict(res.categories)]
                )
        return rows

    rows = run_once(benchmark, compute)
    table = Table(
        ["p", "strategy", "success", "ms/trial", "failure categories"],
        title=f"E12: placement-strategy ablation (B^2_{PARAMS.n}, {TRIALS} trials)",
    )
    for r in rows:
        table.add_row(r)
    report("e12_placement_ablation", table)

    by = {(r[0], r[1]): float(r[2]) for r in rows}
    for p in (f"{p0:.1e}", f"{4 * p0:.1e}"):
        assert by[(p, "auto")] >= by[(p, "straight")] - 1e-9
        assert by[(p, "auto")] >= by[(p, "paper")] - 1e-9


def _representative_faults(strategy_fn):
    """First paper-rate draw the given placement handles (seeds are cheap;
    some draws are legitimately unrecoverable by a single strategy)."""
    from repro.errors import ReconstructionError
    from repro.util.rng import spawn_rng

    bt = BTorus(PARAMS)
    for seed in range(50):
        faults = bt.sample_faults(PARAMS.paper_fault_probability, spawn_rng(seed, "e12"))
        try:
            strategy_fn(PARAMS, faults)
            return faults
        except ReconstructionError:
            continue
    raise RuntimeError("no representative draw found")


def test_e12_straight_speed(benchmark):
    from repro.core.placement import place_straight

    faults = _representative_faults(place_straight)
    benchmark(lambda: place_straight(PARAMS, faults))


def test_e12_paper_speed(benchmark):
    from repro.core.placement import place_paper

    faults = _representative_faults(place_paper)
    benchmark(lambda: place_paper(PARAMS, faults))
