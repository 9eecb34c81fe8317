"""E17 — the introduction's tolerated-fault-count claim.

"[B] tolerates Theta(N log^{-3d} N) random faults which is larger than the
best previously known constant-degree construction [BCH93b] that tolerates
Theta(N^{1/3})."

Executable form: drive a uniform fault-arrival timeline (one random node
per step) until verified recovery first fails.  The measured lifetime
should (a) grow with N and (b) stay a bounded constant multiple of the
theory's ``N b^{-3d}`` scale.  The ``N^{1/3}`` column is the BCH
reference; the asymptotic crossover (``N/log^{3d}N`` vs ``N^{1/3}``) lies
beyond laptop sizes, so the *shape* claim here is the scaling against
``N b^{-3d}``.

Since ISSUE 3 this experiment runs through the lifetime subsystem: one
``ExperimentSpec`` per size with a uniform ``LifetimeSpec`` grid point,
executed by ``ExperimentRunner`` on the batched lifetime kernel (the
scalar path is outcome-identical; the RNG streams are bn's historical
``lifetime_rng`` ones, so the numbers match the pre-subsystem bench).
The full ``ExperimentResult`` JSON per size is committed under
``benchmarks/results/`` alongside the table.
"""

from __future__ import annotations

from pathlib import Path

from conftest import run_once

from repro.api import ExperimentRunner, ExperimentSpec, LifetimeSpec
from repro.core.params import BnParams
from repro.util.tables import Table

RESULTS = Path(__file__).parent / "results"

CASES = [
    BnParams(d=2, b=3, s=1, t=2),  # N = 1 944
    BnParams(d=2, b=4, s=1, t=2),  # N = 12 288
    BnParams(d=2, b=4, s=1, t=4),  # N = 49 152
]
TRIALS = 5


def lifetime_spec_for(params: BnParams) -> ExperimentSpec:
    return ExperimentSpec(
        construction="bn",
        params={"d": params.d, "b": params.b, "s": params.s, "t": params.t},
        grid=(LifetimeSpec(),),
        trials=TRIALS,
        name=f"e17-bn-N{params.num_nodes}",
    )


def test_e17_random_fault_lifetime(benchmark, report):
    def compute():
        RESULTS.mkdir(exist_ok=True)  # fresh clones lack the results dir
        runner = ExperimentRunner(backend="batch")
        rows = []
        for params in CASES:
            result = runner.run(lifetime_spec_for(params))
            result.save(RESULTS / f"e17_lifetime_N{params.num_nodes}.json")
            life = result.points[0].result
            median = int(life.median_lifetime)
            theory = params.num_nodes * params.paper_fault_probability
            rows.append(
                [params.num_nodes, params.b, median,
                 f"{theory:.1f}", f"{median / theory:.1f}",
                 int(round(params.num_nodes ** (1 / 3))),
                 f"{life.repair_fraction():.2f}"]
            )
        return rows

    rows = run_once(benchmark, compute)
    table = Table(
        ["N", "b", "median lifetime", "N*b^-3d", "ratio", "N^{1/3} (BCH ref)",
         "recompute frac"],
        title=(
            f"E17: random faults survived before first failure "
            f"({TRIALS} trials, ExperimentRunner + batched lifetime kernel)"
        ),
    )
    for r in rows:
        table.add_row(r)
    report("e17_lifetime", table)

    medians = [r[2] for r in rows]
    assert medians == sorted(medians)  # lifetime grows with N
    ratios = [float(r[4]) for r in rows]
    # bounded constant multiple of the Theta(N b^-3d) scale
    assert all(1.0 <= ratio <= 8.0 for ratio in ratios)
