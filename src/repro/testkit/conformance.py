"""The conformance suite behind ``repro-ft conformance`` and the CI job.

One entry point, :func:`run_conformance`, executes the full verification
stack over a canonical scenario matrix:

1. the golden-artifact gate (:mod:`repro.testkit.golden`) — format and
   byte-identity drift;
2. runner-backend oracles — serial vs parallel, scalar vs batched, for
   fault, lifetime and traffic grids on every capable construction —
   plus the streaming-execution stages: incremental merge vs the
   materialized collect-then-merge reference (including a starved
   ``max_batch_bytes`` budget) and checkpoint/resume byte-identity with
   the journal cut at every chunk boundary;
3. per-trial backend oracles — the vectorized kernels against the
   scalar loops, outcome for outcome, and the batched bn kernel's two
   building blocks against their scalar references (``batched-rng``:
   block-derived generators vs ``spawn_rng``; ``straight-cover``: the
   vectorised classifier vs the scalar greedy) — plus the
   ``fault-model:*`` stages: every registered fault model against an
   independent reference sampler, its analytic expectation, and (for
   Byzantine models) the scalar-vs-vectorized engine cross-check;
4. the repair-mode oracle — incremental vs full-recompute lifetimes;
5. the independent reference checkers — BFS route validity, adaptive
   routing vs healthy-subgraph reachability (plus the engines diffed
   under QoS/credit knobs on a seeded fault mask), embedding-vs-host
   audit, brute-force healthiness.

``quick=True`` is the CI tier: the same oracles on a reduced seed/shape
matrix (the historical hand-rolled byte-identity smoke steps, unified).
``quick=False`` widens seeds, shapes and constructions for local deep
runs.  Hypothesis is *not* involved — the matrix is deterministic
(pools from the hypothesis-free :mod:`repro.testkit.cases`), so the CLI
runs without the test extra installed and a CI failure reproduces
locally with no shrinking needed.
"""

from __future__ import annotations

from typing import Callable

from repro.api.experiment import ExperimentSpec
from repro.api.protocol import FaultSpec, LifetimeSpec, TrafficSpec
from repro.testkit.oracles import (
    OracleReport,
    adaptive_router_oracle,
    audit_embedding,
    batched_rng_oracle,
    check_routes_bfs,
    checkpoint_resume_oracle,
    fault_model_oracle,
    healthiness_oracle,
    repair_mode_oracle,
    runner_backends_oracle,
    sim_engines_oracle,
    straight_cover_oracle,
    streaming_merge_oracle,
    trial_backend_oracle,
)

__all__ = ["run_conformance"]


def _runner_specs(quick: bool) -> list[ExperimentSpec]:
    """Experiment grids spanning all three spec kinds and several
    constructions; trials exceed one chunk so parallel runs genuinely
    fan out."""
    bn = {"d": 2, "b": 3, "s": 1, "t": 2}
    specs = [
        ExperimentSpec(
            construction="bn", params=bn,
            grid=(FaultSpec(p=1e-3), FaultSpec(p=0.01, q=1e-3)),
            trials=20, name="conf-bn-faults",
        ),
        ExperimentSpec(
            construction="bn", params=bn,
            grid=(LifetimeSpec(),), trials=20, name="conf-bn-lifetime",
        ),
        ExperimentSpec(
            construction="bn", params=bn,
            grid=(
                TrafficSpec(pattern="transpose", messages=48),
                TrafficSpec(pattern="uniform", injection="bernoulli", rate=0.02,
                            cycles=40, warmup=10),
                TrafficSpec(pattern="uniform", messages=48, router="adaptive",
                            qos_classes=2, credits=6),
            ),
            trials=20, name="conf-bn-traffic",
        ),
        ExperimentSpec(
            construction="dn", params={"d": 2, "n": 70, "b": 2},
            grid=(FaultSpec(pattern="random", k=8),),
            trials=18, name="conf-dn-adversarial",
        ),
        # Model-bearing specs across all three pillars: crash models in
        # survival + lifetime trials, a Byzantine model perturbing the
        # traffic engines — same serial/parallel/scalar/batch contract.
        ExperimentSpec(
            construction="bn", params=bn,
            grid=(
                FaultSpec(fault_model={"name": "neighbor", "p": 0.002}),
                FaultSpec(fault_model={"name": "component", "rate": 0.01}),
                TrafficSpec(pattern="uniform", messages=48,
                            fault_model={"name": "byzantine", "rate": 0.08}),
                LifetimeSpec(fault_model={"name": "bernoulli", "p": 0.002},
                             repair_rate=0.2, max_steps=40),
            ),
            trials=18, name="conf-bn-fault-models",
        ),
    ]
    if not quick:
        specs += [
            ExperimentSpec(
                construction="an",
                params={"d": 2, "b": 3, "s": 1, "t": 2, "k_sub": 2, "h": 8},
                grid=(FaultSpec(p=0.1),), trials=20, name="conf-an-faults",
            ),
            ExperimentSpec(
                construction="replication", params={"n": 8, "d": 2, "replication": 3},
                grid=(FaultSpec(p=0.05), TrafficSpec(pattern="uniform", messages=40)),
                trials=20, name="conf-replication",
            ),
            ExperimentSpec(
                construction="sparerows", params={"n": 10, "sigma": 4},
                grid=(FaultSpec(pattern="random", k=4), LifetimeSpec(max_steps=30)),
                trials=20, name="conf-sparerows",
            ),
        ]
    return specs


def run_conformance(
    *,
    quick: bool = False,
    golden_dir=None,
    update_golden: bool = False,
    emit: Callable[[str], None] | None = None,
) -> list[OracleReport]:
    """Run the whole conformance suite; returns every oracle report.

    ``emit`` (when given) receives one progress line per oracle as it
    completes — the CLI wires it to ``print`` so long runs show
    incremental output.  Callers decide what to do with failures;
    ``all(r.ok for r in reports)`` is the gate.
    """
    import numpy as np

    from repro.api.registry import get
    from repro.core.params import BnParams
    from repro.sim.traffic import make_traffic
    from repro.testkit.cases import timeline_cases
    from repro.testkit.golden import GOLDEN_CASES, check_golden, write_golden
    from repro.util.rng import spawn_rng

    reports: list[OracleReport] = []

    def done(report: OracleReport) -> OracleReport:
        reports.append(report)
        if emit is not None:
            emit(report.summary())
        return report

    # 1. Golden gate -------------------------------------------------------
    for case in GOLDEN_CASES:
        if update_golden:
            path = write_golden(case, golden_dir)
            if emit is not None:
                emit(f"golden:{case.name}: rewritten ({path})")
        done(check_golden(case, golden_dir))

    # 2. Runner backends ---------------------------------------------------
    for spec in _runner_specs(quick):
        report = runner_backends_oracle(spec)
        report.oracle = f"runner-backends:{spec.name}"
        done(report)

    # 2b. Streaming execution: incremental merge + checkpoint/resume -------
    # The runner-backend matrix above already runs every spec through the
    # streaming fold; these stages pin the *new* contracts on a bn spec
    # with several chunks per point: streamed == materialized merge byte
    # for byte (also under a starved sub-chunk budget), and resume from a
    # journal cut at every chunk boundary == the uninterrupted run.
    stream_specs = [_runner_specs(True)[0]]
    if not quick:
        stream_specs.append(ExperimentSpec(
            construction="bn", params={"d": 2, "b": 3, "s": 1, "t": 2},
            grid=(LifetimeSpec(), TrafficSpec(pattern="uniform", messages=48)),
            trials=20, name="conf-bn-stream-mixed",
        ))
    for spec in stream_specs:
        report = streaming_merge_oracle(spec)
        report.oracle = f"streaming-merge:{spec.name}"
        done(report)
        report = checkpoint_resume_oracle(spec)
        report.oracle = f"checkpoint-resume:{spec.name}"
        done(report)

    # 3. Per-trial kernels against their scalar loops ----------------------
    n_seeds = 4 if quick else 10
    bn = get("bn", d=2, b=3, s=1, t=2)
    an = get("an", d=2, b=3, s=1, t=2, k_sub=2, h=8)
    trial_matrix = [
        (bn, FaultSpec(p=1e-3)),
        (bn, FaultSpec(p=0.02, q=1e-3)),
        (an, FaultSpec(p=0.1)),
        (bn, LifetimeSpec()),
        (bn, TrafficSpec(pattern="uniform", messages=60)),
        (bn, TrafficSpec(pattern="transpose", injection="periodic", rate=0.05,
                         cycles=30, warmup=5)),
        (bn, TrafficSpec(pattern="uniform", messages=60, router="adaptive",
                         qos_classes=3, credits=4)),
        (bn, FaultSpec(fault_model={"name": "neighbor", "p": 0.003})),
        (bn, TrafficSpec(pattern="uniform", messages=60,
                         fault_model={"name": "byzantine", "rate": 0.1})),
        # Lifetime batch capability is gated off for model specs — this
        # entry documents the probe (a skipped report, not a silent gap).
        (bn, LifetimeSpec(fault_model={"name": "component", "rate": 0.005},
                          repair_rate=0.2, max_steps=40)),
    ]
    if not quick:
        trial_matrix += [
            (bn, FaultSpec(p=0.05)),
            (an, FaultSpec(p=0.3)),
            (bn, LifetimeSpec(max_steps=25)),
            (get("sparerows", n=10, sigma=4),
             TrafficSpec(pattern="hotspot", messages=80)),
            (bn, TrafficSpec(pattern="hotspot", injection="bernoulli", rate=0.05,
                             cycles=40, warmup=8, qos_classes=2, credits=12)),
        ]
    for construction, spec in trial_matrix:
        report = trial_backend_oracle(construction, spec, range(n_seeds))
        report.oracle = f"{report.oracle}:{construction.name}:{spec.label()}"
        done(report)

    # 3a. The batched bn kernel's building blocks -------------------------
    # Its generators come from a block-at-once derivation and its greedy
    # from array operations; both are checked directly against the scalar
    # references (spawn_rng, _cover_rows_cyclic + place_bands) on edge-case
    # roots, key tuples and row profiles the trial matrix would rarely hit.
    from repro.testkit.cases import (
        BN_PARAM_SETS,
        COVER_GEOMETRIES,
        RNG_KEY_TUPLES,
        RNG_ROOTS,
    )

    done(batched_rng_oracle(RNG_ROOTS, RNG_KEY_TUPLES))
    done(straight_cover_oracle(
        COVER_GEOMETRIES, BN_PARAM_SETS[:3] if quick else BN_PARAM_SETS,
        trials=64 if quick else 256,
    ))

    # 3b. Fault models against their independent references ----------------
    from repro.testkit.cases import FAULT_MODEL_CASES

    for model_dict in FAULT_MODEL_CASES:
        extras = ",".join(
            f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(model_dict.items()) if k != "name"
        )
        report = fault_model_oracle(
            model_dict,
            shapes=((6, 6),) if quick else ((6, 6), (4, 4, 4), (5, 7)),
            seeds=range(2) if quick else range(4),
            empirical_draws=40 if quick else 100,
        )
        report.oracle = f"fault-model:{model_dict['name']}" + (
            f"[{extras}]" if extras else ""
        )
        done(report)

    # 4. Incremental vs full-recompute repair ------------------------------
    cases = timeline_cases()
    if quick:
        cases = cases[::33]  # every timeline kind still represented
    done(repair_mode_oracle(BnParams(d=2, b=3, s=1, t=2), cases))

    # 5. Independent reference checkers ------------------------------------
    shapes = [(6, 6), (4, 4)] if quick else [(6, 6), (4, 4), (2, 8), (5, 7), (2, 4, 8)]
    from repro.api.traffic import message_classes
    from repro.sim.routing import fault_predicates

    for shape in shapes:
        t = make_traffic(shape, "uniform", 12 if quick else 40,
                         spawn_rng(7, "conf-bfs", str(shape)))
        report = check_routes_bfs(shape, t)
        report.oracle = f"route-bfs:{shape}"
        done(report)
        report = sim_engines_oracle(shape, t)
        report.oracle = f"sim-engines:{shape}"
        done(report)
        # The fault-adaptive service path on the same workload: a seeded
        # fault mask (never the full torus), the router checked against
        # independent BFS reachability, and both engines diffed with the
        # QoS/credit knobs engaged.
        size = int(np.prod(shape))
        frng = spawn_rng(17, "conf-adaptive", str(shape))
        fault_flat = frng.random(size) < 0.12
        report = adaptive_router_oracle(shape, t, fault_flat)
        report.oracle = f"adaptive-router:{shape}"
        done(report)
        n_ok, e_ok = fault_predicates(fault_flat)
        report = sim_engines_oracle(
            shape, t, router="adaptive", node_ok=n_ok, edge_ok=e_ok,
            classes=message_classes(len(t), 2), credits=4,
        )
        report.oracle = f"sim-engines-adaptive:{shape}"
        done(report)
        # Congestion: eight messages per node, all live from cycle 0, so
        # most links are contended every cycle; again with two classes
        # whose credits hold most arrivals in the waiting pools.
        crowd = make_traffic(shape, "uniform", 8 * size,
                             spawn_rng(19, "conf-congested", str(shape)))
        report = sim_engines_oracle(shape, crowd)
        report.oracle = f"sim-engines-congested:{shape}"
        done(report)
        report = sim_engines_oracle(
            shape, crowd, classes=message_classes(len(crowd), 2), credits=size // 2,
        )
        report.oracle = f"sim-engines-congested-qos:{shape}"
        done(report)

    params = BnParams(d=2, b=3, s=1, t=2)
    rng = spawn_rng(11, "conf-embed")
    faults = bn.torus.sample_faults(params.paper_fault_probability, rng)
    recovery = bn.torus.recover(faults)
    done(audit_embedding(bn.torus, recovery, faults))

    stack_rng = spawn_rng(13, "conf-health")
    densities = (0.0, 0.002, 0.02) if quick else (0.0, 0.001, 0.01, 0.05, 0.3)
    stack = np.stack([stack_rng.random(params.shape) < p for p in densities])
    done(healthiness_oracle(params, stack))

    return reports
