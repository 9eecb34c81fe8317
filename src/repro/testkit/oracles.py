"""Differential oracles and independent reference checkers.

Two families of verification live here, both returning structured
reports instead of bare booleans:

**Differential oracles** run one spec through every capable backend and
diff outcomes field for field:

* :func:`runner_backends_oracle` — serial vs parallel
  :class:`~repro.api.experiment.ExperimentRunner`, scalar vs batched
  dispatch, down to the canonical JSON bytes;
* :func:`trial_backend_oracle` — per-trial loop vs the construction's
  vectorized kernel (``run_batch`` / ``run_lifetime_batch`` /
  ``run_traffic_batch``), outcome for outcome;
* :func:`repair_mode_oracle` — incremental
  :class:`~repro.core.online.OnlineRecovery` vs the full-recompute
  reference, including surviving placements and embeddings;
* :func:`sim_engines_oracle` — the scalar store-and-forward engine vs
  the vectorized traffic kernel on raw ``SimResult``\\ s.

**Reference checkers** re-derive a property with a slow but obviously
correct method and diff it against the production implementation:

* :func:`brute_force_healthiness` (+ :func:`healthiness_oracle`) —
  Lemma 4's three conditions via plain Python loops, diffed against the
  scalar and batched checkers; its frames come from
  :func:`reference_frame_and_interior` and
  :func:`reference_enclosing_frame`, never from the production
  templates;
* :func:`check_routes_bfs` — route validity against BFS distances on
  the torus adjacency;
* :func:`adaptive_router_oracle` — fault-adaptive routes against BFS
  reachability on the healthy subgraph (delivers iff connected, healthy
  minimal paths, dimension-ordered identity when fault-free);
* :func:`audit_embedding` — a claimed torus embedding re-checked edge
  by edge against the *materialised* host graph and fault set, not the
  codec predicates the production verifier uses.

Every failure is a :class:`Mismatch` carrying the backend labels, a
JSON-style field path, and both values — the report a future backend
author reads to find exactly which field of which trial diverged.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from repro.api.protocol import LifetimeSpec

__all__ = [
    "Mismatch",
    "OracleReport",
    "adaptive_router_oracle",
    "audit_embedding",
    "batched_rng_oracle",
    "brute_force_healthiness",
    "check_routes_bfs",
    "checkpoint_resume_oracle",
    "compare_sim_results",
    "diff_values",
    "fault_model_oracle",
    "health_record",
    "healthiness_oracle",
    "lifetime_record",
    "outcome_record",
    "reference_enclosing_frame",
    "reference_frame_and_interior",
    "repair_mode_oracle",
    "runner_backends_oracle",
    "sim_engines_oracle",
    "sim_record",
    "straight_cover_oracle",
    "streaming_merge_oracle",
    "trial_backend_oracle",
]

#: Sentinel for "key absent on this side" in dict diffs.
MISSING = "<missing>"


@dataclass(frozen=True)
class Mismatch:
    """One field-level disagreement between two backends or artifacts."""

    oracle: str
    left: str
    right: str
    #: JSON-style path of the diverging field, e.g.
    #: ``points[0].result.outcomes[3].delivered``.
    path: str
    expected: object
    actual: object

    def describe(self) -> str:
        return (
            f"[{self.oracle}] {self.path or '<root>'}: "
            f"{self.left}={self.expected!r} != {self.right}={self.actual!r}"
        )


@dataclass
class OracleReport:
    """Outcome of one oracle run over ``cases`` comparison units."""

    oracle: str
    compared: tuple[str, ...]
    cases: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    #: Why the oracle had nothing to compare (e.g. backend not capable).
    skipped: str = ""

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        parts = [f"{self.oracle}: {verdict} ({self.cases} cases; "
                 f"{' vs '.join(self.compared)})"]
        if self.skipped:
            parts.append(f"skipped: {self.skipped}")
        return " — ".join(parts)

    def describe(self) -> str:
        lines = [self.summary()]
        lines += [f"  {m.describe()}" for m in self.mismatches]
        return "\n".join(lines)

    def raise_on_mismatch(self) -> None:
        if not self.ok:
            raise AssertionError(self.describe())


def diff_values(
    a,
    b,
    *,
    oracle: str,
    left: str,
    right: str,
    path: str = "",
    max_mismatches: int = 64,
) -> list[Mismatch]:
    """Recursive structural diff of two JSON-like values.

    Dicts diff by key union, sequences element-wise (a length mismatch
    is reported once at ``path.length``, then the common prefix is
    diffed so the *first* diverging field is always named).  ``NaN``
    equals ``NaN`` — latency fields of empty windows serialise as NaN
    and must not self-mismatch.  Numpy arrays and scalars compare by
    value.  At most ``max_mismatches`` are collected per call.
    """
    out: list[Mismatch] = []
    _diff(a, b, oracle, left, right, path, out, max_mismatches)
    return out


def _diff(a, b, oracle, left, right, path, out, limit) -> None:
    if len(out) >= limit:
        return
    if isinstance(a, np.ndarray):
        a = a.tolist()
    if isinstance(b, np.ndarray):
        b = b.tolist()
    if isinstance(a, np.generic):
        a = a.item()
    if isinstance(b, np.generic):
        b = b.item()
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a:
                out.append(Mismatch(oracle, left, right, sub, MISSING, b[key]))
            elif key not in b:
                out.append(Mismatch(oracle, left, right, sub, a[key], MISSING))
            else:
                _diff(a[key], b[key], oracle, left, right, sub, out, limit)
            if len(out) >= limit:
                return
        return
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            out.append(
                Mismatch(oracle, left, right, f"{path}.length" if path else "length",
                         len(a), len(b))
            )
        for i, (x, y) in enumerate(zip(a, b)):
            _diff(x, y, oracle, left, right, f"{path}[{i}]", out, limit)
            if len(out) >= limit:
                return
        return
    if isinstance(a, float) and isinstance(b, float):
        # NaN latency fields of empty windows must not diff against themselves.
        if a != b and not (math.isnan(a) and math.isnan(b)):
            out.append(Mismatch(oracle, left, right, path, a, b))
        return
    if type(a) is not type(b) or a != b:
        out.append(Mismatch(oracle, left, right, path, a, b))


# ---------------------------------------------------------------------------
# Canonical per-record views (shared by tests and oracles)
# ---------------------------------------------------------------------------


def health_record(h) -> dict | None:
    """Every :class:`~repro.core.healthiness.HealthReport` field, including
    the bounded violation samples, as plain JSON-able types."""
    if h is None:
        return None
    return {
        "cond1_ok": h.cond1_ok,
        "cond2_ok": h.cond2_ok,
        "cond3_ok": h.cond3_ok,
        "cond3_faulty_ok": h.cond3_faulty_ok,
        "num_faults": int(h.num_faults),
        "max_brick_faults": int(h.max_brick_faults),
        "cond1_violations": [tuple(int(c) for c in v) for v in h.cond1_violations],
        "cond2_violations": [
            (tuple(int(c) for c in corner), int(n)) for corner, n in h.cond2_violations
        ],
        "cond3_violations": [tuple(int(c) for c in v) for v in h.cond3_violations],
    }


def outcome_record(o) -> dict:
    """A :class:`~repro.api.outcome.TrialOutcome` as a comparable record."""
    return {
        "success": o.success,
        "category": o.category,
        "num_faults": int(o.num_faults),
        "strategy_used": o.strategy_used,
        "healthy": o.healthy,
        "health": health_record(o.health),
    }


def lifetime_record(o) -> dict:
    """A :class:`~repro.api.lifetime.LifetimeOutcome` as a comparable record."""
    return {
        "lifetime": int(o.lifetime),
        "steps": int(o.steps),
        "category": o.category,
        "failed": o.failed,
        "masked": int(o.masked),
        "replaced": int(o.replaced),
        "repaired": int(o.repaired),
    }


def sim_record(r) -> dict:
    """A :class:`~repro.sim.engine.SimResult` as a comparable record: every
    dataclass field plus ``throughput``, so a field added later is
    compared too."""
    from repro.sim.engine import SimResult

    record = {f.name: getattr(r, f.name) for f in fields(SimResult)}
    record["throughput"] = r.throughput
    return record


#: Comparable record of one per-trial outcome, by grid-point kind name
#: (:data:`repro.api.experiment.POINT_KINDS`).
_OUTCOME_RECORDS = {
    "trial": outcome_record,
    "lifetime": lifetime_record,
    "traffic": lambda o: o.to_dict(),
}


# ---------------------------------------------------------------------------
# Differential oracles
# ---------------------------------------------------------------------------


def runner_backends_oracle(spec, *, workers: int = 2) -> OracleReport:
    """Run an :class:`~repro.api.experiment.ExperimentSpec` through every
    runner backend and diff the results down to the JSON bytes.

    Backends: serial scalar (the reference), serial batched, parallel
    scalar, parallel batched.  Batched dispatch quietly falls back
    per-trial where a construction lacks the capability — the point is
    that the *choice can never reach the results*, so the fallback path
    is part of the contract being checked.
    """
    from repro.api.experiment import ExperimentRunner

    backends = [
        ("serial/scalar", ExperimentRunner(workers=1, backend="scalar")),
        ("serial/batch", ExperimentRunner(workers=1, backend="batch")),
        (f"parallel{workers}/scalar", ExperimentRunner(workers=workers, backend="scalar")),
        (f"parallel{workers}/batch", ExperimentRunner(workers=workers, backend="batch")),
    ]
    report = OracleReport("runner-backends", tuple(n for n, _ in backends))
    ref_name, ref_runner = backends[0]
    ref = ref_runner.run(spec).to_dict()
    ref_text = json.dumps(ref, indent=2, sort_keys=True)
    for name, runner in backends[1:]:
        got = runner.run(spec).to_dict()
        report.cases += 1
        ms = diff_values(ref, got, oracle="runner-backends", left=ref_name, right=name)
        report.mismatches += ms
        got_text = json.dumps(got, indent=2, sort_keys=True)
        if not ms and got_text != ref_text:
            # Fields agree but canonical serialisation drifted — still a
            # byte-identity break (e.g. int vs float of the same value).
            # Report the first diverging line, not the whole documents.
            report.mismatches.append(
                Mismatch("runner-backends", ref_name, name, "<canonical-json>",
                         *_first_text_divergence(ref_text, got_text))
            )
    return report


def _first_text_divergence(a: str, b: str) -> tuple[str, str]:
    """Human-sized (line number + line) views of where two texts split."""
    for i, (la, lb) in enumerate(zip(a.splitlines(), b.splitlines())):
        if la != lb:
            return (f"line {i + 1}: {la.strip()}", f"line {i + 1}: {lb.strip()}")
    return (f"{len(a)} chars", f"{len(b)} chars")


def _diff_result_dict(report: OracleReport, ref: dict, got: dict,
                      *, left: str, right: str) -> None:
    """Field-diff two ``ExperimentResult`` dicts *and* their canonical
    JSON text (the byte-identity contract is stricter than field
    equality: int vs float of the same value serialises differently)."""
    report.cases += 1
    ms = diff_values(ref, got, oracle=report.oracle, left=left, right=right)
    report.mismatches += ms
    if not ms:
        ref_text = json.dumps(ref, indent=2, sort_keys=True)
        got_text = json.dumps(got, indent=2, sort_keys=True)
        if got_text != ref_text:
            report.mismatches.append(
                Mismatch(report.oracle, left, right, "<canonical-json>",
                         *_first_text_divergence(ref_text, got_text))
            )


def streaming_merge_oracle(
    spec, *, max_batch_bytes: int = 4096, workers: int = 2
) -> OracleReport:
    """The streaming runner against the legacy collect-then-merge path.

    The reference materialises every chunk dict up front (the pre-
    streaming ``ExperimentRunner.run`` body: full task list, ``pool.map``
    semantics, one-shot ``merged()`` per point) — then the incremental
    runner must reproduce it byte for byte, serially, pooled, and under
    a deliberately starved ``max_batch_bytes`` budget that forces the
    kernels through many sub-chunk slices.
    """
    from repro.api import experiment as ex

    report = OracleReport(
        "streaming-merge",
        ("materialized", "streamed/serial", f"streamed/parallel{workers}",
         "streamed/tiny-budget"),
    )
    # Legacy reference: collect every raw chunk, merge in chunk order.
    params_items = tuple(sorted(spec.params.items()))
    raw = []
    for fs in spec.grid:
        for start in range(0, spec.trials, spec.chunk_size):
            count = min(spec.chunk_size, spec.trials - start)
            raw += ex._run_block(
                (spec.construction, params_items, fs, spec.seed0 + start,
                 (count,), "batch", None)
            )
    chunks_per_point = -(-spec.trials // spec.chunk_size)
    points = []
    for i, fs in enumerate(spec.grid):
        res_cls = ex.point_kind(fs).result_cls
        parts = [
            res_cls.from_dict(raw[i * chunks_per_point + j])
            for j in range(chunks_per_point)
        ]
        points.append(ex.PointResult(fault_spec=fs, result=res_cls.merged(parts)))
    ref = ex.ExperimentResult(spec=spec, points=points).to_dict()

    streamed = [
        ("streamed/serial", ex.ExperimentRunner(workers=1)),
        (f"streamed/parallel{workers}", ex.ExperimentRunner(workers=workers)),
        ("streamed/tiny-budget",
         ex.ExperimentRunner(workers=1, max_batch_bytes=max_batch_bytes)),
    ]
    for name, runner in streamed:
        _diff_result_dict(report, ref, runner.run(spec).to_dict(),
                          left="materialized", right=name)
    return report


def checkpoint_resume_oracle(spec, *, workers: int = 2) -> OracleReport:
    """Kill-and-resume at every chunk boundary vs the uninterrupted run.

    Executes the spec once with a journal, then simulates an interrupt
    after each prefix of completed chunks — including zero (a fresh
    journal with only the header) and a torn final line (a kill mid-
    write) — and resumes each time, requiring byte-identical final JSON.
    Resumed runs use a different worker count than the reference so the
    oracle also covers resuming on different execution settings.
    """
    import tempfile
    from pathlib import Path

    from repro.api.experiment import ExperimentRunner

    report = OracleReport("checkpoint-resume", ("uninterrupted", "resumed"))
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "journal.ndjson"
        ref = ExperimentRunner(workers=1).run(spec, checkpoint=journal).to_dict()
        lines = journal.read_bytes().split(b"\n")[:-1]  # drop trailing ''
        header, chunks = lines[0], lines[1:]
        cuts = [(f"resume@{keep}", b"\n".join([header, *chunks[:keep]]) + b"\n")
                for keep in range(len(chunks) + 1)]
        if chunks:  # torn final line: a kill mid-write
            torn = b"\n".join([header, *chunks[:-1]]) + b"\n" + chunks[-1][:12]
            cuts.append(("resume@torn-line", torn))
        for name, content in cuts:
            journal.write_bytes(content)
            got = ExperimentRunner(workers=workers).run(
                spec, checkpoint=journal, resume=True
            ).to_dict()
            _diff_result_dict(report, ref, got, left="uninterrupted", right=name)
    return report


def trial_backend_oracle(construction, spec, seeds: Sequence[int]) -> OracleReport:
    """Per-trial loop vs the construction's vectorized kernel, outcome for
    outcome, for whichever pillar ``spec`` belongs to.

    Returns a report with ``skipped`` set when the construction does not
    advertise the matching batch capability for this spec — the scalar
    path is then the only backend and there is nothing to diff.
    """
    from repro.api.experiment import point_kind

    seeds = list(seeds)
    kind = point_kind(spec)
    name = f"{kind.name}-backend"
    report = OracleReport(name, ("scalar", "batch"))
    scalar_one = getattr(construction, kind.trial, None)
    if scalar_one is None:
        report.skipped = f"{construction.name} has no {kind.name} capability"
        return report
    run = kind.kernel(construction, spec)
    if run is None:
        report.skipped = (
            f"{construction.name} advertises no {kind.name} batch kernel for "
            f"{spec.label()}"
        )
        return report
    batch = run(spec, seeds)
    scalar = [scalar_one(spec, s) for s in seeds]
    if len(batch) != len(scalar):
        report.mismatches.append(
            Mismatch(name, "scalar", "batch", "outcomes.length",
                     len(scalar), len(batch))
        )
    record = _OUTCOME_RECORDS[kind.name]
    for i, (a, b) in enumerate(zip(scalar, batch)):
        report.cases += 1
        report.mismatches += diff_values(
            record(a), record(b),
            oracle=name, left="scalar", right="batch", path=f"seed[{seeds[i]}]",
        )
    return report


def _rng_record(rng) -> dict:
    """A generator's state plus its first draws (consumes them)."""
    return {
        "state": rng.bit_generator.state,
        "random": rng.random(3).tolist(),
        "integers": rng.integers(0, 2**62, 3).tolist(),
    }


def batched_rng_oracle(
    roots: Sequence[int], key_tuples: Sequence[tuple]
) -> OracleReport:
    """The block-at-once generator derivation against ``spawn_rng``.

    For every key tuple, :func:`repro.util.rng.iter_rngs` walks all
    ``roots`` as one block; each re-seeded generator's ``state`` dict and
    its first ``random``/``integers`` draws must equal those of a fresh
    ``spawn_rng(root, *keys)`` — the RNG-compatibility contract the
    batched bn kernel rests on (docs/fastpath.md).
    """
    from repro.util.rng import iter_rngs, spawn_rng

    report = OracleReport("batched-rng", ("spawn_rng", "iter_rngs"))
    for keys in key_tuples:
        for root, rng in zip(roots, iter_rngs(roots, *keys)):
            report.cases += 1
            report.mismatches += diff_values(
                _rng_record(spawn_rng(root, *keys)), _rng_record(rng),
                oracle=report.oracle, left="spawn_rng", right="iter_rngs",
                path=f"keys{list(keys)}.root[{int(root)}]",
            )
    return report


def straight_cover_oracle(
    geometries: Sequence[tuple[int, int, int]], param_sets: Sequence[dict], *,
    trials: int = 64,
) -> OracleReport:
    """The vectorised straight-cover classifier against the scalar greedy.

    Per ``(m, b, K)`` geometry, on ``trials`` random profiles at each row
    density from 0 to 0.5 and on
    :func:`~repro.testkit.cases.adversarial_row_profiles`: the vectorised
    success flag must equal ``_cover_rows_cyclic``'s, the bands it
    returns must mask every faulty row, and — one more case per success —
    its bottoms must be exactly ``sorted(_cover_rows_cyclic(...))``, the
    padding included (the lifetime kernel's masked/replaced tallies rest
    on these exact bottoms).  Per bn parameter set, on fault
    stacks built from the same kinds of profiles: a trial is covered by
    ``straight_survival_batch`` exactly when the scalar straight placement
    succeeds, and ``place_bands(strategy="auto")`` then returns straight
    bands — the claim that lets the kernel skip the scalar trial.
    """
    from repro.core.params import BnParams
    from repro.core.placement import _cover_rows_cyclic, place_bands
    from repro.errors import ReconstructionError
    from repro.fastpath.bn_batch import (
        _masks_cover,
        _straight_cover,
        straight_survival_batch,
    )
    from repro.testkit.cases import adversarial_row_profiles
    from repro.util.rng import spawn_rng

    report = OracleReport("straight-cover", ("scalar-greedy", "vectorised"))

    def profiles(m, b, K):
        rng = spawn_rng(0, "straight-cover", m, b, K)
        random = [rng.random((trials, m)) < p
                  for p in (0.0, 0.01, 0.05, 0.1, 0.2, 0.35, 0.5)]
        return np.concatenate(random + [adversarial_row_profiles(m, b, K)])

    def fail(path, expected, actual):
        report.mismatches.append(Mismatch(
            report.oracle, "scalar-greedy", "vectorised", path, expected, actual))

    for m, b, K in geometries:
        stack = profiles(m, b, K)
        ok, bottoms = _straight_cover(stack, b, K)
        masked = _masks_cover(stack, bottoms, b)
        for t in range(len(stack)):
            rows = np.flatnonzero(stack[t])
            try:
                want = sorted(_cover_rows_cyclic(rows, m, b, K))
            except ReconstructionError:
                want = None
            report.cases += 1
            path = f"(m={m},b={b},K={K}).rows{rows.tolist()}"
            if bool(ok[t]) != (want is not None):
                fail(f"{path}.success", want is not None, bool(ok[t]))
                continue
            if want is None:
                continue
            if not masked[t]:
                fail(f"{path}.masks_every_row", True, False)
            report.cases += 1
            if bottoms[t].tolist() != want:
                fail(f"{path}.bottoms", want, bottoms[t].tolist())

    for kw in param_sets:
        params = BnParams(**kw)
        m, b, K = params.m, params.b, params.num_bands
        stack = profiles(m, b, K)
        # One fault per faulty row, in a random column of that row.
        width = int(np.prod(params.shape)) // m
        cols = spawn_rng(0, "straight-cover-cols", m).integers(0, width, stack.shape)
        faults = np.zeros((len(stack), m, width), dtype=bool)
        t_idx, r_idx = np.nonzero(stack)
        faults[t_idx, r_idx, cols[t_idx, r_idx]] = True
        faults = faults.reshape((len(stack),) + params.shape)
        covered, _ = straight_survival_batch(params, faults)
        for t in range(len(stack)):
            report.cases += 1
            path = f"bn(d={params.d},b={b},s={params.s},t={params.t}).trial[{t}]"
            try:
                place_bands(params, faults[t], strategy="straight")
                straight = True
            except ReconstructionError:
                straight = False
            if bool(covered[t]) != straight:
                fail(f"{path}.covered", straight, bool(covered[t]))
            elif covered[t]:
                bands = place_bands(params, faults[t], strategy="auto")
                if not bands.is_straight:
                    fail(f"{path}.auto_is_straight", True, False)
    return report


def repair_mode_oracle(params, cases: Sequence[tuple[int, LifetimeSpec]]) -> OracleReport:
    """Incremental repair vs the full-recompute reference, per timeline.

    For each ``(seed, spec)`` case both :class:`OnlineRecovery` modes
    replay the identical event stream; the oracle diffs the outcome
    record, the final fault set, the surviving band placement and the
    surviving embedding — the full incremental-repair contract, not just
    the lifetime number.  The surviving placement is additionally
    structurally validated (and, when the trial survived, checked to
    mask every registered fault).
    """
    from repro.api.lifetime import drive_timeline
    from repro.core.bn import BTorus
    from repro.core.online import OnlineRecovery
    from repro.errors import ReconstructionError
    from repro.util.rng import spawn_rng

    bt = BTorus(params)
    report = OracleReport("repair-modes", ("incremental", "full-recompute"))
    for seed, spec in cases:
        inc = OnlineRecovery(bt, incremental=True)
        full = OnlineRecovery(bt, incremental=False)
        out_inc = drive_timeline(spec, inc, spawn_rng(seed, "eq", spec.label()))
        out_full = drive_timeline(spec, full, spawn_rng(seed, "eq", spec.label()))
        report.cases += 1
        at = f"case[seed={seed},{spec.label()}]"
        report.mismatches += diff_values(
            {
                "outcome": lifetime_record(out_inc),
                "faults": inc.faults.ravel(),
                "bottoms": inc.recovery.bands.bottoms,
                "phi": inc.recovery.phi,
            },
            {
                "outcome": lifetime_record(out_full),
                "faults": full.faults.ravel(),
                "bottoms": full.recovery.bands.bottoms,
                "phi": full.recovery.phi,
            },
            oracle="repair-modes", left="incremental", right="full-recompute",
            path=at, max_mismatches=8,
        )
        # Structural validity of the survivor: every band constraint holds
        # and (unless the trial died on its terminal arrival) every
        # registered fault is masked.
        try:
            inc.recovery.bands.validate(None if out_inc.failed else inc.faults)
        except ReconstructionError as exc:
            report.mismatches.append(
                Mismatch("repair-modes", "incremental", "band-invariants",
                         f"{at}.validate", str(exc), "structurally valid placement")
            )
    return report


def compare_sim_results(a, b, *, oracle="sim-engines", left="scalar",
                        right="batch", path="") -> list[Mismatch]:
    """Field-level diff of two :class:`~repro.sim.engine.SimResult`\\ s."""
    return diff_values(
        sim_record(a), sim_record(b), oracle=oracle, left=left, right=right, path=path
    )


def sim_engines_oracle(
    shape: tuple[int, ...],
    traffic: np.ndarray,
    *,
    inject: np.ndarray | None = None,
    max_cycles: int = 10_000,
    router: str = "dimension",
    node_ok=None,
    edge_ok=None,
    classes: np.ndarray | None = None,
    credits: int = 0,
    byzantine: Callable[[], object] | None = None,
) -> OracleReport:
    """Scalar store-and-forward engine vs the vectorized kernel on one
    concrete workload, diffed on the raw ``SimResult``.

    The routing / QoS knobs are forwarded to both engines verbatim, so
    the oracle covers the adaptive router, health predicates, priority
    classes and credit flow control with the same field-for-field
    contract as the historical default path.  ``byzantine`` is a
    zero-arg *factory* returning a fresh
    :class:`~repro.sim.routing.ByzantinePlan` — a factory because a
    plan's RNG advances as it perturbs routes, so each engine must get
    its own identically-seeded instance.
    """
    from repro.fastpath.traffic_batch import simulate_batch
    from repro.sim.engine import simulate

    kwargs = dict(
        inject=inject, max_cycles=max_cycles, router=router,
        node_ok=node_ok, edge_ok=edge_ok, classes=classes, credits=credits,
    )
    report = OracleReport("sim-engines", ("scalar", "batch"), cases=1)
    a = simulate(shape, traffic,
                 byzantine=None if byzantine is None else byzantine(), **kwargs)
    b = simulate_batch(shape, traffic,
                       byzantine=None if byzantine is None else byzantine(), **kwargs)
    report.mismatches += compare_sim_results(a, b)
    return report


def _reference_model_sample(model, shape: tuple[int, ...], rng) -> np.ndarray:
    """First-principles re-derivation of ``model.sample``'s flat draw.

    Consumes the *same* RNG stream the production sampler does (numpy's
    bulk ``random(shape)`` draws the identical uniform sequence as
    element-wise scalar calls) but derives the fault set with plain
    Python loops — per-node threshold tests, explicit closed-neighborhood
    scans over :func:`_torus_neighbors`, explicit slab-coverage walks —
    sharing no vectorized helper with :mod:`repro.faults.models`.
    """
    size = 1
    for s in shape:
        size *= int(s)
    name = model.name
    if name in ("bernoulli", "byzantine"):
        p = model.p if name == "bernoulli" else model.rate
        if p == 0.0:
            return np.zeros(size, dtype=bool)
        return np.array([rng.random() < p for _ in range(size)], dtype=bool)
    if name == "halfedge":
        # Half-edge faults fail no node outright: the node-state view is
        # all-healthy by the model's contract (and consumes no RNG).
        return np.zeros(size, dtype=bool)
    if name == "neighbor":
        if model.p == 0.0:
            centers = np.zeros(size, dtype=bool)
        else:
            centers = np.array([rng.random() < model.p for _ in range(size)], dtype=bool)
        neighbors = _torus_neighbors(shape)
        out = np.zeros(size, dtype=bool)
        for node in range(size):
            if centers[node] or any(centers[v] for v in neighbors(node)):
                out[node] = True
        return out
    if name == "component":
        strides = []
        acc = 1
        for s in reversed(shape):
            strides.append(acc)
            acc *= int(s)
        strides = list(reversed(strides))
        covered = []
        for n in shape:
            starts = [rng.random() < model.rate for _ in range(int(n))]
            covered.append([
                any(starts[(c - off) % int(n)] for off in range(min(model.width, int(n))))
                for c in range(int(n))
            ])
        out = np.zeros(size, dtype=bool)
        for node in range(size):
            coords = [(node // st) % s for st, s in zip(strides, shape)]
            if any(covered[axis][c] for axis, c in enumerate(coords)):
                out[node] = True
        return out
    raise ValueError(f"no reference sampler for fault model {name!r}")


def fault_model_oracle(
    model_dict: dict,
    *,
    shapes: Sequence[tuple[int, ...]] = ((6, 6), (4, 4, 4)),
    seeds: Sequence[int] = range(4),
    empirical_draws: int = 100,
    sample_fn: Callable | None = None,
) -> OracleReport:
    """Registered fault model vs an independent reference, three ways.

    1. **Sampler diff** — ``model.sample`` against
       :func:`_reference_model_sample` on identical RNG streams, bit for
       bit over every ``(shape, seed)`` pair.  ``sample_fn`` overrides
       the production side so mutation tests can prove the oracle fires.
    2. **Analytic expectation** — ``model.expected_faults`` against the
       empirical mean over ``empirical_draws`` seeded draws, within six
       standard errors (deterministic seeds: no flakiness).  Half-edge
       models are instead checked on their per-edge fault density and
       the ``edge_block`` direction-symmetry contract.
    3. **Byzantine engine cross-check** — for ``behavior ==
       "byzantine"``, the scalar engine against the vectorized kernel
       under a :class:`~repro.sim.routing.ByzantinePlan` built from the
       model's own mask and mix, plus message conservation
       (``delivered + dropped + timed_out + undeliverable == offered``).
    """
    from repro.faults.registry import make_fault_model, model_token
    from repro.util.rng import spawn_rng

    model = make_fault_model(model_dict)
    token = model_token(model_dict)
    report = OracleReport("fault-model", (model.name, "reference"))
    sample = sample_fn or model.sample
    for shape in shapes:
        shape = tuple(int(s) for s in shape)
        for seed in seeds:
            report.cases += 1
            got = np.asarray(
                sample(shape, spawn_rng(seed, "model-oracle", token, str(shape)))
            ).ravel()
            ref = _reference_model_sample(
                model, shape, spawn_rng(seed, "model-oracle", token, str(shape))
            )
            report.mismatches += diff_values(
                [bool(x) for x in ref], [bool(x) for x in got],
                oracle="fault-model", left="reference", right=model.name,
                path=f"sample[{shape}][seed={seed}]", max_mismatches=8,
            )
    if model.name == "halfedge":
        # Per-edge density: an (h, h) block of edges is faulty with
        # probability exactly q; symmetry: the two traversal directions
        # of the same supernode pair must agree.
        h = 48
        block = model.edge_block(0, 1, h, h)
        report.cases += 1
        if not np.array_equal(block, model.edge_block(1, 0, h, h).T):
            report.mismatches.append(Mismatch(
                "fault-model", model.name, "reference", "edge_block.symmetry",
                "edge_block(0,1) == edge_block(1,0).T", "directions disagree",
            ))
        density = float(block.mean())
        tol = 6.0 * math.sqrt(max(model.q, 1e-12) / (h * h)) + 1e-9
        if abs(density - model.q) > tol:
            report.mismatches.append(Mismatch(
                "fault-model", model.name, "reference", "edge_block.density",
                model.q, density,
            ))
    else:
        shape = tuple(int(s) for s in shapes[0])
        counts = [
            float(np.asarray(
                model.sample(shape, spawn_rng(10_000 + i, "model-oracle-mean", token))
            ).sum())
            for i in range(empirical_draws)
        ]
        emp = float(np.mean(counts))
        sem = float(np.std(counts)) / math.sqrt(len(counts))
        want = float(model.expected_faults(shape))
        report.cases += 1
        if abs(emp - want) > 6.0 * sem + 0.25:
            report.mismatches.append(Mismatch(
                "fault-model", model.name, "reference", "expected_faults",
                want, f"empirical {emp:.3f} (sem {sem:.3f})",
            ))
    if model.behavior == "byzantine":
        from repro.sim.routing import ByzantinePlan
        from repro.sim.traffic import make_traffic

        for shape in shapes:
            shape = tuple(int(s) for s in shape)
            t = make_traffic(shape, "uniform", 48, spawn_rng(3, "model-oracle-t", token))
            mask = model.sample(shape, spawn_rng(5, "model-oracle-m", token, str(shape)))

            def plan(mask=mask, shape=shape):
                return ByzantinePlan(
                    mask, model.mix(), spawn_rng(7, "model-oracle-p", token, str(shape))
                )

            sub = sim_engines_oracle(shape, t, byzantine=plan)
            report.cases += sub.cases
            for m in sub.mismatches:
                report.mismatches.append(Mismatch(
                    "fault-model", "scalar-engine", "batch-engine",
                    f"byzantine[{shape}].{m.path}", m.expected, m.actual,
                ))
            from repro.sim.engine import simulate

            r = simulate(shape, t, byzantine=plan())
            report.cases += 1
            balance = r.delivered + r.dropped + r.timed_out + r.undeliverable
            if balance != r.total:
                report.mismatches.append(Mismatch(
                    "fault-model", model.name, "conservation",
                    f"byzantine[{shape}].balance", r.total, balance,
                ))
    return report


def adaptive_router_oracle(
    shape: tuple[int, ...],
    traffic: np.ndarray,
    fault_flat: np.ndarray | None = None,
) -> OracleReport:
    """Adaptive routes vs BFS reachability on the healthy subgraph.

    For every (src, dst) message under the ``fault_flat`` node-fault
    mask, :func:`repro.sim.routing.adaptive_route` must return

    * ``None`` exactly when BFS over the healthy subgraph (computed here
      from first principles with :func:`_torus_neighbors`) cannot reach
      ``dst`` from ``src`` — never refusing a connected pair, never
      inventing a path for a disconnected one;
    * otherwise a path from ``src`` to ``dst`` along torus edges whose
      nodes are all healthy and whose hop count equals the healthy-BFS
      distance (the router is minimal on the surviving subgraph: a
      healthy dimension-ordered route is minimal outright, and the
      detour search is itself a BFS);
    * with no faults at all, byte-for-byte the dimension-ordered route —
      the identity that keeps pristine results router-independent.
    """
    from repro.sim.routing import (
        adaptive_route,
        dimension_ordered_route,
        fault_predicates,
    )

    neighbors = _torus_neighbors(shape)
    size = 1
    for s in shape:
        size *= int(s)
    faulty = (
        np.zeros(size, dtype=bool)
        if fault_flat is None
        else np.asarray(fault_flat, dtype=bool).ravel()
    )
    node_ok, edge_ok = fault_predicates(faulty)
    pristine = not faulty.any()
    report = OracleReport("adaptive-router", ("adaptive", "bfs"))
    dist_cache: dict[int, np.ndarray] = {}

    def healthy_bfs_from(src: int) -> np.ndarray:
        if src not in dist_cache:
            dist = np.full(size, -1, dtype=np.int64)
            if not faulty[src]:
                dist[src] = 0
                q = deque([src])
                while q:
                    u = q.popleft()
                    for v in neighbors(u):
                        if dist[v] < 0 and not faulty[v]:
                            dist[v] = dist[u] + 1
                            q.append(v)
            dist_cache[src] = dist
        return dist_cache[src]

    for i, (src, dst) in enumerate(np.asarray(traffic, dtype=np.int64)):
        src, dst = int(src), int(dst)
        report.cases += 1
        at = f"message[{i}]"
        route = adaptive_route(shape, src, dst, node_ok=node_ok, edge_ok=edge_ok)
        want = int(healthy_bfs_from(src)[dst])
        if route is None:
            if want >= 0:
                report.mismatches.append(
                    Mismatch("adaptive-router", "adaptive", "bfs",
                             f"{at}.deliverable", None, f"path of {want} hops")
                )
            continue
        route = [int(x) for x in route]
        if want < 0:
            report.mismatches.append(
                Mismatch("adaptive-router", "adaptive", "bfs",
                         f"{at}.deliverable", f"path of {len(route) - 1} hops",
                         "disconnected endpoints")
            )
            continue
        if route[0] != src or route[-1] != dst:
            report.mismatches.append(
                Mismatch("adaptive-router", "adaptive", "bfs", f"{at}.endpoints",
                         (route[0], route[-1]), (src, dst))
            )
            continue
        bad_node = next((n for n in route if faulty[n]), None)
        if bad_node is not None:
            report.mismatches.append(
                Mismatch("adaptive-router", "adaptive", "bfs", f"{at}.health",
                         f"visits faulty node {bad_node}", "healthy path")
            )
            continue
        bad_hop = next(
            (h for h in range(len(route) - 1)
             if route[h + 1] not in neighbors(route[h])),
            None,
        )
        if bad_hop is not None:
            report.mismatches.append(
                Mismatch("adaptive-router", "adaptive", "bfs", f"{at}.hop[{bad_hop}]",
                         f"{route[bad_hop]}->{route[bad_hop + 1]}",
                         "not a torus edge")
            )
            continue
        if len(route) - 1 != want:
            report.mismatches.append(
                Mismatch("adaptive-router", "adaptive", "bfs", f"{at}.hops",
                         len(route) - 1, want)
            )
            continue
        if pristine:
            dim = [int(x) for x in dimension_ordered_route(shape, src, dst)]
            if route != dim:
                report.mismatches.append(
                    Mismatch("adaptive-router", "adaptive", "dimension-ordered",
                             f"{at}.fault-free-identity", route, dim)
                )
    return report


# ---------------------------------------------------------------------------
# Independent reference checkers
# ---------------------------------------------------------------------------


def _torus_neighbors(shape: tuple[int, ...]):
    """Adjacency function of the ``shape`` torus, built from first principles
    (modular coordinate arithmetic, no CoordCodec)."""
    strides = []
    acc = 1
    for s in reversed(shape):
        strides.append(acc)
        acc *= int(s)
    strides = list(reversed(strides))

    def unflatten(idx: int) -> list[int]:
        coords = []
        for stride, s in zip(strides, shape):
            coords.append((idx // stride) % s)
        return coords

    def neighbors(idx: int) -> list[int]:
        coords = unflatten(idx)
        out = []
        for axis, n in enumerate(shape):
            if n < 2:
                continue
            for delta in (+1, -1):
                c = list(coords)
                c[axis] = (c[axis] + delta) % n
                out.append(sum(ci * st for ci, st in zip(c, strides)))
        return out

    return neighbors


def check_routes_bfs(
    shape: tuple[int, ...],
    traffic: np.ndarray,
    *,
    router: Callable[[tuple, int, int], np.ndarray] | None = None,
) -> OracleReport:
    """Route validity against breadth-first search on the torus.

    For every (src, dst) message the production router (default:
    :func:`repro.sim.routing.dimension_ordered_route`) must return a
    path that starts at ``src``, ends at ``dst``, moves only along host
    torus edges, and is *minimal* — its hop count equal to the BFS
    distance computed here by plain queue-based search over the
    adjacency.  ``router`` is injectable so mutation tests can prove
    the oracle catches broken routers.
    """
    from repro.sim.routing import dimension_ordered_route

    route_fn = router or dimension_ordered_route
    neighbors = _torus_neighbors(shape)
    size = 1
    for s in shape:
        size *= int(s)
    report = OracleReport("route-bfs", ("router", "bfs"))
    dist_cache: dict[int, np.ndarray] = {}

    def bfs_from(src: int) -> np.ndarray:
        if src not in dist_cache:
            dist = np.full(size, -1, dtype=np.int64)
            dist[src] = 0
            q = deque([src])
            while q:
                u = q.popleft()
                for v in neighbors(u):
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        q.append(v)
            dist_cache[src] = dist
        return dist_cache[src]

    for i, (src, dst) in enumerate(np.asarray(traffic, dtype=np.int64)):
        src, dst = int(src), int(dst)
        report.cases += 1
        at = f"message[{i}]"
        route = [int(x) for x in route_fn(shape, src, dst)]
        if not route or route[0] != src:
            report.mismatches.append(
                Mismatch("route-bfs", "router", "bfs", f"{at}.start",
                         route[0] if route else MISSING, src)
            )
            continue
        if route[-1] != dst:
            report.mismatches.append(
                Mismatch("route-bfs", "router", "bfs", f"{at}.end", route[-1], dst)
            )
            continue
        bad_hop = next(
            (h for h in range(len(route) - 1)
             if route[h + 1] not in neighbors(route[h])),
            None,
        )
        if bad_hop is not None:
            report.mismatches.append(
                Mismatch("route-bfs", "router", "bfs", f"{at}.hop[{bad_hop}]",
                         f"{route[bad_hop]}->{route[bad_hop + 1]}",
                         "not a torus edge")
            )
            continue
        want = int(bfs_from(src)[dst])
        if len(route) - 1 != want:
            report.mismatches.append(
                Mismatch("route-bfs", "router", "bfs", f"{at}.hops",
                         len(route) - 1, want)
            )
    return report


def audit_embedding(bt, recovery, faults: np.ndarray) -> OracleReport:
    """Embedding-vs-host-adjacency audit of a claimed ``B^d_n`` recovery.

    Independent of the production verifier
    (:func:`repro.topology.embeddings.verify_torus_embedding`, which
    consults codec predicates): this audit materialises the host graph
    once, builds a plain Python edge set, and re-checks the claimed
    embedding ``phi`` the obvious way — injectivity, every mapped host
    node alive, every guest torus edge present as a host edge.
    """
    report = OracleReport("embedding-audit", ("claimed-phi", "host-graph"))
    shape = recovery.guest_shape()
    phi = np.asarray(recovery.phi, dtype=np.int64).ravel()
    host_edges = bt.bn.graph().edges()
    edge_set = {(int(min(u, v)), int(max(u, v))) for u, v in host_edges}
    faulty = np.asarray(faults, dtype=bool).ravel()
    size = 1
    for s in shape:
        size *= int(s)
    report.cases = 1
    if phi.shape[0] != size:
        report.mismatches.append(
            Mismatch("embedding-audit", "claimed-phi", "host-graph", "phi.length",
                     phi.shape[0], size)
        )
        return report
    if np.unique(phi).size != phi.size:
        report.mismatches.append(
            Mismatch("embedding-audit", "claimed-phi", "host-graph",
                     "phi.injective", False, True)
        )
    on_faulty = np.flatnonzero(faulty[phi])
    for g in on_faulty[:8]:
        report.mismatches.append(
            Mismatch("embedding-audit", "claimed-phi", "host-graph",
                     f"phi[{int(g)}]", f"host {int(phi[g])} (faulty)", "alive host")
        )
    neighbors = _torus_neighbors(shape)
    seen: set[tuple[int, int]] = set()
    for g in range(size):
        for h in neighbors(g):
            guest_edge = (min(g, h), max(g, h))
            if guest_edge in seen:
                continue
            seen.add(guest_edge)
            report.cases += 1
            hu, hv = int(phi[guest_edge[0]]), int(phi[guest_edge[1]])
            if (min(hu, hv), max(hu, hv)) not in edge_set:
                report.mismatches.append(
                    Mismatch("embedding-audit", "claimed-phi", "host-graph",
                             f"guest-edge[{guest_edge[0]}-{guest_edge[1]}]",
                             f"host {hu}-{hv}", "existing host edge")
                )
                if len(report.mismatches) >= 16:
                    return report
    return report


def reference_frame_and_interior(geo, corner, s: int) -> tuple[np.ndarray, np.ndarray]:
    """An s-box's frame and interior flat tile indices, built the slow way.

    Two cyclic tile boxes (the ``s``-box at ``corner`` and the
    ``(s-2)``-box one tile inside it) from ``meshgrid``, flattened with
    ``np.ravel_multi_index`` and separated with ``isin`` — independent of
    :class:`~repro.topology.grid.TileGeometry`'s frame templates, which
    must return the same arrays in the same order.
    """
    if s < 3:
        raise ValueError("s-frames require s >= 3")
    if s > min(geo.grid_shape):
        raise ValueError(f"s={s} exceeds tile grid {geo.grid_shape}")

    def box(start, size):
        axes = [(start[a] + np.arange(size)) % geo.grid_shape[a] for a in range(geo.ndim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.ravel_multi_index([mm.ravel() for mm in mesh], geo.grid_shape)

    all_tiles = box(corner, s)
    interior = box([c + 1 for c in corner], s - 2)
    return all_tiles[~np.isin(all_tiles, interior)], interior


def reference_enclosing_frame(geo, tile_faulty_flat: np.ndarray, tile):
    """The smallest fault-free s-frame enclosing ``tile``, by a plain scan.

    Sizes ascend from 3 to ``b``; within a size, candidate corners run
    centre-first (offsets ``1 .. s-2`` per axis ordered by distance from
    the box centre, in ``itertools.product`` order) and each candidate's
    frame comes from :func:`reference_frame_and_interior`.  Returns
    ``(corner, s)`` or ``None`` — what the production gather in
    :func:`~repro.core.healthiness.find_enclosing_frame` must return.
    """
    for size in range(3, geo.b + 1):
        offsets = sorted(range(1, size - 1), key=lambda o: abs(o - (size - 1) / 2))
        for off in itertools.product(offsets, repeat=geo.ndim):
            corner = tuple(
                int((tile[a] - off[a]) % geo.grid_shape[a]) for a in range(geo.ndim)
            )
            frame, _ = reference_frame_and_interior(geo, corner, size)
            if not any(bool(tile_faulty_flat[t]) for t in frame):
                return corner, size
    return None


def brute_force_healthiness(params, faults: np.ndarray, *, max_violations: int = 8) -> dict:
    """Lemma 4's three conditions via plain Python loops.

    Re-derives the per-brick fault-free-row runs (condition 1), fault
    counts (condition 2) and the fault-free enclosing-frame search
    (condition 3) with nothing but ``TileGeometry``'s brick and tile
    enumeration, :func:`reference_enclosing_frame` and elementwise
    scans — no sliding windows, no streak reductions, no frame templates,
    no shared helper with the production checkers.
    Violations are collected in the same (corner / tile) enumeration
    order and with the same ``max_violations`` bound, so the record is
    directly diffable against :func:`health_record` of the production
    :class:`~repro.core.healthiness.HealthReport`.
    """
    from repro.topology.grid import TileGeometry

    geo = TileGeometry(params.shape, params.b)
    b, s = params.b, params.s
    rec = {
        "cond1_ok": True, "cond2_ok": True, "cond3_ok": True,
        "cond3_faulty_ok": True,
        "num_faults": int(np.asarray(faults).sum()), "max_brick_faults": 0,
        "cond1_violations": [], "cond2_violations": [], "cond3_violations": [],
    }
    for corner in geo.brick_corners():
        block = np.asarray(geo.brick_node_block(faults, corner))
        rows = block.reshape(block.shape[0], -1)
        # Longest run of fault-free rows, by walking the rows one by one.
        best = run = 0
        for r in range(rows.shape[0]):
            if bool(rows[r].any()):
                run = 0
            else:
                run += 1
                best = max(best, run)
        count = int(block.sum())
        rec["max_brick_faults"] = max(rec["max_brick_faults"], count)
        if best < 2 * b:
            rec["cond1_ok"] = False
            if len(rec["cond1_violations"]) < max_violations:
                rec["cond1_violations"].append(tuple(int(c) for c in corner))
        if count > s:
            rec["cond2_ok"] = False
            if len(rec["cond2_violations"]) < max_violations:
                rec["cond2_violations"].append((tuple(int(c) for c in corner), count))
    tile_faulty = geo.tile_fault_counts(np.asarray(faults)) > 0
    flat_faulty = tile_faulty.ravel()
    for tile_flat in range(geo.grid.size):
        tile = tuple(int(c) for c in geo.grid.unravel(tile_flat))
        if reference_enclosing_frame(geo, flat_faulty, tile) is None:
            rec["cond3_ok"] = False
            if bool(flat_faulty[tile_flat]):
                rec["cond3_faulty_ok"] = False
            if len(rec["cond3_violations"]) < max_violations:
                rec["cond3_violations"].append(tile)
    return rec


def healthiness_oracle(params, fault_stack: np.ndarray) -> OracleReport:
    """Three-way healthiness diff: brute force vs scalar vs batched.

    ``fault_stack`` has shape ``(trials, *params.shape)``; every slice is
    checked by the brute-force reference, the production scalar checker
    and the vectorized batch checker, and all three records must agree
    field for field (including the bounded violation samples).
    """
    from repro.core.healthiness import check_healthiness, check_healthiness_batch

    report = OracleReport("healthiness", ("brute-force", "scalar", "batch"))
    batch_reports = check_healthiness_batch(params, fault_stack)
    for i in range(fault_stack.shape[0]):
        report.cases += 1
        ref = brute_force_healthiness(params, fault_stack[i])
        scalar = health_record(check_healthiness(params, fault_stack[i]))
        batched = health_record(batch_reports[i])
        report.mismatches += diff_values(
            ref, scalar, oracle="healthiness", left="brute-force", right="scalar",
            path=f"trial[{i}]",
        )
        report.mismatches += diff_values(
            scalar, batched, oracle="healthiness", left="scalar", right="batch",
            path=f"trial[{i}]",
        )
    return report
