"""Golden-artifact registry: canonical result JSONs gated against drift.

The ``repro-experiment-v1`` format (docs/results-format.md) is a
compatibility surface: saved experiments must stay loadable and —
because every determinism claim is phrased as *byte-identical JSON* —
must keep serialising to the same bytes for the same spec.  The golden
gate makes that executable: a small registry of canonical
:class:`~repro.api.experiment.ExperimentSpec`\\ s covering all four
pillars is recomputed and diffed field-for-field against snapshots
committed under ``tests/golden/``.

A golden failure means one of two things, and the field-level diff says
which:

* an intentional format/semantics change — regenerate with
  ``repro-ft conformance --update-golden`` and review the JSON diff in
  the PR like any other source change;
* an accidental drift (RNG stream moved, aggregation reordered, a float
  path changed) — a real regression the byte-identity contract exists
  to catch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.api.experiment import ExperimentSpec
from repro.api.protocol import FaultSpec, LifetimeSpec, TrafficSpec
from repro.testkit.oracles import Mismatch, OracleReport, diff_values

__all__ = [
    "GOLDEN_CASES",
    "GoldenCase",
    "check_golden",
    "compute_case",
    "default_golden_dir",
    "write_golden",
]


@dataclass(frozen=True)
class GoldenCase:
    """One canonical computation whose serialised result is pinned.

    ``kind`` selects the computation: ``"experiment"`` replays ``spec``
    through the reference :class:`~repro.api.experiment.ExperimentRunner`
    backend; ``"serve"`` replays the canned serve session
    (:func:`repro.serve.state.scripted_session` — events, live traffic
    queries, telemetry snapshot and state digest, no sockets).
    """

    name: str
    spec: ExperimentSpec | None = None
    kind: str = "experiment"

    @property
    def filename(self) -> str:
        return f"{self.name}.json"


#: The canonical registry: one fast case per pillar (plus the adversarial
#: and an paths, which exercise different RNG streams and aggregates).
#: Kept deliberately small — the gate runs on every CI push.
GOLDEN_CASES: tuple[GoldenCase, ...] = (
    GoldenCase(
        "bn-survival",
        ExperimentSpec(
            construction="bn",
            params={"d": 2, "b": 3, "s": 1, "t": 2},
            grid=(FaultSpec(p=1e-3), FaultSpec(p=5e-3, q=1e-3)),
            trials=6,
            name="golden-bn-survival",
        ),
    ),
    GoldenCase(
        "dn-adversarial",
        ExperimentSpec(
            construction="dn",
            params={"d": 2, "n": 70, "b": 2},
            grid=(FaultSpec(pattern="random", k=8), FaultSpec(pattern="diagonal", k=8)),
            trials=4,
            name="golden-dn-adversarial",
        ),
    ),
    GoldenCase(
        "an-survival",
        ExperimentSpec(
            construction="an",
            params={"d": 2, "b": 3, "s": 1, "t": 2, "k_sub": 2, "h": 8},
            grid=(FaultSpec(p=0.1),),
            trials=6,
            name="golden-an-survival",
        ),
    ),
    GoldenCase(
        "bn-lifetime",
        ExperimentSpec(
            construction="bn",
            params={"d": 2, "b": 3, "s": 1, "t": 2},
            grid=(
                LifetimeSpec(),
                LifetimeSpec(timeline="bernoulli", rate=0.002, max_steps=40),
            ),
            trials=6,
            name="golden-bn-lifetime",
        ),
    ),
    GoldenCase(
        "bn-traffic",
        ExperimentSpec(
            construction="bn",
            params={"d": 2, "b": 3, "s": 1, "t": 2},
            grid=(
                TrafficSpec(pattern="transpose", messages=48),
                TrafficSpec(pattern="uniform", injection="bernoulli", rate=0.02,
                            cycles=40, warmup=10),
            ),
            trials=6,
            name="golden-bn-traffic",
        ),
    ),
    # The fifth pillar: a canned serve session (scripted fault/repair
    # ingestion + live-embedding traffic queries + telemetry + digest),
    # wall-clock-free by construction so its payload is byte-stable.
    GoldenCase("serve-session", kind="serve"),
)


def default_golden_dir() -> Path:
    """``tests/golden/`` of the source checkout this module runs from.

    The library is used from a ``PYTHONPATH=src`` checkout (see
    setup.py); goldens are repository artifacts, not package data, so
    they resolve relative to the repository root.
    """
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def compute_case(case: GoldenCase) -> dict:
    """Recompute the case's result payload with the reference backend.

    Experiments run serial scalar execution on purpose: every other
    backend is asserted equal to it by
    :func:`repro.testkit.oracles.runner_backends_oracle`, so pinning the
    reference pins them all.  Serve sessions replay the scripted session
    directly on :class:`~repro.serve.state.MachineState` — the socket
    path is asserted equal to that state in tests/test_serve.py.
    """
    if case.kind == "serve":
        from repro.serve.state import scripted_session

        return scripted_session()
    from repro.api.experiment import ExperimentRunner

    return ExperimentRunner(workers=1, backend="scalar").run(case.spec).to_dict()


def _canonical_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_golden(case: GoldenCase, directory: "Path | str | None" = None) -> Path:
    """(Re)snapshot one case; returns the artifact path."""
    directory = Path(directory) if directory is not None else default_golden_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / case.filename
    path.write_text(_canonical_text(compute_case(case)), encoding="utf-8")
    return path


def check_golden(case: GoldenCase, directory: "Path | str | None" = None) -> OracleReport:
    """Recompute one case and diff it against its committed snapshot."""
    directory = Path(directory) if directory is not None else default_golden_dir()
    path = directory / case.filename
    oracle = f"golden:{case.name}"
    report = OracleReport(oracle, ("snapshot", "recomputed"), cases=1)
    if not path.exists():
        report.mismatches.append(
            Mismatch(oracle, "snapshot", "recomputed", str(path),
                     "committed golden artifact",
                     "missing — run `repro-ft conformance --update-golden`")
        )
        return report
    stored = json.loads(path.read_text(encoding="utf-8"))
    recomputed = compute_case(case)
    report.mismatches += diff_values(
        stored, recomputed, oracle=oracle, left="snapshot", right="recomputed"
    )
    if report.ok and path.read_text(encoding="utf-8") != _canonical_text(recomputed):
        report.mismatches.append(
            Mismatch(oracle, "snapshot", "recomputed", "<canonical-json>",
                     "committed bytes", "canonical serialisation drifted")
        )
    return report
