"""Conformance testkit: strategies, differential oracles, golden artifacts.

The four execution pillars (scalar trials, the batched fastpath, lifetime
timelines, traffic workloads) share one headline guarantee: *identical
results across backends* — serial vs parallel runner, scalar vs batch
kernels, incremental vs full-recompute repair, scalar vs vectorized
traffic engine.  This package promotes that guarantee from a pile of
per-PR assertions to a first-class subsystem with three layers:

``strategies``
    Reusable hypothesis strategies and deterministic case lists: valid
    :class:`~repro.api.protocol.FaultSpec` / ``LifetimeSpec`` /
    ``TrafficSpec`` grids, guest shapes, constructions from the
    registry, seeded timeline cases.  The tests under ``tests/`` draw
    their generators from here instead of copy-pasting them.

``oracles``
    Differential oracles that run one spec through every capable
    backend and diff outcomes *field for field*, returning structured
    :class:`~repro.testkit.oracles.Mismatch` reports — plus independent
    slow-but-obviously-correct reference checkers (brute-force
    healthiness, BFS route validity, embedding-vs-host-adjacency audit).

``golden``
    A golden-artifact registry snapshotting canonical
    ``repro-experiment-v1`` JSONs under ``tests/golden/`` and failing
    with a field-level diff when serialization drifts.

``conformance``
    The suite driver behind ``repro-ft conformance`` and the CI job.

Exports resolve lazily so importing :mod:`repro.testkit` never drags
``hypothesis`` (a test-only dependency, imported by ``strategies``) into
production code paths such as the CLI.
"""

from __future__ import annotations

_EXPORTS = {
    "Mismatch": "repro.testkit.oracles",
    "OracleReport": "repro.testkit.oracles",
    "diff_values": "repro.testkit.oracles",
    "audit_embedding": "repro.testkit.oracles",
    "batched_rng_oracle": "repro.testkit.oracles",
    "brute_force_healthiness": "repro.testkit.oracles",
    "check_routes_bfs": "repro.testkit.oracles",
    "checkpoint_resume_oracle": "repro.testkit.oracles",
    "compare_sim_results": "repro.testkit.oracles",
    "healthiness_oracle": "repro.testkit.oracles",
    "reference_enclosing_frame": "repro.testkit.oracles",
    "reference_frame_and_interior": "repro.testkit.oracles",
    "repair_mode_oracle": "repro.testkit.oracles",
    "runner_backends_oracle": "repro.testkit.oracles",
    "sim_engines_oracle": "repro.testkit.oracles",
    "straight_cover_oracle": "repro.testkit.oracles",
    "streaming_merge_oracle": "repro.testkit.oracles",
    "trial_backend_oracle": "repro.testkit.oracles",
    "GoldenCase": "repro.testkit.golden",
    "GOLDEN_CASES": "repro.testkit.golden",
    "check_golden": "repro.testkit.golden",
    "default_golden_dir": "repro.testkit.golden",
    "write_golden": "repro.testkit.golden",
    "run_conformance": "repro.testkit.conformance",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    import importlib

    if name in _EXPORTS:
        return getattr(importlib.import_module(_EXPORTS[name]), name)
    raise AttributeError(f"module 'repro.testkit' has no attribute {name!r}")


def __dir__():
    return __all__
