"""Deterministic case pools shared by strategies, oracles and the CLI.

Everything here is plain data and plain Python — **no hypothesis** —
so the conformance CLI (``repro-ft conformance``) and the oracle layer
can use the canonical pools in environments without the test extra
installed.  :mod:`repro.testkit.strategies` re-exports all of it next
to the hypothesis strategies, so tests keep a single import surface.
"""

from __future__ import annotations

import numpy as np

from repro.api.protocol import _TRAFFIC_PATTERNS, _TRAFFIC_ROUTERS, LifetimeSpec
from repro.faults.registry import ADVERSARY_PATTERN_NAMES

__all__ = [
    "ADVERSARY_PATTERN_NAMES",
    "BN_PARAM_SETS",
    "COVER_GEOMETRIES",
    "FAULT_MODEL_CASES",
    "NON_POW2_SHAPES",
    "RNG_KEY_TUPLES",
    "RNG_ROOTS",
    "ROUTER_NAMES",
    "SMALL_CONSTRUCTIONS",
    "TRAFFIC_PATTERN_NAMES",
    "UNIVERSAL_SHAPES",
    "adversarial_row_profiles",
    "patterns_for",
    "timeline_cases",
]

#: Small-but-real ``B^d_n`` parameter sets spanning d=1, d=2 and both s
#: values (historically duplicated at the top of tests/test_fastpath.py).
BN_PARAM_SETS = [
    dict(d=1, b=3, s=1, t=2),
    dict(d=2, b=3, s=1, t=2),
    dict(d=2, b=4, s=1, t=2),
    dict(d=2, b=5, s=2, t=2),
]

#: Guest shapes valid for every traffic pattern (power-of-two size,
#: sides >= 2, non-degenerate transpose).
UNIVERSAL_SHAPES = [(4, 4), (8, 8), (2, 8), (4, 4, 4), (2, 4, 8)]

#: Valid for everything except bitreverse (non-power-of-two sizes).
NON_POW2_SHAPES = [(6, 6), (5, 7), (3, 9, 2), (36, 36)]

#: Traffic pattern / router names, derived from the import-light spec
#: validation tables in :mod:`repro.api.protocol` (which the numpy-heavy
#: sim modules are themselves held to) — no hand-kept literal mirror.
#: ``ADVERSARY_PATTERN_NAMES`` is re-exported straight from
#: :mod:`repro.faults.registry`, the single source of those names.
TRAFFIC_PATTERN_NAMES = tuple(sorted(_TRAFFIC_PATTERNS))
ROUTER_NAMES = tuple(_TRAFFIC_ROUTERS)

#: One parameterisation per registered fault model (plus a second
#: Byzantine point with a skewed behavior mix) — what the conformance
#: ``fault-model:*`` stages and the model-bearing strategies draw from.
#: tests/test_testkit.py asserts every registry name appears here.
FAULT_MODEL_CASES = [
    {"name": "bernoulli", "p": 0.01},
    {"name": "halfedge", "q": 0.004},
    {"name": "byzantine", "rate": 0.05},
    {"name": "byzantine", "rate": 0.1, "misroute": 2.0, "drop": 1.0, "corrupt": 0.5},
    {"name": "neighbor", "p": 0.005},
    {"name": "component", "rate": 0.02, "width": 2},
]

#: One small parameterisation per registry entry — what a conformance
#: sweep over "every construction" instantiates.  (alon_chung has no
#: torus guest: traffic oracles skip it by capability probing, exactly
#: like the runner does.)
SMALL_CONSTRUCTIONS = [
    ("bn", dict(d=2, b=3, s=1, t=2)),
    ("an", dict(d=2, b=3, s=1, t=2, k_sub=2, h=8)),
    ("dn", dict(d=2, n=70, b=2)),
    ("alon_chung", dict(n=20)),
    ("replication", dict(n=8, d=2, replication=3)),
    ("sparerows", dict(n=10, sigma=4)),
]


def patterns_for(shape: tuple[int, ...]) -> list[str]:
    """Traffic patterns valid on ``shape`` (bitreverse needs 2^k >= 4 nodes)."""
    size = 1
    for s in shape:
        size *= int(s)
    pats = ["uniform", "hotspot", "neighbor", "transpose"]
    if size >= 4 and size & (size - 1) == 0:
        pats.append("bitreverse")
    return pats


def timeline_cases(minimum: int = 200) -> list[tuple[int, LifetimeSpec]]:
    """Seeded timeline points across every kind (>= ``minimum`` cases).

    The incremental-vs-full-recompute contract (ISSUE 3's acceptance
    bar) is asserted over exactly this list; the repair-mode oracle
    replays subsets of it.  Deterministic, so failures reproduce by
    ``(seed, spec.label())``.
    """
    cases: list[tuple[int, LifetimeSpec]] = []
    for seed in range(80):
        cases.append((seed, LifetimeSpec()))
    for seed in range(40):
        cases.append(
            (1000 + seed, LifetimeSpec(timeline="uniform", repair_rate=0.2, max_steps=80))
        )
    for seed in range(30):
        cases.append(
            (2000 + seed, LifetimeSpec(timeline="bernoulli", rate=0.002, max_steps=60))
        )
    for seed in range(25):
        cases.append((3000 + seed, LifetimeSpec(timeline="burst", burst=3, max_steps=40)))
    for pattern in ("random", "cluster", "rows", "diagonal", "residue"):
        for seed in range(5):
            cases.append(
                (4000 + seed, LifetimeSpec(timeline="adversarial", pattern=pattern))
            )
    assert len(cases) >= minimum
    return cases


#: Roots the batched RNG derivation (:func:`repro.util.rng.iter_rngs`) is
#: checked on against ``spawn_rng``: 32-bit word boundaries, roots past 32
#: and 64 bits (masked to their low word), negatives and numpy integers.
RNG_ROOTS = [
    0, 1, 2, 12345, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 5,
    2**63 - 1, 2**70 + 3, -1, -2, -(2**31), -(2**40) - 7,
    np.int64(7), np.int64(-9), np.int32(-5), np.uint32(2**32 - 1),
    np.uint64(2**63 + 11),
]

#: Key tuples for the same check: the bn kernel's own ``("bn-trial", n, d)``
#: keys, plus tuples whose entropy falls short of numpy's 4-word seed pool
#: or overflows it.
RNG_KEY_TUPLES = [
    ("bn-trial", 36, 2),
    ("bn-trial", 96, 2),
    ("bn-trial", 36, 1),
    (),
    ("lifetime",),
    ("an-nodes", 3),
    ("a", "b", "c", "d", "e"),
    (0, 2**32 + 4, -1, "x", 7, 9),
]

#: ``(m, b, K)`` row-cover geometries for the straight-cover classifier's
#: exactness checks: the bn shapes of :data:`BN_PARAM_SETS`' b=3/b=4 rows
#: plus synthetic ones, including ``m // K == b + 1`` (no slack between
#: evenly spaced bands, so padding capacity runs out) and ``m // K == b``
#: (K bands never fit).
COVER_GEOMETRIES = [
    (54, 3, 6), (128, 4, 8), (20, 3, 5), (12, 2, 4), (40, 3, 10), (30, 4, 6),
    (17, 2, 3), (15, 3, 5),
]


def adversarial_row_profiles(m: int, b: int, K: int) -> np.ndarray:
    """Faulty-row profiles ``(T, m)`` aimed at the straight-cover greedy's
    edge cases: fault chains exactly ``b`` apart (the "latest" sweep
    fails, the "earliest" one may not), ``K + 1`` separated clusters
    (one band too many), full and nearly full rows (no free gap), a
    fault pair at every distance (exhausts padding capacity wherever
    the geometry is tight), and clusters leaving two or more free arcs
    of equal capacity (the padding's tie-break picks the arc)."""
    sets: list[list[int]] = []
    for length in range(2, K + 2):
        for start in (0, m // 3):
            sets.append([start + b * i for i in range(length)])
    for width in (1, 2, b):
        sets.append([j * m // (K + 1) + w for j in range(K + 1) for w in range(width)])
    for arcs in range(2, K):
        for width in (1, 2):
            sets.append([j * m // arcs + w for j in range(arcs) for w in range(width)])
    for gap in range(b + 2, m - b):
        # Two clusters whose free arcs have equal capacity, equal in
        # length or not (the single-row pairs below split the same way).
        if gap // (b + 1) == (m - gap) // (b + 1):
            sets.append([0, 1, gap, gap + 1])
    sets.append(list(range(m)))
    sets.append(list(range(1, m)))
    sets.append(list(range(b + 1, m)))
    sets += [[0, gap] for gap in range(1, m)]
    profiles = np.zeros((len(sets), m), dtype=bool)
    for t, rows in enumerate(sets):
        profiles[t, np.asarray(rows) % m] = True
    return profiles
