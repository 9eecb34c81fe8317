"""Compiled (JIT) kernel cores — the optional third tier of the ladder.

The three hottest inner loops of the batch tier are restated here as
plain-loop *kernel cores*: functions over contiguous numpy arrays using
only the numpy/python subset numba's nopython mode supports.  When numba
is importable each core is ``njit``-compiled on first call; when it is
not (this project must run in offline containers where numba cannot be
installed), the cores remain ordinary Python functions — slow, but
executable, so the unit tests prove core-vs-numpy equivalence everywhere
and the conformance ``compiled:*`` stages report an explicit ``skipped``
instead of silently passing (see :mod:`repro.fastpath.dispatch`).

Cores (each the exact decision procedure of its numpy twin, so the
compiled tier is byte-identical to ``batch`` — and hence to ``scalar`` —
by construction):

* :func:`bn_cover_core` — the bn survival classifier's masked-cover
  re-check (``straight_survival_batch``): every faulty row hit by some
  straight band ``(row - bottom) mod m < b``.
* :func:`longest_false_run_core` — the healthiness condition-1 streak
  reduction (``fastpath/health.py``) over row strips.
* :func:`lifetime_step_core` — the lifetime lockstep kernel's per-step
  masked check against the incumbent bottoms.
* :func:`traffic_arbitrate_core` — per-cycle link arbitration: the
  stable sort + run-length reduction of ``simulate_batch``, with the
  lexsort expressed as one stable argsort over the composite
  ``wanted * num_classes + class`` key (live ids arrive ascending, so
  stability supplies the lowest-id tiebreak).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "COMPILED_AVAILABLE",
    "COMPILED_UNAVAILABLE_REASON",
    "bn_cover_core",
    "lifetime_step_core",
    "longest_false_run_core",
    "traffic_arbitrate_core",
]

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    COMPILED_AVAILABLE = True
    COMPILED_UNAVAILABLE_REASON = ""
except ImportError:  # the offline-container default
    numba = None
    COMPILED_AVAILABLE = False
    COMPILED_UNAVAILABLE_REASON = "optional JIT dependency 'numba' is not installed"


def _jit(fn):
    """``numba.njit`` when available, identity otherwise.

    The pure-Python fallback is NOT a production tier — dispatch refuses
    ``backend="compiled"`` when numba is absent — but it keeps every core
    importable and testable (tests/test_compiled.py runs the cores
    against their numpy twins either way).
    """
    if numba is None:
        return fn
    return numba.njit(cache=True)(fn)


@_jit
def bn_cover_core(fault_rows, bottoms, m, b):
    """Per-trial "every faulty row is masked by some band" predicate.

    ``fault_rows``: ``(trials, m)`` bool; ``bottoms``: ``(trials, K)``
    int64 rows in ``[0, m)`` (greedy-failed trials' rows are arbitrary —
    callers AND the result with their ``greedy_ok`` mask, exactly like
    the numpy twin in ``straight_survival_batch``).  A ``-1`` would read
    as a band at row ``m - 1``, so unused slots of a real band set repeat
    one of its bottoms instead.
    """
    trials, rows = fault_rows.shape
    k = bottoms.shape[1]
    covered = np.ones(trials, dtype=np.bool_)
    for t in range(trials):
        for r in range(rows):
            if not fault_rows[t, r]:
                continue
            masked = False
            for j in range(k):
                if (r - bottoms[t, j]) % m < b:
                    masked = True
                    break
            if not masked:
                covered[t] = False
                break
    return covered


@_jit
def longest_false_run_core(marked):
    """Longest run of False per row of a ``(n, length)`` bool array —
    the flattened form of health.py's condition-1 streak reduction."""
    n, length = marked.shape
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        best = 0
        run = 0
        for j in range(length):
            if marked[i, j]:
                run = 0
            else:
                run += 1
                if run > best:
                    best = run
        out[i] = best
    return out


@_jit
def lifetime_step_core(r, bottoms, m, b):
    """One lockstep arrival's masked check: is trial ``t``'s new fault
    row ``r[t]`` inside some incumbent band ``(r - bottom) mod m < b``?"""
    trials, k = bottoms.shape
    covered = np.zeros(trials, dtype=np.bool_)
    for t in range(trials):
        for j in range(k):
            if (r[t] - bottoms[t, j]) % m < b:
                covered[t] = True
                break
    return covered


@_jit
def traffic_arbitrate_core(wanted, cls_live, num_classes):
    """One cycle of link arbitration over the live messages.

    ``wanted``/``cls_live`` are aligned with the ascending live-id order,
    so a *stable* argsort on the composite key ``wanted * num_classes +
    class`` reproduces ``np.lexsort((live, cls[live], wanted))`` exactly
    (``cls_live < num_classes`` by construction, so the key packs without
    collisions).  Returns ``(winner_positions, max_depth)``: positions
    into the live order of each contended link's winner, and the deepest
    queue this cycle.
    """
    n = wanted.shape[0]
    order = np.argsort(wanted * num_classes + cls_live, kind="mergesort")
    winners = np.empty(n, dtype=np.int64)
    count = 0
    max_depth = 0
    run = 0
    for i in range(n):
        if i == 0 or wanted[order[i]] != wanted[order[i - 1]]:
            winners[count] = order[i]
            count += 1
            if run > max_depth:
                max_depth = run
            run = 1
        else:
            run += 1
    if run > max_depth:
        max_depth = run
    return winners[:count], max_depth
