"""Batched fault injection + survival classification for ``B^d_n``.

The scalar profile of a survival trial at Theorem 2's fault rate is
dominated by torus extraction and embedding verification — work that is
provably redundant once a *straight* band placement validates: for
straight bands every Lemma 6 transition is the identity, the unmasked
rows of column 0 are the whole embedding, and validation (count, slope,
untouching, coverage) already implies the extraction invariants.  The
batched backend therefore works on a block of trials at a time:

1. derives every trial's generator for the whole block at once
   (:func:`repro.util.rng.iter_rngs` — the *same* streams as the scalar
   path, RNG-compatibility contract) and stacks the per-trial draws into
   one ``(trials, *shape)`` boolean array;
2. reduces the stack to faulty-row profiles ``(trials, m)`` and decides
   the straight-cover greedy with array operations: empty profiles in
   closed form, the greedy's "latest" sweep as at most ``K + 1`` gathers
   from a next-faulty-row table, padding feasibility as a sum of free-arc
   capacities, the padding itself in the scalar arc order, and the
   "earliest" sweep for the few trials the latest one cannot decide —
   :func:`_straight_cover`, the classifier the lifetime kernel shares,
   which returns the scalar greedy's exact bottoms;
3. re-verifies coverage of every produced band set on ``(trials, m)``
   masks (defence in depth: a mismatch demotes the trial);
4. classifies covered trials as straight-strategy successes and delegates
   every other trial (greedy failure, paper-strategy territory,
   adversarial specs) to the scalar path, which is the ground truth.

Steps 1-3 replace the per-trial Python loops; step 4 guarantees the
outcome sequence is identical to the scalar backend for every seed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.api.outcome import TrialOutcome
from repro.core.params import BnParams
from repro.fastpath.streaming import iter_seed_slices, record_buffer
from repro.util.rng import iter_rngs, spawn_rng

__all__ = ["bn_bytes_per_trial", "cover_bytes_per_trial", "run_bn_batch",
           "sample_bn_faults_batch", "straight_survival_batch"]


def cover_bytes_per_trial(m: int, K: int) -> int:
    """Per-trial bytes :func:`_straight_cover` holds at its peak, beyond
    the caller's ``(T, m)`` profiles: the sweep's bool copy of the profile
    with two int32 sweep tables (next-fault distances and gaps), then the
    int64 band arrays: ``K`` cover bottoms, ``K + 2`` sweep bottoms and
    their ``K + 1`` arc gaps.  (The padding's arrays and the re-check's two
    bool masks come after the sweep tables are freed.)"""
    return m + 2 * 4 * m + 8 * (3 * K + 3)


def bn_bytes_per_trial(params: BnParams) -> int:
    """Per-trial working-set bytes of the bn survival kernel at its peak:
    the bool fault stack slice, its bool row profile, and what the
    shared classifier holds at once per trial
    (:func:`cover_bytes_per_trial`).  Sampling temporaries are one
    trial's draw, whatever the slice size, so they are not per trial."""
    m, K = params.m, params.num_bands
    return int(np.prod(params.shape)) + m + cover_bytes_per_trial(m, K)


def sample_bn_faults_batch(
    torus, p: float, q: float, seeds: Sequence[int], out: np.ndarray | None = None
) -> np.ndarray:
    """Stack per-seed fault draws into a ``(trials, *shape)`` array.

    Each slice reuses :meth:`BTorus.sample_faults` with a generator in the
    state of the scalar trial's ``spawn_rng(seed, "bn-trial", n, d)``
    (derived for all seeds at once by :func:`~repro.util.rng.iter_rngs`),
    so slice ``i`` is bit-identical to what ``BTorus.trial(p, seeds[i],
    q=q)`` samples.  ``out`` lets streaming callers reuse one preallocated
    buffer across sub-chunks instead of allocating a fresh stack per call.
    """
    params = torus.params
    if out is None:
        out = np.empty((len(seeds),) + params.shape, dtype=bool)
        record_buffer(out.nbytes)
    for i, rng in enumerate(iter_rngs(seeds, "bn-trial", params.n, params.d)):
        out[i] = torus.sample_faults(p, rng, q=q)
    return out


def _latest_sweep(rows: np.ndarray, b: int, K: int):
    """The "latest" variant of ``_cover_rows_cyclic`` on non-empty
    ``(T, m)`` profiles, for all trials at once: each bottom starts at
    the faulty row it must cover.

    Returns ``(accepted, rejected, bottoms)``: ``accepted`` trials are
    greedy successes, and ``bottoms[t]`` (``(T, K)``) is then exactly the
    scalar greedy's sorted bottoms, padding included; ``rejected`` trials
    are certain failures (no ``b + 1``-row gap anywhere, or the sweep
    succeeds but padding to ``K`` bands cannot); every other trial is
    decided by the "earliest" variant, as in the scalar greedy.  Rows of
    ``bottoms`` for trials that are not accepted are meaningless.
    """
    return _sweep(rows, b, K, lift=0)


def _sweep(rows: np.ndarray, b: int, K: int, lift: int):
    """One greedy sweep of ``_cover_rows_cyclic`` for all trials at once:
    every bottom sits ``lift`` rows below the first faulty row the bands
    so far leave uncovered, but at least ``b + 1`` above its predecessor.
    ``lift = 0`` is the "latest" variant; ``lift = b - 1`` the "earliest"
    one, which places each bottom as low as the spacing allows and which
    the scalar greedy tries when the latest one fails.  Returns as
    :func:`_latest_sweep`."""
    trials, m = rows.shape
    # dist[t, x]: cyclic distance from row x to the first faulty row at or
    # after it (int32: row indices of any fault stack that fits in memory).
    col = np.arange(m, dtype=np.int32)
    dist = np.where(rows, col, np.int32(m))
    np.minimum.accumulate(dist[:, ::-1], axis=1, out=dist[:, ::-1])
    first = dist[:, :1].copy()
    wrapped = dist == m
    dist -= col
    np.add(dist, first, out=dist, where=wrapped)
    del wrapped
    # The greedy cuts the cycle after the first largest gap between
    # consecutive faulty rows; row x's gap is 1 + dist[x + 1].
    gaps = np.roll(dist, -1, axis=1)
    gaps += 1
    gaps *= rows
    cut = gaps.argmax(axis=1)
    widest = gaps[np.arange(trials), cut].astype(np.int64)
    del gaps
    start = cut + widest          # first faulty row, linear coordinates
    end = start + m               # the sweep covers rows [start, end)
    decidable = widest >= b + 1

    flat = dist.ravel()
    base = np.arange(trials, dtype=np.int64) * m
    cur = start - lift            # first bottom
    sweep = np.repeat((cur + m)[:, None], K + 2, axis=1)
    sweep[:, 0] = cur
    count = np.ones(trials, dtype=np.int64)
    ok = decidable.copy()
    active = decidable
    for k in range(1, K + 1):
        reach = cur + b
        nxt = reach + flat[base + reach % m]
        active = active & (nxt < end)
        if not active.any():
            break
        # The first faulty row a band leaves uncovered lies at least b
        # rows above its bottom; exactly b breaks the b + 1 spacing.
        ok &= ~(active & (nxt - cur == b))
        bottom = np.maximum(nxt - lift, cur + b + 1)
        sweep[:, k] = np.where(active, bottom, sweep[:, k])
        cur = np.where(active, bottom, cur)
        count += active
    del flat, dist
    ok &= (count <= K) & ((count == 1) | (sweep[:, 0] + m - cur >= b + 1))
    # Padding: each free arc between consecutive bottoms (and the closing
    # arc back to the first bottom + m) fits gap // (b + 1) - 1 extra
    # bottoms.
    used = np.arange(K + 1) < count[:, None]
    capacity = (np.diff(sweep, axis=1) // (b + 1) - 1) * used
    feasible = capacity.sum(axis=1) >= K - count
    accepted = ok & feasible
    rejected = ~decidable | (ok & ~feasible)
    return accepted, rejected, _pad_cyclic_batch(sweep, capacity, count, b, K, m)


def _pad_cyclic_batch(sweep, capacity, count, b: int, K: int, m: int) -> np.ndarray:
    """Vectorised ``_pad_cyclic``: the sorted ``(T, K)`` bottoms after
    padding each trial's ``count`` sweep bottoms with ``K - count`` more.

    ``sweep`` holds the bottoms in linear coordinates (below ``3 m``)
    with the closing bottom, the first one ``+ m``, after the last one;
    ``capacity[t, j]`` is how many extra bottoms fit strictly inside arc
    ``j`` (meaningless past ``count``; overwritten).  The scalar loop
    fills the arc of largest capacity first, ties going to the later
    bottom, and each fill exhausts its arc — so arcs fill in the order of
    one sort key, and an arc that gains ``g`` bottoms holds ``g + 1``
    bottoms ``b + 1`` apart from its own.  Trials whose padding is
    infeasible get meaningless rows.
    """
    radix = 3 * m
    used = np.arange(K + 1) < count[:, None]
    # Sort key: capacity, then the arc's bottom (later bottoms are larger
    # in linear coordinates); unused arcs sort last.
    np.maximum(capacity, 0, out=capacity)
    capacity *= radix
    capacity += sweep[:, : K + 1]
    capacity[~used] = -1
    capacity.sort(axis=1)
    key = capacity[:, ::-1]
    first = key % radix                              # each arc's own bottom
    room = key // radix
    gain = np.cumsum(room, axis=1)
    np.subtract(gain, room, out=gain)
    np.subtract((K - count)[:, None], gain, out=gain)
    np.maximum(gain, 0, out=gain)
    np.minimum(gain, room, out=gain)                 # bottoms each arc gains
    del key, room, capacity
    # Lay the arcs' runs out one after another as steps of b + 1, with a
    # jump to each run's first bottom; unused arcs land past slot K - 1.
    size = gain + 1
    size *= used
    start = np.cumsum(size, axis=1)
    start -= size
    step = np.full((len(count), K + 1), b + 1, dtype=np.int64)
    gain *= b + 1
    gain += first                                    # each run's last bottom
    first[:, 1:] -= gain[:, :-1]
    step[np.arange(len(count))[:, None], start] = first
    bottoms = np.cumsum(step[:, :K], axis=1)
    bottoms %= m
    bottoms.sort(axis=1)
    return bottoms


def _straight_cover(fault_rows: np.ndarray, b: int, K: int):
    """The straight-cover classifier of both bn kernels: exactly
    ``_cover_rows_cyclic`` over ``(T, m)`` row profiles.

    Returns ``(ok, bottoms)``: ``ok[t]`` is exactly whether the scalar
    greedy succeeds on trial ``t``, and then ``bottoms[t]`` (``(T, K)``
    int64) is exactly its sorted bottoms; failed trials read 0.  Empty
    profiles are a closed form, the "latest" sweep decides most others,
    and the "earliest" sweep the rest, in the scalar greedy's order.
    """
    trials, m = fault_rows.shape
    ok = np.zeros(trials, dtype=bool)
    bottoms = np.zeros((trials, K), dtype=np.int64)
    nonempty = fault_rows.any(axis=1)
    # Closed form: an empty profile succeeds iff K evenly spaced bands fit.
    if m // K >= b + 1:
        ok[~nonempty] = True
        bottoms[~nonempty] = np.arange(K, dtype=np.int64) * (m // K)
    live = np.flatnonzero(nonempty)
    if live.size == 0:
        return ok, bottoms
    accepted, rejected, sweep_bottoms = _latest_sweep(fault_rows[live], b, K)
    ok[live[accepted]] = True
    bottoms[live[accepted]] = sweep_bottoms[accepted]
    undecided = live[~(accepted | rejected)]
    if undecided.size:
        # Both variants failing is a failure, so whatever the earliest
        # sweep does not accept is one.
        accepted, _, sweep_bottoms = _sweep(fault_rows[undecided], b, K, lift=b - 1)
        ok[undecided[accepted]] = True
        bottoms[undecided[accepted]] = sweep_bottoms[accepted]
    return ok, bottoms


def _masks_cover(fault_rows: np.ndarray, bottoms: np.ndarray, b: int) -> np.ndarray:
    """Per trial: does every faulty row lie in some band ``[bottom,
    bottom + b)`` (cyclic)?  Built on ``(T, m)`` bool masks."""
    trials, m = fault_rows.shape
    starts = np.zeros((trials, m), dtype=bool)
    starts[np.arange(trials)[:, None], bottoms] = True
    masked = starts.copy()
    for j in range(1, b):
        masked[:, j:] |= starts[:, : m - j]
        masked[:, :j] |= starts[:, m - j :]
    del starts
    np.greater(fault_rows, masked, out=masked)  # faulty and unmasked
    return ~masked.any(axis=1)


def straight_survival_batch(
    params: BnParams, faults: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Classify a ``(trials, *shape)`` fault stack by straight-band cover.

    Returns ``(covered, fault_rows)``: ``covered[t]`` is True when the
    straight-cover greedy succeeds for trial ``t`` *and* the batched
    re-check confirms its bands mask every faulty row — exactly the
    trials where the scalar ``auto`` strategy succeeds via its straight
    fast path.  ``fault_rows`` is the ``(trials, m)`` faulty-row profile
    (reused by callers for diagnostics).
    """
    trials = faults.shape[0]
    m, b, K = params.m, params.b, params.num_bands
    fault_rows = faults.reshape(trials, m, -1).any(axis=2)
    greedy_ok, bottoms = _straight_cover(fault_rows, b, K)
    # Defence in depth: confirm the covers really mask every faulty row.
    # Any mismatch demotes the trial to the scalar path instead of
    # trusting the vectorized classification.
    covered = greedy_ok & _masks_cover(fault_rows, bottoms, b)
    return covered, fault_rows


def run_bn_batch(
    adapter, spec, seeds: Sequence[int], max_batch_bytes: int | None = None,
) -> list[TrialOutcome]:
    """Batched equivalent of ``[adapter.trial(spec, s) for s in seeds]``.

    Requires a Bernoulli ``spec`` and the ``auto`` or ``straight``
    placement strategy (callers gate on ``adapter.supports_batch``).
    Outcome sequences are identical to the scalar path: fast-classified
    trials match it by the straight-placement argument above, and every
    other trial literally runs it.

    The fault stack streams through one preallocated buffer in seed
    slices sized by ``max_batch_bytes`` (see ``fastpath/streaming.py``),
    so peak memory is bounded by the budget, not the number of seeds.
    Trials are sampled and classified independently, so slicing the seed
    axis cannot change any outcome.
    """
    torus = adapter.torus
    params = adapter.params
    model = None
    if spec.fault_model is not None:
        from repro.faults.registry import make_fault_model

        model = make_fault_model(spec.fault_model)
        model_keys = adapter._trial_keys(spec)
    outcomes: list[TrialOutcome] = []
    buf: np.ndarray | None = None
    for sub in iter_seed_slices(seeds, bn_bytes_per_trial(params), max_batch_bytes):
        if buf is None or buf.shape[0] < len(sub):
            buf = np.empty((len(sub),) + params.shape, dtype=bool)
            record_buffer(buf.nbytes)
        if model is not None:
            # Same per-seed draws as the generic adapter trial: the model
            # samples from its ``_trial_rng`` stream (keyed by the model
            # token).  Model samplers are not the hot path; their generators
            # stay per seed.
            faults = buf[: len(sub)]
            for i, seed in enumerate(sub):
                faults[i] = model.sample(params.shape, spawn_rng(seed, *model_keys))
        else:
            faults = sample_bn_faults_batch(
                torus, spec.p, spec.q, sub, out=buf[: len(sub)]
            )
        trials = len(sub)
        num_faults = faults.reshape(trials, -1).sum(axis=1)
        covered, _ = straight_survival_batch(params, faults)
        if model is not None:
            # Model specs run the *generic* scalar trial, which reports no
            # strategy or health — covered trials emit its exact outcome.
            for t, seed in enumerate(sub):
                if covered[t]:
                    outcomes.append(
                        TrialOutcome(
                            success=True, category="ok",
                            num_faults=int(num_faults[t]),
                        )
                    )
                else:
                    outcomes.append(adapter.trial(spec, seed))
            continue
        healths = None
        if adapter.check_health and covered.any():
            # Only the fast-classified slices: fallback trials recompute their
            # health inside the scalar path anyway, so checking them here would
            # double the dominant cost of the high-fault-rate regime.
            from repro.fastpath.health import check_healthiness_batch

            reports = check_healthiness_batch(params, faults[covered], torus.geo)
            healths = dict(zip(np.flatnonzero(covered).tolist(), reports))
        for t, seed in enumerate(sub):
            if covered[t]:
                health = healths[t] if healths is not None else None
                outcomes.append(
                    TrialOutcome(
                        success=True,
                        category="ok",
                        healthy=None if health is None else health.healthy,
                        num_faults=int(num_faults[t]),
                        strategy_used="straight",
                        health=health,
                    )
                )
            else:
                outcomes.append(adapter.trial(spec, seed))
    return outcomes
