"""Batched lifetime kernel for ``B^d_n`` uniform fault timelines.

Advances a whole chunk of lifetime trials in lockstep over arrival
steps: each trial's fault order comes from the *same* RNG stream as the
scalar path (``spawn_rng(seed, "lifetime", n, d)``, one permutation
draw — the PR 2 RNG-compatibility contract), the per-step masked check
is one broadcasted modular comparison over all live trials, fault
stacks/row profiles are maintained as ``(trials, …)`` arrays, and the
straight-cover greedy runs only for the trials whose new fault escaped
the current bands.

Outcome identity with the scalar path holds by construction, not by
luck: the kernel replays the *same decision sequence* —

1. masked check against the incumbent straight bottoms (the scalar
   masked predicate restricted to straight bands, where every column is
   identical);
2. on an unmasked arrival, the same ``_cover_rows_cyclic`` greedy on the
   same fault-row profile; cheap vectorized gap/coverage re-checks guard
   the result, and any discrepancy reruns the scalar
   ``place_straight_rows`` so even defensive failures match;
3. when the straight cover fails under the ``auto`` strategy, the same
   paper-pipeline recovery the scalar path would run; if the paper
   strategy *survives* (non-straight incumbent — rare), the whole trial
   is delegated to the scalar ``lifetime_trial``, the ground truth.

First-failure times, failure categories and masked/replaced tallies are
therefore trial-for-trial identical (asserted in tests/test_fastpath.py).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.api.lifetime import LifetimeOutcome
from repro.core.placement import _cover_rows_cyclic, place_straight_rows
from repro.errors import ReconstructionError
from repro.fastpath.streaming import iter_seed_slices, record_buffer
from repro.util.rng import spawn_rng

__all__ = ["run_bn_lifetime_batch"]


def _greedy_bottoms(params, rows: np.ndarray) -> np.ndarray | None:
    """The scalar repair's straight cover for one trial, verified cheaply.

    Returns sorted bottoms, or ``None`` when the greedy (or its
    validation) fails — i.e. when the scalar path would fall through to
    the paper strategy.  The vectorized re-checks mirror
    ``place_straight_rows``'s validation; on any mismatch the scalar
    function itself is rerun so failure behaviour is bit-identical.
    """
    m, b, K = params.m, params.b, params.num_bands
    try:
        bots = np.sort(np.asarray(_cover_rows_cyclic(rows, m, b, K), dtype=np.int64))
    except ReconstructionError:
        return None
    gaps_ok = bool(
        len(bots) == K
        and (
            K == 1
            or (
                (np.diff(bots) >= b + 1).all()
                and (bots[0] + m - bots[-1]) >= b + 1
            )
        )
    )
    covered_ok = bool(
        len(rows) == 0 or (((rows[None, :] - bots[:, None]) % m) < b).any(axis=0).all()
    )
    if gaps_ok and covered_ok:
        return bots
    # Defensive divergence: reproduce the scalar call exactly.
    try:
        return place_straight_rows(params, rows).bottoms[:, 0]
    except ReconstructionError:
        return None


def run_bn_lifetime_batch(
    adapter, spec, seeds: Sequence[int], max_batch_bytes: int | None = None
) -> list[LifetimeOutcome]:
    """Batched equivalent of ``[adapter.lifetime_trial(spec, s) for s in seeds]``.

    Requires a uniform timeline without repairs and the ``auto`` or
    ``straight`` strategy (callers gate on
    ``adapter.supports_lifetime_batch``).

    Trials advance in lockstep but are mutually independent, so the seed
    list streams through the kernel in ``max_batch_bytes``-sized slices
    (dominant per-trial state: the ``limit``-long arrival order and row
    arrays) with identical outcomes — see ``fastpath/streaming.py``.
    """
    params = adapter.params
    size = params.num_nodes
    limit = size if spec.max_steps is None else min(spec.max_steps, size)
    per_trial = 16 * limit + params.m + 8 * params.num_bands
    outcomes: list[LifetimeOutcome] = []
    for sub in iter_seed_slices(seeds, per_trial, max_batch_bytes):
        outcomes.extend(_run_lifetime_slice(adapter, spec, sub))
    return outcomes


def _run_lifetime_slice(adapter, spec, seeds: Sequence[int]) -> list[LifetimeOutcome]:
    """One resident slice of the lockstep kernel (the pre-streaming body)."""
    torus = adapter.torus
    params = adapter.params
    m, b = params.m, params.b
    shape = params.shape
    size = params.num_nodes
    num_cols = size // m
    limit = size if spec.max_steps is None else min(spec.max_steps, size)
    trials = len(seeds)

    orders = np.empty((trials, limit), dtype=np.int64)
    record_buffer(orders.nbytes * 2)  # orders plus the derived rows array
    for i, seed in enumerate(seeds):
        rng = spawn_rng(seed, "lifetime", params.n, params.d)
        orders[i] = rng.permutation(size)[:limit]
    rows = orders // num_cols

    fault_rows = np.zeros((trials, m), dtype=bool)
    bottoms = np.tile(_greedy_bottoms(params, np.array([], dtype=np.int64)), (trials, 1))
    active = np.ones(trials, dtype=bool)     # still advancing in the kernel
    delegate = np.zeros(trials, dtype=bool)  # paper placement survived: scalar replay
    lifetime = np.full(trials, limit, dtype=np.int64)
    steps = np.full(trials, limit, dtype=np.int64)
    masked_ct = np.zeros(trials, dtype=np.int64)
    replaced_ct = np.zeros(trials, dtype=np.int64)
    failed = np.zeros(trials, dtype=bool)
    category = ["ok"] * trials

    for k in range(limit):
        if not active.any():
            break
        r = rows[:, k]
        covered = ((r[:, None] - bottoms) % m < b).any(axis=1)
        act_idx = np.flatnonzero(active)
        fault_rows[act_idx, r[act_idx]] = True
        masked_ct[active & covered] += 1
        for t in np.flatnonzero(active & ~covered):
            bots = _greedy_bottoms(params, np.flatnonzero(fault_rows[t]))
            if bots is not None:
                bottoms[t] = bots
                replaced_ct[t] += 1
                continue
            if adapter.strategy == "straight":
                exc = _scalar_straight_error(params, fault_rows[t])
                active[t] = False
                failed[t] = True
                category[t] = exc
                lifetime[t] = k
                steps[t] = k + 1
                continue
            # The scalar auto chain's paper fallback, on this trial's
            # reconstructed fault stack slice.
            stack = np.zeros(size, dtype=bool)
            stack[orders[t, : k + 1]] = True
            try:
                torus.recover(stack.reshape(shape), strategy="paper")
            except ReconstructionError as exc:
                active[t] = False
                failed[t] = True
                category[t] = exc.category
                lifetime[t] = k
                steps[t] = k + 1
            else:
                # Paper placement survived: the incumbent is no longer
                # straight, so this trial leaves the kernel and is
                # replayed on the scalar path (identical by determinism).
                active[t] = False
                delegate[t] = True

    outcomes: list[LifetimeOutcome] = []
    for i, seed in enumerate(seeds):
        if delegate[i]:
            outcomes.append(adapter.lifetime_trial(spec, seed))
            continue
        outcomes.append(
            LifetimeOutcome(
                lifetime=int(lifetime[i]),
                steps=int(steps[i]),
                category=category[i],
                failed=bool(failed[i]),
                masked=int(masked_ct[i]),
                replaced=int(replaced_ct[i]),
                repaired=0,
            )
        )
    return outcomes


def _scalar_straight_error(params, row_profile: np.ndarray) -> str:
    """The exact failure category the scalar ``straight`` strategy reports."""
    try:
        place_straight_rows(params, np.flatnonzero(row_profile))
    except ReconstructionError as exc:
        return exc.category
    raise AssertionError("straight cover unexpectedly succeeded")  # pragma: no cover
