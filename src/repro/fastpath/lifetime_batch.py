"""Batched lifetime kernel for ``B^d_n`` uniform fault timelines.

Advances a block of lifetime trials in lockstep over arrival steps:
each trial's fault order comes from the *same* RNG stream as the scalar
path (``adapter.lifetime_rng(seed)``, one permutation draw — the
RNG-compatibility contract) and is held in the smallest unsigned type
that fits a node id; each step derives its fault rows from one
column of it, the masked check is one broadcasted modular comparison
over all live trials, and fault-row profiles are maintained as
``(trials, m)`` arrays.

Outcome identity with the scalar path holds by construction, not by
luck: the kernel replays the *same decision sequence* —

1. masked check against the incumbent straight bottoms (the scalar
   masked predicate restricted to straight bands, where every column is
   identical);
2. the arrivals that escape their bands get the straight cover of their
   trial's faulty-row profile from the classifier the survival kernel
   shares (``bn_batch._straight_cover``), which returns exactly
   ``_cover_rows_cyclic``'s sorted bottoms — the tallies depend on them,
   not just on coverage; cheap vectorized spacing/coverage re-checks
   guard the result, and any discrepancy reruns the scalar
   ``place_straight_rows`` so even defensive failures match.  A cover is
   a pure function of the profile, and the arrival order fixes the
   profile after every step, so the classifier runs once per block of
   :data:`STEP_BLOCK` steps, on every active trial's profile after each
   step of the block; the masked/replaced decisions are then replayed
   step by step from those covers;
3. a failed straight cover ends the trial in the kernel, and the slice
   classifies all of them after its blocks.  Under the ``auto``
   strategy the scalar path's ``BTorus.recover`` runs the paper
   *placement* first (``place_bands(..., strategy="paper")``), and that
   starts with ``paint_tiles``, which raises ``no-frame`` exactly when
   some faulty tile lies in no fault-free s-frame.  So one batched frame
   test (:func:`~repro.fastpath.health.faulty_tiles_framed`, Lemma 4's
   condition 3) over every failed trial's faulty-tile grid finds the
   ``no-frame`` deaths, and only the other trials run the placement: if
   it raises, that is the category the scalar path reports; if it
   succeeds (non-straight incumbent — rare), the whole trial is
   delegated to the scalar ``lifetime_trial``, the ground truth, so the
   kernel never extracts or verifies a torus itself.  Under
   ``straight``, ``place_straight_rows`` names the category.

First-failure times, failure categories and masked/replaced tallies are
therefore trial-for-trial identical (asserted in tests/test_fastpath.py).
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from repro.api.lifetime import LifetimeOutcome
from repro.core.placement import place_bands, place_straight_rows
from repro.errors import ReconstructionError
from repro.fastpath.bn_batch import _masks_cover, _straight_cover, cover_bytes_per_trial
from repro.fastpath.health import faulty_tiles_framed
from repro.fastpath.streaming import iter_seed_slices, record_buffer

__all__ = ["STEP_BLOCK", "lifetime_bytes_per_trial", "run_bn_lifetime_batch"]

#: Arrival steps per straight-classifier call.  At b=4 most trials die
#: within 16 arrivals, so a 48-trial slice makes one or two calls instead
#: of one per step.
STEP_BLOCK = 16


def _straight_repairs(params, profiles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scalar repair's straight covers for a ``(U, m)`` stack of
    faulty-row profiles, verified cheaply.

    Returns ``(ok, bottoms)``: ``bottoms[u]`` is the sorted cover the
    scalar ``place_straight_rows`` returns for profile ``u`` whenever
    ``ok[u]``; ``ok`` is False where it raises, i.e. where the scalar
    path falls through to the paper strategy.  The bottoms come from the
    shared classifier (``bn_batch._straight_cover``); the re-checks
    mirror ``place_straight_rows``'s validation, and any profile whose
    cover fails them reruns the scalar function itself, so even
    defensive failures match.
    """
    m, b, K = params.m, params.b, params.num_bands
    ok, bottoms = _straight_cover(profiles, b, K)
    spaced = (np.diff(bottoms, axis=1) >= b + 1).all(axis=1)
    spaced &= bottoms[:, 0] + m - bottoms[:, -1] >= b + 1
    checked = ok & (spaced | (K == 1)) & _masks_cover(profiles, bottoms, b)
    for u in np.flatnonzero(ok & ~checked).tolist():
        # Defensive divergence: reproduce the scalar call exactly.
        try:
            bottoms[u] = place_straight_rows(params, np.flatnonzero(profiles[u])).bottoms[:, 0]
        except ReconstructionError:
            continue
        checked[u] = True
    return checked, bottoms


def run_bn_lifetime_batch(
    adapter, spec, seeds: Sequence[int], max_batch_bytes: int | None = None
) -> list[LifetimeOutcome]:
    """Batched equivalent of ``[adapter.lifetime_trial(spec, s) for s in seeds]``.

    Requires a uniform timeline without repairs and the ``auto`` or
    ``straight`` strategy (callers gate on
    ``adapter.supports_lifetime_batch``).

    Trials advance in lockstep but are mutually independent, so the seed
    list streams through the kernel in ``max_batch_bytes``-sized slices
    with identical outcomes — see ``fastpath/streaming.py``.
    """
    per_trial = lifetime_bytes_per_trial(adapter.params, spec.max_steps)
    outcomes: list[LifetimeOutcome] = []
    for sub in iter_seed_slices(seeds, per_trial, max_batch_bytes):
        outcomes.extend(_run_lifetime_slice(adapter, spec, sub))
    return outcomes


def lifetime_bytes_per_trial(params, max_steps: int | None = None) -> int:
    """Per-trial working-set bytes of the lifetime kernel at its peak: the
    ``limit``-long arrival order in the smallest unsigned type that holds
    a node id, the bool row profile and the copy a block takes of it, the
    int64 incumbent bottoms, the tallies (three int64, one bool and a
    list slot: under 48 bytes), and one block's footprint — per step, the
    int64 arrival row, the bool prefix profile and what the shared
    classifier holds for it (:func:`cover_bytes_per_trial`).  The
    one-trial permutation draw is not per trial, and the frame test after
    the blocks holds less than a block: per failed trial under 100 bytes
    per tile and 40 per arrival before its failed cover (trials die
    within tens of arrivals at the shapes the kernel serves)."""
    size = params.num_nodes
    limit = size if max_steps is None else min(max_steps, size)
    m, K = params.m, params.num_bands
    return (np.min_scalar_type(size).itemsize * limit + 2 * m + 8 * K + 48
            + STEP_BLOCK * (8 + m + cover_bytes_per_trial(m, K)))


def _run_lifetime_slice(adapter, spec, seeds: Sequence[int]) -> list[LifetimeOutcome]:
    """One resident slice of the lockstep kernel (the pre-streaming body)."""
    params = adapter.params
    m, b, K = params.m, params.b, params.num_bands
    size = params.num_nodes
    num_cols = size // m
    limit = size if spec.max_steps is None else min(spec.max_steps, size)
    trials = len(seeds)

    # Node ids in the smallest type that holds them; each step derives
    # its rows from one column.
    orders = np.empty((trials, limit), dtype=np.min_scalar_type(size))
    record_buffer(orders.nbytes)
    for i, seed in enumerate(seeds):
        orders[i] = adapter.lifetime_rng(seed).permutation(size)[:limit]

    fault_rows = np.zeros((trials, m), dtype=bool)
    # Every trial's first incumbent: the scalar path's cover of the empty
    # profile.
    empty = place_straight_rows(params, np.empty(0, dtype=np.int64)).bottoms[:, 0]
    bottoms = np.repeat(empty[None, :], trials, axis=0)
    active = np.ones(trials, dtype=bool)  # still advancing in the kernel
    cut = np.full(trials, -1, dtype=np.int64)  # step whose straight cover failed
    masked_ct = np.zeros(trials, dtype=np.int64)
    replaced_ct = np.zeros(trials, dtype=np.int64)

    for k0 in range(0, limit, STEP_BLOCK):
        act = np.flatnonzero(active)
        if act.size == 0:
            break
        width = min(STEP_BLOCK, limit - k0)
        rows = orders[act, k0 : k0 + width].astype(np.int64) // num_cols
        # Each active trial's faulty-row profile after every step of the
        # block, classified in one call.
        prefix = np.zeros((act.size, width, m), dtype=bool)
        prefix[np.arange(act.size)[:, None], np.arange(width), rows] = True
        np.logical_or.accumulate(prefix, axis=1, out=prefix)
        prefix |= fault_rows[act, None, :]
        ok, covers = _straight_repairs(params, prefix.reshape(-1, m))
        ok = ok.reshape(act.size, width)
        covers = covers.reshape(act.size, width, K)

        # Replay the block's steps against the incumbent covers; a failed
        # cover ends the trial here, and is classified after the blocks.
        cur = bottoms[act]
        live = np.ones(act.size, dtype=bool)
        for j in range(width):
            covered = ((rows[:, j, None] - cur) % m < b).any(axis=1)
            masked_ct[act[live & covered]] += 1
            unmasked = np.flatnonzero(live & ~covered)
            repaired = ok[unmasked, j]
            fixed = unmasked[repaired]
            cur[fixed] = covers[fixed, j]
            replaced_ct[act[fixed]] += 1
            dead = unmasked[~repaired]
            live[dead] = False
            cut[act[dead]] = k0 + j
            if not live.any():
                break
        bottoms[act] = cur
        fault_rows[act] = prefix[:, -1]
        active[act] = live

    # Classify the failed covers.  Under ``auto`` a trial with a frameless
    # faulty tile dies ``no-frame`` without painting: ``paint_tiles``
    # skips a faulty tile only when an earlier fault-free frame encloses
    # it, so it raises ``no-frame`` exactly then (step 3 above).
    category: list[str | None] = ["ok"] * trials
    dead = np.flatnonzero(cut >= 0)
    framed = np.ones(dead.size, dtype=bool)
    if adapter.strategy == "auto" and dead.size:
        framed = _all_framed(adapter.torus.geo, orders, dead, cut[dead] + 1)
    for t, ok in zip(dead.tolist(), framed.tolist()):
        category[t] = _cover_failure(adapter, orders[t, : cut[t] + 1]) if ok else "no-frame"
    outcomes: list[LifetimeOutcome] = []
    for i, seed in enumerate(seeds):
        if category[i] is None:
            # Paper placement survived: the incumbent is no longer
            # straight, so this trial left the kernel and is replayed on
            # the scalar path (identical by determinism).
            outcomes.append(adapter.lifetime_trial(spec, seed))
            continue
        k = int(cut[i])
        outcomes.append(
            LifetimeOutcome(
                lifetime=limit if k < 0 else k,
                steps=limit if k < 0 else k + 1,
                category=category[i],
                failed=k >= 0,
                masked=int(masked_ct[i]),
                replaced=int(replaced_ct[i]),
                repaired=0,
            )
        )
    return outcomes


def _all_framed(geo, orders: np.ndarray, trials: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per trial ``trials[i]``: whether, after its first ``lengths[i]``
    arrivals, every faulty tile lies in some fault-free s-frame.  One
    gather maps the arrival prefixes to tiles, and
    :func:`~repro.fastpath.health.faulty_tiles_framed` tests every
    trial's tile grid at once."""
    num = trials.size
    total = int(lengths.sum())
    owner = np.repeat(np.arange(num), lengths)
    # Flat position of each prefix arrival in ``orders``.
    starts = trials * orders.shape[1] - (np.cumsum(lengths) - lengths)
    pos = np.arange(total) + np.repeat(starts, lengths)
    tiles = _node_tiles(geo.shape, geo.tile_side)[orders.ravel()[pos]]
    faulty = np.zeros((num, math.prod(geo.grid_shape)), dtype=bool)
    faulty[owner, tiles] = True
    return faulty_tiles_framed(faulty.reshape((num,) + geo.grid_shape), geo.b)


@functools.lru_cache(maxsize=8)
def _node_tiles(shape: tuple[int, ...], tile_side: int) -> np.ndarray:
    """Flat tile index of every flat node id of a ``shape`` torus cut into
    tiles of side ``tile_side``; built once per shape."""
    grid = tuple(side // tile_side for side in shape)
    coords = np.indices(shape).reshape(len(shape), -1) // tile_side
    tiles = np.ravel_multi_index(tuple(coords), grid)
    tiles.flags.writeable = False
    return tiles


def _cover_failure(adapter, order: np.ndarray) -> str | None:
    """The category the scalar path reports when the straight cover of a
    trial fails after the arrivals ``order``, or ``None`` where its
    ``auto`` chain survives on the paper placement (the placement that
    ``BTorus.recover(strategy="paper")`` runs first)."""
    params = adapter.params
    if adapter.strategy == "straight":
        rows = np.unique(order.astype(np.int64) // (params.num_nodes // params.m))
        try:
            place_straight_rows(params, rows)
        except ReconstructionError as exc:
            return exc.category
        raise AssertionError("straight cover unexpectedly succeeded")  # pragma: no cover
    stack = np.zeros(params.num_nodes, dtype=bool)
    stack[order] = True
    try:
        place_bands(params, stack.reshape(params.shape), strategy="paper",
                    geo=adapter.torus.geo)
    except ReconstructionError as exc:
        return exc.category
    return None
