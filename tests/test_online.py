"""Tests for online fault arrival, incremental repair and lifetime measurement.

The load-bearing assertion is the incremental-repair contract: the
incremental pipeline (placement recomputed from the maintained row
profile, embedding rebuilt by the straight fast extraction) must produce
the *same* placements, event sequences and lifetimes as the
full-recompute reference mode — asserted over 200 random timelines
spanning every timeline kind (the ISSUE 3 acceptance bar).  The case
list and the field-for-field comparison now live in ``repro.testkit``
(``strategies.timeline_cases``, ``oracles.repair_mode_oracle``); this
file invokes them and keeps the targeted event-level unit tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from collections import Counter

from repro.api.adapters import BnConstruction
from repro.api.lifetime import LifetimeOutcome, drive_timeline, lifetime_step, timeline_events
from repro.api.protocol import LifetimeSpec
from repro.core.bn import BTorus
from repro.core.online import OnlineRecovery
from repro.errors import ReconstructionError
from repro.testkit.oracles import repair_mode_oracle
from repro.testkit.strategies import timeline_cases
from repro.util.rng import spawn_rng


@pytest.fixture()
def online(bn2_small):
    return OnlineRecovery(BTorus(bn2_small))


def node(online, *coord) -> int:
    """Flat node id of a coordinate (live machines take flat ids)."""
    return int(np.ravel_multi_index(coord, online.faults.shape))


def lifetime(bn, seed, max_steps=None) -> int:
    """Uniform arrivals survived by the incremental live machine."""
    return bn.lifetime_trial(LifetimeSpec(max_steps=max_steps), seed).lifetime


class TestOnlineRecovery:
    def test_starts_clean(self, online):
        assert online.num_faults == 0
        assert online.recovery is not None

    def test_masked_fault_is_noop(self, online):
        # a node under band 0 of column 0 is already masked
        bottom = int(online.recovery.bands.bottoms[0, 0])
        assert online.add_fault(node(online, bottom, 0)) == "masked"

    def test_masked_fault_keeps_placement_object_identity(self, online):
        """The incremental-repair contract: masked events may not touch the
        placement — not even rebuild an equal one."""
        rec_before = online.recovery
        bands_before = online.recovery.bands
        bottom = int(online.recovery.bands.bottoms[0, 0])
        online.add_fault(node(online, bottom, 0))
        assert online.recovery is rec_before
        assert online.recovery.bands is bands_before

    def test_unmasked_fault_triggers_replacement(self, online):
        row = int(online.recovery.bands.unmasked_rows(0)[0])
        assert online.add_fault(node(online, row, 0)) == "replaced"
        assert online.recovery.stats.get("fast_straight")  # the incremental pipeline
        # new placement must mask it
        assert online._already_masked((row, 0))

    def test_fault_on_already_faulty_coordinate(self, online):
        """A repeat arrival on a faulty node is absorbed as masked: the
        fault count, row profile and placement all stay put."""
        row = int(online.recovery.bands.unmasked_rows(0)[0])
        online.add_fault(node(online, row, 0))
        n_before = online.num_faults
        rec_before = online.recovery
        profile_before = online._row_faults.copy()
        assert online.add_fault(node(online, row, 0)) == "masked"
        assert online.num_faults == n_before
        assert online.recovery is rec_before
        assert (online._row_faults == profile_before).all()

    def test_embedding_avoids_all_registered_faults(self, online):
        rows = online.recovery.bands.unmasked_rows(5)
        for r in rows[:2]:
            online.add_fault(node(online, int(r), 5))
        assert not online.faults.ravel()[online.recovery.phi].any()

    def test_failure_keeps_previous_state(self, online, bn2_small):
        # saturate: add faults until failure, previous recovery stays valid
        rng = np.random.default_rng(0)
        failed = False
        for flat in rng.permutation(bn2_small.num_nodes)[:60]:
            try:
                online.add_fault(int(flat))
            except ReconstructionError:
                failed = True
                break
        assert failed
        online.recovery.bands.validate()  # previous placement still valid

    def test_remove_fault_never_recomputes(self, online):
        row = int(online.recovery.bands.unmasked_rows(0)[0])
        online.add_fault(node(online, row, 0))
        rec = online.recovery
        online.remove_fault(node(online, row, 0))
        assert online.recovery is rec
        assert online.num_faults == 0
        assert online._row_faults.sum() == 0

    def test_repair_fraction_ignores_repair_events(self, online):
        out = LifetimeOutcome(lifetime=0, steps=0, category="ok", failed=False)
        bottom = int(online.recovery.bands.bottoms[0, 0])
        lifetime_step(online, out, "fault", node(online, bottom, 0))
        lifetime_step(online, out, "repair", node(online, bottom, 0))
        assert (out.masked, out.replaced, out.repaired) == (1, 0, 1)
        assert out.repair_fraction() == 0.0

    def test_masked_check_uses_shared_band_predicate(self, online):
        """_already_masked delegates to BandSet.covers — the same predicate
        coverage validation uses — for every node of a column."""
        bands = online.recovery.bands
        for row in range(online.bt.params.m):
            assert online._already_masked((row, 3)) == bool(
                bands.covers(np.array([row]), np.array([3]))[0]
            )


# ---------------------------------------------------------------------------
# Incremental == full recompute (ISSUE 3 acceptance: >= 200 random timelines)
# ---------------------------------------------------------------------------


class TestIncrementalEqualsFull:
    def test_200_random_timelines(self, bn2_small):
        """The full contract — identical outcomes, fault sets, placements
        and embeddings, plus structural validity of the survivor — over
        the canonical >= 200 timeline cases, via the testkit oracle."""
        cases = timeline_cases()
        assert len(cases) >= 200
        report = repair_mode_oracle(bn2_small, cases)
        assert report.cases == len(cases)
        report.raise_on_mismatch()

    def test_fault_lifetime_modes_agree(self, bn2_small):
        bn = BnConstruction(bn2_small)
        for seed in range(20):
            full = OnlineRecovery(bn.torus, incremental=False, strategy=bn.strategy)
            assert lifetime(bn, seed) == drive_timeline(
                LifetimeSpec(), full, bn.lifetime_rng(seed)
            ).lifetime

    def test_full_recompute_oracle_matches_current_state(self, online):
        rows = online.recovery.bands.unmasked_rows(0)
        for r in rows[:3]:
            online.add_fault(node(online, int(r), 0))
        oracle = online.full_recompute()
        assert (oracle.bands.bottoms == online.recovery.bands.bottoms).all()
        assert (oracle.phi == online.recovery.phi).all()


class TestLifetime:
    def test_lifetime_positive_and_reproducible(self, bn2_small):
        bn = BnConstruction(bn2_small)
        a = lifetime(bn, seed=1, max_steps=40)
        b = lifetime(bn, seed=1, max_steps=40)
        assert a == b
        assert a >= 3  # survives at least a few random faults

    def test_lifetime_cap(self, bn2_small):
        bn = BnConstruction(bn2_small)
        assert lifetime(bn, seed=2, max_steps=2) <= 2

    def test_lifetime_seed_determinism_across_instances(self, bn2_small):
        """Same seed, fresh construction objects: identical lifetime (the
        stream is keyed by (seed, 'lifetime', n, d), not object state)."""
        a = lifetime(BnConstruction(bn2_small), seed=11)
        b = lifetime(BnConstruction(bn2_small), seed=11)
        assert a == b
        assert lifetime(BnConstruction(bn2_small), seed=12) >= 0  # different stream runs

    def test_run_online_timeline_outcome_fields(self, bn2_small):
        bt = BTorus(bn2_small)
        online = OnlineRecovery(bt)
        out = drive_timeline(LifetimeSpec(), online, spawn_rng(0, "fields"))
        assert out.failed and out.category != "ok"
        assert out.lifetime == out.masked + out.replaced
        assert out.steps == out.lifetime + 1  # the killing arrival consumed a step

    def test_log_consistency(self, bn2_small):
        """The outcome's tallies count exactly the actions lifetime_step
        returned, event by event, drive_timeline keeps the same tallies,
        and repair_fraction reads them."""
        spec = LifetimeSpec(timeline="uniform", repair_rate=0.3, max_steps=60)
        online = OnlineRecovery(BTorus(bn2_small))
        out = LifetimeOutcome(lifetime=0, steps=0, category="ok", failed=False)
        actions = Counter(
            lifetime_step(online, out, ev.kind, ev.node)
            for ev in timeline_events(spec, online.faults.shape, spawn_rng(4, "log"))
        )
        assert actions["repaired"] == out.repaired > 0
        assert (actions["masked"], actions["replaced"]) == (out.masked, out.replaced)
        assert out.lifetime == out.masked + out.replaced
        driven = drive_timeline(spec, OnlineRecovery(BTorus(bn2_small)), spawn_rng(4, "log"))
        tallies = ("lifetime", "masked", "replaced", "repaired", "failed", "category")
        assert [getattr(driven, k) for k in tallies] == [getattr(out, k) for k in tallies]
        assert out.repair_fraction() == out.replaced / (out.masked + out.replaced)
