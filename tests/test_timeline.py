"""Fault-timeline generators: determinism, step grouping, repair composition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.timeline import (
    TIMELINE_KINDS,
    AdversarialTimeline,
    BernoulliTimeline,
    BurstTimeline,
    RepairTimeline,
    UniformTimeline,
    make_timeline,
)
from repro.util.rng import spawn_rng

SHAPE = (12, 9)
SIZE = 12 * 9


def events_of(tl, seed=0):
    return list(tl.events(SHAPE, spawn_rng(seed, "tl-test")))


class TestKinds:
    def test_uniform_is_a_permutation(self):
        evs = events_of(UniformTimeline())
        assert [e.kind for e in evs] == ["fault"] * SIZE
        assert sorted(e.node for e in evs) == list(range(SIZE))
        assert [e.step for e in evs] == list(range(SIZE))

    def test_uniform_matches_raw_permutation_stream(self):
        """The single upfront permutation draw is the historical bn
        lifetime sampling, bit for bit."""
        evs = events_of(UniformTimeline(), seed=7)
        order = spawn_rng(7, "tl-test").permutation(SIZE)
        assert [e.node for e in evs] == [int(x) for x in order]

    def test_bernoulli_rate_and_bounds(self):
        tl = BernoulliTimeline(rate=0.05, steps=40)
        evs = events_of(tl)
        assert evs and all(e.kind == "fault" for e in evs)
        assert max(e.step for e in evs) < 40
        # Roughly rate * size * steps arrivals (loose: 3 sigma)
        expect = 0.05 * SIZE * 40
        assert 0.3 * expect < len(evs) < 2.5 * expect

    def test_burst_groups_per_step(self):
        tl = BurstTimeline(burst=5, steps=6)
        evs = events_of(tl)
        per_step = {s: [e for e in evs if e.step == s] for s in range(6)}
        assert all(len(v) == 5 for v in per_step.values())

    @pytest.mark.parametrize("pattern", ["random", "diagonal", "cluster"])
    def test_adversarial_follows_campaign(self, pattern):
        tl = AdversarialTimeline(pattern=pattern, k=10)
        evs = events_of(tl)
        assert len(evs) == 10
        assert len({e.node for e in evs}) == 10

    @pytest.mark.parametrize("kind", TIMELINE_KINDS)
    def test_deterministic_given_seed(self, kind):
        tl = make_timeline(
            kind, rate=0.02, burst=3, pattern="random", max_steps=20
        )
        a = [(e.step, e.kind, e.node) for e in events_of(tl, seed=5)]
        b = [(e.step, e.kind, e.node) for e in events_of(tl, seed=5)]
        assert a == b


class TestRepair:
    def test_repairs_only_touch_faulty_nodes(self):
        tl = RepairTimeline(inner=UniformTimeline(), repair_rate=0.5)
        faulty = set()
        for ev in events_of(tl, seed=3):
            if ev.kind == "fault":
                faulty.add(ev.node)
            else:
                assert ev.node in faulty
                faulty.discard(ev.node)

    def test_repair_events_present_and_rate_scaled(self):
        lo = sum(
            e.kind == "repair"
            for e in events_of(RepairTimeline(UniformTimeline(), 0.05), seed=1)
        )
        hi = sum(
            e.kind == "repair"
            for e in events_of(RepairTimeline(UniformTimeline(), 0.9), seed=1)
        )
        assert 0 < lo < hi

    def test_repairs_run_on_arrival_free_steps(self):
        """Sparse inner timelines leave most steps without arrivals; the
        repair process must still get a pass on every one of them (and on
        trailing steps after the last arrival)."""
        tl = RepairTimeline(BernoulliTimeline(rate=0.0008, steps=400), repair_rate=0.9)
        evs = events_of(tl, seed=2)
        fault_steps = {e.step for e in evs if e.kind == "fault"}
        repair_steps = {e.step for e in evs if e.kind == "repair"}
        assert len(fault_steps) < 400  # the premise: most steps are empty
        # With rho=0.9 nearly every arrival is repaired within a step or
        # two, so repairs land on steps that had no arrival of their own.
        assert repair_steps - fault_steps

    def test_bernoulli_can_refault_repaired_nodes(self):
        tl = RepairTimeline(BernoulliTimeline(rate=0.2, steps=60), repair_rate=0.5)
        seen_refault = False
        repaired: set[int] = set()
        for ev in events_of(tl, seed=9):
            if ev.kind == "repair":
                repaired.add(ev.node)
            elif ev.node in repaired:
                seen_refault = True
                repaired.discard(ev.node)
        assert seen_refault


class TestFactory:
    def test_registry_covers_all_kinds(self):
        assert set(TIMELINE_KINDS) == {"uniform", "bernoulli", "burst", "adversarial"}

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown timeline kind"):
            make_timeline("flaky")

    def test_step_driven_kinds_need_max_steps(self):
        with pytest.raises(ValueError, match="max_steps"):
            make_timeline("bernoulli", rate=0.1)
        with pytest.raises(ValueError, match="max_steps"):
            make_timeline("burst", burst=2)

    def test_repair_wrapping(self):
        tl = make_timeline("uniform", repair_rate=0.3)
        assert isinstance(tl, RepairTimeline)
        assert isinstance(tl.inner, UniformTimeline)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BernoulliTimeline(rate=0.0, steps=5)
        with pytest.raises(ValueError):
            BurstTimeline(burst=0, steps=5)
        with pytest.raises(ValueError):
            AdversarialTimeline(pattern="sneaky")
        with pytest.raises(ValueError):
            RepairTimeline(UniformTimeline(), repair_rate=1.5)

    def test_events_cover_shape(self):
        evs = events_of(make_timeline("adversarial", pattern="rows", k=8))
        arr = np.zeros(SHAPE, dtype=bool)
        arr.ravel()[[e.node for e in evs]] = True
        assert arr.sum() == 8
