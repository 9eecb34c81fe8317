"""The unified Construction protocol, registry and experiment runner.

The conformance suite is the acceptance contract of the API: one
parametrized test body runs against every registry entry, so a new
construction only has to register a factory to inherit the whole suite.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    Construction,
    ExperimentResult,
    ExperimentRunner,
    ExperimentSpec,
    FaultSpec,
    TrialOutcome,
    available,
    get,
)
from repro.analysis.montecarlo import MCResult, aggregate_outcomes
from repro.util.rng import spawn_rng

#: Tiny-but-real parameters plus a tame fault point per construction.
CASES = {
    "bn": (dict(d=2, b=3, s=1, t=2), FaultSpec(p=3.0 ** -6)),
    "an": (dict(d=2, b=3, s=1, t=2, k_sub=2, h=8), FaultSpec(p=0.1)),
    "dn": (dict(d=2, n=70, b=2), FaultSpec(pattern="random")),
    "alon_chung": (dict(n=20, blowup=3.0), FaultSpec(p=0.1)),
    "replication": (dict(n=8, d=2, replication=3), FaultSpec(p=0.05)),
    "sparerows": (dict(n=10, sigma=4), FaultSpec(pattern="random")),
}


class TestRegistry:
    def test_all_six_registered(self):
        assert set(available()) == set(CASES)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown construction"):
            get("nonesuch")

    def test_factory_kwargs(self):
        c = get("dn", d=2, n=70, b=2)
        assert c.params.k == 8


@pytest.mark.parametrize("name", sorted(CASES))
class TestConformance:
    """Every registry entry satisfies the same protocol contract."""

    def test_protocol_shape(self, name):
        c = get(name, **CASES[name][0])
        assert isinstance(c, Construction)
        assert c.name == name
        assert c.num_nodes > 0
        assert c.degree > 0

    def test_graph_matches_claims_and_is_cached(self, name):
        c = get(name, **CASES[name][0])
        g = c.graph()
        assert g.num_nodes == c.num_nodes
        assert g.max_degree() == c.degree
        assert c.graph() is g

    def test_sample_recover_roundtrip(self, name):
        params, spec = CASES[name]
        c = get(name, **params)
        faults = c.sample_faults(spec, spawn_rng(0, "conformance", name))
        c.recover(faults)  # tame spec at a pinned seed: must succeed

    def test_trial_returns_outcome_and_is_deterministic(self, name):
        params, spec = CASES[name]
        c = get(name, **params)
        a = c.trial(spec, 3)
        b = c.trial(spec, 3)
        assert isinstance(a, TrialOutcome)
        assert a.category and isinstance(a.category, str)
        assert (a.success, a.category, a.num_faults) == (b.success, b.category, b.num_faults)

    def test_sample_seeds_vary_faults(self, name):
        params, spec = CASES[name]
        c = get(name, **params)

        def fault_bits(seed):
            faults = c.sample_faults(spec, spawn_rng(seed, "vary", name))
            arr = faults if isinstance(faults, np.ndarray) else faults.node_faults
            return arr.tobytes()

        assert len({fault_bits(seed) for seed in range(6)}) > 1


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(p=1.5)
        with pytest.raises(ValueError):
            FaultSpec(k=-1)

    def test_roundtrip(self):
        fs = FaultSpec(p=0.1, q=1e-3, pattern="bernoulli")
        assert FaultSpec.from_dict(fs.to_dict()) == fs

    def test_labels(self):
        assert FaultSpec(p=0.1).label() == "p=0.1"
        assert FaultSpec(p=0.1, q=0.01).label() == "p=0.1 q=0.01"
        assert FaultSpec(pattern="diagonal", k=8).label() == "diagonal/k=8"


class TestFaultModelSerialization:
    """Model-free specs serialise without the ``fault_model`` key — the
    byte-stability contract of docs/faults.md — and model-bearing ones
    round-trip the dict."""

    def test_key_absent_at_the_default(self):
        from repro.api import LifetimeSpec, TrafficSpec

        for spec in (FaultSpec(p=0.01), LifetimeSpec(), TrafficSpec(messages=8)):
            assert "fault_model" not in spec.to_dict(), type(spec).__name__
            assert type(spec).from_dict(spec.to_dict()) == spec

    def test_model_round_trips_and_labels(self):
        from repro.api import LifetimeSpec, TrafficSpec

        model = {"name": "neighbor", "p": 0.002}
        fs = FaultSpec(fault_model=dict(model))
        assert fs.to_dict()["fault_model"] == model
        assert FaultSpec.from_dict(fs.to_dict()) == fs
        assert fs.label() == "model/neighbor p=0.002"
        ls = LifetimeSpec(fault_model=dict(model), repair_rate=0.2, max_steps=40)
        assert LifetimeSpec.from_dict(ls.to_dict()) == ls
        assert ls.label() == "life/model/neighbor rho=0.2 steps=40"
        ts = TrafficSpec(messages=8, fault_model={"name": "byzantine", "rate": 0.1})
        assert TrafficSpec.from_dict(ts.to_dict()) == ts
        assert ts.label() == "traffic/uniform m=8 model=byzantine"

    def test_mixing_vocabularies_rejected(self):
        from repro.api import LifetimeSpec

        with pytest.raises(ValueError):
            FaultSpec(p=0.1, fault_model={"name": "bernoulli", "p": 0.01})
        with pytest.raises(ValueError):
            LifetimeSpec(timeline="burst", burst=3,
                         fault_model={"name": "bernoulli", "p": 0.01})
        with pytest.raises(ValueError):
            FaultSpec(fault_model={"name": "gamma-ray"})


class TestTrafficSpec:
    def test_validation(self):
        from repro.api import TrafficSpec

        with pytest.raises(ValueError, match="pattern"):
            TrafficSpec(pattern="nope")
        with pytest.raises(ValueError, match="injection"):
            TrafficSpec(injection="nope")
        with pytest.raises(ValueError, match="messages"):
            TrafficSpec(messages=0)
        with pytest.raises(ValueError, match="rate"):
            TrafficSpec(injection="bernoulli", rate=0.0, cycles=10)
        with pytest.raises(ValueError, match="cycles"):
            TrafficSpec(injection="bernoulli", rate=0.1, cycles=0)
        with pytest.raises(ValueError, match="warmup"):
            TrafficSpec(injection="bernoulli", rate=0.1, cycles=10, warmup=10)

    def test_roundtrip_and_labels(self):
        from repro.api import TrafficSpec

        closed = TrafficSpec(pattern="transpose", messages=128)
        assert TrafficSpec.from_dict(closed.to_dict()) == closed
        assert closed.label() == "traffic/transpose m=128"
        assert not closed.open_loop
        open_ = TrafficSpec(
            pattern="uniform", injection="periodic", rate=0.05, cycles=200, warmup=50
        )
        assert TrafficSpec.from_dict(open_.to_dict()) == open_
        assert open_.label() == "traffic/uniform periodic rate=0.05 cycles=200"
        assert open_.open_loop

    def test_grid_point_discrimination(self):
        """A persisted grid rebuilds each point as its own spec type."""
        from repro.api import LifetimeSpec, TrafficSpec

        spec = ExperimentSpec.from_grid(
            "bn", {"b": 3}, p_values=[0.001],
            lifetimes=[LifetimeSpec()],
            traffic=[TrafficSpec(messages=16)],
            trials=2,
        )
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec
        assert [type(pt).__name__ for pt in again.grid] == [
            "FaultSpec", "LifetimeSpec", "TrafficSpec",
        ]


class TestExperimentSpec:
    def test_roundtrip(self):
        spec = ExperimentSpec.from_grid(
            "dn", {"n": 70, "b": 2}, patterns=["random", "diagonal"], k=8,
            p_values=[0.001], trials=5, seed0=7, name="rt",
        )
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec
        assert len(spec.grid) == 3  # two patterns + one probability

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            ExperimentSpec(construction="bn", grid=(), trials=5)


class TestMCResultSerialization:
    def test_roundtrip(self):
        from collections import Counter

        res = MCResult(
            trials=10, successes=7, categories=Counter(ok=7, capacity=3),
            healthy=4, sufficient=3, health_checked=5, mean_faults=2.5,
            strategies=Counter(straight=6, paper=1),
        )
        again = MCResult.from_dict(res.to_dict())
        assert again == res
        # and the dict is JSON-stable
        assert json.loads(json.dumps(res.to_dict())) == res.to_dict()

    def test_merged(self):
        a = MCResult(trials=4, successes=4, mean_faults=2.0)
        b = MCResult(trials=6, successes=3, mean_faults=7.0)
        m = MCResult.merged([a, b])
        assert (m.trials, m.successes) == (10, 7)
        assert m.mean_faults == pytest.approx(5.0)


class TestExperimentRunner:
    SPEC = ExperimentSpec.from_grid(
        "replication", {"n": 8, "d": 2, "replication": 3},
        p_values=[0.05, 0.2], trials=40, name="runner-test",
    )

    def test_serial_parallel_byte_identical(self):
        r1 = ExperimentRunner(workers=1).run(self.SPEC)
        r4 = ExperimentRunner(workers=4).run(self.SPEC)
        j1 = json.dumps(r1.to_dict(), sort_keys=True)
        j4 = json.dumps(r4.to_dict(), sort_keys=True)
        assert j1 == j4

    def test_matches_direct_trials(self):
        """The runner is a pure function of (construction, spec, seeds)."""
        result = ExperimentRunner().run(self.SPEC)
        c = get("replication", n=8, d=2, replication=3)
        for pt in result.points:
            wins = sum(c.trial(pt.fault_spec, seed).success for seed in range(40))
            assert pt.result.successes == wins

    def test_seed0_offset(self):
        """Trial ``i`` runs with seed ``seed0 + i``."""
        spec = ExperimentSpec.from_grid(
            "replication", {"n": 8, "d": 2, "replication": 3},
            p_values=[0.2], trials=20, seed0=100,
        )
        c = get("replication", n=8, d=2, replication=3)
        direct = [
            aggregate_outcomes(c.trial(spec.grid[0], seed) for seed in seeds)
            for seeds in (range(100, 120), range(20))
        ]
        assert ExperimentRunner().run(spec).points[0].result == direct[0] != direct[1]

    def test_save_load_roundtrip(self, tmp_path):
        result = ExperimentRunner().run(self.SPEC)
        path = tmp_path / "res.json"
        result.save(path)
        again = ExperimentResult.load(path)
        assert again.spec == result.spec
        assert [pt.result for pt in again.points] == [pt.result for pt in result.points]
        # canonical JSON: saving the loaded result reproduces the bytes
        path2 = tmp_path / "res2.json"
        again.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_getitem_by_label(self):
        result = ExperimentRunner().run(self.SPEC)
        assert result["p=0.05"].trials == 40
        with pytest.raises(KeyError):
            result["p=0.99"]

    def test_chunking_invariance_of_counts(self):
        """Integer tallies are identical whatever the chunk size (floats may
        differ in the last ulp, which is why chunk_size is part of the spec)."""
        small = ExperimentSpec(
            construction="replication", params={"n": 8, "d": 2, "replication": 3},
            grid=(FaultSpec(p=0.2),), trials=30, chunk_size=7, name="odd-chunks",
        )
        base = ExperimentSpec(
            construction="replication", params={"n": 8, "d": 2, "replication": 3},
            grid=(FaultSpec(p=0.2),), trials=30, name="default-chunks",
        )
        a = ExperimentRunner().run(small).points[0].result
        b = ExperimentRunner().run(base).points[0].result
        assert (a.trials, a.successes, a.categories) == (b.trials, b.successes, b.categories)

    def test_backend_is_scalar_or_batch(self):
        assert ExperimentRunner().backend == "batch"
        assert ExperimentRunner(backend="scalar").backend == "scalar"
        for bad in ("gpu", "compiled", "auto"):
            with pytest.raises(ValueError, match="options: scalar, batch"):
                ExperimentRunner(backend=bad)


class TestTrafficRunner:
    """TrafficSpec grid points through the runner (the fourth pillar)."""

    def _spec(self):
        from repro.api import TrafficSpec

        return ExperimentSpec.from_grid(
            "bn", {"b": 3},
            traffic=[
                TrafficSpec(pattern="uniform", messages=60),
                TrafficSpec(pattern="hotspot", injection="bernoulli", rate=0.02,
                            cycles=50, warmup=10),
            ],
            trials=20, name="traffic-runner-test",
        )

    def test_serial_parallel_batch_byte_identical(self):
        spec = self._spec()
        dumps = [
            json.dumps(ExperimentRunner(workers=w, backend=b).run(spec).to_dict(),
                       sort_keys=True)
            for w, b in ((1, "scalar"), (2, "scalar"), (1, "batch"))
        ]
        assert dumps[0] == dumps[1] == dumps[2]

    def test_matches_direct_trials(self):
        spec = self._spec()
        result = ExperimentRunner().run(spec)
        c = get("bn", b=3)
        for pt in result.points:
            direct = [c.traffic_trial(pt.fault_spec, seed) for seed in range(20)]
            assert pt.result.outcomes == direct

    def test_save_load_roundtrip(self, tmp_path):
        result = ExperimentRunner(backend="batch").run(self._spec())
        path = tmp_path / "traffic.json"
        result.save(path)
        again = ExperimentResult.load(path)
        assert [pt.result for pt in again.points] == [pt.result for pt in result.points]
        path2 = tmp_path / "traffic2.json"
        again.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_traffic_incapable_construction_raises(self):
        from repro.api import TrafficSpec

        spec = ExperimentSpec(
            construction="alon_chung", grid=(TrafficSpec(messages=4),), trials=1,
        )
        with pytest.raises(TypeError, match="traffic capability"):
            ExperimentRunner().run(spec)

    def test_guest_shapes(self):
        from repro.api.protocol import TrafficCapable

        expected = {
            "bn": {"b": 3}, "an": {"b": 3}, "dn": {"n": 30},
            "replication": {"n": 6}, "sparerows": {"n": 6},
        }
        for name, params in expected.items():
            c = get(name, **params)
            assert isinstance(c, TrafficCapable)
            shape = c.guest_shape()
            assert all(int(s) >= 2 for s in shape)
        assert not isinstance(get("alon_chung", n=20), TrafficCapable)


class TestLegacyCompat:
    def test_trialoutcome_reexport(self):
        from repro.core.bn import TrialOutcome as LegacyTrialOutcome

        assert LegacyTrialOutcome is TrialOutcome

    def test_bn_trial_stream_unchanged(self):
        """Registry trials reproduce the historical BTorus.trial outcomes."""
        from repro.core.bn import BTorus
        from repro.core.params import BnParams

        params = BnParams(d=2, b=3, s=1, t=2)
        bt = BTorus(params)
        c = get("bn", d=2, b=3, s=1, t=2)
        p = params.paper_fault_probability
        for seed in range(5):
            legacy = bt.trial(p, seed)
            new = c.trial(FaultSpec(p=p), seed)
            assert (legacy.success, legacy.category, legacy.num_faults) == (
                new.success, new.category, new.num_faults
            )
