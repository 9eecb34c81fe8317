"""The lifetime subsystem's API layer: specs, aggregates, runner dispatch.

Mirrors tests/test_api.py for the third pillar: LifetimeSpec validation
and serialisation, LifetimeResult aggregation/merging, LifetimeCapable
coverage of the registry, ExperimentRunner dispatch (serial == parallel
== batch, byte-identical JSON), and the CLI front end.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ExperimentResult,
    ExperimentRunner,
    ExperimentSpec,
    LifetimeCapable,
    LifetimeOutcome,
    LifetimeResult,
    LifetimeSpec,
    aggregate_lifetimes,
    available,
    get,
)

BN = {"d": 2, "b": 3, "s": 1, "t": 2}


def _spec(grid=(LifetimeSpec(),), trials=6, construction="bn", params=BN):
    return ExperimentSpec(
        construction=construction, params=params, grid=grid, trials=trials,
        name="lifetime-api",
    )


class TestLifetimeSpec:
    def test_defaults_and_label(self):
        assert LifetimeSpec().label() == "life/uniform"
        assert "rho=0.1" in LifetimeSpec(repair_rate=0.1).label()
        assert "rate=0.01" in LifetimeSpec(
            timeline="bernoulli", rate=0.01, max_steps=50
        ).label()
        assert "diagonal" in LifetimeSpec(
            timeline="adversarial", pattern="diagonal"
        ).label()

    def test_round_trip(self):
        spec = LifetimeSpec(timeline="burst", burst=4, max_steps=30, repair_rate=0.2)
        assert LifetimeSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(timeline="nope"),
            dict(timeline="bernoulli", rate=0.1),       # missing max_steps
            dict(timeline="bernoulli", max_steps=10),   # missing rate
            dict(timeline="burst", max_steps=10),       # missing burst
            dict(timeline="adversarial"),               # missing pattern
            dict(rate=1.5),
            dict(repair_rate=-0.1),
            dict(max_steps=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LifetimeSpec(**kwargs)


class TestLifetimeResult:
    def _outcomes(self):
        return [
            LifetimeOutcome(lifetime=5, steps=6, category="no-frame", failed=True,
                            masked=2, replaced=3),
            LifetimeOutcome(lifetime=9, steps=10, category="capacity", failed=True,
                            masked=4, replaced=5, repaired=1),
            LifetimeOutcome(lifetime=12, steps=12, category="ok", failed=False,
                            masked=6, replaced=6),
        ]

    def test_aggregate(self):
        res = aggregate_lifetimes(self._outcomes())
        assert res.trials == 3
        assert res.lifetimes == [5, 9, 12]
        assert res.median_lifetime == 9
        assert res.min_lifetime == 5 and res.max_lifetime == 12
        assert res.exhausted == 1
        assert res.repaired == 1
        assert res.categories["no-frame"] == 1

    def test_survival_curve_and_repair_fraction(self):
        res = aggregate_lifetimes(self._outcomes())
        assert res.survival_curve([0, 6, 10, 13]) == [1.0, 2 / 3, 1 / 3, 0.0]
        assert res.repair_fraction() == pytest.approx(14 / 26)

    def test_round_trip_and_merge(self):
        res = aggregate_lifetimes(self._outcomes())
        assert LifetimeResult.from_dict(res.to_dict()).to_dict() == res.to_dict()
        parts = [
            aggregate_lifetimes(self._outcomes()[:1]),
            aggregate_lifetimes(self._outcomes()[1:]),
        ]
        assert LifetimeResult.merged(parts).to_dict() == res.to_dict()

    def test_summary_mentions_median(self):
        assert "median=" in aggregate_lifetimes(self._outcomes()).summary()


class TestStepsAccounting:
    def test_exhausted_step_driven_timeline_reports_full_span(self):
        """Sparse bernoulli trials consume all max_steps steps even when the
        trailing ones emit no arrivals."""
        bn = get("bn", **BN)
        spec = LifetimeSpec(timeline="bernoulli", rate=0.00005, max_steps=50)
        out = bn.lifetime_trial(spec, seed=1)
        if not out.failed:  # ~0.1 arrivals/step: exhaustion is the norm
            assert out.steps == 50

    def test_uniform_death_step_is_killing_arrival(self):
        bn = get("bn", **BN)
        out = bn.lifetime_trial(LifetimeSpec(), seed=0)
        assert out.failed and out.steps == out.lifetime + 1


class TestCapability:
    def test_every_registered_construction_is_lifetime_capable(self):
        params = {
            "bn": BN,
            "an": {**BN, "k_sub": 2, "h": 8},
            "dn": {"d": 2, "n": 70, "b": 2},
            "alon_chung": {"n": 20},
            "replication": {"n": 8, "replication": 3},
            "sparerows": {"n": 10, "sigma": 4},
        }
        # max_steps keeps the generic full-recompute adapters, which
        # recover after every new fault, out of the test budget.
        spec = LifetimeSpec(max_steps=40)
        for name in available():
            c = get(name, **params[name])
            assert isinstance(c, LifetimeCapable), name
            out = c.lifetime_trial(spec, seed=0)
            assert out.lifetime >= 0 and (out.failed or out.category == "ok")

    def test_lifetime_trials_are_deterministic(self):
        dn = get("dn", d=2, n=70, b=2)
        spec = LifetimeSpec(timeline="adversarial", pattern="random")
        a, b = dn.lifetime_trial(spec, 3), dn.lifetime_trial(spec, 3)
        assert (a.lifetime, a.category, a.masked, a.replaced) == (
            b.lifetime, b.category, b.masked, b.replaced,
        )

    @pytest.mark.parametrize("strategy", ["auto", "straight"])
    def test_every_consumer_draws_one_lifetime_stream(self, strategy):
        """A bn trial's lifetime is the same number whichever consumer
        runs it: ``lifetime_trial``, the batched kernel, a traffic
        snapshot run and a serve machine fed the scripted events."""
        from repro.serve.state import MachineState, scripted_events
        from repro.sim.lifetime_traffic import lifetime_traffic_snapshots

        params = {**BN, "strategy": strategy}
        bn = get("bn", **params)
        spec = LifetimeSpec()
        seeds = list(range(20))
        trial = [bn.lifetime_trial(spec, s).lifetime for s in seeds]
        batch = [o.lifetime for o in bn.run_lifetime_batch(spec, seeds)]
        snapshot = [
            lifetime_traffic_snapshots(bn, spec, s, [], messages=8)["lifetime"]
            for s in seeds
        ]
        served = []
        for s in seeds:
            state = MachineState("m", "bn", params)
            for kind, node in scripted_events("bn", params, spec, s):
                state.apply_event(kind, node)
            served.append(state.digest()["lifetime"])
        assert trial == batch == snapshot == served
        assert len(set(trial)) > 1

    def test_bn_batch_gate(self):
        bn = get("bn", **BN)
        assert bn.supports_lifetime_batch(LifetimeSpec())
        assert not bn.supports_lifetime_batch(LifetimeSpec(repair_rate=0.5))
        assert not bn.supports_lifetime_batch(
            LifetimeSpec(timeline="bernoulli", rate=0.01, max_steps=10)
        )
        assert not get("bn", **BN, strategy="paper").supports_lifetime_batch(
            LifetimeSpec()
        )


class TestRecoveryKey:
    """An ``an`` live machine recovers only when a new fault changes the
    bad-supernode mask."""

    def test_keyed_machine_matches_every_fault_reference(self):
        """Uniform arrivals with repairs shrink the mask; bursts land
        several faults in one supernode, which leaves the mask as it was."""
        from repro.testkit.oracles import recovery_key_oracle

        an = get("an", **BN, k_sub=2, h=4)
        cases = [
            (0, LifetimeSpec(repair_rate=0.2, max_steps=300)),
            (1, LifetimeSpec(timeline="burst", burst=2, repair_rate=0.2, max_steps=60)),
        ]
        report = recovery_key_oracle(an, cases)
        report.raise_on_mismatch()
        assert report.cases == 2

    def test_full_length_trial(self, monkeypatch):
        """2,689 arrivals to first failure, 10 host recoveries."""
        an = get("an", **BN, k_sub=2, h=8)
        calls = []
        recover = an.torus.recover
        monkeypatch.setattr(an.torus, "recover",
                            lambda state: calls.append(state) or recover(state))
        out = an.lifetime_trial(LifetimeSpec(), seed=0)
        assert (out.lifetime, out.steps, out.category) == (2689, 2690, "no-frame")
        assert (out.masked, out.replaced) == (0, 2689)
        assert len(calls) == 10


class TestRunnerDispatch:
    def test_serial_parallel_batch_byte_identical(self, tmp_path):
        # 20 trials span two 16-seed chunks, so workers=2 genuinely uses
        # the pool (a single-chunk spec short-circuits to the serial path)
        # and the chunk-merge path is exercised.
        paths = {}
        for tag, runner in {
            "w1": ExperimentRunner(workers=1, backend="scalar"),
            "w2": ExperimentRunner(workers=2, backend="scalar"),
            "batch": ExperimentRunner(workers=1, backend="batch"),
        }.items():
            p = tmp_path / f"{tag}.json"
            runner.run(_spec(trials=20)).save(p)
            paths[tag] = p.read_bytes()
        assert paths["w1"] == paths["w2"] == paths["batch"]

    def test_mixed_grid(self):
        """Fault points and lifetime points coexist in one spec."""
        from repro.api import FaultSpec

        spec = _spec(grid=(FaultSpec(p=0.001), LifetimeSpec()), trials=4)
        result = ExperimentRunner().run(spec)
        assert result["p=0.001"].trials == 4
        assert result["life/uniform"].trials == 4
        assert isinstance(result["life/uniform"], LifetimeResult)

    def test_result_round_trip(self, tmp_path):
        result = ExperimentRunner().run(_spec(trials=4))
        p = tmp_path / "r.json"
        result.save(p)
        loaded = ExperimentResult.load(p)
        loaded.save(tmp_path / "r2.json")
        assert p.read_bytes() == (tmp_path / "r2.json").read_bytes()
        assert isinstance(loaded.spec.grid[0], LifetimeSpec)

    def test_generic_construction_via_runner(self):
        spec = _spec(
            construction="dn", params={"d": 2, "n": 70, "b": 2},
            grid=(LifetimeSpec(timeline="adversarial", pattern="random"),), trials=3,
        )
        res = ExperimentRunner(backend="batch").run(spec)  # no capability: scalar path
        assert res.points[0].result.trials == 3

    def test_from_grid_lifetimes_param(self):
        spec = ExperimentSpec.from_grid(
            "bn", BN, p_values=[0.001], lifetimes=[LifetimeSpec()], trials=2,
        )
        assert len(spec.grid) == 2 and isinstance(spec.grid[1], LifetimeSpec)


class TestCLI:
    def test_lifetime_out_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "life.json"
        assert main(["lifetime", "--trials", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == "repro-experiment-v1"
        assert payload["points"][0]["lifetime_spec"]["timeline"] == "uniform"
        assert payload["points"][0]["result"]["kind"] == "lifetime"
        assert len(payload["points"][0]["result"]["lifetimes"]) == 3
        capsys.readouterr()

    def test_lifetime_serial_parallel_byte_identical(self, tmp_path, capsys):
        from repro.cli import main

        a, b = tmp_path / "w1.json", tmp_path / "w2.json"
        args = ["lifetime", "--trials", "20"]  # 2 chunks: workers=2 fans out
        assert main(args + ["--workers", "1", "--out", str(a)]) == 0
        assert main(args + ["--workers", "2", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_lifetime_timeline_flags(self, capsys):
        from repro.cli import main

        assert main(["lifetime", "--timeline", "bernoulli", "--rate", "0.002",
                     "--max-steps", "30", "--trials", "2"]) == 0
        assert "life/bernoulli" in capsys.readouterr().out

    def test_lifetime_traffic_snapshots(self, capsys):
        from repro.cli import main

        assert main(["lifetime", "--trials", "2", "--traffic", "uniform",
                     "--checkpoints", "2,4", "--messages", "30"]) == 0
        out = capsys.readouterr().out
        assert "traffic snapshots" in out and "pristine=yes" in out

    def test_lifetime_bad_spec_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["lifetime", "--timeline", "bernoulli", "--trials", "2"]) == 2
        assert "max_steps" in capsys.readouterr().err

    def test_lifetime_other_construction(self, capsys):
        from repro.cli import main

        assert main(["lifetime", "--construction", "sparerows", "--n", "10",
                     "--sigma", "4", "--trials", "2"]) == 0
        assert "median=" in capsys.readouterr().out
