"""End-to-end CLI coverage: every subcommand via ``main([...])``.

Tiny parameters throughout; each test asserts the exit code and that the
output parses (tables render, JSON loads), not exact survival numbers.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro.cli import _RUN_PARAMS, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert ("{run,info,figures,lifetime,traffic,conformance,serve,loadgen}"
                in capsys.readouterr().out)


class TestRunParams:
    """``_RUN_PARAMS`` is a static copy of the registry's factory
    keywords (static so that parsing never imports the adapters); these
    tests keep the copy honest."""

    @staticmethod
    def mismatches(table: dict) -> list[str]:
        from repro.api import available
        from repro.api.registry import _REGISTRY

        problems = []
        if sorted(table) != list(available()):
            problems.append(f"{sorted(table)} != registry {list(available())}")
        for name, kwargs in table.items():
            params = inspect.signature(_REGISTRY[name]).parameters
            problems += [
                f"{name}: factory has no keyword {kw!r}"
                for kw in kwargs
                if kw not in params
                or params[kw].kind is not inspect.Parameter.KEYWORD_ONLY
            ]
        return problems

    def test_matches_the_registry(self):
        assert self.mismatches(_RUN_PARAMS) == []

    def test_catches_a_misspelt_kwarg(self):
        table = dict(_RUN_PARAMS, dn=("d", "n", "bb"))
        assert self.mismatches(table) == ["dn: factory has no keyword 'bb'"]


class TestInfo:
    def test_bn(self, capsys):
        assert main(["info", "bn", "--b", "4", "--t", "2"]) == 0
        out = capsys.readouterr().out
        assert "B^2_96" in out and "p = b^-3d" in out

    def test_dn(self, capsys):
        assert main(["info", "dn", "--n", "70", "--b", "2"]) == 0
        assert "k = 8" in capsys.readouterr().out


class TestLifetime:
    def test_runs(self, capsys):
        assert main(["lifetime", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "median=" in out and "theory scale" in out


class TestTraffic:
    def test_closed_loop_runs(self, capsys):
        assert main(["traffic", "--construction", "bn", "--b", "3",
                     "--pattern", "uniform,transpose", "--messages", "40",
                     "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "traffic/uniform m=40" in out and "traffic/transpose m=40" in out
        assert "delivered" in out

    def test_open_loop_with_output(self, capsys, tmp_path):
        out_path = tmp_path / "traffic.json"
        assert main(["traffic", "--construction", "bn", "--b", "3",
                     "--pattern", "uniform", "--rate", "0.01,0.05",
                     "--cycles", "40", "--warmup", "10", "--trials", "2",
                     "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["format"] == "repro-experiment-v1"
        assert len(payload["points"]) == 2  # one per rate
        pt = payload["points"][0]
        assert pt["traffic_spec"]["injection"] == "bernoulli"
        assert pt["result"]["kind"] == "traffic"
        assert pt["result"]["trials"] == 2

    def test_invalid_rate_rejected(self, capsys):
        assert main(["traffic", "--construction", "bn", "--b", "3",
                     "--rate", "1.5", "--cycles", "10", "--trials", "1"]) == 2
        assert "invalid traffic point" in capsys.readouterr().err

    def test_incapable_construction_rejected(self, capsys):
        assert main(["traffic", "--construction", "alon_chung", "--n", "20",
                     "--trials", "1"]) == 2
        assert "traffic capability" in capsys.readouterr().err

    def test_snapshot_invalid_pattern_exits_cleanly(self, capsys):
        # bitreverse on the (36, 36) guest (1296 nodes, not a power of
        # two): a clean exit-2 diagnostic, not a traceback
        assert main(["lifetime", "--construction", "bn", "--b", "3",
                     "--trials", "1", "--traffic", "bitreverse",
                     "--checkpoints", "1"]) == 2
        assert "power-of-two" in capsys.readouterr().err

    def test_lifetime_snapshot_flags(self, capsys):
        assert main(["lifetime", "--construction", "bn", "--b", "3",
                     "--trials", "1", "--traffic", "uniform",
                     "--checkpoints", "1,99999", "--messages", "30",
                     "--live-traffic"]) == 0
        out = capsys.readouterr().out
        assert "live" in out and "not reached" in out


class TestConformanceParser:
    """Flag wiring only — the suite itself runs in tests/test_conformance.py
    (and in CI as `repro-ft conformance --quick`)."""

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["conformance", "--quick", "--update-golden", "--golden-dir", "/tmp/g"]
        )
        assert args.quick and args.update_golden and args.golden_dir == "/tmp/g"
        defaults = build_parser().parse_args(["conformance"])
        assert not defaults.quick and not defaults.update_golden
        assert defaults.fn is not None


class TestFigures:
    def test_renders_both(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 2" in out


class TestRun:
    def test_bernoulli_grid(self, capsys):
        assert main(["run", "--construction", "bn", "--p", "0.001,0.004",
                     "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "p=0.001" in out and "p=0.004" in out

    def test_check_health(self, capsys):
        assert main(["run", "--construction", "bn", "--p", "0.00137",
                     "--check-health", "--trials", "2"]) == 0
        assert "healthy=" in capsys.readouterr().out

    def test_adversarial_with_output(self, capsys, tmp_path):
        out_path = tmp_path / "res.json"
        assert main(["run", "--construction", "dn", "--n", "70", "--b", "2",
                     "--pattern", "random", "--trials", "2",
                     "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["format"] == "repro-experiment-v1"
        assert payload["spec"]["construction"] == "dn"
        assert payload["points"][0]["result"]["trials"] == 2

    def test_parallel_workers(self, capsys):
        assert main(["run", "--construction", "replication", "--n", "8",
                     "--replication", "3", "--p", "0.05", "--trials", "8",
                     "--workers", "2"]) == 0
        assert "replication" in capsys.readouterr().out

    def test_every_construction_smokes(self, capsys):
        cases = [
            ["--construction", "bn", "--p", "0.001"],
            ["--construction", "an", "--k-sub", "2", "--h", "8", "--p", "0.1"],
            ["--construction", "dn", "--n", "70", "--b", "2", "--pattern", "random"],
            ["--construction", "alon_chung", "--n", "20", "--p", "0.1"],
            ["--construction", "replication", "--n", "8", "--replication", "3",
             "--p", "0.05"],
            ["--construction", "sparerows", "--n", "10", "--sigma", "4",
             "--pattern", "random"],
        ]
        for extra in cases:
            assert main(["run", *extra, "--trials", "2"]) == 0, extra
            assert "trials/point" in capsys.readouterr().out

    def test_no_fault_points_is_usage_error(self, capsys):
        assert main(["run", "--construction", "bn", "--trials", "2"]) == 2
        assert "--p, --pattern and/or --fault-model" in capsys.readouterr().err

    def test_unknown_pattern_is_usage_error(self, capsys):
        assert main(["run", "--construction", "dn", "--pattern", "sneaky",
                     "--trials", "2"]) == 2
        assert "unknown pattern" in capsys.readouterr().err

    def test_invalid_probability_is_usage_error(self, capsys):
        assert main(["run", "--construction", "bn", "--p", "1.5",
                     "--trials", "2"]) == 2
        assert "invalid fault point" in capsys.readouterr().err

    def test_unsupported_fault_model_is_clean_error(self, capsys):
        # A^d_n models random faults only; the runner's error must surface
        # as a clean CLI message, not a traceback.
        assert main(["run", "--construction", "an", "--pattern", "random",
                     "--k", "5", "--trials", "2"]) == 2
        assert "random faults only" in capsys.readouterr().err

    def test_bad_workers_is_clean_error(self, capsys):
        assert main(["run", "--construction", "bn", "--p", "0.001",
                     "--workers", "0", "--trials", "2"]) == 2
        assert "workers" in capsys.readouterr().err


class TestUsageErrors:
    """Bad input exits 2 with one ``<cmd>: ...`` line on stderr, before
    any trial runs — never a traceback."""

    DN = ["--construction", "dn", "--n", "70", "--b", "2"]
    EXPERIMENTS = {
        "run": ["run", *DN, "--p", "0.001"],
        "lifetime": ["lifetime", *DN],
        "traffic": ["traffic", *DN, "--messages", "8"],
    }

    def usage_error(self, capsys, argv) -> str:
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, (out, err)
        return err

    @pytest.mark.parametrize("cmd", sorted(EXPERIMENTS))
    def test_zero_trials(self, capsys, cmd):
        err = self.usage_error(capsys, [*self.EXPERIMENTS[cmd], "--trials", "0"])
        assert err == f"{cmd}: trials must be >= 1\n"

    @pytest.mark.parametrize("cmd", sorted(EXPERIMENTS))
    def test_construction_flag_that_does_not_apply(self, capsys, cmd):
        err = self.usage_error(
            capsys, [*self.EXPERIMENTS[cmd], "--s", "9", "--trials", "2"]
        )
        assert err == f"{cmd}: --s does not apply to dn; it takes --d, --n, --b\n"

    def test_check_health_is_bn_only(self, capsys):
        err = self.usage_error(
            capsys, [*self.EXPERIMENTS["run"], "--check-health", "--trials", "2"]
        )
        assert err.startswith("run: --check-health does not apply to dn")

    def test_info_invalid_params(self, capsys):
        err = self.usage_error(capsys, ["info", "bn", "--b", "2"])
        assert err.startswith("info: b must be >= 3")

    def test_bad_checkpoints_fail_before_the_experiment(self, capsys):
        err = self.usage_error(capsys, ["lifetime", "--b", "3", "--trials", "1",
                                        "--traffic", "uniform",
                                        "--checkpoints", "5,x"])
        assert err.startswith("lifetime: --checkpoints")


class TestFaultModelFlag:
    """--fault-model NAME[:key=val,...] on run/lifetime/traffic
    (docs/faults.md)."""

    def test_run_grid_points_and_serialization(self, capsys, tmp_path):
        out_path = tmp_path / "models.json"
        assert main(["run", "--construction", "bn", "--p", "0.001",
                     "--fault-model", "neighbor:p=0.002",
                     "--fault-model", "component:rate=0.01,width=2",
                     "--trials", "2", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "model/neighbor" in out and "model/component" in out
        payload = json.loads(out_path.read_text())
        grid = payload["spec"]["grid"]
        # The plain --p point serialises WITHOUT the key (byte-stability);
        # model points carry the flattened dict back out.
        assert "fault_model" not in grid[0]
        assert grid[1]["fault_model"] == {"name": "neighbor", "p": 0.002}
        assert grid[2]["fault_model"] == {"name": "component", "rate": 0.01,
                                          "width": 2}

    def test_lifetime_model_stream(self, capsys):
        assert main(["lifetime", "--b", "3", "--fault-model",
                     "bernoulli:p=0.0005", "--repair-rate", "0.3",
                     "--max-steps", "20", "--trials", "2"]) == 0
        assert "life/model/bernoulli" in capsys.readouterr().out

    def test_traffic_byzantine_model(self, capsys):
        assert main(["traffic", "--b", "3", "--pattern", "uniform",
                     "--messages", "16", "--fault-model",
                     "byzantine:rate=0.05,drop=2", "--trials", "2"]) == 0
        assert "model=byzantine" in capsys.readouterr().out

    def test_unknown_model_is_usage_error(self, capsys):
        assert main(["run", "--construction", "bn", "--fault-model",
                     "gamma-ray", "--trials", "2"]) == 2
        err = capsys.readouterr().err
        assert "unknown fault model" in err and "bernoulli" in err

    def test_bad_model_parameters_are_usage_errors(self, capsys):
        assert main(["run", "--construction", "bn", "--fault-model",
                     "neighbor:p=1.5", "--trials", "2"]) == 2
        assert "out of [0, 1]" in capsys.readouterr().err
        assert main(["run", "--construction", "bn", "--fault-model",
                     "neighbor:zeta=1", "--trials", "2"]) == 2
        assert "neighbor" in capsys.readouterr().err


class TestBackendFlag:
    """--backend {scalar,batch} on run/lifetime/traffic (docs/fastpath.md
    backends).  The choice must never reach the results, and any other
    value is a clean exit 2."""

    def run_json(self, tmp_path, cmd, backend):
        out_path = tmp_path / f"{backend or 'default'}.json"
        argv = [*cmd, "--out", str(out_path)]
        if backend is not None:
            argv += ["--backend", backend]
        assert main(argv) == 0, argv
        return out_path.read_bytes()

    def test_run_tiers_byte_identical(self, capsys, tmp_path):
        cmd = ["run", "--construction", "bn", "--p", "0.001,0.02",
               "--trials", "4"]
        ref = self.run_json(tmp_path, cmd, None)
        for backend in ("scalar", "batch"):
            assert self.run_json(tmp_path, cmd, backend) == ref, backend
            capsys.readouterr()

    def test_lifetime_and_traffic_tiers_byte_identical(self, capsys, tmp_path):
        for cmd in (
            ["lifetime", "--b", "3", "--trials", "2"],
            ["traffic", "--b", "3", "--pattern", "uniform", "--messages", "24",
             "--router", "adaptive", "--qos-classes", "2", "--credits", "4",
             "--trials", "2"],
        ):
            scalar = self.run_json(tmp_path, cmd, "scalar")
            assert self.run_json(tmp_path, cmd, "batch") == scalar, cmd
            capsys.readouterr()

    def test_unknown_backend_is_clean_error(self, capsys):
        for cmd in (
            ["run", "--construction", "bn", "--p", "0.001", "--trials", "2"],
            ["lifetime", "--b", "3", "--trials", "1"],
            ["traffic", "--b", "3", "--pattern", "uniform", "--messages", "8",
             "--trials", "1"],
        ):
            for backend in ("compiled", "auto"):
                with pytest.raises(SystemExit) as exc:
                    main([*cmd, "--backend", backend])
                assert exc.value.code == 2, (cmd, backend)
                assert f"invalid choice: '{backend}'" in capsys.readouterr().err
