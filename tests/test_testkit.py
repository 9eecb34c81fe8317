"""The testkit's own tests: strategies are valid, oracles actually fire.

An oracle that silently passes on corrupted inputs is worse than no
oracle — it certifies broken backends.  The mutation tests here inject
one precise defect per oracle (a corrupted embedding edge, a dropped
delivered message, a perturbed outcome field, a broken router, a lying
health record, a tampered golden artifact) and assert the oracle
reports a *structured* field-level mismatch naming that defect — never
a silent pass, never a bare ``False``.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.api import ExperimentRunner, ExperimentSpec, FaultSpec, get
from repro.api.protocol import LifetimeSpec, TrafficSpec
from repro.core.healthiness import check_healthiness
from repro.sim.engine import MSG_DELIVERED, MSG_DROPPED, MSG_TIMED_OUT, simulate
from repro.sim.routing import dimension_ordered_route
from repro.sim.traffic import make_traffic
from repro.testkit import strategies as tks
from repro.testkit.golden import GoldenCase, check_golden, write_golden
from repro.testkit.oracles import (
    audit_embedding,
    brute_force_healthiness,
    check_routes_bfs,
    compare_sim_results,
    diff_values,
    health_record,
    sim_engines_oracle,
    trial_backend_oracle,
)
from repro.util.rng import spawn_rng

pytestmark = pytest.mark.conformance


# ---------------------------------------------------------------------------
# Strategies: every draw is a valid, well-formed spec
# ---------------------------------------------------------------------------


class TestStrategies:
    @settings(max_examples=40, deadline=None)
    @given(spec=tks.fault_specs())
    def test_fault_specs_valid(self, spec):
        assert isinstance(spec, FaultSpec)
        if spec.adversarial:
            assert spec.pattern in tks.ADVERSARY_PATTERN_NAMES
            assert spec.k is not None and spec.k >= 0
        else:
            assert 0.0 <= spec.p <= 1.0 and 0.0 <= spec.q <= 1.0
        FaultSpec.from_dict(spec.to_dict())  # round-trips

    @settings(max_examples=40, deadline=None)
    @given(spec=tks.lifetime_specs())
    def test_lifetime_specs_valid(self, spec):
        assert isinstance(spec, LifetimeSpec)
        if spec.timeline in ("bernoulli", "burst"):
            assert spec.max_steps is not None
        if spec.timeline == "adversarial":
            assert spec.pattern in tks.ADVERSARY_PATTERN_NAMES
        LifetimeSpec.from_dict(spec.to_dict())

    @settings(max_examples=40, deadline=None)
    @given(spec=tks.traffic_specs())
    def test_traffic_specs_valid(self, spec):
        assert isinstance(spec, TrafficSpec)
        if spec.open_loop:
            assert 0 <= spec.warmup < spec.cycles
        else:
            assert spec.messages >= 1
        TrafficSpec.from_dict(spec.to_dict())

    def test_timeline_cases_cover_every_kind(self):
        cases = tks.timeline_cases()
        assert len(cases) >= 200
        kinds = {spec.timeline for _, spec in cases}
        assert kinds == {"uniform", "bernoulli", "burst", "adversarial"}
        assert any(spec.repair_rate > 0 for _, spec in cases)

    def test_small_constructions_instantiate(self):
        for name, params in tks.SMALL_CONSTRUCTIONS:
            c = get(name, **params)
            assert c.name == name and c.num_nodes > 0

    def test_name_pools_are_registry_derived(self):
        """The pools are *derived* from the registries (no hand-kept
        mirrors left): each assertion is the one-line proof that the
        production table and the testkit pool share a source."""
        from repro.api.registry import available
        from repro.faults import registry as fault_registry
        from repro.faults.adversary import ADVERSARY_PATTERNS
        from repro.sim.routing import ROUTERS
        from repro.sim.traffic import TRAFFIC_PATTERNS

        assert tks.ADVERSARY_PATTERN_NAMES is fault_registry.ADVERSARY_PATTERN_NAMES
        assert set(ADVERSARY_PATTERNS) == set(fault_registry.ADVERSARY_PATTERN_NAMES)
        assert set(tks.TRAFFIC_PATTERN_NAMES) == set(TRAFFIC_PATTERNS)
        assert set(tks.ROUTER_NAMES) == set(ROUTERS)
        assert {name for name, _ in tks.SMALL_CONSTRUCTIONS} == set(available())

    def test_fault_model_cases_cover_the_registry(self):
        from repro.faults.registry import fault_model_names, make_fault_model

        names = {m["name"] for m in tks.FAULT_MODEL_CASES}
        assert names == set(fault_model_names())
        for m in tks.FAULT_MODEL_CASES:
            make_fault_model(m)  # every case resolves and validates

    @settings(max_examples=30, deadline=None)
    @given(spec=tks.fault_specs(with_model=True))
    def test_model_bearing_fault_specs_valid(self, spec):
        assert spec.fault_model is not None and not spec.adversarial
        assert spec.label().startswith("model/")
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=30, deadline=None)
    @given(spec=tks.lifetime_specs(with_model=True))
    def test_model_bearing_lifetime_specs_valid(self, spec):
        from repro.faults.registry import get_model_class

        assert spec.fault_model is not None
        assert get_model_class(spec.fault_model["name"]).behavior == "crash"
        assert LifetimeSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=30, deadline=None)
    @given(spec=tks.traffic_specs(with_model=True))
    def test_model_bearing_traffic_specs_valid(self, spec):
        assert spec.fault_model is not None
        assert f"model={spec.fault_model['name']}" in spec.label()
        assert TrafficSpec.from_dict(spec.to_dict()) == spec


# ---------------------------------------------------------------------------
# The structural diff underneath every oracle
# ---------------------------------------------------------------------------


class TestDiffValues:
    def kw(self):
        return dict(oracle="t", left="a", right="b")

    def test_equal_payloads_no_mismatch(self):
        payload = {"x": [1, 2.5, {"y": "z", "nan": float("nan")}]}
        other = json.loads(json.dumps(payload))
        assert diff_values(payload, other, **self.kw()) == []

    def test_nan_equals_nan_but_not_numbers(self):
        assert diff_values(float("nan"), float("nan"), **self.kw()) == []
        ms = diff_values({"lat": float("nan")}, {"lat": 3.0}, **self.kw())
        assert [m.path for m in ms] == ["lat"] and math.isnan(ms[0].expected)

    def test_nested_path_reported(self):
        a = {"points": [{"result": {"successes": 5}}]}
        b = {"points": [{"result": {"successes": 6}}]}
        (m,) = diff_values(a, b, **self.kw())
        assert m.path == "points[0].result.successes"
        assert (m.expected, m.actual) == (5, 6)
        assert "points[0].result.successes" in m.describe()

    def test_missing_key_and_length(self):
        ms = diff_values({"a": 1}, {"b": 1}, **self.kw())
        assert {m.path for m in ms} == {"a", "b"}
        (m,) = diff_values([1, 2], [1, 2, 3], **self.kw())
        assert m.path == "length" and (m.expected, m.actual) == (2, 3)

    def test_int_float_type_drift_is_a_mismatch(self):
        # 5 and 5.0 serialise differently; byte identity demands the diff
        # refuses to conflate them.
        assert diff_values({"v": 5}, {"v": 5.0}, **self.kw()) != []


# ---------------------------------------------------------------------------
# Mutation: perturb one outcome field in a runner payload
# ---------------------------------------------------------------------------


class TestRunnerPayloadMutation:
    def test_perturbed_outcome_field_is_reported_at_its_path(self):
        spec = ExperimentSpec(
            construction="bn", params={"d": 2, "b": 3, "s": 1, "t": 2},
            grid=(FaultSpec(p=1e-3),), trials=3, name="mut",
        )
        ref = ExperimentRunner().run(spec).to_dict()
        tampered = json.loads(json.dumps(ref))
        tampered["points"][0]["result"]["successes"] += 1
        ms = diff_values(ref, tampered, oracle="runner-backends",
                         left="serial/scalar", right="tampered")
        assert [m.path for m in ms] == ["points[0].result.successes"]
        assert ms[0].actual == ms[0].expected + 1


# ---------------------------------------------------------------------------
# Mutation: drop a delivered message from a SimResult
# ---------------------------------------------------------------------------


class TestSimResultMutation:
    def test_dropped_delivery_is_reported_field_by_field(self):
        shape = (6, 6)
        t = make_traffic(shape, "uniform", 20, spawn_rng(3))
        honest = simulate(shape, t)
        assert honest.delivered == 20
        lying_msg = honest.message_latencies.copy()
        dropped = int(np.flatnonzero(lying_msg >= 0)[-1])
        lying_msg[dropped] = -1
        lying_status = honest.message_status.copy()
        lying_status[dropped] = MSG_TIMED_OUT
        lying = dataclasses.replace(
            honest, message_status=lying_status, message_latencies=lying_msg
        )
        ms = compare_sim_results(honest, lying)
        paths = {m.path for m in ms}
        assert "delivered" in paths and "timed_out" in paths
        assert any(p.startswith("message_latencies") for p in paths)
        assert all(m.oracle == "sim-engines" for m in ms)

    def test_engines_agree_when_nothing_is_dropped(self):
        shape = (6, 6)
        t = make_traffic(shape, "transpose", 30, spawn_rng(4))
        report = sim_engines_oracle(shape, t)
        assert report.ok and report.cases == 1


# ---------------------------------------------------------------------------
# Mutation: corrupt an embedding edge
# ---------------------------------------------------------------------------


class TestEmbeddingAuditMutation:
    @pytest.fixture(scope="class")
    def recovered(self, bn2_small):
        from repro.core.bn import BTorus

        bt = BTorus(bn2_small)
        rng = spawn_rng(5, "audit")
        faults = bt.sample_faults(bn2_small.paper_fault_probability, rng)
        return bt, bt.recover(faults), faults

    def test_honest_recovery_passes(self, recovered):
        bt, rec, faults = recovered
        report = audit_embedding(bt, rec, faults)
        assert report.ok and report.cases > 1

    def test_swapped_phi_entries_fire_edge_mismatches(self, recovered):
        bt, rec, faults = recovered
        phi = rec.phi.copy()
        phi[[0, 1]] = phi[[1, 0]]  # still injective; adjacency now broken
        report = audit_embedding(bt, dataclasses.replace(rec, phi=phi), faults)
        assert not report.ok
        assert any("guest-edge" in m.path for m in report.mismatches)
        assert all(m.oracle == "embedding-audit" for m in report.mismatches)

    def test_faulty_host_node_fires(self, recovered):
        bt, rec, faults = recovered
        worse = faults.copy()
        worse.ravel()[int(rec.phi[0])] = True  # break the mapped host node
        report = audit_embedding(bt, rec, worse)
        assert any(m.path == "phi[0]" for m in report.mismatches)

    def test_non_injective_phi_fires(self, recovered):
        bt, rec, faults = recovered
        phi = rec.phi.copy()
        phi[1] = phi[0]
        report = audit_embedding(bt, dataclasses.replace(rec, phi=phi), faults)
        assert any(m.path == "phi.injective" for m in report.mismatches)


# ---------------------------------------------------------------------------
# Mutation: break the router under the BFS validity oracle
# ---------------------------------------------------------------------------


class TestRouteBfsMutation:
    def test_production_router_is_minimal_and_adjacent(self):
        shape = (5, 7)
        t = make_traffic(shape, "uniform", 25, spawn_rng(6))
        report = check_routes_bfs(shape, t)
        assert report.ok and report.cases == 25

    def test_teleporting_router_fires_adjacency(self):
        def teleport(shape, src, dst):
            return np.array([src, dst], dtype=np.int64)

        t = np.array([[0, 12]])  # distant pair on (5, 7)
        report = check_routes_bfs((5, 7), t, router=teleport)
        assert not report.ok
        assert any(".hop[" in m.path for m in report.mismatches)

    def test_detouring_router_fires_minimality(self):
        def detour(shape, src, dst):
            r = dimension_ordered_route(shape, src, dst)
            if len(r) >= 2:  # step out and back once: valid hops, +2 length
                r = np.concatenate([r[:2], r])
            return r

        t = np.array([[0, 12]])
        report = check_routes_bfs((5, 7), t, router=detour)
        assert any(m.path.endswith(".hops") for m in report.mismatches)
        m = next(m for m in report.mismatches if m.path.endswith(".hops"))
        assert m.expected == m.actual + 2  # router hops vs BFS distance

    def test_wrong_endpoint_fires(self):
        def wrong_end(shape, src, dst):
            r = dimension_ordered_route(shape, src, dst)
            return r[:-1] if len(r) > 1 else r

        t = np.array([[0, 12]])
        report = check_routes_bfs((5, 7), t, router=wrong_end)
        assert any(m.path.endswith(".end") for m in report.mismatches)


# ---------------------------------------------------------------------------
# Brute-force healthiness: agrees with production, flags each condition
# ---------------------------------------------------------------------------


class TestBruteForceHealthiness:
    def test_clean_instance_all_ok(self, bn2_small):
        faults = np.zeros(bn2_small.shape, dtype=bool)
        rec = brute_force_healthiness(bn2_small, faults)
        assert rec["cond1_ok"] and rec["cond2_ok"] and rec["cond3_ok"]
        assert rec == health_record(check_healthiness(bn2_small, faults))

    def test_condition1_row_starvation_flagged(self, bn2_small):
        faults = np.zeros(bn2_small.shape, dtype=bool)
        faults[:: bn2_small.b, 0] = True  # a fault every b rows: no 2b-run
        rec = brute_force_healthiness(bn2_small, faults)
        assert not rec["cond1_ok"]
        assert rec == health_record(check_healthiness(bn2_small, faults))

    def test_condition2_brick_overload_flagged(self, bn2_small):
        faults = np.zeros(bn2_small.shape, dtype=bool)
        faults[0, 0] = faults[1, 1] = True  # two faults in one brick, s=1
        rec = brute_force_healthiness(bn2_small, faults)
        assert not rec["cond2_ok"]
        assert rec["max_brick_faults"] >= 2
        assert rec == health_record(check_healthiness(bn2_small, faults))

    def test_lying_health_record_is_caught_by_the_diff(self, bn2_small):
        rng = spawn_rng(9, "lying-health")
        faults = rng.random(bn2_small.shape) < 0.01
        honest = health_record(check_healthiness(bn2_small, faults))
        lying = json.loads(json.dumps(honest))
        lying["cond2_ok"] = not lying["cond2_ok"]
        ms = diff_values(brute_force_healthiness(bn2_small, faults), lying,
                         oracle="healthiness", left="brute-force", right="claimed")
        assert [m.path for m in ms] == ["cond2_ok"]


# ---------------------------------------------------------------------------
# Backend-capability probing mirrors the runner's
# ---------------------------------------------------------------------------


class TestTrialBackendOracle:
    def test_skips_incapable_backends_with_a_reason(self):
        dn = get("dn", d=2, n=70, b=2)
        report = trial_backend_oracle(dn, FaultSpec(pattern="random", k=8), range(2))
        assert report.ok and report.cases == 0
        assert "batch kernel" in report.skipped

    def test_diffs_capable_backends(self):
        bn = get("bn", d=2, b=3, s=1, t=2)
        report = trial_backend_oracle(bn, FaultSpec(p=1e-3), range(3))
        assert report.ok and report.cases == 3 and not report.skipped


# ---------------------------------------------------------------------------
# Mutation: break a fault-model sampler under the model oracle
# ---------------------------------------------------------------------------


class TestFaultModelOracleMutation:
    def test_every_registered_model_passes_honestly(self):
        from repro.testkit.oracles import fault_model_oracle

        for model_dict in tks.FAULT_MODEL_CASES:
            report = fault_model_oracle(
                model_dict, shapes=((6, 6),), seeds=range(2), empirical_draws=40
            )
            assert report.ok, report.describe()
            assert report.cases > 0

    def test_wrong_probability_sampler_fires(self):
        from repro.testkit.oracles import fault_model_oracle

        def wrong_p(shape, rng):
            return rng.random(tuple(shape)) < 0.5  # model says p=0.01

        report = fault_model_oracle(
            {"name": "bernoulli", "p": 0.01}, sample_fn=wrong_p,
            shapes=((6, 6),), seeds=range(2),
        )
        assert not report.ok
        assert any(m.path.startswith("sample[") for m in report.mismatches)
        assert all(m.oracle == "fault-model" for m in report.mismatches)

    def test_fault_dropping_sampler_fires(self):
        from repro.faults.registry import make_fault_model
        from repro.testkit.oracles import fault_model_oracle

        model = make_fault_model({"name": "neighbor", "p": 0.005})

        def drops_one(shape, rng):
            out = model.sample(shape, rng)
            hit = np.flatnonzero(out.ravel())
            if len(hit):
                out.ravel()[hit[0]] = False
            return out

        report = fault_model_oracle(
            {"name": "neighbor", "p": 0.005}, sample_fn=drops_one,
            shapes=((6, 6),), seeds=range(4),
        )
        assert not report.ok
        assert any(m.path.startswith("sample[") for m in report.mismatches)

    def test_byzantine_engine_divergence_fires(self):
        """A SimResult whose integrity fields are tampered must be caught
        by the same record diff the Byzantine cross-check runs on."""
        import dataclasses

        from repro.sim.routing import ByzantinePlan
        from repro.testkit.oracles import compare_sim_results

        shape = (6, 6)
        t = make_traffic(shape, "uniform", 48, spawn_rng(3, "byz-mut"))
        mask = spawn_rng(5, "byz-mut-mask").random(shape) < 0.15
        plan = ByzantinePlan(mask, (1 / 3, 1 / 3, 1 / 3), spawn_rng(7, "byz-mut-p"))
        honest = simulate(shape, t, byzantine=plan)
        assert honest.dropped + honest.corrupted + honest.misrouted > 0
        lying_status = honest.message_status.copy()
        lying_msg = honest.message_latencies.copy()
        swallowed = int(np.flatnonzero(lying_status == MSG_DELIVERED)[0])
        lying_status[swallowed] = MSG_DROPPED
        lying_msg[swallowed] = -1
        lying = dataclasses.replace(
            honest, message_status=lying_status, message_latencies=lying_msg
        )
        ms = compare_sim_results(honest, lying)
        assert {m.path for m in ms} >= {"dropped", "delivered"}


class TestBatchedBnKernelOracleMutation:
    """The batched-rng and straight-cover stages fire on a broken kernel."""

    def test_skewed_generator_derivation_fires(self, monkeypatch):
        import repro.util.rng as rng_mod
        from repro.testkit.oracles import batched_rng_oracle

        honest = rng_mod.iter_rngs

        def skewed(roots, *keys):
            return honest([int(r) + (int(r) == 7) for r in roots], *keys)

        monkeypatch.setattr(rng_mod, "iter_rngs", skewed)
        report = batched_rng_oracle([5, 7, 9], [("bn-trial", 36, 2)])
        assert not report.ok
        assert {m.path.split(".")[1] for m in report.mismatches} == {"root[7]"}

    def test_overeager_sweep_fires(self, monkeypatch):
        import repro.fastpath.bn_batch as kernel
        from repro.testkit.oracles import straight_cover_oracle

        honest = kernel._latest_sweep

        def accepts_everything(rows, b, K):
            accepted, rejected, bottoms = honest(rows, b, K)
            return ~rejected, rejected, bottoms

        monkeypatch.setattr(kernel, "_latest_sweep", accepts_everything)
        report = straight_cover_oracle([(54, 3, 6)], [], trials=32)
        assert not report.ok
        # Trials only the "earliest" variant covers are accepted with the
        # "latest" sweep's bands: a wrong flag, unmasked rows or, where
        # those bands still cover, bottoms that are not the greedy's.
        assert any(m.path.endswith(".success") for m in report.mismatches)
        assert all(m.path.endswith((".success", ".masks_every_row", ".bottoms"))
                   for m in report.mismatches)

    def test_covered_without_a_straight_placement_fires(self, monkeypatch):
        import repro.fastpath.bn_batch as kernel
        from repro.testkit.oracles import straight_cover_oracle

        # Every trial "covered", whatever its faults.
        monkeypatch.setattr(kernel, "_straight_cover", lambda rows, b, K: (
            np.ones(len(rows), dtype=bool), np.zeros((len(rows), K), dtype=np.int64)))
        monkeypatch.setattr(kernel, "_masks_cover",
                            lambda rows, bottoms, b: np.ones(len(rows), dtype=bool))
        report = straight_cover_oracle([], [dict(d=2, b=3, s=1, t=2)], trials=8)
        assert not report.ok
        assert any(m.path.endswith(".covered") for m in report.mismatches)


# ---------------------------------------------------------------------------
# Mutation: tamper a golden artifact
# ---------------------------------------------------------------------------


class TestGoldenGateMutation:
    @pytest.fixture(scope="class")
    def small_case(self):
        return GoldenCase(
            "mut-bn",
            ExperimentSpec(
                construction="bn", params={"d": 2, "b": 3, "s": 1, "t": 2},
                grid=(FaultSpec(p=1e-3),), trials=2, name="mut-bn",
            ),
        )

    def test_fresh_snapshot_passes(self, small_case, tmp_path):
        write_golden(small_case, tmp_path)
        report = check_golden(small_case, tmp_path)
        assert report.ok

    def test_tampered_field_reported_with_path(self, small_case, tmp_path):
        path = write_golden(small_case, tmp_path)
        payload = json.loads(path.read_text())
        payload["points"][0]["result"]["mean_faults"] += 1.0
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        report = check_golden(small_case, tmp_path)
        assert not report.ok
        assert any(m.path == "points[0].result.mean_faults" for m in report.mismatches)

    def test_non_canonical_bytes_reported(self, small_case, tmp_path):
        path = write_golden(small_case, tmp_path)
        # Same fields, different serialisation: still a gate failure.
        path.write_text(json.dumps(json.loads(path.read_text())) + "\n")
        report = check_golden(small_case, tmp_path)
        assert any(m.path == "<canonical-json>" for m in report.mismatches)

    def test_missing_snapshot_is_an_explicit_failure(self, small_case, tmp_path):
        report = check_golden(small_case, tmp_path / "empty")
        assert not report.ok
        assert "missing" in str(report.mismatches[0].actual)
        assert "update-golden" in str(report.mismatches[0].actual)
