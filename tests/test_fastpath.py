"""The batched-backend contract: identical outcomes, byte-identical JSON.

Three layers of assurance, strongest first:

* a hypothesis property drawing random ``BnParams``, fault rates, edge
  rates and health-checking flags, asserting the batched backend returns
  the *identical* ``TrialOutcome`` sequence to the scalar per-trial loop
  for the same seeds (ISSUE 2's equivalence satellite);
* targeted equivalence for the batched healthiness checker (every report
  field, including the bounded violation samples) and for the an
  backend's analytic classification;
* end-to-end byte-identity of experiment JSON between
  ``ExperimentRunner(backend="batch")`` and ``backend="scalar"`` (the CLI
  ``--backend`` twin lives in tests/test_cli.py::TestBackendFlag).

Parameter pools and the per-record comparison views come from
``repro.testkit`` (``strategies.BN_PARAM_SETS``, ``oracles.*_record``) —
the same generators every other conformance consumer uses.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    BatchCapable,
    ExperimentRunner,
    ExperimentSpec,
    FaultSpec,
    LifetimeSpec,
    get,
)
from repro.core.healthiness import check_healthiness, find_enclosing_frame
from repro.core.params import BnParams
from repro.core.placement import place_bands
from repro.errors import ReconstructionError
from repro.fastpath.bn_batch import sample_bn_faults_batch, straight_survival_batch
from repro.fastpath.health import check_healthiness_batch, frame_enclosed
from repro.fastpath.lifetime_batch import STEP_BLOCK, _all_framed
from repro.testkit.oracles import health_record, lifetime_record, outcome_record
from repro.testkit.strategies import BN_PARAM_SETS
from repro.topology.grid import TileGeometry
from repro.util.rng import spawn_rng


# ---------------------------------------------------------------------------
# The equivalence property (ISSUE 2 satellite)
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    params=st.sampled_from(BN_PARAM_SETS),
    p_mult=st.sampled_from([0.0, 0.25, 1.0, 8.0, 64.0, 256.0]),
    q=st.sampled_from([0.0, 0.001, 0.01]),
    check_health=st.booleans(),
    seed0=st.integers(min_value=0, max_value=10_000),
)
def test_bn_batch_equals_scalar(params, p_mult, q, check_health, seed0):
    bn = get("bn", **params, check_health=check_health)
    p = min(1.0, p_mult * bn.params.paper_fault_probability)
    spec = FaultSpec(p=p, q=q)
    seeds = list(range(seed0, seed0 + 6))
    batch = bn.run_batch(spec, seeds)
    scalar = [bn.trial(spec, s) for s in seeds]
    assert [outcome_record(o) for o in batch] == [outcome_record(o) for o in scalar]
    assert [health_record(o.health) for o in batch] == [
        health_record(o.health) for o in scalar
    ]


@pytest.mark.parametrize("p", [0.05, 0.2, 0.5])
def test_an_batch_equals_scalar(p):
    an = get("an", d=2, b=3, s=1, t=2, k_sub=2, h=8)
    spec = FaultSpec(p=p)
    seeds = list(range(8))
    batch = an.run_batch(spec, seeds)
    scalar = [an.trial(spec, s) for s in seeds]
    assert [outcome_record(o) for o in batch] == [outcome_record(o) for o in scalar]


def test_bn_strategy_straight_batch_equals_scalar():
    """The pure-straight strategy also batches; failures keep their scalar
    categories via the fallback path."""
    bn = get("bn", d=2, b=3, s=1, t=2, strategy="straight")
    spec = FaultSpec(p=0.02)  # dense enough that some covers fail
    seeds = list(range(12))
    batch = bn.run_batch(spec, seeds)
    scalar = [bn.trial(spec, s) for s in seeds]
    assert [outcome_record(o) for o in batch] == [outcome_record(o) for o in scalar]
    assert any(not o.success for o in batch)  # the point: mixed outcomes


# ---------------------------------------------------------------------------
# The batched lifetime kernel (ISSUE 3 acceptance: identical first-failure
# times, trial for trial)
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    params=st.sampled_from(BN_PARAM_SETS),
    strategy=st.sampled_from(["auto", "straight"]),
    max_steps=st.sampled_from([None, 5, 60]),
    seed0=st.integers(min_value=0, max_value=10_000),
)
def test_bn_lifetime_batch_equals_scalar(params, strategy, max_steps, seed0):
    bn = get("bn", **params, strategy=strategy)
    spec = LifetimeSpec(max_steps=max_steps)
    assert bn.supports_lifetime_batch(spec)
    seeds = list(range(seed0, seed0 + 5))
    batch = bn.run_lifetime_batch(spec, seeds)
    scalar = [bn.lifetime_trial(spec, s) for s in seeds]
    assert [lifetime_record(o) for o in batch] == [lifetime_record(o) for o in scalar]


def test_lifetime_runner_batch_json_byte_identical(tmp_path):
    spec = ExperimentSpec(
        construction="bn", params={"d": 2, "b": 3, "s": 1, "t": 2},
        grid=(LifetimeSpec(),), trials=20, name="lifetime-bi",  # 2 chunks
    )
    a, b = tmp_path / "batch.json", tmp_path / "scalar.json"
    ExperimentRunner(backend="batch").run(spec).save(a)
    ExperimentRunner(backend="scalar").run(spec).save(b)
    assert a.read_bytes() == b.read_bytes()


def test_lifetime_batch_falls_back_for_unsupported_spec():
    """Repair timelines have no kernel; the runner must dispatch them to
    the scalar path with unchanged results."""
    bn = get("bn", d=2, b=3, s=1, t=2)
    spec = LifetimeSpec(repair_rate=0.3, max_steps=50)
    assert not bn.supports_lifetime_batch(spec)
    scalar = [bn.lifetime_trial(spec, s) for s in range(3)]
    es = ExperimentSpec(
        construction="bn", params={"d": 2, "b": 3, "s": 1, "t": 2},
        grid=(spec,), trials=3, name="fallback",
    )
    res = ExperimentRunner(backend="batch").run(es)
    assert res.points[0].result.lifetimes == [o.lifetime for o in scalar]


# Lifetime kernel edges: prefix blocks of STEP_BLOCK steps, and the
# placement-only paper check that decides a failed cover.

B4 = {"d": 2, "b": 4, "s": 1, "t": 2}


def _lifetime_kernel_matches_scalar(bn, spec, seeds):
    """Assert the kernel's records equal scalar ``lifetime_trial``'s, and
    return the scalar outcomes."""
    scalar = [bn.lifetime_trial(spec, s) for s in seeds]
    batch = bn.run_lifetime_batch(spec, seeds)
    assert [lifetime_record(o) for o in batch] == [lifetime_record(o) for o in scalar]
    return scalar


def test_lifetime_kernel_trial_outlives_the_first_block():
    (out,) = _lifetime_kernel_matches_scalar(get("bn", **B4), LifetimeSpec(), [197])
    assert out.lifetime == 17 > STEP_BLOCK


def test_lifetime_kernel_straight_strategy_across_blocks():
    bn = get("bn", **B4, strategy="straight")
    outs = _lifetime_kernel_matches_scalar(bn, LifetimeSpec(), list(range(190, 206)))
    assert max(o.lifetime for o in outs) > STEP_BLOCK
    assert {o.category for o in outs} == {"capacity"}


@pytest.mark.parametrize("kw, max_steps", [
    # Ends inside the first block; ends one step into the second.
    (B4, STEP_BLOCK // 2 + 1),
    (dict(d=2, b=5, s=1, t=2, strategy="straight"), STEP_BLOCK + 1),
])
def test_lifetime_kernel_max_steps_off_the_block_grid(kw, max_steps):
    spec = LifetimeSpec(max_steps=max_steps)
    outs = _lifetime_kernel_matches_scalar(get("bn", **kw), spec, list(range(48)))
    exhausted = [o for o in outs if not o.failed]
    assert exhausted and all(o.lifetime == max_steps for o in exhausted)
    crossed = any(o.failed and o.lifetime >= STEP_BLOCK for o in outs)
    assert crossed == (max_steps > STEP_BLOCK)


def test_lifetime_kernel_classifies_per_block_and_never_extracts(monkeypatch):
    """One straight-classifier call per block of STEP_BLOCK arrival steps,
    and a failed cover runs only the paper *placement*: the kernel never
    extracts a torus.  Where the placement survives (seeds 313 and 366),
    the trial is delegated to the scalar replay, which does."""
    from repro.core import bn as core_bn
    from repro.fastpath import lifetime_batch

    bn = get("bn", **B4)
    spec = LifetimeSpec()
    seeds = list(range(300, 348)) + [366]  # one slice
    scalar = _lifetime_kernel_matches_scalar(bn, spec, seeds)
    calls = []
    classify = lifetime_batch._straight_repairs
    monkeypatch.setattr(lifetime_batch, "_straight_repairs",
                        lambda *a: calls.append(a[1].shape) or classify(*a))

    def no_extraction(*args, **kwargs):
        raise AssertionError("the lifetime kernel extracted a torus")

    monkeypatch.setattr(core_bn, "extract_torus", no_extraction)
    delegated = []
    monkeypatch.setattr(bn, "lifetime_trial", lambda spec, seed: delegated.append(seed)
                        or scalar[seeds.index(seed)])
    batch = bn.run_lifetime_batch(spec, seeds)
    assert delegated == [313, 366]
    assert [lifetime_record(o) for o in batch] == [lifetime_record(o) for o in scalar]
    longest = max(o.lifetime for o in scalar)
    assert len(calls) <= math.ceil(longest / STEP_BLOCK) + 1


def test_lifetime_kernel_paints_only_framed_failures(monkeypatch):
    """One batched frame test finds the ``no-frame`` deaths, so the kernel
    runs ``paint_tiles`` once per failed cover whose faulty tiles all have
    a fault-free frame (found here by the scalar frame search), and for no
    other trial."""
    from repro.core import placement

    bn = get("bn", **B4)
    spec = LifetimeSpec()
    seeds = list(range(300, 348)) + [366]  # one slice
    scalar = [bn.lifetime_trial(spec, s) for s in seeds]
    delegated = [313, 366]  # their paper placement survives
    geo = bn.torus.geo

    def all_framed(faults):
        faulty = geo.tile_fault_counts(faults).ravel() > 0
        return all(find_enclosing_frame(geo, faulty, tuple(geo.grid.unravel(int(t))))
                   for t in np.flatnonzero(faulty))

    framed = len(delegated)
    for seed, out in zip(seeds, scalar):
        if seed not in delegated:
            order = bn.lifetime_rng(seed).permutation(bn.params.num_nodes)
            faults = np.zeros(bn.params.num_nodes, dtype=bool)
            faults[order[: out.lifetime + 1]] = True
            framed += all_framed(faults.reshape(bn.params.shape))
    painted = []
    paint = placement.paint_tiles
    monkeypatch.setattr(placement, "paint_tiles",
                        lambda p, faults, g: painted.append(faults) or paint(p, faults, g))
    monkeypatch.setattr(bn, "lifetime_trial", lambda spec, seed: scalar[seeds.index(seed)])
    batch = bn.run_lifetime_batch(spec, seeds)
    assert [lifetime_record(o) for o in batch] == [lifetime_record(o) for o in scalar]
    assert len(painted) == framed < len(seeds)
    assert all(all_framed(faults) for faults in painted)


@settings(max_examples=60, deadline=None)
@given(
    params_kw=st.sampled_from(BN_PARAM_SETS),
    seed=st.integers(min_value=0, max_value=10_000),
    lengths=st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=4),
)
def test_frame_test_is_the_no_frame_verdict(params_kw, seed, lengths):
    """On random arrival prefixes, the batched frame test fails exactly
    where the paper placement raises ``no-frame``: directly on each tile
    grid, and through the lifetime kernel's gather of several prefixes."""
    params = BnParams(**params_kw)
    geo = TileGeometry(params.shape, params.b)
    orders = np.stack([spawn_rng(seed, "frames", i).permutation(params.num_nodes)
                       for i in range(len(lengths))])
    lengths = np.minimum(lengths, params.num_nodes)
    verdicts = []
    for order, length in zip(orders, lengths.tolist()):
        faults = np.zeros(params.num_nodes, dtype=bool)
        faults[order[:length]] = True
        faults = faults.reshape(params.shape)
        faulty = geo.tile_fault_counts(faults) > 0
        framed = bool((frame_enclosed(faulty[None], params.b)[0] | ~faulty).all())
        try:
            place_bands(params, faults, strategy="paper", geo=geo)
            no_frame = False
        except ReconstructionError as exc:
            no_frame = exc.category == "no-frame"
        assert framed != no_frame
        verdicts.append(framed)
    gathered = _all_framed(geo, orders, np.arange(len(lengths)), lengths)
    assert gathered.tolist() == verdicts


# ---------------------------------------------------------------------------
# Batched healthiness checker
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("params_kw", BN_PARAM_SETS)
def test_health_batch_equals_scalar(params_kw):
    params = BnParams(**params_kw)
    rng = spawn_rng(7, "health-batch", params.n, params.d)
    # Densities straddling all three conditions' breaking points.
    stack = np.stack(
        [rng.random(params.shape) < p for p in (0.0, 0.001, 0.01, 0.05, 0.3)]
    )
    batch_reports = check_healthiness_batch(params, stack)
    for i in range(stack.shape[0]):
        assert health_record(check_healthiness(params, stack[i])) == health_record(
            batch_reports[i]
        )


def test_health_batch_rejects_bad_shape():
    params = BnParams(d=2, b=3, s=1, t=2)
    with pytest.raises(ValueError, match="fault stack shape"):
        check_healthiness_batch(params, np.zeros(params.shape, dtype=bool))


# ---------------------------------------------------------------------------
# Kernel internals
# ---------------------------------------------------------------------------


def test_sampler_matches_scalar_streams():
    from repro.core.bn import BTorus

    params = BnParams(d=2, b=3, s=1, t=2)
    bt = BTorus(params)
    seeds = [3, 4, 5, 2**32 + 7, -3]  # roots past 32 bits and negative too
    stack = sample_bn_faults_batch(bt, 0.01, 0.001, seeds)
    for i, seed in enumerate(seeds):
        rng = spawn_rng(seed, "bn-trial", params.n, params.d)
        assert (stack[i] == bt.sample_faults(0.01, rng, q=0.001)).all()


def test_straight_survival_batch_classification():
    params = BnParams(d=2, b=3, s=1, t=2)
    faults = np.zeros((3,) + params.shape, dtype=bool)
    faults[1, 0, 0] = True                       # one fault: coverable
    faults[2, :: params.b, 0] = True             # a fault every b rows: hopeless
    covered, fault_rows = straight_survival_batch(params, faults)
    assert covered.tolist() == [True, True, False]
    assert fault_rows.shape == (3, params.m)
    assert fault_rows[1].sum() == 1


def test_batch_capability_surface():
    """Capability advertisement matches what the backends implement."""
    bn = get("bn", d=2, b=3, s=1, t=2)
    an = get("an", d=2, b=3, s=1, t=2, k_sub=2, h=8)
    dn = get("dn", d=2, n=70, b=2)
    assert isinstance(bn, BatchCapable) and isinstance(an, BatchCapable)
    assert not isinstance(dn, BatchCapable)
    assert bn.supports_batch(FaultSpec(p=0.001))
    assert not bn.supports_batch(FaultSpec(pattern="random", k=4))
    assert not get("bn", d=2, b=3, s=1, t=2, strategy="paper").supports_batch(
        FaultSpec(p=0.001)
    )
    assert an.supports_batch(FaultSpec(p=0.1))
    assert not an.supports_batch(FaultSpec(p=0.1, q=0.001))


# ---------------------------------------------------------------------------
# End-to-end byte-identity
# ---------------------------------------------------------------------------


def _spec():
    return ExperimentSpec.from_grid(
        "bn", {"d": 2, "b": 4, "s": 1, "t": 2},
        p_values=[2.44140625e-04, 2e-3],
        trials=20,
        name="fastpath-bi",
    )


def test_runner_batch_json_byte_identical(tmp_path):
    a, b = tmp_path / "batch.json", tmp_path / "scalar.json"
    ExperimentRunner(backend="batch").run(_spec()).save(a)
    ExperimentRunner(backend="scalar").run(_spec()).save(b)
    assert a.read_bytes() == b.read_bytes()


def test_runner_health_tallies_byte_identical(tmp_path):
    """``check_health`` through the runner: the batch kernel checks the
    trials it classifies itself, the scalar loop every trial, and the
    tallies agree on draws both healthy and not."""
    spec = ExperimentSpec(
        construction="bn",
        params={"d": 2, "b": 3, "s": 1, "t": 2, "check_health": True},
        grid=(FaultSpec(p=1 / 729), FaultSpec(p=0.005), FaultSpec(p=0.005, q=0.001)),
        trials=96,
        name="fastpath-health",
    )
    a, b = tmp_path / "batch.json", tmp_path / "scalar.json"
    ExperimentRunner(backend="batch").run(spec).save(a)
    ExperimentRunner(backend="scalar").run(spec).save(b)
    assert a.read_bytes() == b.read_bytes()
    results = [pt["result"] for pt in json.loads(a.read_text())["points"]]
    checked = sum(r["health_checked"] for r in results)
    healthy = sum(r["healthy"] for r in results)
    assert checked == 3 * 96 and 0 < healthy < checked


def test_runner_batch_dispatch_falls_back_for_unsupported():
    """Constructions without the capability run per-trial on the batch
    backend with unchanged results."""
    spec = ExperimentSpec.from_grid(
        "dn", {"d": 2, "n": 70, "b": 2}, patterns=["random"], k=8, trials=4,
        name="dn-batch",
    )
    ra = ExperimentRunner(backend="batch").run(spec)
    rb = ExperimentRunner(backend="scalar").run(spec)
    assert json.dumps(ra.to_dict(), sort_keys=True) == json.dumps(
        rb.to_dict(), sort_keys=True
    )


def test_traffic_runner_batch_json_byte_identical(tmp_path):
    """The fourth batched kernel honours the same contract: a TrafficSpec
    grid serialises byte-identically whichever engine ran it (the
    field-level SimResult identity lives in tests/test_traffic.py)."""
    from repro.api import TrafficSpec

    spec = ExperimentSpec(
        construction="bn", params={"d": 2, "b": 3, "s": 1, "t": 2},
        grid=(
            TrafficSpec(pattern="transpose", messages=48),
            TrafficSpec(pattern="uniform", injection="bernoulli", rate=0.02,
                        cycles=40, warmup=10),
        ),
        trials=20, name="traffic-bi",  # 2 chunks, so parallel runs fan out
    )
    a, b = tmp_path / "batch.json", tmp_path / "scalar.json"
    ExperimentRunner(backend="batch").run(spec).save(a)
    ExperimentRunner(backend="scalar", workers=2).run(spec).save(b)
    assert a.read_bytes() == b.read_bytes()
