"""Adapters conforming the six constructions to the unified protocol.

Each adapter wraps one of the rich construction classes (``BTorus``,
``ATorus``, ``DTorus``, ``AlonChungPath``, ``ReplicatedTorus``,
``SpareRowsTorus``) without changing it: the wrapped object stays
available as ``.torus`` for callers that need the full bespoke API.

Seed discipline: ``trial`` reuses each construction's historical RNG
keying wherever one existed (``bn-trial``, ``an-nodes``/``an-half``,
``dn-sweep``, ``replication``), so registry-driven experiments reproduce
the exact outcomes of the pre-registry drivers for the same seeds.
``lifetime_rng`` is the one definition of each construction's lifetime
stream, read by every lifetime consumer (trials, the bn lifetime
kernel, traffic snapshots, the serve daemon's scripted events).
"""

from __future__ import annotations

import numpy as np

from repro.api.lifetime import FullRecomputeMachine, LifetimeOutcome, drive_timeline
from repro.api.outcome import TrialOutcome
from repro.api.protocol import FaultSpec, LifetimeSpec, TrafficSpec
from repro.api.registry import register
from repro.errors import ReconstructionError
from repro.faults.adversary import adversarial_node_faults
from repro.faults.registry import make_fault_model, model_token
from repro.topology.graph import CSRGraph
from repro.util.rng import spawn_rng

__all__ = [
    "AlonChungConstruction",
    "AnConstruction",
    "BnConstruction",
    "DnConstruction",
    "ReplicationConstruction",
    "SpareRowsConstruction",
]


class _AdapterBase:
    """Shared trial/recovery plumbing for the adapters.

    Subclasses implement ``sample_faults``/``recover`` plus ``_num_faults``
    and get a generic seeded ``trial``; adapters with a historical stream
    override only the step of it that differs: the generator
    (``_trial_rng``), the fault draw (``_trial_faults``) or the recovery
    (``_trial_recover``).
    """

    name: str = ""

    def _trial_keys(self, spec: FaultSpec) -> list:
        """The ``spawn_rng`` keys of :meth:`_trial_rng` (seed excluded)."""
        # Model-bearing specs append the canonical model token, so their
        # streams are independent of (and cannot perturb) the historical
        # model-free keying.
        keys = [
            f"{self.name}-trial", spec.pattern, str(spec.p), str(spec.q),
            -1 if spec.k is None else spec.k,
        ]
        if spec.fault_model is not None:
            keys.append(model_token(spec.fault_model))
        return keys

    def _trial_rng(self, spec: FaultSpec, seed: int) -> np.random.Generator:
        return spawn_rng(seed, *self._trial_keys(spec))

    def _model_faults(self, spec: FaultSpec, rng: np.random.Generator):
        """One-shot fault state drawn from the spec's registered model.

        The model samples over the adapter's lifetime shape — the node
        array every construction's ``recover`` accepts.  One-shot trials
        treat the sampled set as crash faults regardless of the model's
        behavior (conservative quarantine of suspected traitors); the
        ``byzantine`` semantics engage in the traffic engines.
        """
        return make_fault_model(spec.fault_model).sample(self._lifetime_shape(), rng)

    @staticmethod
    def _num_faults(faults) -> int:
        return int(np.asarray(faults).sum())

    def _trial_faults(self, spec: FaultSpec, seed: int):
        """One trial's fault draw."""
        return self.sample_faults(spec, self._trial_rng(spec, seed))

    def _trial_recover(self, faults, seed: int):
        """One trial's recovery attempt."""
        return self.recover(faults)

    def trial(self, spec: FaultSpec, seed: int) -> TrialOutcome:
        faults = self._trial_faults(spec, seed)
        n_faults = self._num_faults(faults)
        try:
            self._trial_recover(faults, seed)
            return TrialOutcome(success=True, category="ok", num_faults=n_faults)
        except ReconstructionError as exc:
            return TrialOutcome(success=False, category=exc.category, num_faults=n_faults)

    # -- lifetime capability ------------------------------------------------

    def _lifetime_shape(self) -> tuple:
        """Node shape the fault timeline runs over."""
        return self.params.shape

    def _lifetime_recover(self, faults):
        """Recovery attempt for a boolean fault array of ``_lifetime_shape``."""
        return self.recover(faults)

    #: What a recovery's outcome depends on, as a function of the fault
    #: array (see :class:`FullRecomputeMachine`); ``None``: the array.
    _lifetime_key = None

    def lifetime_rng(self, seed: int) -> np.random.Generator:
        """The stream a lifetime trial's timeline draws from."""
        return spawn_rng(seed, f"{self.name}-lifetime")

    def live_machine(self):
        """A fresh fault-free live machine (see :mod:`repro.api.lifetime`);
        this generic one recovers from scratch after every new fault that
        leaves ``_lifetime_key`` different from the last recovery's."""
        return FullRecomputeMachine(self._lifetime_shape(), self._lifetime_recover,
                                    key=self._lifetime_key)

    def lifetime_trial(self, spec: LifetimeSpec, seed: int) -> LifetimeOutcome:
        """One seeded fault-arrival timeline driven to first failure."""
        return drive_timeline(spec, self.live_machine(), self.lifetime_rng(seed))


class _TorusTrafficMixin:
    """Traffic capability shared by adapters whose guest is a torus.

    Subclasses provide ``guest_shape``; the trial driver and the batched
    dispatch live in :mod:`repro.api.traffic` /
    :mod:`repro.fastpath.traffic_batch`.  The expander-path baseline has a
    path guest (wraparound routes would be fictitious), so it simply does
    not mix this in and the runner reports it as traffic-incapable.
    """

    def traffic_trial(self, spec: TrafficSpec, seed: int):
        from repro.api.traffic import run_traffic_trial

        return run_traffic_trial(self.guest_shape(), spec, seed)

    def run_traffic_batch(self, spec: TrafficSpec, seeds: list) -> list:
        from repro.fastpath.traffic_batch import run_traffic_batch

        return run_traffic_batch(self.guest_shape(), spec, seeds)


# ---------------------------------------------------------------------------
# Theorem 2 — B^d_n
# ---------------------------------------------------------------------------


class BnConstruction(_TorusTrafficMixin, _AdapterBase):
    """Theorem 2's ``B^d_n`` under the unified protocol."""

    name = "bn"

    def __init__(self, params, *, strategy: str = "auto", check_health: bool = False):
        from repro.core.bn import BTorus

        self.params = params
        self.torus = BTorus(params)
        self.strategy = strategy
        self.check_health = check_health

    @property
    def num_nodes(self) -> int:
        return self.torus.bn.num_nodes

    @property
    def degree(self) -> int:
        return self.params.degree

    def graph(self) -> CSRGraph:
        return self.torus.bn.graph()

    def sample_faults(self, spec: FaultSpec, rng: np.random.Generator):
        if spec.fault_model is not None:
            return self._model_faults(spec, rng)
        if spec.adversarial:
            if spec.k is None:
                raise ValueError("adversarial faults against bn need an explicit k")
            return adversarial_node_faults(self.params.shape, spec.k, spec.pattern, rng)
        return self.torus.sample_faults(spec.p, rng, q=spec.q)

    def recover(self, faults):
        return self.torus.recover(faults, strategy=self.strategy)

    def trial(self, spec: FaultSpec, seed: int) -> TrialOutcome:
        if spec.adversarial or spec.fault_model is not None:
            return super().trial(spec, seed)
        # Same stream as the historical BTorus.trial driver loops.
        return self.torus.trial(
            spec.p, seed, q=spec.q, strategy=self.strategy, check_health=self.check_health
        )

    def supports_batch(self, spec: FaultSpec) -> bool:
        """Bernoulli points on the straight-capable strategies; the pure
        ``paper`` strategy never takes the straight fast path, so batching
        it would be per-trial fallback in disguise."""
        return not spec.adversarial and self.strategy in ("auto", "straight")

    def run_batch(
        self, spec: FaultSpec, seeds: list, max_batch_bytes: int | None = None
    ) -> list:
        from repro.fastpath.bn_batch import run_bn_batch

        return run_bn_batch(self, spec, seeds, max_batch_bytes=max_batch_bytes)

    def lifetime_rng(self, seed: int) -> np.random.Generator:
        """The historical bn lifetime stream, so registry-driven lifetime
        experiments reproduce the pre-subsystem numbers."""
        return spawn_rng(seed, "lifetime", self.params.n, self.params.d)

    def live_machine(self):
        """The incremental :class:`~repro.core.online.OnlineRecovery`."""
        from repro.core.online import OnlineRecovery

        return OnlineRecovery(self.torus, strategy=self.strategy)

    def supports_lifetime_batch(self, spec: LifetimeSpec) -> bool:
        """Uniform no-repair timelines on straight-capable strategies — the
        regime where the kernel's lockstep masked checks apply; repair
        processes and the other timeline kinds stay on the scalar path."""
        return (
            spec.timeline == "uniform"
            and spec.repair_rate == 0.0
            and spec.fault_model is None
            and self.strategy in ("auto", "straight")
        )

    def run_lifetime_batch(
        self, spec: LifetimeSpec, seeds: list, max_batch_bytes: int | None = None
    ) -> list:
        from repro.fastpath.lifetime_batch import run_bn_lifetime_batch

        return run_bn_lifetime_batch(
            self, spec, seeds, max_batch_bytes=max_batch_bytes
        )

    def guest_shape(self) -> tuple:
        """The ``n^d`` torus a successful recovery re-embeds (dilation 1)."""
        return (self.params.n,) * self.params.d


@register("bn")
def _make_bn(*, d: int = 2, b: int = 3, s: int = 1, t: int = 2,
             strategy: str = "auto", check_health: bool = False) -> BnConstruction:
    from repro.core.params import BnParams

    return BnConstruction(
        BnParams(d=d, b=b, s=s, t=t), strategy=strategy, check_health=check_health
    )


# ---------------------------------------------------------------------------
# Theorem 1 — A^d_n
# ---------------------------------------------------------------------------


class AnConstruction(_TorusTrafficMixin, _AdapterBase):
    """Theorem 1's ``A^d_n`` (supernode cliques over a ``B`` host)."""

    name = "an"

    def __init__(self, params):
        from repro.core.an import ATorus

        self.params = params
        self.torus = ATorus(params)

    @property
    def num_nodes(self) -> int:
        return self.params.num_nodes

    @property
    def degree(self) -> int:
        return self.params.degree

    def graph(self) -> CSRGraph:
        """Materialised ``A^d_n``: per-supernode ``h``-cliques plus complete
        bipartite edges between adjacent supernodes.  The recovery pipeline
        never touches this (half-edge bits stay lazy); it exists for
        structural verification at small scale and is cached."""
        if not hasattr(self, "_graph"):
            h = self.params.h
            n_super = self.params.num_supernodes
            a, b = np.triu_indices(h, k=1)
            base = np.arange(n_super, dtype=np.int64)[:, None] * h
            clique = np.stack(
                [(base + a[None, :]).ravel(), (base + b[None, :]).ravel()], axis=1
            )
            host_edges = self.torus.host.bn.graph().edges()
            slots = np.arange(h, dtype=np.int64)
            us = host_edges[:, 0][:, None, None] * h + slots[None, :, None]
            vs = host_edges[:, 1][:, None, None] * h + slots[None, None, :]
            us, vs = np.broadcast_arrays(us, vs)
            bipartite = np.stack([us.ravel(), vs.ravel()], axis=1)
            self._graph = CSRGraph(
                self.num_nodes, np.concatenate([clique, bipartite], axis=0)
            )
        return self._graph

    @staticmethod
    def _num_faults(faults) -> int:
        return int(faults.node_faults.sum())

    def sample_faults(self, spec: FaultSpec, rng: np.random.Generator):
        from repro.core.an import AnFaultState
        from repro.faults.models import HalfEdgeFaults

        if spec.fault_model is not None:
            return AnFaultState(
                node_faults=self._model_faults(spec, rng),
                half=HalfEdgeFaults(0.0, 0),
                p=0.0,
                q=0.0,
            )
        if spec.adversarial:
            raise ValueError("A^d_n models random faults only (Theorem 1)")
        h = self.params.h
        node_faults = rng.random((self.params.num_supernodes, h)) < spec.p
        half_seed = int(rng.integers(0, 2**31))
        return AnFaultState(
            node_faults=node_faults,
            half=HalfEdgeFaults(spec.q, half_seed),
            p=spec.p,
            q=spec.q,
        )

    def recover(self, faults):
        return self.torus.recover(faults)

    def _trial_faults(self, spec: FaultSpec, seed: int):
        if spec.fault_model is not None:
            return super()._trial_faults(spec, seed)
        if spec.adversarial:
            raise ValueError("A^d_n models random faults only (Theorem 1)")
        # Same stream as ATorus.sample_faults(p, q, seed) driver loops.
        return self.torus.sample_faults(spec.p, spec.q, seed)

    def _lifetime_shape(self) -> tuple:
        return (self.params.num_supernodes, self.params.h)

    def _lifetime_key(self, faults):
        """The bad-supernode mask.  Lifetime recoveries run at ``q = 0``,
        where the host ``B^d`` sees only this mask and, once it recovers,
        the greedy seating and its verification cannot fail
        (docs/fastpath.md), so the mask decides the outcome."""
        return ~self.torus.good_supernodes(~faults, 0.0)

    def _lifetime_recover(self, faults):
        from repro.core.an import AnFaultState
        from repro.faults.models import HalfEdgeFaults

        return self.torus.recover(
            AnFaultState(node_faults=faults, half=HalfEdgeFaults(0.0, 0), p=0.0, q=0.0)
        )

    def supports_batch(self, spec: FaultSpec) -> bool:
        """Node-fault-only Bernoulli points: with ``q > 0`` the greedy
        embedding consults per-pair half-edge bits, and model-bearing specs
        sample through the adapter; both stay on the scalar path."""
        return not spec.adversarial and spec.q == 0.0 and spec.fault_model is None

    def run_batch(
        self, spec: FaultSpec, seeds: list, max_batch_bytes: int | None = None
    ) -> list:
        from repro.fastpath.an_batch import run_an_batch

        return run_an_batch(self, spec, seeds, max_batch_bytes=max_batch_bytes)

    def guest_shape(self) -> tuple:
        """The ``n^d`` torus (side ``k_sub * n_B``) Theorem 1 reconstructs."""
        return (self.params.n,) * self.params.base.d


@register("an")
def _make_an(*, d: int = 2, b: int = 3, s: int = 1, t: int = 2,
             k_sub: int = 2, h: int | None = None, c: float = 3.0) -> AnConstruction:
    from repro.core.an import an_params_for
    from repro.core.params import AnParams, BnParams

    base = BnParams(d=d, b=b, s=s, t=t)
    if h is not None:
        params = AnParams(base=base, k_sub=k_sub, h=h)  # validates h >= k_sub^d
    else:
        params = an_params_for(base, k_sub, c)
    return AnConstruction(params)


# ---------------------------------------------------------------------------
# Theorem 3/13 — D^d_{n,k}
# ---------------------------------------------------------------------------


class DnConstruction(_TorusTrafficMixin, _AdapterBase):
    """Theorem 3/13's worst-case construction ``D^d_{n,k}``."""

    name = "dn"

    def __init__(self, params):
        from repro.core.dn import DTorus

        self.params = params
        self.torus = DTorus(params)

    @property
    def num_nodes(self) -> int:
        return self.torus.num_nodes

    @property
    def degree(self) -> int:
        return self.params.degree

    def graph(self) -> CSRGraph:
        return self.torus.graph()

    def sample_faults(self, spec: FaultSpec, rng: np.random.Generator):
        if spec.fault_model is not None:
            return self._model_faults(spec, rng)
        if spec.adversarial:
            k = self.params.k if spec.k is None else spec.k
            return adversarial_node_faults(self.params.shape, k, spec.pattern, rng)
        return rng.random(self.params.shape) < spec.p

    def recover(self, faults):
        return self.torus.recover(faults)

    def _trial_rng(self, spec: FaultSpec, seed: int) -> np.random.Generator:
        if spec.adversarial:
            # The "dn-sweep" stream the dn-adversarial golden pins.
            return spawn_rng(seed, "dn-sweep", spec.pattern, self.params.n, self.params.b)
        return super()._trial_rng(spec, seed)

    def guest_shape(self) -> tuple:
        """The ``n^d`` torus ``D^d_{n,k}`` guarantees under any ``k`` faults."""
        return (self.params.n,) * self.params.d


@register("dn")
def _make_dn(*, d: int = 2, n: int = 70, b: int = 2) -> DnConstruction:
    from repro.core.params import DnParams

    return DnConstruction(DnParams(d=d, n=n, b=b))


# ---------------------------------------------------------------------------
# Baseline — Alon–Chung expander path (Theorem 12)
# ---------------------------------------------------------------------------


class AlonChungConstruction(_AdapterBase):
    """Alon–Chung's linear-size constant-degree path host (Theorem 12)."""

    name = "alon_chung"

    def __init__(self, path):
        self.torus = path  # AlonChungPath; `.torus` kept for API uniformity

    @property
    def num_nodes(self) -> int:
        return self.torus.num_nodes

    @property
    def degree(self) -> int:
        return self.torus.graph.max_degree()

    def graph(self) -> CSRGraph:
        return self.torus.graph

    def sample_faults(self, spec: FaultSpec, rng: np.random.Generator):
        if spec.fault_model is not None:
            return self._model_faults(spec, rng)
        faults = np.zeros(self.num_nodes, dtype=bool)
        if spec.adversarial:
            if spec.pattern != "random":
                raise ValueError(
                    "the expander host has no grid structure; only the "
                    "'random' adversarial pattern applies"
                )
            if spec.k is None:
                raise ValueError("adversarial faults against alon_chung need k")
            faults[rng.choice(self.num_nodes, size=min(spec.k, self.num_nodes), replace=False)] = True
            return faults
        return rng.random(self.num_nodes) < spec.p

    def recover(self, faults):
        return self.torus.recover(faults)

    def _trial_recover(self, faults, seed: int):
        return self.torus.recover(faults, rng=spawn_rng(seed, "alon-chung-dfs"))

    def _lifetime_shape(self) -> tuple:
        return (self.num_nodes,)


@register("alon_chung")
def _make_alon_chung(*, n: int = 60, blowup: float = 3.0,
                     kind: str = "gabber-galil", degree: int = 8) -> AlonChungConstruction:
    from repro.baselines.alon_chung import AlonChungPath

    return AlonChungConstruction(AlonChungPath(n, blowup=blowup, kind=kind, degree=degree))


# ---------------------------------------------------------------------------
# Baseline — FKP-style replication
# ---------------------------------------------------------------------------


class ReplicationConstruction(_TorusTrafficMixin, _AdapterBase):
    """FKP-style ``O(log n)``-degree cluster replication."""

    name = "replication"

    def __init__(self, rt):
        self.torus = rt  # ReplicatedTorus

    @property
    def num_nodes(self) -> int:
        return self.torus.num_nodes

    @property
    def degree(self) -> int:
        return self.torus.degree

    def graph(self) -> CSRGraph:
        """Cluster cliques + complete bipartite edges along torus adjacency."""
        if not hasattr(self, "_graph"):
            from repro.topology.torus import torus_edges

            rt = self.torus
            r = rt.r
            a, b = np.triu_indices(r, k=1)
            base = np.arange(rt.num_clusters, dtype=np.int64)[:, None] * r
            clique = np.stack(
                [(base + a[None, :]).ravel(), (base + b[None, :]).ravel()], axis=1
            )
            te = torus_edges((rt.n,) * rt.d)
            slots = np.arange(r, dtype=np.int64)
            us = te[:, 0][:, None, None] * r + slots[None, :, None]
            vs = te[:, 1][:, None, None] * r + slots[None, None, :]
            us, vs = np.broadcast_arrays(us, vs)
            bipartite = np.stack([us.ravel(), vs.ravel()], axis=1)
            parts = [clique, bipartite] if r > 1 else [bipartite]
            self._graph = CSRGraph(rt.num_nodes, np.concatenate(parts, axis=0))
        return self._graph

    def sample_faults(self, spec: FaultSpec, rng: np.random.Generator):
        rt = self.torus
        if spec.fault_model is not None:
            return self._model_faults(spec, rng)
        if spec.adversarial:
            if spec.pattern != "random" or spec.k is None:
                raise ValueError(
                    "replication supports only 'random' adversarial faults with explicit k"
                )
            flat = np.zeros(rt.num_nodes, dtype=bool)
            flat[rng.choice(rt.num_nodes, size=min(spec.k, rt.num_nodes), replace=False)] = True
            return flat.reshape(rt.num_clusters, rt.r)
        return rng.random((rt.num_clusters, rt.r)) < spec.p

    def recover(self, faults):
        return self.torus.recover(faults)

    def _trial_faults(self, spec: FaultSpec, seed: int):
        if spec.adversarial or spec.fault_model is not None:
            return super()._trial_faults(spec, seed)
        # Same stream as ReplicatedTorus.survives(p, seed).
        return self.torus.sample_faults(spec.p, seed)

    def _lifetime_shape(self) -> tuple:
        return (self.torus.num_clusters, self.torus.r)

    def guest_shape(self) -> tuple:
        """The ``n^d`` torus each cluster slot emulates."""
        return (self.torus.n,) * self.torus.d


@register("replication")
def _make_replication(*, n: int = 8, d: int = 2, replication: int | None = None,
                      c_r: float = 1.0) -> ReplicationConstruction:
    from repro.baselines.replication import ReplicatedTorus

    return ReplicationConstruction(ReplicatedTorus(n, d, replication=replication, c_r=c_r))


# ---------------------------------------------------------------------------
# Baseline — naive spare rows
# ---------------------------------------------------------------------------


class SpareRowsConstruction(_TorusTrafficMixin, _AdapterBase):
    """The naive ``O(k)``-degree spare-rows comparator."""

    name = "sparerows"

    def __init__(self, sr):
        self.torus = sr  # SpareRowsTorus

    @property
    def num_nodes(self) -> int:
        return self.torus.num_nodes

    @property
    def degree(self) -> int:
        return self.torus.degree

    def graph(self) -> CSRGraph:
        """Torus edges plus vertical jumps of every span ``2..sigma+1``."""
        if not hasattr(self, "_graph"):
            sr = self.torus
            idx = sr.codec.all_indices()
            us, vs = [], []
            for axis in (0, 1):
                us.append(idx)
                vs.append(sr.codec.shift(idx, axis, +1, wrap=True))
            for span in range(2, sr.sigma + 2):
                us.append(idx)
                vs.append(sr.codec.shift(idx, 0, span, wrap=True))
            self._graph = CSRGraph(
                sr.num_nodes,
                np.stack([np.concatenate(us), np.concatenate(vs)], axis=1),
            )
        return self._graph

    def sample_faults(self, spec: FaultSpec, rng: np.random.Generator):
        sr = self.torus
        if spec.fault_model is not None:
            return self._model_faults(spec, rng)
        if spec.adversarial:
            k = sr.tolerated if spec.k is None else spec.k
            return adversarial_node_faults((sr.m, sr.n), k, spec.pattern, rng)
        return rng.random((sr.m, sr.n)) < spec.p

    def recover(self, faults):
        return self.torus.recover(faults)

    def _lifetime_shape(self) -> tuple:
        return (self.torus.m, self.torus.n)

    def guest_shape(self) -> tuple:
        """The ``n x n`` torus left after discarding faulty rows."""
        return (self.torus.n, self.torus.n)


@register("sparerows")
def _make_sparerows(*, n: int = 10, sigma: int = 4) -> SpareRowsConstruction:
    from repro.baselines.sparerows import SpareRowsTorus

    return SpareRowsConstruction(SpareRowsTorus(n, sigma))
