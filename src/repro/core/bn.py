"""High-level API for the ``B^d_n`` construction (Theorem 2).

>>> from repro.core import BnParams, BTorus
>>> bt = BTorus(BnParams(d=2, b=3, s=1, t=2))
>>> out = bt.trial(p=bt.params.paper_fault_probability, seed=7)
>>> out.success
True
"""

from __future__ import annotations

import numpy as np

from repro.api.outcome import TrialOutcome  # noqa: F401 - canonical home is
# repro.api.outcome; re-exported here because TrialOutcome lived in this
# module before the unified Construction protocol existed.
from repro.core.bands import BandSet
from repro.core.bn_graph import BnGraph
from repro.core.healthiness import HealthReport, check_healthiness
from repro.core.params import BnParams
from repro.core.placement import place_bands
from repro.core.reconstruction import Recovery, extract_torus
from repro.errors import ReconstructionError
from repro.faults.models import BernoulliNodeFaults, fold_edge_faults_into_nodes
from repro.topology.grid import TileGeometry
from repro.util.rng import spawn_rng

__all__ = ["BTorus", "TrialOutcome"]


class BTorus:
    """Theorem 2's construction with its recovery pipeline."""

    def __init__(self, params: BnParams) -> None:
        self.params = params
        self.bn = BnGraph(params)
        self.geo = TileGeometry(params.shape, params.b)

    # -- fault sampling -----------------------------------------------------

    def sample_faults(
        self,
        p: float,
        rng: np.random.Generator,
        *,
        q: float = 0.0,
    ) -> np.ndarray:
        """I.i.d. node faults at rate ``p``; optional edge faults at rate
        ``q`` folded into node faults (paper's reduction for constant-degree
        constructions)."""
        faults = BernoulliNodeFaults(p).sample(self.params.shape, rng)
        if q > 0.0:
            faults = fold_edge_faults_into_nodes(faults, q, self.params.degree, rng)
        return faults

    def sample_edge_faults(self, q: float, rng: np.random.Generator) -> np.ndarray:
        """Explicit i.i.d. edge faults at rate ``q``: an ``(F, 2)`` array of
        faulty edges of the materialised ``B^d_n`` graph.

        Theorem 2's statement covers edge failures; the paper reduces them
        to node failures ("consider an edge fault to be the fault of one of
        the incident nodes").  :meth:`recover` applies that reduction for
        *placement* but verifies the final embedding against the true edge
        set — the honest form of the reduction.
        """
        edges = self.bn.graph().edges()
        if q <= 0.0:
            return edges[:0]
        return edges[rng.random(len(edges)) < q]

    # -- recovery -----------------------------------------------------------

    def check_health(self, faults: np.ndarray) -> HealthReport:
        return check_healthiness(self.params, faults, self.geo)

    def recover(
        self,
        faults: np.ndarray,
        faulty_edges: np.ndarray | None = None,
        *,
        strategy: str = "auto",
        verify: bool = True,
    ) -> Recovery:
        """Mask the faults with bands and extract a verified fault-free torus.

        ``faulty_edges`` (optional ``(F, 2)`` array): each is ascribed to its
        first endpoint for placement (the paper's reduction) and the final
        embedding is additionally verified to use none of them.
        Raises :class:`ReconstructionError` (with a category) on failure.
        """
        effective = faults
        if faulty_edges is not None and len(faulty_edges):
            effective = faults.copy()
            blamed = np.asarray(faulty_edges, dtype=np.int64)[:, 0]
            effective.ravel()[blamed] = True
        bands = place_bands(self.params, effective, strategy=strategy, geo=self.geo)
        rec = extract_torus(self.bn, bands, effective, verify=verify)
        if verify and faulty_edges is not None and len(faulty_edges):
            self._verify_no_faulty_edges(rec, faulty_edges)
        return rec

    def _verify_no_faulty_edges(self, rec: Recovery, faulty_edges: np.ndarray) -> None:
        """The embedding must avoid every *actual* faulty edge (not just the
        blamed endpoints) — checked against the true edge list."""
        from repro.errors import EmbeddingError

        n_nodes = self.bn.num_nodes
        fe = np.asarray(faulty_edges, dtype=np.int64)
        keys = np.sort(np.minimum(fe[:, 0], fe[:, 1]) * n_nodes + np.maximum(fe[:, 0], fe[:, 1]))
        guest = rec.guest_shape()
        from repro.topology.coords import CoordCodec

        gc = CoordCodec(guest)
        idx = gc.all_indices()
        for axis in range(len(guest)):
            us = rec.phi[idx]
            vs = rec.phi[gc.shift(idx, axis, +1, wrap=True)]
            k = np.minimum(us, vs) * n_nodes + np.maximum(us, vs)
            pos = np.clip(np.searchsorted(keys, k), 0, len(keys) - 1)
            bad = (len(keys) > 0) & (keys[pos] == k)
            if bad.any():
                raise EmbeddingError(
                    f"embedding uses {int(bad.sum())} faulty edges (axis {axis})"
                )

    def survives(self, faults: np.ndarray, *, strategy: str = "auto") -> bool:
        try:
            self.recover(faults, strategy=strategy)
            return True
        except ReconstructionError:
            return False

    # -- one-shot trials ------------------------------------------------------

    def trial(
        self,
        p: float,
        seed: int,
        *,
        q: float = 0.0,
        strategy: str = "auto",
        check_health: bool = False,
        keep_recovery: bool = False,
    ) -> TrialOutcome:
        """Sample faults, attempt recovery, classify the outcome."""
        rng = spawn_rng(seed, "bn-trial", self.params.n, self.params.d)
        faults = self.sample_faults(p, rng, q=q)
        health = self.check_health(faults) if check_health else None
        try:
            rec = self.recover(faults, strategy=strategy)
            used = "straight" if _is_straight(rec.bands) else "paper"
            return TrialOutcome(
                success=True,
                category="ok",
                healthy=None if health is None else health.healthy,
                num_faults=int(faults.sum()),
                strategy_used=used,
                health=health,
                recovery=rec if keep_recovery else None,
            )
        except ReconstructionError as exc:
            return TrialOutcome(
                success=False,
                category=exc.category,
                healthy=None if health is None else health.healthy,
                num_faults=int(faults.sum()),
                health=health,
            )


def _is_straight(bands: BandSet) -> bool:
    return bands.is_straight
