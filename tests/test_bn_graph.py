"""Tests for the B^d_n structure (Theorem 2, claims 1 and 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bn_graph import BnGraph
from repro.core.params import BnParams
from repro.testkit.strategies import BN_PARAM_SETS


@pytest.fixture(scope="module")
def bn(bn2_small):
    return BnGraph(bn2_small)


class TestDegreeAndCount:
    def test_exact_degree_2d(self, bn):
        degs = bn.graph().degrees()
        assert degs.min() == degs.max() == 10  # 6d-2 with d=2

    def test_exact_degree_3d(self):
        # small custom 3d instance to keep this fast
        p = BnParams(d=3, b=3, s=1, t=2)
        g = BnGraph(p).graph()
        degs = g.degrees()
        assert degs.min() == degs.max() == 16  # 6*3-2

    def test_node_count_claim(self, bn, bn2_small):
        stats = bn.verify_structure()
        assert stats["num_nodes"] <= stats["claimed_max_nodes"] + 1e-9
        assert stats["num_nodes"] == bn2_small.m * bn2_small.n

    def test_edge_count(self, bn):
        g = bn.graph()
        assert g.num_edges == g.num_nodes * 10 // 2


class TestEdgeFamilies:
    def test_contains_plain_torus(self, bn, bn2_small):
        """B^d_n contains the torus C_m x C_n as a subgraph (torus edges)."""
        from repro.topology.torus import torus_edges

        e = torus_edges(bn2_small.shape)
        assert bn.graph().has_edges(e[:, 0], e[:, 1]).all()

    def test_vertical_jump_edges(self, bn, bn2_small):
        p = bn2_small
        idx = bn.codec.all_indices()
        vs = bn.codec.shift(idx, 0, p.b + 1, wrap=True)
        assert bn.graph().has_edges(idx, vs).all()

    def test_diagonal_jump_edges(self, bn, bn2_small):
        p = bn2_small
        idx = bn.codec.all_indices()
        stepped = bn.codec.shift(idx, 1, +1, wrap=True)
        for delta in (p.b, -p.b):
            vs = bn.codec.shift(stepped, 0, delta, wrap=True)
            assert bn.graph().has_edges(idx, vs).all()

    def test_no_other_edges(self, bn):
        """Analytic is_adjacent must agree with the materialised graph."""
        g = bn.graph()
        rng = np.random.default_rng(0)
        us = rng.integers(0, g.num_nodes, 4000)
        vs = rng.integers(0, g.num_nodes, 4000)
        keep = us != vs
        us, vs = us[keep], vs[keep]
        assert (bn.is_adjacent(us, vs) == g.has_edges(us, vs)).all()

    def test_is_adjacent_on_edges(self, bn):
        e = bn.graph().edges()
        assert bn.is_adjacent(e[:, 0], e[:, 1]).all()

    def test_is_adjacent_symmetry(self, bn):
        rng = np.random.default_rng(1)
        us = rng.integers(0, bn.num_nodes, 1000)
        vs = rng.integers(0, bn.num_nodes, 1000)
        assert (bn.is_adjacent(us, vs) == bn.is_adjacent(vs, us)).all()


@pytest.mark.parametrize("params_kw", BN_PARAM_SETS)
def test_neighbor_table_rows_are_the_neighbourhoods(params_kw):
    """Each row of the cached ``(N, 6d - 2)`` table, as a set, is
    ``graph().neighbors(u)`` and ``{v : is_adjacent(u, v)}``.

    ``is_adjacent`` is asked about every pair on instances up to 2,000
    nodes, and elsewhere about every node within ``b + 1`` rows and one
    column step of ``u``, the reach of all three edge families.
    """
    bn = BnGraph(BnParams(**params_kw))
    p, codec = bn.params, bn.codec
    table = bn.neighbor_table()
    assert table.shape == (bn.num_nodes, p.degree) and table.dtype == np.int32
    assert bn.neighbor_table() is table and not table.flags.writeable
    g = bn.graph()
    for u in range(bn.num_nodes):
        assert set(table[u].tolist()) == set(g.neighbors(u).tolist())
    us = codec.all_indices()
    if bn.num_nodes <= 2000:
        candidates = [(us + k) % bn.num_nodes for k in range(1, bn.num_nodes)]
    else:
        columns = [us] + [codec.shift(us, a, step) for a in range(1, p.d) for step in (1, -1)]
        candidates = [
            codec.shift(col, 0, delta)
            for col in columns for delta in range(-p.b - 1, p.b + 2)
        ]
    for vs in candidates:
        assert (bn.is_adjacent(us, vs) == bn.has_edges(us, vs)).all()


class TestEdgeFamiliesDescriptor:
    def test_family_inventory(self, bn, bn2_small):
        fam = bn.edge_families()
        assert len(fam["torus"]) == bn2_small.d
        assert fam["vertical"] == [(0, bn2_small.b + 1)]
        assert len(fam["diagonal"]) == 2 * (bn2_small.d - 1)
