"""Tests for figure regeneration and the `info bn` structure summary (the
other CLI commands are covered in tests/test_cli.py)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.viz import figure1, figure2, render_bands


class TestFigures:
    def test_figure1_structure(self):
        fig = figure1()
        assert "Figure 1" in fig.title
        assert fig.meta["bands"] == 6
        assert fig.meta["wandering_bands"] >= 1  # bands wind around regions
        # the fault is masked: 'X' present, '!' absent
        assert "X" in fig.text and "!" not in fig.text

    def test_figure2_has_jumps(self):
        fig = figure2()
        assert fig.meta["jumps"] >= 1
        assert "*" in fig.text
        assert fig.meta["verified_nodes"] == 36 ** 2

    def test_render_rejects_3d(self, bn3_small):
        import numpy as np

        from repro.core.placement import place_bands

        bands = place_bands(bn3_small, np.zeros(bn3_small.shape, dtype=bool))
        with pytest.raises(ValueError):
            render_bands(bn3_small, bands)


class TestCLI:
    def test_info_bn(self, capsys):
        assert main(["info", "bn", "--b", "4", "--t", "2"]) == 0
        out = capsys.readouterr().out
        assert "B^2_96" in out and "degree=10" in out
