"""Doctest integration tests."""

from __future__ import annotations

import doctest

import pytest

import repro.analysis.stats
import repro.core.bn
import repro.util.cyclic
import repro.util.rng
import repro.util.tables


@pytest.mark.parametrize(
    "module",
    [
        repro.util.cyclic,
        repro.util.rng,
        repro.util.tables,
        repro.analysis.stats,
        repro.core.bn,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    failures, tested = doctest.testmod(module, raise_on_error=False).failed, True
    assert failures == 0

