"""Shared fixtures: small-but-real construction parameter sets.

The smallest legal ``B^2`` instance (b=3, s=1, t=2) has 1944 nodes and a
6x4 tile grid — large enough to exercise every code path (bricks, frames,
painting, interpolation, wrap-around) while keeping the suite fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import BnParams, DnParams


@pytest.fixture(scope="session")
def bn2_small() -> BnParams:
    """Smallest legal 2-D B instance: n=36, m=54."""
    return BnParams(d=2, b=3, s=1, t=2)


@pytest.fixture(scope="session")
def bn2_medium() -> BnParams:
    """b=4 instance: n=96, m=128 (12288 nodes)."""
    return BnParams(d=2, b=4, s=1, t=2)


@pytest.fixture(scope="session")
def bn3_small() -> BnParams:
    """Smallest legal 3-D B instance: n=36, m=54 (69984 nodes)."""
    return BnParams(d=3, b=3, s=1, t=2)


@pytest.fixture(scope="session")
def dn2_small() -> DnParams:
    """2-D worst-case instance: n=70, b=2 -> k=8 faults tolerated."""
    return DnParams(d=2, n=70, b=2)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def kernel_log(monkeypatch) -> dict:
    """Record how the vectorized traffic kernel spends its cycles.

    ``ordinary`` counts the cycles it arbitrates one at a time;
    ``windows`` lists one ``(cap, span)`` pair per look-ahead: the
    longest window the look was allowed, and the contention-free cycles
    it found and fast-forwarded (0 when the first cycle is contended).
    """
    from repro.fastpath import traffic_batch as kernel

    log = {"ordinary": 0, "windows": []}
    arbitrate, free_window = kernel._arbitrate, kernel._free_window

    def counted(*args):
        log["ordinary"] += 1
        return arbitrate(*args)

    def logged(flat, cursor, rem, cap, n_links):
        span = free_window(flat, cursor, rem, cap, n_links)
        log["windows"].append((cap, span))
        return span

    monkeypatch.setattr(kernel, "_arbitrate", counted)
    monkeypatch.setattr(kernel, "_free_window", logged)
    return log
