"""Survival-threshold estimation over a fault-probability sweep.

A sweep is one :class:`~repro.api.experiment.ExperimentSpec` whose grid
spans the probability ladder, run by
:class:`~repro.api.experiment.ExperimentRunner`; this module only reads
its per-point results: :class:`ThresholdPoint` pairs a probability with
its merged result, and :func:`estimate_threshold` interpolates where
survival crosses a level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.montecarlo import MCResult

__all__ = ["ThresholdPoint", "estimate_threshold"]


@dataclass
class ThresholdPoint:
    p: float
    result: MCResult


def estimate_threshold(points: list[ThresholdPoint], level: float = 0.5) -> float:
    """Interpolated fault probability where survival crosses ``level``."""
    ps = np.array([pt.p for pt in points])
    rates = np.array([pt.result.success_rate for pt in points])
    order = np.argsort(ps)
    ps, rates = ps[order], rates[order]
    above = rates >= level
    if above.all():
        return float(ps[-1])
    if not above.any():
        return float(ps[0])
    i = int(np.flatnonzero(~above)[0])
    if i == 0:
        return float(ps[0])
    x0, x1 = ps[i - 1], ps[i]
    y0, y1 = rates[i - 1], rates[i]
    if y0 == y1:
        return float(x0)
    return float(x0 + (level - y0) * (x1 - x0) / (y1 - y0))
