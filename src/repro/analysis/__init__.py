"""Experiment tooling: Monte-Carlo aggregation, threshold estimation and
theory predictions.

Exports resolve lazily: the experiment runner imports
``repro.analysis.montecarlo``, which runs this ``__init__`` first, and an
eager one would load the Chernoff predictor and, through
``repro.core.params``, the whole ``repro.core`` package into every
runner import.
"""

from __future__ import annotations

_EXPORTS = {
    "wilson_interval": "repro.analysis.stats",
    "binomial_tail": "repro.analysis.stats",
    "MCResult": "repro.analysis.montecarlo",
    "aggregate_outcomes": "repro.analysis.montecarlo",
    "ThresholdPoint": "repro.analysis.sweep",
    "estimate_threshold": "repro.analysis.sweep",
    "predict_healthiness": "repro.analysis.chernoff",
    "HealthinessPrediction": "repro.analysis.chernoff",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    import importlib

    if name in _EXPORTS:
        return getattr(importlib.import_module(_EXPORTS[name]), name)
    raise AttributeError(f"module 'repro.analysis' has no attribute {name!r}")


def __dir__():
    return __all__
