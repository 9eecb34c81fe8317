"""The shared trial-outcome record of every construction.

Historically each construction reported results through its own ad-hoc
shape (``BTorus.trial`` returned the original ``TrialOutcome``; the
baselines returned bare booleans).  The unified :class:`Construction`
protocol makes every adapter's ``trial`` return this one dataclass, so
the experiment runner and every benchmark can aggregate outcomes (through
``repro.analysis.montecarlo.aggregate_outcomes``) without knowing which
construction produced them.

``TrialOutcome`` used to live in ``repro.core.bn``; it is re-exported
from there for backwards compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - type-only imports, no cycle at runtime
    from repro.core.healthiness import HealthReport

__all__ = ["TrialOutcome"]


@dataclass
class TrialOutcome:
    """Result of one fault-injection + recovery trial."""

    success: bool
    category: str  # "ok" or the ReconstructionError category
    healthy: bool | None = None
    num_faults: int = 0
    strategy_used: str = ""
    health: "HealthReport | None" = None
    recovery: Any = field(default=None, repr=False)
