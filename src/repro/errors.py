"""Exception hierarchy for the fault-tolerant torus library.

Every place where the paper's constructive proof says "this step succeeds
because the instance is healthy" is guarded at runtime.  Violations raise a
subclass of :class:`ReconstructionError` carrying a machine-readable
``category`` so that Monte-Carlo drivers can tally failure modes instead of
crashing (see ``repro.analysis.montecarlo``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ParameterError(ReproError, ValueError):
    """Invalid construction parameters (divisibility, ranges, ...)."""


class JournalError(ReproError):
    """A checkpoint chunk journal cannot be resumed.

    Raised when ``--resume`` points at a journal written for a different
    spec, with an unknown format, or with a corrupt (non-final) line —
    anything where silently continuing could merge wrong chunks into the
    result.  A *truncated final line* is NOT an error: that is the
    expected signature of a mid-write kill, and resume drops it.
    """


class WorkerLostError(ReproError):
    """A process-pool worker died before finishing its work units.

    ``units`` lists every unfinished unit as ``(label, point, first_chunk,
    last_chunk)``.  Each chunk that did complete is journaled before this
    is raised, so a run with a checkpoint resumes to the same bytes.
    """

    def __init__(self, units: list) -> None:
        self.units = units
        lost = "; ".join(f"point {i} ({label}) chunks {a}-{z}" for label, i, a, z in units)
        super().__init__(f"a worker process died; unfinished: {lost}")


class ReconstructionError(ReproError):
    """Recovery of the fault-free torus failed.

    Attributes
    ----------
    category:
        Short machine-readable failure-mode tag.  Stable values used by the
        Monte-Carlo tooling:

        - ``"unhealthy"``        healthiness precondition violated and the
                                 fallback strategies also failed
        - ``"no-frame"``         painting could not find a fault-free s-frame
        - ``"region-overflow"``  a black region exceeded its extent bound
        - ``"block-overflow"``   a block was taller than 2b^2 or had too many
                                 faults for the pigeonhole
        - ``"segment-overflow"`` more than s segments were needed in one
                                 tile-row for one region
        - ``"padding"``          padding segments could not be placed
        - ``"coverage"``         final bands failed to mask every fault
        - ``"band-invalid"``     a band violated slope/untouching/count checks
        - ``"capacity"``         straight/worst-case placement ran out of bands
        - ``"embedding"``        the extracted subgraph failed verification
        - ``"supernode"``        too few good supernodes / greedy ran dry
    """

    def __init__(self, message: str, *, category: str = "unspecified") -> None:
        super().__init__(message)
        self.category = category


class BandPlacementError(ReconstructionError):
    """Band placement (the constructive core of Lemma 5) failed."""


class EmbeddingError(ReconstructionError):
    """The claimed embedding is not a valid fault-free torus."""

    def __init__(self, message: str, *, category: str = "embedding") -> None:
        super().__init__(message, category=category)
