"""Machine-speed calibration probe.

The host this benchmark runs on drifts: the same fixed CPU loop can run
tens of percent slower in one process than in another a minute later,
and within one process it swings on a scale of seconds, with CPU time
tracking wall time (the core slows down; the process is not
descheduled).  Every time-based end-to-end metric is therefore rescaled
to a reference machine speed, using probes timed in the same run::

    calibrated_time = raw_time * (REFERENCE_PROBE_S / probe_s) ** sensitivity
    calibrated_rate = raw_rate * (probe_s / REFERENCE_PROBE_S) ** sensitivity

For a measured slice, ``probe_s`` is the mean of the probes run just
before and just after it; for set-up, the run's probe median.
``sensitivity`` is how strongly a workload slows down when the probe
does, chosen per workload on the reference machine from the log-log
slope of slice rate against probe time and from six sets of ten runs
spread over two hours, as the value that kept both the spread within a
set and the drift between sets small: the interpreter-bound workloads
follow the probe by 0.9-1.0, the array-bound traffic simulation by 0.75.

Set-up is cold code -- unmarshalling modules, executing their bodies,
first calls -- and it tracks the probe only on average.  Over four sets
of ten runs spanning an hour, during which cold starts got 1.65 times
faster, the median set-up (without numpy's import, which ``run.py`` does
first and leaves out) scaled by the *run's* probe median with
sensitivity 0.75 stayed within 8% on every workload.  Scaling each
set-up by probes its own process ran right after it, or by that
process's numpy import time, did not: medians moved 14-46% between sets.

The probe is a fixed loop that runs no repository code.  It mixes the
three kinds of work the workloads spend their time in: CPython integer
arithmetic, dict inserts and small (64-element) numpy operations.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = [
    "REFERENCE_PROBE_S",
    "USUAL_PROBE_RANGE",
    "Calibration",
    "calibrated_rate",
    "calibrated_time",
    "probe",
    "spread",
]

#: Reference probe time in seconds: the middle of the run medians seen on
#: the reference machine (2-vCPU x86-64 container, CPython 3.11, numpy
#: 2.4).  Calibrated values are expressed at this speed.
REFERENCE_PROBE_S = 0.016

#: Range of run probe medians on the reference machine: 24 runs of all
#: four workloads fell between 12.2 and 24.3 ms (the host alternates
#: between a fast state near 12 ms and a slow one near 20 ms).  A run
#: outside it is flagged: something else loaded the machine, or the code
#: under test left work running between slices.
USUAL_PROBE_RANGE = (0.0115, 0.0255)

#: Iterations of the probe loop (12-20 ms on the reference machine).
PROBE_ITERATIONS = 18_000


def probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Run the fixed loop once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    vec = np.arange(64, dtype=np.int64)
    ones = np.ones(64)
    total = 0.0
    for i in range(iterations):
        acc = (acc * 1103515245 + 12345 + i) & 0x7FFFFFFF
        table[acc & 4095] = i
        if not i & 7:
            vec = (vec * 3 + acc) % 1009
            total += float(ones @ vec)
    return time.perf_counter() - t0


def calibrated_time(raw_seconds: float, probe_s: float, sensitivity: float = 1.0) -> float:
    return raw_seconds * (REFERENCE_PROBE_S / probe_s) ** sensitivity


def calibrated_rate(raw_per_second: float, probe_s: float,
                    sensitivity: float = 1.0) -> float:
    return raw_per_second * (probe_s / REFERENCE_PROBE_S) ** sensitivity


def spread(values) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / med if med else 0.0


class Calibration:
    """Probe samples taken during one run.

    ``baseline`` holds probes taken right after set-up, before any
    measured slice; ``between`` holds the probe run after each slice.
    The run's median (of ``between``, or of ``baseline`` when no slice
    ran) calibrates set-up and is checked against :data:`USUAL_PROBE_RANGE`.
    """

    def __init__(self) -> None:
        self.baseline: list[float] = []
        self.between: list[float] = []

    def take_baseline(self, count: int = 5) -> None:
        self.baseline.extend(probe() for _ in range(count))

    def take(self) -> float:
        value = probe()
        self.between.append(value)
        return value

    @property
    def last(self) -> float:
        return (self.between or self.baseline)[-1]

    @property
    def median(self) -> float:
        return statistics.median(self.between or self.baseline)

    def flags(self) -> list[str]:
        """Reasons this run's calibration looks unusual (empty if none)."""
        out = []
        lo, hi = USUAL_PROBE_RANGE
        if not lo <= self.median <= hi:
            out.append(
                f"probe median {self.median * 1e3:.2f} ms is outside the usual "
                f"{lo * 1e3:.1f}-{hi * 1e3:.1f} ms: the machine was unusually "
                f"{'loaded' if self.median > hi else 'fast'}"
            )
        return out

    def report(self) -> dict:
        return {
            "reference_ms": REFERENCE_PROBE_S * 1e3,
            "median_ms": self.median * 1e3,
            "spread": spread(self.between or self.baseline),
            "probes": len(self.between) + len(self.baseline),
            "flags": self.flags(),
        }
