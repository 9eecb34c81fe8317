"""Numpy-vectorized batched-trial backends (the experiment fast path).

The scalar pipeline pays two per-trial Python costs that dwarf everything
else in the survival regime: the healthiness checker enumerates bricks and
tiles in Python loops, and every successful recovery runs the full
column-by-column torus extraction plus embedding verification.  This
package batches whole chunks of trials into ``(trials, *grid_dims)``
boolean fault arrays and evaluates healthiness conditions 1-3 and
row/brick survival as array reductions over the trial axis.

Contract: for identical seeds the batched backends produce *identical*
:class:`~repro.api.outcome.TrialOutcome` sequences to the scalar
per-trial path (asserted trial-for-trial by tests/test_fastpath.py),
which is what makes experiment JSON byte-identical whichever path the
runner picks.  Any trial the vectorized kernels cannot classify is
delegated to the scalar path, so coverage is total and correctness never
depends on the fast path alone.  See docs/fastpath.md.

These kernels are the ``batch`` backend; the scalar per-trial loop is
the ``scalar`` one.  :class:`~repro.api.experiment.ExperimentRunner`
owns the choice (``backend="batch"`` by default), and it never reaches
the JSON.
"""

from repro.fastpath.an_batch import run_an_batch
from repro.fastpath.bn_batch import (
    bn_bytes_per_trial,
    run_bn_batch,
    sample_bn_faults_batch,
    straight_survival_batch,
)
from repro.fastpath.health import check_healthiness_batch
from repro.fastpath.lifetime_batch import run_bn_lifetime_batch
from repro.fastpath.streaming import (
    DEFAULT_MAX_BATCH_BYTES,
    iter_seed_slices,
    record_buffer,
    take_peak_bytes,
    trials_per_slice,
)
from repro.fastpath.traffic_batch import routes_batch, run_traffic_batch, simulate_batch

__all__ = [
    "DEFAULT_MAX_BATCH_BYTES",
    "bn_bytes_per_trial",
    "check_healthiness_batch",
    "iter_seed_slices",
    "record_buffer",
    "routes_batch",
    "run_an_batch",
    "run_bn_batch",
    "run_bn_lifetime_batch",
    "run_traffic_batch",
    "sample_bn_faults_batch",
    "simulate_batch",
    "straight_survival_batch",
    "take_peak_bytes",
    "trials_per_slice",
]
