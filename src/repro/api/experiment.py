"""Declarative experiments over registered constructions, serial or parallel.

An :class:`ExperimentSpec` names a construction (registry key + factory
params), a grid of :class:`~repro.api.protocol.FaultSpec` points, a trial
count and a seed origin.  An :class:`ExperimentRunner` executes the spec —
with a ``multiprocessing`` pool when ``workers > 1`` — and returns an
:class:`ExperimentResult` holding one merged
:class:`~repro.analysis.montecarlo.MCResult` per grid point.

Determinism contract
--------------------
Trial ``i`` of every grid point always runs with seed ``seed0 + i`` and
each construction's own seed-tree keying, so results are a pure function
of the spec.  Work is split into fixed-size seed chunks *independently of
the worker count* and merged in chunk order in the parent process;
``ExperimentRunner(workers=1)`` and ``workers=N`` therefore produce
byte-identical JSON (asserted by tests/test_api.py).

Execution backends are an orthogonal, *non-spec* choice: when the
registered construction advertises the batch capability for a grid point
(``supports_batch``/``run_batch``, see docs/fastpath.md), seed chunks
run through the vectorized backend instead of the per-trial loop — for
one-shot and lifetime points, consecutive chunks in blocks of up to
:data:`BLOCK_TRIALS` trials per kernel call, split back into chunks
before anything is merged or journaled.  Batch dispatch never changes
results — ``run_batch`` returns identical outcome sequences by contract
— so batch and per-trial runs of the same spec also serialise
byte-identically (asserted by tests/test_fastpath.py and the CI smoke
job).
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.analysis.montecarlo import MCResult, aggregate_outcomes
from repro.api.lifetime import LifetimeResult, aggregate_lifetimes
from repro.api.protocol import FaultSpec, LifetimeSpec, TrafficSpec
from repro.api.traffic import TrafficResult, aggregate_traffic

__all__ = ["ExperimentResult", "ExperimentRunner", "ExperimentSpec", "PointResult"]

RESULT_FORMAT = "repro-experiment-v1"

logger = logging.getLogger(__name__)

#: Seeds per work unit.  Part of the determinism contract: changing it can
#: move float rounding in the merged ``mean_faults`` by an ulp, so it is a
#: spec-level field with a fixed default, never derived from ``workers``.
DEFAULT_CHUNK_SIZE = 16

#: Most trials one batched kernel call is given.  On the batch backend the
#: runner hands each run of consecutive un-journaled chunks of a one-shot or
#: lifetime point to one ``run_batch``/``run_lifetime_batch`` call, up to
#: this many trials (a chunk this big or bigger is a block of its own), so
#: array work amortises over more than one chunk.  With ``workers > 1`` a
#: block also stays inside one worker's share of the point — at most
#: ``ceil(chunks per point / workers)`` chunks — so every worker gets a
#: unit.  Execution only: outcomes are split back at chunk boundaries, so
#: merging, journaling and progress stay per chunk.
BLOCK_TRIALS = 256


def _point_from_dict(d: dict) -> "FaultSpec | LifetimeSpec | TrafficSpec":
    """Rebuild a grid point; ``timeline`` discriminates lifetime points and
    ``injection`` traffic points (neither key exists on the other kinds)."""
    if "timeline" in d:
        return LifetimeSpec.from_dict(d)
    if "injection" in d:
        return TrafficSpec.from_dict(d)
    return FaultSpec.from_dict(d)


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, serialisable description of one experiment.

    Grid points may be :class:`FaultSpec`\\ s (one-shot trials aggregated
    into ``MCResult``), :class:`LifetimeSpec`\\ s (fault-arrival timelines
    aggregated into :class:`~repro.api.lifetime.LifetimeResult`) or
    :class:`TrafficSpec`\\ s (guest-torus workloads aggregated into
    :class:`~repro.api.traffic.TrafficResult`); the runner dispatches per
    point, and all kinds obey the same determinism contract.
    """

    construction: str
    params: Mapping = field(default_factory=dict)
    grid: tuple["FaultSpec | LifetimeSpec | TrafficSpec", ...] = ()
    trials: int = 10
    seed0: int = 0
    name: str = ""
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if not self.grid:
            raise ValueError("grid must contain at least one FaultSpec")
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "grid", tuple(self.grid))

    @classmethod
    def from_grid(
        cls,
        construction: str,
        params: Mapping | None = None,
        *,
        p_values: Sequence[float] = (),
        q: float = 0.0,
        patterns: Sequence[str] = (),
        k: int | None = None,
        lifetimes: "Sequence[LifetimeSpec]" = (),
        traffic: "Sequence[TrafficSpec]" = (),
        trials: int = 10,
        seed0: int = 0,
        name: str = "",
    ) -> "ExperimentSpec":
        """Build the fault grid from value lists.

        ``patterns`` yields adversarial points (budget ``k``); ``p_values``
        yields Bernoulli points at edge-fault rate ``q``; ``lifetimes``
        appends timeline points and ``traffic`` workload points.  Any
        combination may be given (patterns, then probabilities, then
        lifetimes, then traffic).
        """
        grid: list = [FaultSpec(pattern=pat, k=k) for pat in patterns]
        grid += [FaultSpec(p=float(p), q=q) for p in p_values]
        grid += list(lifetimes)
        grid += list(traffic)
        return cls(
            construction=construction,
            params=dict(params or {}),
            grid=tuple(grid),
            trials=trials,
            seed0=seed0,
            name=name,
        )

    def to_dict(self) -> dict:
        return {
            "construction": self.construction,
            "params": dict(self.params),
            "grid": [fs.to_dict() for fs in self.grid],
            "trials": self.trials,
            "seed0": self.seed0,
            "name": self.name,
            "chunk_size": self.chunk_size,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        return cls(
            construction=d["construction"],
            params=dict(d.get("params", {})),
            grid=tuple(_point_from_dict(fs) for fs in d["grid"]),
            trials=int(d["trials"]),
            seed0=int(d.get("seed0", 0)),
            name=d.get("name", ""),
            chunk_size=int(d.get("chunk_size", DEFAULT_CHUNK_SIZE)),
        )


@dataclass
class PointResult:
    """Merged outcome of one grid point (fault, lifetime or traffic)."""

    fault_spec: "FaultSpec | LifetimeSpec | TrafficSpec"
    result: "MCResult | LifetimeResult | TrafficResult"

    def to_dict(self) -> dict:
        if isinstance(self.fault_spec, LifetimeSpec):
            return {
                "lifetime_spec": self.fault_spec.to_dict(),
                "result": self.result.to_dict(),
            }
        if isinstance(self.fault_spec, TrafficSpec):
            return {
                "traffic_spec": self.fault_spec.to_dict(),
                "result": self.result.to_dict(),
            }
        return {"fault_spec": self.fault_spec.to_dict(), "result": self.result.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "PointResult":
        if "lifetime_spec" in d:
            return cls(
                fault_spec=LifetimeSpec.from_dict(d["lifetime_spec"]),
                result=LifetimeResult.from_dict(d["result"]),
            )
        if "traffic_spec" in d:
            return cls(
                fault_spec=TrafficSpec.from_dict(d["traffic_spec"]),
                result=TrafficResult.from_dict(d["result"]),
            )
        return cls(
            fault_spec=FaultSpec.from_dict(d["fault_spec"]),
            result=MCResult.from_dict(d["result"]),
        )


@dataclass
class ExperimentResult:
    """All grid points of one executed spec (timing kept out of the JSON so
    serial and parallel runs of the same spec serialise identically)."""

    spec: ExperimentSpec
    points: list[PointResult]
    elapsed: float = 0.0

    def __getitem__(self, label: str) -> MCResult:
        for pt in self.points:
            if pt.fault_spec.label() == label:
                return pt.result
        raise KeyError(label)

    def to_dict(self) -> dict:
        return {
            "format": RESULT_FORMAT,
            "spec": self.spec.to_dict(),
            "points": [pt.to_dict() for pt in self.points],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentResult":
        if d.get("format") != RESULT_FORMAT:
            raise ValueError(f"unrecognised result format {d.get('format')!r}")
        return cls(
            spec=ExperimentSpec.from_dict(d["spec"]),
            points=[PointResult.from_dict(pt) for pt in d["points"]],
        )

    def save(self, path) -> None:
        from repro.util.serialization import save_json

        save_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "ExperimentResult":
        from repro.util.serialization import load_json

        return cls.from_dict(load_json(path))

    def summary(self) -> str:
        head = self.spec.name or self.spec.construction
        lines = [f"{head}: {self.spec.trials} trials/point ({self.elapsed:.2f}s)"]
        for pt in self.points:
            lines.append(f"  {pt.fault_spec.label():24s} {pt.result.summary()}")
        return "\n".join(lines)


# -- worker plumbing ---------------------------------------------------------

#: Per-process construction cache: building a host (graph geometry, tile
#: grids) dwarfs a single trial, and every chunk of the same spec reuses it.
#: Bounded LRU so long-lived processes sweeping many parameterisations don't
#: accumulate one materialised host per distinct key forever.
_CONSTRUCTION_CACHE: OrderedDict = OrderedDict()
_CONSTRUCTION_CACHE_MAX = 8


def _cached_construction(name: str, params_items: tuple):
    from repro.api.registry import get

    key = (name, params_items)
    if key in _CONSTRUCTION_CACHE:
        _CONSTRUCTION_CACHE.move_to_end(key)
    else:
        _CONSTRUCTION_CACHE[key] = get(name, **dict(params_items))
        while len(_CONSTRUCTION_CACHE) > _CONSTRUCTION_CACHE_MAX:
            _CONSTRUCTION_CACHE.popitem(last=False)
    return _CONSTRUCTION_CACHE[key]


def _run_chunk(task: tuple) -> dict:
    """One work unit: ``count`` trials of one grid point, as a result dict.

    ``task`` is ``(name, params_items, point_dict, seed_start, count,
    backend, max_batch_bytes)``; see :func:`_run_block`, which this runs
    as a block of one chunk.
    """
    *head, count, backend, mbb = task
    return _run_block((*head, (count,), backend, mbb))[0]


def _run_block(task: tuple) -> list[dict]:
    """Consecutive seed chunks of one grid point, one result dict each.

    Takes/returns plain picklable types so it crosses process boundaries.
    ``task`` is ``(name, params_items, point_dict, seed_start, counts,
    backend, max_batch_bytes)``: chunk ``j`` holds the next ``counts[j]``
    seeds.  ``backend`` is ``"scalar"`` (the per-trial loop) or
    ``"batch"`` (the construction's vectorized kernels when advertised
    for the point, per-trial otherwise); outcomes are identical on both
    (the batch contract), so the choice never reaches the JSON.  A
    batched one-shot or lifetime point makes one ``run_batch`` /
    ``run_lifetime_batch`` call for the whole block and splits its
    outcomes at the chunk boundaries; traffic points, and per-trial
    runs, go chunk by chunk.
    ``max_batch_bytes`` (when set) bounds the kernels' resident fault
    stacks — passed only when explicit so duck-typed constructions
    without the parameter keep working.
    """
    name, params_items, fault_spec_dict, seed_start, counts, backend, mbb = task
    use_batch = backend == "batch"
    kw = {} if mbb is None else {"max_batch_bytes": mbb}
    construction = _cached_construction(name, params_items)
    point = _point_from_dict(fault_spec_dict)
    starts = list(itertools.accumulate(counts, initial=seed_start))
    chunks = [range(a, z) for a, z in zip(starts, starts[1:])]
    if use_batch and not isinstance(point, TrafficSpec):
        if isinstance(point, LifetimeSpec):
            names = ("run_lifetime_batch", "supports_lifetime_batch")
            aggregate = aggregate_lifetimes
        else:
            names, aggregate = ("run_batch", "supports_batch"), aggregate_outcomes
        run, supports = (getattr(construction, name, None) for name in names)
        if run is not None and (supports is None or supports(point)):
            outcomes = run(point, list(range(seed_start, starts[-1])), **kw)
            return [
                aggregate(outcomes[c.start - seed_start : c.stop - seed_start]).to_dict()
                for c in chunks
            ]
    return [_run_seeds(construction, name, point, list(c), use_batch) for c in chunks]


def _run_seeds(construction, name, point, seeds, use_batch) -> dict:
    """One chunk's trials, per trial or on the traffic kernel."""
    if isinstance(point, LifetimeSpec):
        lifetime_trial = getattr(construction, "lifetime_trial", None)
        if lifetime_trial is None:
            raise TypeError(f"construction {name!r} has no lifetime capability")
        return aggregate_lifetimes(lifetime_trial(point, s) for s in seeds).to_dict()
    if isinstance(point, TrafficSpec):
        traffic_trial = getattr(construction, "traffic_trial", None)
        if traffic_trial is None:
            raise TypeError(f"construction {name!r} has no traffic capability")
        run_tb = getattr(construction, "run_traffic_batch", None)
        if use_batch and run_tb is not None:
            return aggregate_traffic(run_tb(point, seeds)).to_dict()
        return aggregate_traffic(traffic_trial(point, s) for s in seeds).to_dict()
    return aggregate_outcomes(construction.trial(point, s) for s in seeds).to_dict()


def _run_block_indexed(item: tuple) -> tuple:
    """Pool envelope around :func:`_run_block`: carries the block's grid
    coordinates (point, first chunk) through ``imap_unordered`` (which
    drops input ordering) and drains the worker's peak-buffer gauge for
    progress telemetry."""
    point_idx, chunk_idx, task = item
    results = _run_block(task)
    from repro.fastpath.streaming import take_peak_bytes

    return point_idx, chunk_idx, results, take_peak_bytes()


def _result_class(fs) -> type:
    if isinstance(fs, LifetimeSpec):
        return LifetimeResult
    if isinstance(fs, TrafficSpec):
        return TrafficResult
    return MCResult


class _PointFold:
    """Incremental chunk-order merge state for one grid point.

    Chunks may *arrive* in any order (``imap_unordered``, resumed
    journals); they are *folded* strictly in chunk order through the
    result class's merge accumulator — the same operation sequence as
    the one-shot ``merged()`` — with out-of-order arrivals parked in a
    small pending dict until their turn.  Only raw dicts ahead of the
    fold frontier are ever buffered, so parent memory stays O(pending),
    not O(trials).
    """

    def __init__(self, fault_spec) -> None:
        self.fault_spec = fault_spec
        self.res_cls = _result_class(fault_spec)
        self._merge = self.res_cls.merger()
        self._next = 0
        self._pending: dict[int, dict] = {}

    def add(self, chunk_idx: int, result_dict: dict) -> None:
        self._pending[chunk_idx] = result_dict
        while self._next in self._pending:
            part = self.res_cls.from_dict(self._pending.pop(self._next))
            self._merge.add(part)
            self._next += 1

    def finish(self) -> PointResult:
        if self._pending:  # pragma: no cover - runner always drains
            raise RuntimeError(f"unmerged chunks: {sorted(self._pending)}")
        return PointResult(fault_spec=self.fault_spec, result=self._merge.finish())


class ExperimentRunner:
    """Execute :class:`ExperimentSpec`\\ s serially or on a process pool.

    ``backend`` selects the kernels for each seed chunk: ``"batch"``
    (default: the numpy kernels where a construction advertises support,
    per-trial otherwise) or ``"scalar"`` (the per-trial reference loop
    everywhere).  Like ``workers``, the choice is a runner property, not
    a spec field — results are byte-identical on both backends.

    Execution is *streaming*: work units (single chunks, or blocks of
    consecutive chunks for batched one-shot and lifetime points, see
    :data:`BLOCK_TRIALS`) are generated lazily, results are consumed as
    they complete (``imap_unordered`` when pooled) and folded chunk by
    chunk into per-point merge accumulators, so the parent
    process never holds more than the out-of-order window of raw chunk
    dicts regardless of ``spec.trials``.  ``max_batch_bytes`` bounds
    each worker's resident fault-stack bytes (``None`` = the kernels'
    default budget); ``progress_interval`` throttles INFO progress lines
    (seconds between lines, ``0`` logs every chunk).  Neither changes
    results — see docs/scaling.md.

    ``run(spec, checkpoint=..., resume=...)`` adds crash tolerance: each
    completed chunk is appended to an NDJSON journal, and a resumed run
    skips journaled chunks while producing byte-identical final JSON
    (see ``repro.api.journal``).
    """

    def __init__(
        self,
        workers: int = 1,
        max_batch_bytes: int | None = None,
        progress_interval: float = 1.0,
        backend: str = "batch",
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_batch_bytes is not None and max_batch_bytes < 1:
            raise ValueError("max_batch_bytes must be >= 1")
        if backend not in ("scalar", "batch"):
            raise ValueError(f"unknown backend {backend!r}; options: scalar, batch")
        self.workers = workers
        self.backend = backend
        self.max_batch_bytes = max_batch_bytes
        self.progress_interval = progress_interval

    def _iter_tasks(self, spec: ExperimentSpec, skip=frozenset()):
        """Lazily yield ``(point_idx, first_chunk_idx, task)`` work units
        for :func:`_run_block_indexed`: consecutive chunks of one point not
        in ``skip`` (chunks already satisfied by a resumed journal),
        grouped up to :data:`BLOCK_TRIALS` trials — and, with several
        workers, up to each worker's share of the point's chunks — for
        one-shot and lifetime points on the batch backend, and one chunk
        each otherwise.

        A generator, never a materialized list: at a million trials the
        task list itself would be memory the streaming contract promises
        not to spend.
        """
        params_items = tuple(sorted(spec.params.items()))
        chunks_per_point = -(-spec.trials // spec.chunk_size)

        def share(chunk_idx):
            # Which worker's share of the point a chunk falls in: at most
            # ceil(chunks / workers) chunks each, min(workers, chunks) shares.
            return chunk_idx * self.workers // chunks_per_point

        for point_idx, fs in enumerate(spec.grid):
            fsd = fs.to_dict()
            grouped = self.backend == "batch" and isinstance(fs, (FaultSpec, LifetimeSpec))
            cap = BLOCK_TRIALS if grouped else 1
            block = None  # (first chunk, first seed, counts)
            for chunk_idx, start in enumerate(range(0, spec.trials, spec.chunk_size)):
                count = min(spec.chunk_size, spec.trials - start)
                skipped = (point_idx, chunk_idx) in skip
                if block and (skipped or sum(block[2]) + count > cap
                              or share(chunk_idx) != share(block[0])):
                    yield self._task(spec, params_items, fsd, point_idx, *block)
                    block = None
                if skipped:
                    continue
                if block is None:
                    block = (chunk_idx, spec.seed0 + start, [])
                block[2].append(count)
            if block:
                yield self._task(spec, params_items, fsd, point_idx, *block)

    def _task(self, spec, params_items, fsd, point_idx, first, seed, counts) -> tuple:
        return (
            point_idx,
            first,
            (spec.construction, params_items, fsd, seed, tuple(counts),
             self.backend, self.max_batch_bytes),
        )

    def run(
        self,
        spec: ExperimentSpec,
        *,
        checkpoint=None,
        resume: bool = False,
    ) -> ExperimentResult:
        t0 = time.perf_counter()
        chunks_per_point = -(-spec.trials // spec.chunk_size)
        total = len(spec.grid) * chunks_per_point
        folds = [_PointFold(fs) for fs in spec.grid]

        journal = None
        done: dict = {}
        if checkpoint is not None:
            from repro.api.journal import ChunkJournal

            journal = ChunkJournal(checkpoint)
            done = journal.start(spec, total, resume=resume)
        elif resume:
            raise ValueError("resume requires a checkpoint path")
        # Journaled chunks fold first (sorted = chunk order per point), so
        # live results always land at or ahead of each fold frontier.
        for point_idx, chunk_idx in sorted(done):
            folds[point_idx].add(chunk_idx, done[(point_idx, chunk_idx)])

        progress = _Progress(
            total=total, already_done=len(done), spec=spec,
            interval=self.progress_interval,
        )
        try:
            units = sum(1 for _ in self._iter_tasks(spec, skip=done.keys()))
            if units:
                tasks = self._iter_tasks(spec, skip=done.keys())
                if self.workers == 1 or units == 1:
                    # No pool spin-up cost when it could not help.
                    results = map(_run_block_indexed, tasks)
                    self._consume(results, folds, journal, progress)
                else:
                    workers = min(self.workers, units)
                    # Dispatch in groups to amortize IPC without letting one
                    # worker hoard the tail of the queue.
                    blk = max(1, min(16, units // (workers * 4)))
                    with multiprocessing.Pool(processes=workers) as pool:
                        results = pool.imap_unordered(
                            _run_block_indexed, tasks, chunksize=blk
                        )
                        self._consume(results, folds, journal, progress)
        finally:
            if journal is not None:
                journal.close()
        points = [fold.finish() for fold in folds]
        return ExperimentResult(spec=spec, points=points, elapsed=time.perf_counter() - t0)

    def _consume(self, results, folds, journal, progress) -> None:
        """Drain block results as they complete: journal, fold and report
        each chunk."""
        for point_idx, first_chunk, result_dicts, peak_bytes in results:
            for chunk_idx, result_dict in enumerate(result_dicts, first_chunk):
                if journal is not None:
                    journal.append(point_idx, chunk_idx, result_dict)
                folds[point_idx].add(chunk_idx, result_dict)
                progress.step(int(result_dict.get("trials", 0)), peak_bytes)


class _Progress:
    """Throttled INFO progress lines for long sweeps (chunks, trials/s,
    ETA, worker peak buffer).  Silent unless the ``repro`` logger is at
    INFO (the CLI's global ``--log-level info``)."""

    def __init__(self, *, total: int, already_done: int, spec, interval: float) -> None:
        self.total = total
        self.done = already_done
        self.live = 0         # chunks completed this session
        self.trials = 0       # trials completed this session
        self.peak_bytes = 0
        self.interval = interval
        self.t0 = time.perf_counter()
        self.last = self.t0
        if already_done:
            logger.info(
                "%s: resuming — %d/%d chunks journaled", spec.name or spec.construction,
                already_done, total,
            )

    def step(self, trials: int, peak_bytes: int) -> None:
        self.done += 1
        self.live += 1
        self.trials += trials
        self.peak_bytes = max(self.peak_bytes, peak_bytes)
        now = time.perf_counter()
        if self.done < self.total and now - self.last < self.interval:
            return
        self.last = now
        if not logger.isEnabledFor(logging.INFO):
            return
        elapsed = max(now - self.t0, 1e-9)
        rate = self.trials / elapsed
        remaining = self.total - self.done
        eta = remaining * (self.trials / self.live) / max(rate, 1e-9)
        logger.info(
            "progress: %d/%d chunks (%.0f%%), %d trials, %.0f trials/s, "
            "ETA %.1fs, peak buffer %.1f MiB",
            self.done, self.total, 100.0 * self.done / self.total, self.trials,
            rate, eta, self.peak_bytes / (1024 * 1024),
        )
