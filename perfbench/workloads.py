"""The four benchmark workloads, driven through the repository's own
user surfaces: the ``repro-ft`` CLI (in-process ``repro.cli.main``) and
the serve daemon over loopback TCP.

Each workload builds its inputs from the benchmark seed, runs timed
slices, and checks its outputs afterwards.  A slice is one user-visible
unit of work: one CLI job for the batch workloads, one quarter-second
segment of both client connections for ``serve``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["WORKLOADS", "Slice", "make_workload"]


@dataclass
class Slice:
    """One timed slice: work done (``ops``), its wall time, counts the
    per-layer metrics divide by, per-request latency samples (serve), and
    the calibration probe time that belongs to it (set by the caller)."""

    ops: int
    seconds: float
    counts: dict = field(default_factory=dict)
    latency_ms: dict = field(default_factory=dict)
    probe_s: float = 0.0


@dataclass
class Check:
    """Outcome of a workload's output checks: operations attempted and
    failed, with a note per check run or failure."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def fail(self, ops: int, note: str) -> None:
        self.failed += ops
        self.notes.append(note)


def _seed_base(seed: int) -> int:
    """First trial seed of a run: far apart for different benchmark seeds."""
    return (int(seed) * 2654435761) % (1 << 31)


#: Added to a run's first seed for its warm-up job, so warm-up trials never
#: repeat a measured trial.
WARMUP_OFFSET = 1 << 31


class Workload:
    """Common state: the seed, the scratch directory for result files,
    and the test-only ``tiny`` (small inputs) and ``corrupt`` (damage
    one output before it is checked) switches."""

    name = ""
    unit = "trials"
    root_span = ""
    #: How strongly this workload slows when the calibration probe does
    #: (see perfbench/calibration.py).
    sensitivity = 1.0

    def __init__(self, seed: int, workdir: Path, *, tiny: bool = False,
                 corrupt: bool = False) -> None:
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.tiny = tiny
        self.corrupt = corrupt

    def close(self) -> None:
        """Release what set-up acquired (result files stay in the scratch
        directory for inspection)."""


class CliWorkload(Workload):
    """A batch workload: repeated ``repro-ft`` jobs of a fixed size, each
    writing its result JSON like a user's ``--out`` file."""

    root_span = "cli.main"
    #: CLI arguments naming the job (construction, fault point, ...).
    job: tuple = ()
    #: Trials per measured slice, per warm-up slice, and in tiny mode.
    trials = 1
    warmup_trials = 1
    #: Measured slices re-run on the scalar backend by :meth:`check`.
    scalar_checks = 1

    def __init__(self, seed: int, workdir: Path, **kwargs) -> None:
        super().__init__(seed, workdir, **kwargs)
        self.out_path = self.workdir / f"{self.name}-slice.json"
        self.base = _seed_base(seed)
        #: Per measured slice: (first seed, trials, ops, result JSON).
        self.outputs: list[tuple[int, int, int, bytes]] = []
        self._next_seed = self.base

    # -- running jobs --------------------------------------------------------

    def job_args(self) -> list[str]:
        return list(self.job)

    def _argv(self, seed0: int, trials: int, out: Path, extra=()) -> list[str]:
        return [
            "--log-level", "warning", *self.job_args(),
            "--trials", str(trials), "--seed", str(seed0), "--out", str(out),
            *extra,
        ]

    def _run_cli(self, argv: list[str]) -> None:
        from repro import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"repro-ft {' '.join(argv)} exited {code}")

    def setup(self) -> None:
        self._run_cli(self._argv(self.base + WARMUP_OFFSET, self.warmup_trials,
                                 self.out_path))

    def run_slice(self, traced=None) -> Slice:
        seed0 = self._next_seed
        trials = 2 if self.tiny else self.trials
        self._next_seed += trials
        argv = self._argv(seed0, trials, self.out_path)
        t0 = time.perf_counter()
        if traced is None:
            self._run_cli(argv)
        else:
            with traced.span(self.root_span):
                self._run_cli(argv)
        seconds = time.perf_counter() - t0
        data = self.out_path.read_bytes()
        done = self._slice(json.loads(data), trials, seconds)
        self.outputs.append((seed0, trials, done.ops, data))
        return done

    def _slice(self, result: dict, trials: int, seconds: float) -> Slice:
        return Slice(ops=trials, seconds=seconds, counts={"trials": trials})

    # -- output checks -------------------------------------------------------

    def _corrupted(self, data: bytes) -> bytes:
        """The result JSON with one trial's outcome flipped."""
        result = json.loads(data)
        res = result["points"][0]["result"]
        if "successes" in res:
            res["successes"] += 1 if res["successes"] < res["trials"] else -1
        else:
            res["lifetimes"][0] += 1
        return json.dumps(result).encode()

    def _corrupt_first(self) -> None:
        if self.corrupt and self.outputs:
            seed0, trials, ops, data = self.outputs[0]
            self.outputs[0] = (seed0, trials, ops, self._corrupted(data))

    def check(self) -> Check:
        chk = Check(attempted=sum(ops for _, _, ops, _ in self.outputs))
        self._corrupt_first()
        picks = random.Random(self.seed).sample(
            range(len(self.outputs)), min(self.scalar_checks, len(self.outputs)))
        if self.corrupt and picks and 0 not in picks:
            picks[0] = 0  # the damaged slice must be among those checked
        scalar_out = self.workdir / f"{self.name}-scalar.json"
        for i in picks:
            seed0, trials, ops, data = self.outputs[i]
            self._run_cli(self._argv(seed0, trials, scalar_out, ("--backend", "scalar")))
            if scalar_out.read_bytes() != data:
                chk.fail(ops, f"slice seeds {seed0}..{seed0 + trials - 1}: result JSON "
                              "differs from --backend scalar")
        chk.notes.append(f"{len(picks)} slice(s) re-run on --backend scalar")
        return chk

class Survival(CliWorkload):
    """``repro-ft run --construction bn --b 3 --p 0.001``: Theorem-2
    Monte-Carlo survival on the default (batch) backend."""

    name = "survival"
    job = ("run", "--construction", "bn", "--b", "3", "--p", "0.001")
    sensitivity = 0.9
    trials = 512
    warmup_trials = 64
    scalar_checks = 1


class Lifetime(CliWorkload):
    """``repro-ft lifetime --construction bn --b 4``: uniform fault
    timelines to first failure on the batched lifetime kernel."""

    name = "lifetime"
    job = ("lifetime", "--construction", "bn", "--b", "4")
    sensitivity = 0.9
    trials = 48
    warmup_trials = 4
    scalar_checks = 2

    def _slice(self, result: dict, trials: int, seconds: float) -> Slice:
        res = result["points"][0]["result"]
        # Arrivals processed: the survived ones plus the one that killed
        # the machine (timelines that ran out of nodes have no such one).
        arrivals = sum(res["lifetimes"]) + res["trials"] - res["exhausted"]
        return Slice(ops=trials, seconds=seconds,
                     counts={"trials": trials, "arrivals": arrivals})


class Traffic(CliWorkload):
    """``repro-ft traffic`` open-loop uniform Bernoulli traffic on the bn
    d=2 b=3 guest, one rate below and one past saturation."""

    name = "traffic"
    unit = "messages"
    sensitivity = 0.75

    def job_args(self, rates: str = "0.1,0.25", cycles: int = 300,
                 warmup: int = 50) -> list[str]:
        if self.tiny:
            cycles, warmup = min(cycles, 30), min(warmup, 5)
        return ["traffic", "--construction", "bn", "--b", "3", "--pattern", "uniform",
                "--injection", "bernoulli", "--rate", rates,
                "--cycles", str(cycles), "--warmup", str(warmup)]

    def _short(self, seed0: int, out: Path, *extra) -> list[str]:
        """One trial at the lower rate on a shortened horizon."""
        return ["--log-level", "warning",
                *self.job_args("0.1", 12 if self.tiny else 40, 4 if self.tiny else 10),
                "--trials", "1", "--seed", str(seed0), "--out", str(out), *extra]

    def setup(self) -> None:
        self._run_cli(self._short(self.base + WARMUP_OFFSET, self.out_path))

    def _slice(self, result: dict, trials: int, seconds: float) -> Slice:
        outcomes = [o for pt in result["points"] for o in pt["result"]["outcomes"]]
        return Slice(
            ops=sum(o["offered"] for o in outcomes), seconds=seconds,
            counts={"trials": len(outcomes), "simulations": len(outcomes),
                    "cycles": sum(o["cycles"] for o in outcomes)},
        )

    def _corrupted(self, data: bytes) -> bytes:
        result = json.loads(data)
        result["points"][0]["result"]["outcomes"][0]["delivered"] += 1
        return json.dumps(result).encode()

    def check(self) -> Check:
        chk = Check()
        self._corrupt_first()
        for seed0, _, _, data in self.outputs:
            for pt in json.loads(data)["points"]:
                for o in pt["result"]["outcomes"]:
                    chk.attempted += o["offered"]
                    accounted = sum(o.get(k, 0) for k in
                                    ("delivered", "timed_out", "undeliverable", "dropped"))
                    if accounted != o["offered"]:
                        chk.fail(o["offered"], f"seed {seed0}: offered {o['offered']} != "
                                 f"delivered+timed_out+undeliverable+dropped {accounted}")
        chk.notes.append(f"conservation checked on {len(self.outputs)} slice(s)")
        # Scalar-engine cross-check on a shortened horizon of one of the
        # run's seeds (the full horizon takes the scalar engine minutes).
        if self.outputs:
            seed0 = random.Random(self.seed).choice(self.outputs)[0]
            results = []
            for backend in ("batch", "scalar"):
                out = self.workdir / f"{self.name}-{backend}.json"
                self._run_cli(self._short(seed0, out, "--backend", backend))
                results.append(out.read_bytes())
            outcome = json.loads(results[0])["points"][0]["result"]["outcomes"][0]
            chk.attempted += outcome["offered"]
            if results[0] != results[1]:
                chk.fail(outcome["offered"],
                         f"seed {seed0}: batch and scalar engines disagree")
            chk.notes.append("scalar-engine cross-check on 1 shortened trial")
        return chk


class Serve(Workload):
    """An in-process ``ReproServer`` with one bn d=2 b=3 machine, reached
    over loopback TCP by two closed-loop connections: an ingest
    connection sending fault/repair ``event`` pairs and a query
    connection sending 32-message uniform live ``traffic`` queries."""

    name = "serve"
    unit = "requests"
    root_span = "serve.server"
    machine = "m0"
    params = {"d": 2, "b": 3}
    segment_s = 0.25

    def __init__(self, seed: int, workdir: Path, **kwargs) -> None:
        super().__init__(seed, workdir, **kwargs)
        self.rng = random.Random(self.seed)
        self.events: list[tuple[str, int]] = []
        self.requests = 0
        self.errors = 0
        self.loop = None
        self.server = None
        self.clients: list = []

    def setup(self) -> None:
        import asyncio

        from repro.serve.client import ServeClient
        from repro.serve.server import ReproServer, ServeConfig

        self.loop = asyncio.new_event_loop()
        self.server = ReproServer(ServeConfig(
            port=0, telemetry_interval=3600.0,
            machines=((self.machine, "bn", dict(self.params)),),
        ))
        self.loop.run_until_complete(self.server.start())
        self.num_nodes = int(self.server.machines[self.machine].state.info()["num_nodes"])
        for _ in range(2):
            self.clients.append(self.loop.run_until_complete(
                ServeClient.connect("127.0.0.1", self.server.port)))
        # Warm-up: two fault/repair pairs and two queries.
        warm = time.perf_counter() + (0.05 if self.tiny else 0.2)
        self.loop.run_until_complete(self._segment(warm, limit=2))

    async def _request(self, client, op: str, **fields):
        from repro.serve.client import ServeRequestError

        t0 = time.perf_counter()
        try:
            result = await client.request(op, machine=self.machine, **fields)
        except ServeRequestError:
            self.errors += 1
            result = None
        return result, (time.perf_counter() - t0) * 1e3

    async def _ingest(self, deadline: float, limit: int | None, stats: dict) -> None:
        client = self.clients[0]
        pairs = 0
        while time.perf_counter() < deadline and (limit is None or pairs < limit):
            node = self.rng.randrange(self.num_nodes)
            for kind in ("fault", "repair"):
                result, ms = await self._request(client, "event", kind=kind, node=node)
                self.events.append((kind, node))
                stats["requests"] += 1
                stats["event_ms"].append(float("inf") if result is None else ms)
                if kind == "fault":
                    stats["fault_events"] += 1
                    if result is not None and result.get("action") == "replaced":
                        stats["replaced"] += 1
            pairs += 1

    async def _query(self, deadline: float, limit: int | None, stats: dict) -> None:
        client = self.clients[1]
        done = 0
        while time.perf_counter() < deadline and (limit is None or done < limit):
            seed = self.rng.randrange(1 << 30)
            result, ms = await self._request(
                client, "traffic", pattern="uniform", messages=32, seed=seed)
            stats["requests"] += 1
            stats["queries"] += 1
            stats["query_ms"].append(float("inf") if result is None else ms)
            if result is not None:
                stats["cycles"] += int(result["cycles"])
            done += 1

    async def _segment(self, deadline: float, limit: int | None = None) -> dict:
        import asyncio

        stats = {"requests": 0, "queries": 0, "fault_events": 0, "replaced": 0,
                 "cycles": 0, "event_ms": [], "query_ms": []}
        await asyncio.gather(self._ingest(deadline, limit, stats),
                             self._query(deadline, limit, stats))
        return stats

    def run_slice(self, traced=None) -> Slice:
        span = traced.span(self.root_span) if traced is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            stats = self.loop.run_until_complete(
                self._segment(t0 + (0.05 if self.tiny else self.segment_s)))
        seconds = time.perf_counter() - t0
        self.requests += stats["requests"]
        counts = {k: stats[k] for k in ("requests", "queries", "fault_events",
                                        "replaced", "cycles")}
        counts["trials"] = stats["requests"]
        counts["simulations"] = stats["queries"]
        counts["event_ms_total"] = sum(stats["event_ms"])
        return Slice(ops=stats["requests"], seconds=seconds, counts=counts,
                     latency_ms={"event": stats["event_ms"], "query": stats["query_ms"]})

    def check(self) -> Check:
        from repro.serve.state import MachineState

        chk = Check(attempted=self.requests)
        if self.errors:
            chk.fail(self.errors, f"{self.errors} request(s) answered with an error frame")
        digest = self.loop.run_until_complete(
            self.clients[0].request("digest", machine=self.machine))
        chk.attempted += 1
        if self.corrupt:
            digest["repaired"] += 1
        if not digest.get("alive"):
            chk.fail(1, f"machine died: {digest.get('death_category')}")
        replay = MachineState("replay", "bn", dict(self.params))
        for kind, node in self.events:
            replay.apply_event(kind, node)
        want = json.dumps(replay.digest(), sort_keys=True)
        if json.dumps(digest, sort_keys=True) != want:
            chk.fail(1, "final digest differs from a synchronous replay of the "
                        f"{len(self.events)} ingested events")
        chk.notes.append(f"digest replayed from {len(self.events)} events")
        return chk

    def close(self) -> None:
        if self.loop is None:
            return
        for client in self.clients:
            self.loop.run_until_complete(client.close())
        if self.server is not None:
            self.server.request_shutdown()
            self.loop.run_until_complete(self.server.serve_until_shutdown())
        self.loop.close()
        self.loop = None


WORKLOADS = {cls.name: cls for cls in (Survival, Lifetime, Traffic, Serve)}


def make_workload(name: str, seed: int, workdir: Path, **kwargs):
    return WORKLOADS[name](seed, workdir, **kwargs)
