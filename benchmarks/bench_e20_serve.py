"""E20 — sustained throughput and latency of the serve daemon, and its gate.

Boots a :class:`repro.serve.server.ReproServer` on an ephemeral port,
drives it with the :class:`repro.serve.client.LoadGenerator` (real TCP
sockets, concurrent clients mixing fault/repair ingest with live traffic
queries), and records sustained requests/sec plus p50/p99 request latency
in ``BENCH_serve.json`` at the repo root.  The full tier also records the
per-layer split of a traced perfbench ``serve`` run (``stage_split``:
route builds per query, the route, arbitration and simulation shares,
the self shares of the query handler and of the event loop, cycles per
query, and the share of event latency spent waiting),
for this checkout and, with ``--split-against CHECKOUT``, for another one
such as the parent commit, each beside that checkout's untraced perfbench
``serve`` throughput measured on the same machine.

Runs two ways:

* ``pytest benchmarks/bench_e20_serve.py`` — bench-suite integration
  (full measurement, table artifact, regenerates the JSON);
* ``python benchmarks/bench_e20_serve.py [--quick] [--check PATH]`` —
  the CI serve gate.  Both tiers drive >= 1,000 total requests from
  >= 4 concurrent clients (the ISSUE 6 acceptance floor).  The gate is
  deliberately an *invariant* gate, not a wall-clock one: raw req/s on a
  shared CI runner is scheduler noise, but zero erroring frames, zero
  client exceptions, a machine that survives the workload, a well-formed
  telemetry snapshot, and byte-identical online-vs-offline machine state
  (for a bn machine and for a generic full-recompute one ingested
  through its death) are all load-independent.  A generous absolute throughput floor
  (``MIN_RPS``) still catches pathological regressions (an accidentally
  serialised event loop, a stray sleep) without ever tripping on jitter.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

from stage_split import stage_split_block

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SERVE_JSON = ROOT / "BENCH_serve.json"

#: ISSUE 6 acceptance floor: >= 1,000 requests from >= 4 concurrent clients.
CLIENTS = 4
QUICK_REQUESTS = 1_000
FULL_REQUESTS = 2_000
QUICK_MESSAGES = 8
FULL_MESSAGES = 32

#: Pathological-regression floor for the gate (absolute, deliberately far
#: below any healthy measurement — see module doc).
MIN_RPS = 50.0

#: Per-layer metrics of perfbench's traced ``serve`` workload (defined in
#: perfbench/README.md), recorded beside its untraced ``ops_per_s`` so a
#: serve speed-up comes with where the query time went (see
#: benchmarks/stage_split.py).
STAGE_METRICS = (
    "fastpath.traffic_batch.routes_calls_per_query",
    "fastpath.traffic_batch.routes_share",
    "fastpath.traffic_batch.arbitrate_share",
    "fastpath.traffic_batch.simulate_share",
    "fastpath.traffic_batch.cycles_per_trial",
    "serve.state.query_share",
    "serve.server.self_share",
    "serve.event.wait_frac",
)

#: Keys a machine telemetry snapshot must carry to count as well-formed.
TELEMETRY_KEYS = (
    "events", "traffic", "machine", "construction", "alive",
    "arrivals_survived", "live_faults", "repair_backlog", "seq",
)


def measure_loadgen(requests: int, messages: int, *, seed: int = 0) -> dict:
    """One sustained loadgen burst against an in-process daemon.

    The daemon and the clients share one event loop but talk over real
    TCP sockets on localhost — the same wire path `repro-ft serve` +
    `repro-ft loadgen` exercise across processes, minus fork overhead
    that would only add noise to a throughput number.
    """
    from repro.serve.client import LoadGenConfig, LoadGenerator
    from repro.serve.server import ReproServer, ServeConfig

    async def go() -> dict:
        server = ReproServer(ServeConfig(port=0, telemetry_interval=0.25))
        await server.start()
        try:
            config = LoadGenConfig(
                port=server.port,
                clients=CLIENTS,
                requests=requests,
                messages=messages,
                seed=seed,
            )
            report = await LoadGenerator(config).run()
            report["server_telemetry"] = server.telemetry.snapshot(0.0)
        finally:
            server.request_shutdown()
            await server.serve_until_shutdown()
        return report

    t0 = time.perf_counter()
    report = asyncio.run(go())
    report["wall_s"] = round(time.perf_counter() - t0, 3)
    latency = report["latency"]
    report["headline"] = {
        "clients": CLIENTS,
        "requests": report["totals"]["requests"],
        "requests_per_s": round(report["requests_per_s"], 1),
        "p50_ms": round(latency["p50_ms"], 3),
        "p99_ms": round(latency["p99_ms"], 3),
        "errors": report["totals"]["errors"],
        "client_exceptions": report["totals"]["client_exceptions"],
    }
    return report


def _determinism_case(construction: str, params: dict, spec, seed: int) -> dict:
    """Ingest one scripted event sequence over TCP; compare the resulting
    machine digest byte-for-byte against the offline LifetimeSpec path."""
    from repro.serve.client import ServeClient
    from repro.serve.server import ReproServer, ServeConfig
    from repro.serve.state import offline_digest, scripted_events

    async def go() -> dict:
        server = ReproServer(ServeConfig(port=0))
        await server.start()
        try:
            client = await ServeClient.connect("127.0.0.1", server.port)
            await client.request("create", machine="m", construction=construction,
                                 params=params)
            events = scripted_events(construction, params, spec, seed)
            await client.request("events", machine="m",
                                 events=[[k, n] for k, n in events])
            digest = await client.request("digest", machine="m")
            telemetry = await client.request(
                "telemetry", machine="m", health=construction == "bn")
            await client.close()
            return {"digest": digest, "telemetry": telemetry,
                    "events": len(events)}
        finally:
            server.request_shutdown()
            await server.serve_until_shutdown()

    wire = asyncio.run(go())
    offline = offline_digest(construction, params, spec, seed)
    identical = json.dumps(wire["digest"], sort_keys=True) == json.dumps(
        offline, sort_keys=True
    )
    return {
        "construction": construction,
        "params": params,
        "spec": spec.to_dict(),
        "seed": seed,
        "events_ingested": wire["events"],
        "online_equals_offline": identical,
        "telemetry": wire["telemetry"],
    }


def measure_determinism() -> dict:
    """The online==offline digest check on two machines: a bn one fed
    faults and repairs (alive at the end; its record is the top level),
    and under ``generic`` a full-recompute sparerows machine whose
    scripted events run through its death and past it."""
    from repro.api.protocol import LifetimeSpec

    data = _determinism_case(
        "bn", {"d": 2, "b": 3, "s": 1, "t": 2},
        LifetimeSpec(timeline="bernoulli", rate=0.0005, repair_rate=0.3, max_steps=40),
        3,
    )
    data["generic"] = _determinism_case(
        "sparerows", {"n": 8, "sigma": 2},
        LifetimeSpec(timeline="uniform", repair_rate=0.1, max_steps=200), 0,
    )
    return data


def check_invariants(data: dict) -> list[str]:
    """The gate: every violated serve invariant, as a human-readable line."""
    problems: list[str] = []
    head = data["quick"]["headline"]
    totals = data["quick"]["totals"]
    if head["clients"] < 4:
        problems.append(f"only {head['clients']} concurrent clients (need >= 4)")
    if head["requests"] < 1_000:
        problems.append(f"only {head['requests']} total requests (need >= 1000)")
    if head["errors"] or head["client_exceptions"]:
        problems.append(
            f"{head['errors']} erroring and {head['client_exceptions']} "
            "dropped/aborted frames (need zero)"
        )
    if totals["machine_died"]:
        problems.append("the machine died under load")
    if head["requests_per_s"] < MIN_RPS:
        problems.append(
            f"throughput {head['requests_per_s']} req/s below the "
            f"pathological-regression floor {MIN_RPS}"
        )
    snapshot = data["quick"]["telemetry"]
    missing = [k for k in TELEMETRY_KEYS if k not in snapshot]
    if missing:
        problems.append(f"telemetry snapshot missing keys: {missing}")
    determinism = data["determinism"]
    for case in (determinism, determinism["generic"]):
        if not case["online_equals_offline"]:
            problems.append(f"{case['construction']}: online ingestion digest "
                            "differs from the offline path")
    if determinism["generic"]["telemetry"]["alive"]:
        problems.append("the generic machine survived its scripted events, so "
                        "ingestion through death went unchecked")
    return problems


def measure(quick: bool, split_against: Path | None = None) -> dict:
    """The tier's loadgen bursts and the determinism check; the full tier
    adds ``stage_split`` (after = this checkout, before = the checkout at
    ``split_against`` when given)."""
    requests = QUICK_REQUESTS if quick else FULL_REQUESTS
    messages = QUICK_MESSAGES if quick else FULL_MESSAGES
    data = {
        "benchmark": (
            "serve daemon under sustained mixed load: concurrent TCP clients "
            "alternating fault/repair ingest with live-embedding traffic "
            "queries (repro.serve; bn d=2 b=3 machine)"
        ),
        "machine_cpus": os.cpu_count(),
        "note": (
            "requests_per_s and the latency percentiles are recorded for "
            "humans; the CI gate checks load-independent invariants (zero "
            "erroring frames, surviving machine, well-formed telemetry, "
            "online==offline state digest) plus an absolute throughput "
            "floor, because raw req/s on a shared runner is scheduler noise"
        ),
        "quick": measure_loadgen(QUICK_REQUESTS, QUICK_MESSAGES, seed=0),
        "determinism": measure_determinism(),
    }
    if not quick:
        data["full"] = measure_loadgen(requests, messages, seed=1)
        data["stage_split"] = stage_split_block(ROOT, "serve", STAGE_METRICS,
                                                split_against)
    return data


# -- pytest integration ------------------------------------------------------


def test_e20_serve_throughput(benchmark, report):
    from conftest import run_once

    from repro.util.tables import Table

    def compute():
        data = measure(quick=False)
        SERVE_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        return data

    data = run_once(benchmark, compute)
    table = Table(
        ["case", "clients", "requests", "req/s", "p50 ms", "p99 ms", "errors"],
        title="E20: serve daemon sustained mixed load",
    )
    for key in ("quick", "full"):
        h = data[key]["headline"]
        table.add_row([key, h["clients"], h["requests"], h["requests_per_s"],
                       h["p50_ms"], h["p99_ms"],
                       h["errors"] + h["client_exceptions"]])
    report("e20_serve", table)

    assert not check_invariants(data)


# -- CLI / CI gate -----------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="one acceptance-floor burst (the CI serve gate)")
    ap.add_argument("--check", nargs="?", const="-", metavar="BASELINE",
                    help="verify the serve invariants (zero erroring frames, "
                         "surviving machine, well-formed telemetry, "
                         "online==offline digest); with a BASELINE path also "
                         "require that its recorded invariants still held")
    ap.add_argument("--out", metavar="PATH",
                    help="write measurement JSON here (full mode defaults to "
                         "BENCH_serve.json)")
    ap.add_argument("--split-against", dest="split_against", type=Path,
                    metavar="CHECKOUT",
                    help="full mode: also measure stage_split on another "
                         "checkout (e.g. the parent commit) as 'before'")
    args = ap.parse_args(argv)

    data = measure(quick=args.quick, split_against=args.split_against)
    summary = {k: data[k] for k in ("quick", "determinism")}
    print(json.dumps(
        {"quick": summary["quick"]["headline"],
         "determinism": {
             case["construction"]: {
                 "events_ingested": case["events_ingested"],
                 "online_equals_offline": case["online_equals_offline"],
             }
             for case in (summary["determinism"], summary["determinism"]["generic"])
         }},
        indent=2, sort_keys=True,
    ))

    if args.out:
        Path(args.out).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    elif not args.quick:
        SERVE_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {SERVE_JSON}")

    if args.check:
        problems = check_invariants(data)
        if args.check != "-":
            baseline = json.loads(Path(args.check).read_text())
            if not baseline.get("determinism", {}).get("online_equals_offline"):
                problems.append(
                    "committed baseline itself records a determinism break "
                    "(regenerate BENCH_serve.json)"
                )
        for problem in problems:
            print(f"serve gate: {problem}", file=sys.stderr)
        if problems:
            print("FAIL: serve invariants violated", file=sys.stderr)
            return 1
        print("serve gate: all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
