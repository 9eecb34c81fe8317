"""Command-line interface: ``repro-ft``.

Subcommands
-----------
``run``          one-shot survival trials over any registered construction
``lifetime``     fault-arrival timelines driven to first recovery failure
``traffic``      guest-torus workload measurements (closed batch or open loop)
``serve``        long-lived operator daemon (event ingest, queries, telemetry)
``loadgen``      sustained mixed workload against a running serve daemon
``conformance``  differential-oracle + golden-artifact gate over all backends
``info``         print derived parameters of a construction
``figures``      regenerate the paper's Figure 1 / Figure 2 (ASCII)

Primary command output (summaries, tables, figures) goes to stdout;
status and diagnostics go through :mod:`logging` (the ``repro`` logger
hierarchy) to stderr, with the global ``--log-level`` flag shared by the
daemon and the one-shot commands alike.

``run``, ``lifetime`` and ``traffic`` share one flag set and one run
path: each builds its grid of spec points, and :func:`_experiment` turns
the construction flags and the grid into an ``ExperimentSpec``, runs it
through ``ExperimentRunner``, prints the summary and writes ``--out``::

    repro-ft run --construction dn --n 70 --b 2 --pattern random,diagonal \\
                 --trials 20 --workers 8 --out results.json
    repro-ft run --construction bn --p 0.00137 --check-health --trials 100
    repro-ft traffic --construction bn --pattern transpose --messages 200
"""

from __future__ import annotations

import argparse
import logging
import sys

from repro._version import __version__

__all__ = ["main"]

log = logging.getLogger("repro.cli")

_LOG_LEVELS = ("debug", "info", "warning", "error")


def _setup_logging(level: str, *, timestamps: bool = False) -> None:
    """(Re)bind the ``repro`` logger hierarchy to the *current* stderr.

    Handlers are rebuilt on every :func:`main` call (instead of a one-shot
    ``basicConfig``) so programmatic callers — and the test suite's
    captured streams — always log to whatever ``sys.stderr`` is now.
    Messages stay bare by default; ``timestamps`` switches to the
    operator format the long-running daemon wants.
    """
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    fmt = "%(asctime)s %(levelname)-7s %(name)s: %(message)s" if timestamps \
        else "%(message)s"
    handler.setFormatter(logging.Formatter(fmt))
    root.addHandler(handler)
    root.setLevel(getattr(logging, level.upper()))


#: Factory kwargs accepted by each registered construction; kwarg ``k_sub``
#: is flag ``--k-sub``.  Kept as a static table — deriving it from the
#: factories' signatures would require importing repro.api.adapters at
#: parser-build time, i.e. on every CLI invocation including `--help`,
#: defeating the lazy-import design.  Must be kept in sync with the
#: @register factories in repro/api/adapters.py (tests/test_cli.py checks).
_RUN_PARAMS = {
    "bn": ("d", "b", "s", "t", "strategy", "check_health"),
    "an": ("d", "b", "s", "t", "k_sub", "h", "c"),
    "dn": ("d", "n", "b"),
    "alon_chung": ("n", "blowup", "kind"),
    "replication": ("n", "d", "replication", "c_r"),
    "sparerows": ("n", "sigma"),
}


def _flag(kwarg: str) -> str:
    return "--" + kwarg.replace("_", "-")


def _construction_params(args: argparse.Namespace) -> dict:
    """Factory kwargs from the construction flags given (``None`` = not
    given).  A flag the chosen construction does not take is an error,
    never silently dropped."""
    given = {
        key: value
        for keys in _RUN_PARAMS.values()
        for key in keys
        if (value := getattr(args, key, None)) is not None
    }
    takes = _RUN_PARAMS[args.construction]
    stray = [key for key in given if key not in takes]
    if stray:
        raise ValueError(
            f"{_flag(stray[0])} does not apply to {args.construction}; it takes "
            + ", ".join(_flag(key) for key in takes if hasattr(args, key))
        )
    return {key: given[key] for key in takes if key in given}


def _experiment(args: argparse.Namespace, grid, *, name: str,
                report=None, errors: tuple = ()) -> int:
    """The run path shared by run/lifetime/traffic: construction flags and
    ``grid`` -> ``ExperimentSpec`` -> runner -> summary -> ``--out``.

    Bad flags, spec values, runner knobs and journals exit 2 with one
    ``<cmd>: ...`` line, as do the extra exception types in ``errors``.
    ``report(result)`` prints command-specific lines after the summary
    and returns the exit code; ``--out`` is written only when it is 0.
    """
    from repro.api import ExperimentRunner, ExperimentSpec
    from repro.errors import JournalError

    try:
        spec = ExperimentSpec(
            construction=args.construction,
            params=_construction_params(args),
            grid=tuple(grid),
            trials=args.trials,
            seed0=args.seed,
            name=args.name or name,
        )
        runner = ExperimentRunner(
            workers=args.workers, max_batch_bytes=args.max_batch_bytes,
            backend=args.backend,
        )
        result = runner.run(spec, checkpoint=args.checkpoint or None, resume=args.resume)
    except (JournalError, ValueError, *errors) as exc:
        log.error("%s: %s", args.cmd, exc)
        return 2
    print(result.summary())
    code = report(result) if report is not None else 0
    if code == 0 and args.out:
        result.save(args.out)
        log.info("results written to %s", args.out)
    return code


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import FaultSpec
    from repro.faults.adversary import ADVERSARY_PATTERNS

    grid: list[FaultSpec] = []
    try:
        if args.pattern:
            for pat in args.pattern.split(","):
                if pat not in ADVERSARY_PATTERNS:
                    log.error(
                        "run: unknown pattern %r; options: %s",
                        pat,
                        ", ".join(sorted(ADVERSARY_PATTERNS)),
                    )
                    return 2
                grid.append(FaultSpec(pattern=pat, k=args.k))
        if args.p:
            grid += [FaultSpec(p=float(p), q=args.q) for p in args.p.split(",")]
        for text in args.fault_model:
            grid.append(FaultSpec(fault_model=_parse_fault_model(text)))
    except ValueError as exc:
        log.error("run: invalid fault point: %s", exc)
        return 2
    if not grid:
        log.error(
            "run: need at least one fault point "
            "(--p, --pattern and/or --fault-model)"
        )
        return 2
    return _experiment(args, grid, name=args.construction)


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.core.params import BnParams, DnParams

    try:
        if args.construction == "bn":
            p = BnParams(d=args.d, b=args.b, s=args.s, t=args.t)
            claim = f"paper fault regime p = b^-3d = {p.paper_fault_probability:.3e}"
        else:
            p = DnParams(d=args.d, n=args.n, b=args.b)
            claim = f"tolerates any k = {p.k} node+edge faults"
    except ValueError as exc:
        log.error("info: %s", exc)
        return 2
    print(p.describe())
    print(f"  {claim}")
    return 0


def _cmd_lifetime(args: argparse.Namespace) -> int:
    from repro.api import LifetimeSpec

    try:
        # A model replaces the timeline-kind knobs wholesale; the spec's
        # own validation rejects mixing the two vocabularies.
        lspec = LifetimeSpec(
            fault_model=(
                _parse_fault_model(args.fault_model) if args.fault_model else None
            ),
            timeline=args.timeline,
            rate=args.rate,
            burst=args.burst,
            pattern=args.pattern,
            k=args.k,
            repair_rate=args.repair_rate,
            max_steps=args.max_steps,
        )
    except ValueError as exc:
        log.error("lifetime: %s", exc)
        return 2
    # Validate the snapshot flags before the (possibly long) experiment runs.
    if args.traffic and args.construction != "bn":
        log.error("lifetime: --traffic snapshots support bn only")
        return 2
    try:
        checkpoints = (
            [int(x) for x in args.checkpoints.split(",")]
            if args.checkpoints
            else [5, 10, 20]
        )
    except ValueError:
        log.error("lifetime: --checkpoints takes comma-separated arrival "
                  "counts, got %r", args.checkpoints)
        return 2
    return _experiment(
        args, [lspec], name=f"{args.construction}-lifetime",
        report=lambda result: _lifetime_report(args, result, checkpoints),
    )


def _lifetime_report(args: argparse.Namespace, result, checkpoints: list) -> int:
    """bn lifetimes only: the theory scale and, with ``--traffic``, the
    service snapshots of the aging machine."""
    if args.construction != "bn":
        return 0
    from repro.api import get

    construction = get("bn", **result.spec.params)
    bp = construction.params
    print(f"theory scale N*b^-3d = {bp.num_nodes * bp.paper_fault_probability:.1f}")
    if not args.traffic:
        return 0
    from repro.sim.lifetime_traffic import lifetime_traffic_snapshots

    try:
        snap = lifetime_traffic_snapshots(
            construction, result.spec.grid[0], args.seed, checkpoints,
            pattern=args.traffic, messages=args.messages,
            live_traffic=args.live_traffic,
            router=args.router,
        )
    except (KeyError, ValueError) as exc:
        # e.g. bitreverse on a non-power-of-two guest
        log.error("lifetime: %s", exc)
        return 2
    print(
        f"traffic snapshots ('{args.traffic}', {args.messages} messages"
        f"{', live' if args.live_traffic else ''}"
        f"{', adaptive' if args.router == 'adaptive' else ''}), "
        f"trial seed {args.seed}, lifetime {snap['lifetime']}:"
    )
    for s in snap["snapshots"]:
        if not s["reached"]:
            print(f"  @{s['arrivals']:>4} arrivals: not reached "
                  "(trial ended earlier)")
            continue
        st = s["stats"]
        undeliv = (
            f"undeliverable={st['undeliverable']} "
            if "undeliverable" in st else ""
        )
        print(
            f"  @{s['arrivals']:>4} arrivals: faults={s['num_faults']} "
            f"p50={st['p50']:g} p99={st['p99']:g} "
            f"timed_out={st['timed_out']} {undeliv}"
            f"pristine={'yes' if s['matches_pristine'] else 'NO'}"
        )
    return 0


def _cmd_traffic(args: argparse.Namespace) -> int:
    from repro.api import TrafficSpec

    try:
        fault_model = (
            _parse_fault_model(args.fault_model) if args.fault_model else None
        )
        # --rate switches every pattern to the open-loop model, one point
        # per rate; without it each pattern is one closed batch.
        loops = (
            [
                {"injection": args.injection, "rate": float(rate),
                 "cycles": args.cycles, "warmup": args.warmup}
                for rate in args.rate.split(",")
            ]
            if args.rate
            else [{"messages": args.messages}]
        )
        grid = [
            TrafficSpec(
                pattern=pattern,
                max_cycles=args.max_cycles,
                router=args.router,
                qos_classes=args.qos_classes,
                credits=args.credits,
                fault_model=fault_model,
                **loop,
            )
            for pattern in args.pattern.split(",")
            for loop in loops
        ]
    except ValueError as exc:
        log.error("traffic: invalid traffic point: %s", exc)
        return 2
    # The runner raises TypeError for a construction without the traffic
    # capability (alon_chung): a usage error here, a bug anywhere else.
    return _experiment(
        args, grid, name=f"{args.construction}-traffic", errors=(TypeError,)
    )


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.testkit.conformance import run_conformance

    reports = run_conformance(
        quick=args.quick,
        golden_dir=args.golden_dir or None,
        update_golden=args.update_golden,
        emit=print,
    )
    bad = [r for r in reports if not r.ok]
    cases = sum(r.cases for r in reports)
    skipped = sum(1 for r in reports if r.skipped)
    tier = "quick" if args.quick else "full"
    print(
        f"conformance ({tier}): {len(reports)} oracles, {cases} cases, "
        f"{len(bad)} failed" + (f", {skipped} skipped" if skipped else "")
    )
    if bad:
        print()
        for report in bad:
            print(report.describe())
        return 1
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.viz import figure1, figure2

    for fig in (figure1(), figure2()):
        print(fig.title)
        print(fig.text)
        print(f"  meta: {fig.meta}")
        print()
    return 0


def _parse_fault_model(text: str) -> dict:
    """``name[:key=val,...]`` -> a validated fault-model dict.

    The dict form is exactly what the specs carry (and serialize), so the
    CLI never grows its own model vocabulary: names come from the
    registry, parameter validation is the model class's own.
    """
    from repro.faults.registry import fault_model_names, make_fault_model

    name, _, params = text.partition(":")
    if name not in fault_model_names():
        raise ValueError(
            f"unknown fault model {name!r}; options: "
            f"{', '.join(fault_model_names())}"
        )
    model = {"name": name, **_parse_params(params)}
    make_fault_model(model)  # the model's own range checks
    return model


def _parse_param_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_params(text: str) -> dict:
    """``d=2,b=3,strategy=auto`` -> factory kwargs (int/float/str values)."""
    params: dict = {}
    for item in filter(None, text.split(",")):
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(f"bad parameter {item!r} (expected key=value)")
        params[key] = _parse_param_value(value)
    return params


def _parse_machine_spec(text: str) -> tuple[str, str, dict]:
    """``name=construction:key=val,...`` -> a ServeConfig machine entry."""
    name, sep, rest = text.partition("=")
    if not sep or not name:
        raise ValueError(
            f"bad machine spec {text!r} (expected NAME=CONSTRUCTION[:key=val,...])"
        )
    construction, _, params = rest.partition(":")
    if not construction:
        raise ValueError(f"bad machine spec {text!r}: missing construction")
    return name, construction, _parse_params(params)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal
    from pathlib import Path

    from repro.serve.server import ReproServer, ServeConfig, ServeError

    try:
        machines = tuple(_parse_machine_spec(m) for m in args.machine)
    except ValueError as exc:
        log.error("serve: %s", exc)
        return 2
    server = ReproServer(
        ServeConfig(
            host=args.host,
            port=args.port,
            telemetry_interval=args.telemetry_interval,
            subscriber_queue=args.subscriber_queue,
            machines=machines,
        )
    )

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, server.request_shutdown)
        await server.start()
        if args.port_file:
            # Rendezvous for scripts that started us with --port 0.
            Path(args.port_file).write_text(f"{server.port}\n", encoding="utf-8")
        await server.serve_until_shutdown()

    try:
        asyncio.run(_run())
    except ServeError as exc:
        log.error("serve: %s", exc)
        return 2
    except OSError as exc:  # e.g. address already in use
        log.error("serve: cannot listen on %s:%d: %s", args.host, args.port, exc)
        return 1
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.client import LoadGenConfig, LoadGenerator, ServeRequestError
    from repro.util.serialization import save_json

    try:
        params = _parse_params(args.params)
    except ValueError as exc:
        log.error("loadgen: %s", exc)
        return 2
    config = LoadGenConfig(
        host=args.host,
        port=args.port,
        machine=args.machine,
        construction=args.construction,
        params=params or LoadGenConfig().params,
        clients=args.clients,
        requests=args.requests,
        event_fraction=args.event_fraction,
        pattern=args.pattern,
        messages=args.messages,
        seed=args.seed,
        router=args.router,
        qos_classes=args.qos_classes,
        credits=args.credits,
    )
    try:
        report = asyncio.run(LoadGenerator(config).run())
    except (ConnectionError, OSError) as exc:
        log.error("loadgen: cannot reach daemon at %s:%d: %s", args.host, args.port, exc)
        return 1
    except ServeRequestError as exc:
        log.error("loadgen: setup failed: %s (%s)", exc, exc.code)
        return 1
    totals = report["totals"]
    latency = report["latency"]
    print(
        f"loadgen: {totals['requests']} requests from {config.clients} clients "
        f"in {report['elapsed_s']:.2f}s ({report['requests_per_s']:.0f} req/s)"
    )
    print(
        f"  ok={totals['ok']} errors={totals['errors']} "
        f"client_exceptions={totals['client_exceptions']} "
        f"machine_died={totals['machine_died']}"
    )
    if latency.get("count"):
        print(
            f"  latency p50={latency['p50_ms']:.3g}ms p99={latency['p99_ms']:.3g}ms "
            f"max={latency['max_ms']:.3g}ms"
        )
    if args.out:
        save_json(args.out, report)
        log.info("loadgen report written to %s", args.out)
    clean = (
        totals["errors"] == 0
        and totals["client_exceptions"] == 0
        and not totals["machine_died"]
    )
    return 0 if clean else 1


def _add_experiment_args(parser: argparse.ArgumentParser, *, trials: int,
                         construction: str | None = "bn") -> None:
    """The flag set ``run``, ``lifetime`` and ``traffic`` share.

    ``construction=None`` makes ``--construction`` required.  The sizing
    flags are one per factory kwarg named in :data:`_RUN_PARAMS`; their
    ``None`` defaults mean "not passed to the factory".
    """
    parser.add_argument("--construction", choices=sorted(_RUN_PARAMS),
                        default=construction, required=construction is None,
                        help="construction registry key" + (
                            f" (default: {construction})" if construction else ""))
    parser.add_argument("--trials", type=int, default=trials)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size (1 = serial; same results either way)")
    parser.add_argument(
        "--backend", choices=["scalar", "batch"], default="batch",
        help="scalar reference loop or numpy batch kernels (default: batch; "
             "results are byte-identical on both — see docs/fastpath.md)")
    parser.add_argument(
        "--checkpoint", type=str, default="",
        help="append each completed seed chunk to this NDJSON journal so an "
             "interrupted sweep can be resumed (see docs/scaling.md)")
    parser.add_argument(
        "--resume", action="store_true",
        help="skip chunks already recorded in the --checkpoint journal; the "
             "final JSON is byte-identical to an uninterrupted run")
    parser.add_argument(
        "--max-batch-bytes", dest="max_batch_bytes", type=int, default=None,
        help="per-worker resident fault-stack byte budget for the batched "
             "kernels (default: 64 MiB; results are identical at any budget)")
    parser.add_argument("--out", type=str, default="", help="write results JSON here")
    parser.add_argument("--name", type=str, default="", help="experiment name for the report")
    parser.add_argument("--d", type=int, default=None)
    parser.add_argument("--b", type=int, default=None)
    parser.add_argument("--s", type=int, default=None)
    parser.add_argument("--t", type=int, default=None)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--k-sub", dest="k_sub", type=int, default=None)
    parser.add_argument("--h", type=int, default=None)
    parser.add_argument("--c", type=float, default=None,
                        help="an: overhead constant used when --h is omitted")
    parser.add_argument("--blowup", type=float, default=None)
    parser.add_argument("--kind", type=str, default=None,
                        help="alon_chung: expander kind (gabber-galil | random-regular)")
    parser.add_argument("--replication", type=int, default=None)
    parser.add_argument("--c-r", dest="c_r", type=float, default=None,
                        help="replication: cluster-size constant used when "
                             "--replication is omitted")
    parser.add_argument("--sigma", type=int, default=None)
    parser.add_argument("--strategy", type=str, default=None,
                        help="bn: band-placement strategy (auto | straight | paper)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro-ft",
        description="Fault-tolerant mesh/torus constructions (Tamaki, SPAA'94/JCSS'96)",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    ap.add_argument("--log-level", dest="log_level", choices=_LOG_LEVELS,
                    default="info",
                    help="verbosity of status/diagnostic output on stderr "
                         "(primary results always go to stdout; default: info)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser(
        "run", help="one-shot survival trials over any registered construction"
    )
    _add_experiment_args(p_run, trials=10, construction=None)
    p_run.add_argument("--p", type=str, default="",
                       help="comma-separated node-fault probabilities")
    p_run.add_argument("--q", type=float, default=0.0, help="edge-fault probability")
    p_run.add_argument("--pattern", type=str, default="",
                       help="comma-separated adversarial patterns")
    p_run.add_argument("--k", type=int, default=None,
                       help="adversarial fault budget (default: construction's rating)")
    p_run.add_argument("--fault-model", dest="fault_model", action="append",
                       default=[], metavar="NAME[:key=val,...]",
                       help="registered fault model as a grid point "
                            "(repeatable), e.g. neighbor:p=0.002 or "
                            "component:rate=0.01,width=2 — see docs/faults.md")
    p_run.add_argument("--check-health", dest="check_health", action="store_true",
                       default=None,
                       help="bn: also check each draw's healthiness (Lemma 4) "
                            "and report the healthy/sufficient rates")
    p_run.set_defaults(fn=_cmd_run)

    p_info = sub.add_parser("info", help="show derived parameters")
    p_info.add_argument("construction", choices=["bn", "dn"])
    p_info.add_argument("--d", type=int, default=2)
    p_info.add_argument("--b", type=int, default=3)
    p_info.add_argument("--s", type=int, default=1)
    p_info.add_argument("--t", type=int, default=2)
    p_info.add_argument("--n", type=int, default=70)
    p_info.set_defaults(fn=_cmd_info)

    p_fig = sub.add_parser("figures", help="regenerate paper Figures 1 and 2")
    p_fig.set_defaults(fn=_cmd_figures)

    p_life = sub.add_parser(
        "lifetime",
        help="fault-arrival timelines driven to first recovery failure",
    )
    _add_experiment_args(p_life, trials=5)
    p_life.add_argument("--timeline", choices=["uniform", "bernoulli", "burst",
                                               "adversarial"], default="uniform")
    p_life.add_argument("--rate", type=float, default=0.0,
                        help="bernoulli: per-step per-node fault probability")
    p_life.add_argument("--burst", type=int, default=0,
                        help="burst: co-located faults per step")
    p_life.add_argument("--pattern", type=str, default="",
                        help="adversarial: campaign pattern")
    p_life.add_argument("--k", type=int, default=None,
                        help="adversarial: planned campaign size (default: all nodes)")
    p_life.add_argument("--fault-model", dest="fault_model", type=str, default="",
                        metavar="NAME[:key=val,...]",
                        help="drive arrivals from a registered fault model "
                             "instead of --timeline (composes with "
                             "--repair-rate/--max-steps; see docs/faults.md)")
    p_life.add_argument("--repair-rate", dest="repair_rate", type=float, default=0.0,
                        help="probability each faulty node is fixed per step")
    p_life.add_argument("--max-steps", dest="max_steps", type=int, default=None,
                        help="timeline step bound (required for bernoulli/burst)")
    p_life.add_argument("--traffic", type=str, default="",
                        help="bn: route this traffic pattern on the evolving "
                             "network at --checkpoints")
    p_life.add_argument("--messages", type=int, default=200)
    p_life.add_argument("--checkpoints", type=str, default="",
                        help="comma-separated arrival counts for traffic snapshots")
    p_life.add_argument("--live-traffic", dest="live_traffic", action="store_true",
                        help="measure the aged machine at each checkpoint: map "
                             "every route through the current embedding, count "
                             "messages crossing broken host elements as "
                             "undeliverable, re-simulate the rest")
    p_life.add_argument("--router", choices=["dimension", "adaptive"],
                        default="dimension",
                        help="live snapshots: 'adaptive' detours broken routes "
                             "around the live fault set instead of refusing them")
    p_life.set_defaults(fn=_cmd_lifetime)

    p_traffic = sub.add_parser(
        "traffic",
        help="guest-torus workload measurements (closed batch or open loop)",
    )
    _add_experiment_args(p_traffic, trials=5)
    p_traffic.add_argument("--pattern", type=str, default="uniform",
                           help="comma-separated traffic patterns")
    p_traffic.add_argument("--messages", type=int, default=200,
                           help="closed-loop batch size (ignored with --rate)")
    p_traffic.add_argument("--injection", choices=["bernoulli", "periodic"],
                           default="bernoulli",
                           help="open-loop injection process used with --rate")
    p_traffic.add_argument("--rate", type=str, default="",
                           help="comma-separated per-node per-cycle injection "
                                "rates; presence switches to the open-loop model")
    p_traffic.add_argument("--cycles", type=int, default=200,
                           help="open-loop injection horizon")
    p_traffic.add_argument("--warmup", type=int, default=0,
                           help="open-loop: measure messages injected at/after "
                                "this cycle")
    p_traffic.add_argument("--max-cycles", dest="max_cycles", type=int, default=10_000,
                           help="simulation bound; undelivered messages count "
                                "as timed_out")
    p_traffic.add_argument("--router", choices=["dimension", "adaptive"],
                           default="dimension",
                           help="routing algorithm (see docs/routing.md); on the "
                                "pristine guest torus both deliver identically")
    p_traffic.add_argument("--qos-classes", dest="qos_classes", type=int, default=1,
                           help="priority classes (1-3); messages are assigned "
                                "round-robin by id, class 0 wins arbitration")
    p_traffic.add_argument("--credits", type=int, default=0,
                           help="per-class in-flight message budget "
                                "(0 = unlimited); enables credit flow control")
    p_traffic.add_argument("--fault-model", dest="fault_model", type=str,
                           default="", metavar="NAME[:key=val,...]",
                           help="perturb the guest with a registered fault "
                                "model: crash models break routes, byzantine "
                                "nodes misroute/drop/corrupt traversing "
                                "messages (see docs/faults.md)")
    p_traffic.set_defaults(fn=_cmd_traffic)

    p_conf = sub.add_parser(
        "conformance",
        help="differential-oracle + golden-artifact gate over every backend",
    )
    p_conf.add_argument("--quick", action="store_true",
                        help="the CI tier: same oracles, reduced seed/shape matrix")
    p_conf.add_argument("--update-golden", dest="update_golden", action="store_true",
                        help="resnapshot the golden artifacts before checking "
                             "(review the JSON diff like any source change)")
    p_conf.add_argument("--golden-dir", dest="golden_dir", type=str, default="",
                        help="golden artifact directory "
                             "(default: tests/golden of the source checkout)")
    p_conf.set_defaults(fn=_cmd_conformance)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived operator daemon (event ingest, queries, telemetry)",
    )
    p_serve.add_argument("--host", type=str, default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7494,
                         help="listen port (0 = ephemeral; see --port-file)")
    p_serve.add_argument("--machine", action="append", default=[],
                         metavar="NAME=CONSTRUCTION[:key=val,...]",
                         help="machine to create at startup (repeatable), e.g. "
                              "m0=bn:d=2,b=3,s=1,t=2; clients can also create "
                              "machines over the wire")
    p_serve.add_argument("--telemetry-interval", dest="telemetry_interval",
                         type=float, default=1.0,
                         help="seconds between pushed telemetry snapshots")
    p_serve.add_argument("--subscriber-queue", dest="subscriber_queue",
                         type=int, default=16,
                         help="per-subscriber snapshot queue depth before "
                              "drop-and-count backpressure kicks in")
    p_serve.add_argument("--port-file", dest="port_file", type=str, default="",
                         help="write the bound port here once listening "
                              "(rendezvous for scripts using --port 0)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_load = sub.add_parser(
        "loadgen",
        help="sustained mixed workload against a running serve daemon",
    )
    p_load.add_argument("--host", type=str, default="127.0.0.1")
    p_load.add_argument("--port", type=int, default=7494)
    p_load.add_argument("--machine", type=str, default="loadgen",
                        help="machine name to create (exist_ok) and target")
    p_load.add_argument("--construction", choices=sorted(_RUN_PARAMS), default="bn")
    p_load.add_argument("--params", type=str, default="",
                        help="construction kwargs, e.g. d=2,b=3,s=1,t=2")
    p_load.add_argument("--clients", type=int, default=4,
                        help="concurrent client connections")
    p_load.add_argument("--requests", type=int, default=1000,
                        help="total requests across all clients")
    p_load.add_argument("--event-fraction", dest="event_fraction", type=float,
                        default=0.5,
                        help="fraction of requests that are fault/repair events "
                             "(the rest are live traffic queries)")
    p_load.add_argument("--pattern", type=str, default="uniform")
    p_load.add_argument("--messages", type=int, default=32,
                        help="messages per traffic query")
    p_load.add_argument("--router", choices=["dimension", "adaptive"],
                        default="dimension",
                        help="router each traffic query asks the daemon for")
    p_load.add_argument("--qos-classes", dest="qos_classes", type=int, default=1,
                        help="priority classes per traffic query (1-3)")
    p_load.add_argument("--credits", type=int, default=0,
                        help="per-class in-flight budget per query (0 = unlimited)")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--out", type=str, default="",
                        help="write the full loadgen report JSON here")
    p_load.set_defaults(fn=_cmd_loadgen)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(args.log_level, timestamps=args.cmd == "serve")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
