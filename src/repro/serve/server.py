"""The serve daemon: registry, dispatch, telemetry streaming, shutdown.

One :class:`ReproServer` owns a registry of named machines
(:class:`~repro.serve.state.MachineActor`) and speaks the
:mod:`repro.serve.protocol` frame protocol over asyncio streams.
Connections are handled concurrently; within a connection frames are
processed in arrival order, and mutations on one machine are serialised
by its actor lock no matter how many connections race — the machine's
``seq`` is the total order clients observe.

Telemetry streaming is pull *or* push: the ``telemetry`` op returns one
snapshot, ``subscribe`` attaches the connection to the periodic publisher.
Each subscriber gets a bounded queue and a private pump task; when a slow
consumer's queue fills, snapshots are dropped and counted
(``snapshots_dropped``) rather than ever blocking the publisher — the
backpressure policy a long-lived daemon needs.

Graceful shutdown (the ``shutdown`` op, SIGINT/SIGTERM, or
:meth:`ReproServer.request_shutdown`) stops accepting connections,
broadcasts a final ``shutdown`` event frame to subscribers, then closes
every connection; in-flight requests on other connections finish first
because the handler only notices the closed transport at its next read.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass

from repro._version import __version__
from repro.api.registry import available
from repro.errors import ParameterError
from repro.serve import protocol
from repro.serve.state import MachineActor, MachineState
from repro.serve.telemetry import ServerTelemetry

__all__ = ["ReproServer", "ServeConfig", "ServeError"]

log = logging.getLogger("repro.serve")


class ServeError(Exception):
    """An op-level failure reported to the client (connection survives)."""

    def __init__(self, message: str, *, code: str = "bad-request") -> None:
        super().__init__(message)
        self.code = code


def _int(value, name: str) -> int:
    """A frame field as an int; a value ``int`` rejects is a bad request."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ServeError(f"{name!r} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ServeConfig:
    """Daemon configuration (CLI flags map onto these fields)."""

    host: str = "127.0.0.1"
    #: Port 0 binds an ephemeral port; read :attr:`ReproServer.port` after
    #: :meth:`ReproServer.start`.
    port: int = 0
    #: Seconds between pushed telemetry snapshots to subscribers.
    telemetry_interval: float = 1.0
    #: Per-subscriber queue depth before snapshots are dropped-and-counted.
    subscriber_queue: int = 16
    #: Machines to create at startup: ``(name, construction, params)``.
    machines: tuple = ()


class _Connection:
    """Per-connection bookkeeping: writer lock, optional subscription."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.sub_queue: asyncio.Queue | None = None
        self.sub_task: asyncio.Task | None = None
        self.sub_options: dict = {}
        self.peer = writer.get_extra_info("peername")


class ReproServer:
    """The asyncio daemon behind ``repro-ft serve``."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.machines: dict[str, MachineActor] = {}
        self.telemetry = ServerTelemetry()
        self._server: asyncio.Server | None = None
        self._conns: set[_Connection] = set()
        self._stopping: asyncio.Event | None = None
        self._publisher: asyncio.Task | None = None
        self._reaper: asyncio.Task | None = None
        self._started = 0.0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._stopping = asyncio.Event()
        self._started = time.monotonic()
        for name, construction, params in self.config.machines:
            self.create_machine(name, construction, dict(params))
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=protocol.MAX_FRAME_BYTES + 1,
        )
        self._publisher = asyncio.create_task(self._publish_loop())
        self._reaper = asyncio.create_task(self._reap())
        log.info(
            "serve daemon listening on %s:%d (%d machine(s) registered)",
            self.config.host,
            self.port,
            len(self.machines),
        )

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Signal-safe trigger for a graceful shutdown."""
        if self._stopping is not None and not self._stopping.is_set():
            log.info("shutdown requested")
            self._stopping.set()

    async def run(self) -> None:
        """Start, serve until a shutdown is requested, then tear down."""
        await self.start()
        await self.serve_until_shutdown()

    async def serve_until_shutdown(self) -> None:
        """Block until a shutdown is requested and torn down cleanly.

        The teardown itself runs in the reaper task spawned by
        :meth:`start`, so a ``shutdown`` op takes effect even when the
        owner is not blocked here; this merely awaits it.
        """
        assert self._reaper is not None, "server not started"
        await asyncio.shield(self._reaper)

    async def _reap(self) -> None:
        assert self._stopping is not None
        await self._stopping.wait()
        await self._teardown()

    async def _teardown(self) -> None:
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        if self._publisher is not None:
            self._publisher.cancel()
            try:
                await self._publisher
            except asyncio.CancelledError:
                pass
        # Final event frame so streaming subscribers see an orderly end of
        # stream rather than a bare EOF.
        farewell = protocol.event_frame("shutdown", reason="server stopping")
        for conn in list(self._conns):
            if conn.sub_queue is not None:
                try:
                    await self._send(conn, farewell)
                except (ConnectionError, OSError):
                    pass
            self._drop_subscription(conn)
            conn.writer.close()
        for conn in list(self._conns):
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        log.info("serve daemon stopped")

    # -- registry ------------------------------------------------------------

    def create_machine(
        self, name: str, construction: str, params: dict, *, exist_ok: bool = False
    ) -> MachineActor:
        if not name or not isinstance(name, str):
            raise ServeError("machine name must be a non-empty string")
        if name in self.machines:
            if exist_ok:
                return self.machines[name]
            raise ServeError(f"machine {name!r} already exists", code="exists")
        if construction not in available():
            raise ServeError(
                f"unknown construction {construction!r}; "
                f"available: {', '.join(available())}",
                code="unknown-construction",
            )
        try:
            actor = MachineActor(MachineState(name, construction, params))
        except (TypeError, ValueError) as exc:
            raise ServeError(f"cannot build {construction}: {exc}") from exc
        self.machines[name] = actor
        log.info("machine %r created (%s %s)", name, construction, params)
        return actor

    def _actor(self, name) -> MachineActor:
        try:
            return self.machines[name]
        except (KeyError, TypeError):
            raise ServeError(
                f"unknown machine {name!r}", code="unknown-machine"
            ) from None

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader, writer)
        self._conns.add(conn)
        self.telemetry.connections_open += 1
        self.telemetry.connections_total += 1
        log.debug("connection opened: %s", conn.peer)
        try:
            await self._serve_frames(conn)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._drop_subscription(conn)
            self._conns.discard(conn)
            self.telemetry.connections_open -= 1
            conn.writer.close()
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            log.debug("connection closed: %s", conn.peer)

    async def _serve_frames(self, conn: _Connection) -> None:
        while True:
            try:
                line = await conn.reader.readline()
            except ValueError:
                # StreamReader limit exceeded before any newline: the frame
                # is oversized by construction.
                self.telemetry.protocol_errors += 1
                await self._send(
                    conn,
                    protocol.error_response(
                        None,
                        "oversized",
                        f"frame exceeds MAX_FRAME_BYTES={protocol.MAX_FRAME_BYTES}",
                    ),
                )
                return
            if not line:
                return  # EOF
            self.telemetry.frames_in += 1
            self.telemetry.bytes_in += len(line)
            try:
                frame = protocol.decode_frame(line)
            except protocol.ProtocolError as exc:
                self.telemetry.protocol_errors += 1
                log.warning("protocol error from %s: %s", conn.peer, exc)
                await self._send(conn, protocol.error_response(None, exc.code, str(exc)))
                return  # framing violations close the connection
            rid = frame.get("id")
            op = frame.get("op")
            t0 = time.perf_counter()
            try:
                result = await self._dispatch(conn, op, frame)
                response = protocol.ok_response(rid, result)
            except ServeError as exc:
                self.telemetry.errors += 1
                response = protocol.error_response(rid, exc.code, str(exc))
            except ParameterError as exc:
                self.telemetry.errors += 1
                response = protocol.error_response(rid, "bad-request", str(exc))
            except Exception as exc:
                # A bug inside a handler: answer it and keep serving, so
                # the client never waits on a request that died.  Only the
                # two errors above blame the client.
                self.telemetry.errors += 1
                log.exception("internal error in %r request from %s", op, conn.peer)
                response = protocol.error_response(
                    rid, "internal", f"{type(exc).__name__}: {exc}"
                )
            self.telemetry.record_request(
                op if isinstance(op, str) else "?", (time.perf_counter() - t0) * 1e3
            )
            await self._send(conn, response)
            if op == "shutdown" and response.get("ok"):
                self.request_shutdown()
                return

    async def _send(self, conn: _Connection, payload: dict) -> None:
        data = protocol.encode_frame(payload)
        async with conn.write_lock:
            conn.writer.write(data)
            await conn.writer.drain()
        self.telemetry.frames_out += 1
        self.telemetry.bytes_out += len(data)

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(self, conn: _Connection, op, frame: dict) -> dict:
        if op == "ping":
            return {"pong": True}
        if op == "version":
            return {"server": __version__, "protocol": protocol.PROTOCOL_VERSION}
        if op == "create":
            params = frame.get("params") or {}
            if not isinstance(params, dict):
                raise ServeError("'params' must be an object")
            actor = self.create_machine(
                frame.get("machine"),
                frame.get("construction"),
                dict(params),
                exist_ok=bool(frame.get("exist_ok", False)),
            )
            return actor.state.info()
        if op == "list":
            return {
                "machines": [
                    self.machines[name].state.info() for name in sorted(self.machines)
                ]
            }
        if op == "event":
            actor = self._actor(frame.get("machine"))
            model = frame.get("model")
            return await actor.apply_event(
                frame.get("kind"),
                _int(frame.get("node"), "node"),
                model=None if model is None else str(model),
            )
        if op == "events":
            actor = self._actor(frame.get("machine"))
            events = frame.get("events")
            if not isinstance(events, list) or not all(
                isinstance(e, (list, tuple)) and len(e) in (2, 3) for e in events
            ):
                raise ServeError(
                    "'events' must be a list of [kind, node] or "
                    "[kind, node, model] entries"
                )
            events = [(e[0], _int(e[1], "node"), *e[2:]) for e in events]
            return {"results": await actor.apply_events(events)}
        if op == "traffic":
            actor = self._actor(frame.get("machine"))
            return actor.state.traffic_query(
                str(frame.get("pattern", "uniform")),
                _int(frame.get("messages", 64), "messages"),
                _int(frame.get("seed", 0), "seed"),
                live=bool(frame.get("live", True)),
                max_cycles=_int(frame.get("max_cycles", 10_000), "max_cycles"),
                router=str(frame.get("router", "dimension")),
                qos_classes=_int(frame.get("qos_classes", 1), "qos_classes"),
                credits=_int(frame.get("credits", 0), "credits"),
            )
        if op == "telemetry":
            return self._telemetry_snapshot(
                machine=frame.get("machine"), health=bool(frame.get("health", False))
            )
        if op == "digest":
            return self._actor(frame.get("machine")).state.digest()
        if op == "subscribe":
            return self._subscribe(conn, frame)
        if op == "unsubscribe":
            self._drop_subscription(conn)
            return {"subscribed": False}
        if op == "shutdown":
            return {"stopping": True}
        raise ServeError(f"unknown op {op!r}", code="unknown-op")

    def _telemetry_snapshot(self, *, machine=None, health: bool = False) -> dict:
        if machine is not None:
            return self._actor(machine).state.telemetry_snapshot(health=health)
        return {
            "server": self.telemetry.snapshot(time.monotonic() - self._started),
            "machines": {
                name: self.machines[name].state.telemetry_snapshot(health=health)
                for name in sorted(self.machines)
            },
        }

    # -- telemetry streaming -------------------------------------------------

    def _subscribe(self, conn: _Connection, frame: dict) -> dict:
        machine = frame.get("machine")
        if machine is not None:
            self._actor(machine)  # validate now, not at first publish
        if conn.sub_queue is None:
            conn.sub_queue = asyncio.Queue(maxsize=self.config.subscriber_queue)
            conn.sub_task = asyncio.create_task(self._pump(conn))
            self.telemetry.subscribers += 1
        conn.sub_options = {
            "machine": machine,
            "health": bool(frame.get("health", False)),
        }
        return {"subscribed": True, "interval_s": self.config.telemetry_interval}

    def _drop_subscription(self, conn: _Connection) -> None:
        if conn.sub_queue is None:
            return
        conn.sub_queue = None
        self.telemetry.subscribers -= 1
        if conn.sub_task is not None:
            conn.sub_task.cancel()
            conn.sub_task = None

    async def _pump(self, conn: _Connection) -> None:
        """Drain one subscriber's queue onto its socket."""
        try:
            while True:
                queue = conn.sub_queue
                if queue is None:
                    return
                payload = await queue.get()
                await self._send(conn, payload)
                self.telemetry.snapshots_sent += 1
        except (ConnectionError, asyncio.CancelledError):
            pass

    async def _publish_loop(self) -> None:
        assert self._stopping is not None
        while not self._stopping.is_set():
            await asyncio.sleep(self.config.telemetry_interval)
            for conn in list(self._conns):
                queue = conn.sub_queue
                if queue is None:
                    continue
                snapshot = protocol.event_frame(
                    "telemetry",
                    snapshot=self._telemetry_snapshot(
                        machine=conn.sub_options.get("machine"),
                        health=conn.sub_options.get("health", False),
                    ),
                )
                try:
                    queue.put_nowait(snapshot)
                except asyncio.QueueFull:
                    # Never block the publisher on a slow consumer.
                    self.telemetry.snapshots_dropped += 1
