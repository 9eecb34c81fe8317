"""Async client for the serve daemon, plus the benchmark load generator.

:class:`ServeClient` is a thin correlation layer over one TCP connection:
``request`` writes a frame and awaits the response with the matching
``id``; any server-initiated event frames that arrive in between
(telemetry pushes, the shutdown notice) are buffered and handed out by
``next_event`` in arrival order, so a subscriber can interleave requests
with a telemetry stream on a single connection.

:class:`LoadGenerator` drives the sustained mixed workload behind
``repro-ft loadgen`` and bench_e20: N concurrent clients against one
machine, each alternating fault-ingest / repair / live traffic queries,
with wall-clock latencies folded into a shared
:class:`~repro.serve.telemetry.LatencyHistogram`.  Each client faults
only inside its own stripe of the host array and repairs what it faulted,
so the combined live fault set stays small and spread out — the machine
is meant to survive the benchmark, not die for it.
"""

from __future__ import annotations

import asyncio
import logging
import random
import time
from dataclasses import dataclass, field

from repro.serve import protocol
from repro.serve.telemetry import LatencyHistogram

__all__ = ["LoadGenConfig", "LoadGenerator", "ServeClient", "ServeRequestError"]

log = logging.getLogger("repro.serve.client")


class ServeRequestError(Exception):
    """The server answered ``ok: false``; ``code`` is its error code."""

    def __init__(self, message: str, *, code: str) -> None:
        super().__init__(message)
        self.code = code


class ServeClient:
    """One connection to a serve daemon (requests + buffered events)."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._events: list[dict] = []

    @classmethod
    async def connect(cls, host: str, port: int) -> ServeClient:
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_FRAME_BYTES + 1
        )
        return cls(reader, writer)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _read_frame(self) -> dict:
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return protocol.decode_frame(line)

    async def request(self, op: str, **fields) -> dict:
        """Send one request; return its ``result`` (raises on error)."""
        self._next_id += 1
        rid = self._next_id
        self._writer.write(protocol.encode_frame(protocol.request_frame(op, rid, **fields)))
        await self._writer.drain()
        while True:
            frame = await self._read_frame()
            if "event" in frame:
                self._events.append(frame)
                continue
            if frame.get("id") != rid:
                raise protocol.ProtocolError(
                    f"response id {frame.get('id')!r} does not match request {rid}"
                )
            if frame.get("ok"):
                return frame["result"]
            err = frame.get("error") or {}
            raise ServeRequestError(
                err.get("message", "request failed"),
                code=err.get("code", "error"),
            )

    async def next_event(self, timeout: float | None = None) -> dict:
        """The next buffered/incoming server event frame (FIFO)."""
        if self._events:
            return self._events.pop(0)
        return await asyncio.wait_for(self._read_frame(), timeout)


@dataclass(frozen=True)
class LoadGenConfig:
    """Workload shape for :class:`LoadGenerator` / ``repro-ft loadgen``."""

    host: str = "127.0.0.1"
    port: int = 0
    machine: str = "loadgen"
    construction: str = "bn"
    params: dict = field(default_factory=lambda: {"d": 2, "b": 3, "s": 1, "t": 2})
    clients: int = 4
    #: Total requests across all clients (split evenly).
    requests: int = 1000
    #: Fraction of each client's requests that are lifetime events; the
    #: rest are live traffic queries.  Events alternate fault/repair so
    #: the live fault set stays bounded by the client count.
    event_fraction: float = 0.5
    pattern: str = "uniform"
    messages: int = 32
    seed: int = 0
    #: Router the traffic queries ask the daemon for ("dimension" or
    #: "adaptive" — see :mod:`repro.sim.routing`).
    router: str = "dimension"
    #: QoS classes / per-class credits forwarded with each traffic query
    #: (defaults preserve the single-class unlimited-credit workload).
    qos_classes: int = 1
    credits: int = 0


class LoadGenerator:
    """N concurrent clients sustaining a mixed event/query workload."""

    def __init__(self, config: LoadGenConfig) -> None:
        self.config = config
        self.hist = LatencyHistogram()
        self.ok = 0
        self.errors = 0
        self.exceptions = 0
        self.per_op: dict[str, int] = {}
        self.machine_died = False

    async def _one_request(self, client: ServeClient, op: str, **fields) -> dict:
        t0 = time.perf_counter()
        try:
            result = await client.request(op, **fields)
        except ServeRequestError as exc:
            self.errors += 1
            log.warning("request %s failed: %s (%s)", op, exc, exc.code)
            return {}
        finally:
            self.hist.record((time.perf_counter() - t0) * 1e3)
            self.per_op[op] = self.per_op.get(op, 0) + 1
        self.ok += 1
        return result

    async def _client_loop(self, index: int, budget: int, num_nodes: int) -> None:
        cfg = self.config
        rng = random.Random((cfg.seed << 8) ^ index)
        # This client's private stripe of the host array: it only ever
        # faults (and then repairs) nodes it owns, so clients never fight
        # over a node and the live fault set stays spread out.
        stripe = max(1, num_nodes // max(1, cfg.clients))
        lo = index * stripe
        outstanding: list[int] = []
        client = await ServeClient.connect(cfg.host, cfg.port)
        try:
            for _ in range(budget):
                if rng.random() < cfg.event_fraction:
                    if outstanding:
                        node = outstanding.pop(0)
                        kind = "repair"
                    else:
                        node = lo + rng.randrange(stripe)
                        outstanding.append(node)
                        kind = "fault"
                    result = await self._one_request(
                        client, "event", machine=cfg.machine, kind=kind, node=node
                    )
                    if result and not result.get("alive", True):
                        self.machine_died = True
                else:
                    await self._one_request(
                        client,
                        "traffic",
                        machine=cfg.machine,
                        pattern=cfg.pattern,
                        messages=cfg.messages,
                        seed=rng.randrange(1 << 30),
                        router=cfg.router,
                        qos_classes=cfg.qos_classes,
                        credits=cfg.credits,
                    )
        except (ConnectionError, protocol.ProtocolError, asyncio.IncompleteReadError):
            self.exceptions += 1
            log.exception("loadgen client %d aborted", index)
        finally:
            await client.close()

    async def run(self) -> dict:
        """Drive the full workload; return the loadgen report dict."""
        cfg = self.config
        setup = await ServeClient.connect(cfg.host, cfg.port)
        try:
            info = await setup.request(
                "create",
                machine=cfg.machine,
                construction=cfg.construction,
                params=dict(cfg.params),
                exist_ok=True,
            )
            num_nodes = int(info["num_nodes"])
            per_client = [
                cfg.requests // cfg.clients + (1 if i < cfg.requests % cfg.clients else 0)
                for i in range(cfg.clients)
            ]
            t0 = time.perf_counter()
            await asyncio.gather(
                *(
                    self._client_loop(i, per_client[i], num_nodes)
                    for i in range(cfg.clients)
                )
            )
            elapsed = time.perf_counter() - t0
            telemetry = await setup.request(
                "telemetry", machine=cfg.machine, health=cfg.construction == "bn"
            )
        finally:
            await setup.close()
        total = self.ok + self.errors
        return {
            "format": "repro-loadgen-report-v1",
            "config": {
                "machine": cfg.machine,
                "construction": cfg.construction,
                "params": dict(cfg.params),
                "clients": cfg.clients,
                "requests": cfg.requests,
                "event_fraction": cfg.event_fraction,
                "pattern": cfg.pattern,
                "messages": cfg.messages,
                "seed": cfg.seed,
                "router": cfg.router,
                "qos_classes": cfg.qos_classes,
                "credits": cfg.credits,
            },
            "totals": {
                "requests": total,
                "ok": self.ok,
                "errors": self.errors,
                "client_exceptions": self.exceptions,
                "per_op": dict(sorted(self.per_op.items())),
                "machine_died": self.machine_died,
            },
            "elapsed_s": elapsed,
            "requests_per_s": total / elapsed if elapsed else float("nan"),
            "latency": self.hist.to_dict(),
            "telemetry": telemetry,
        }
