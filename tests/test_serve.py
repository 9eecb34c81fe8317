"""Serve subsystem: protocol, daemon, concurrency, determinism.

Covers the wire contract (round-trips, malformed/oversized frames,
version-mismatch rejection), per-machine mutation ordering under
concurrent clients, subscriber backpressure, graceful shutdown
mid-stream, and the determinism contract: ingesting the scripted event
sequence online — directly or over TCP — leaves byte-identical machine
state to the offline LifetimeSpec path.

No pytest-asyncio here: each test drives its own ``asyncio.run`` so the
suite runs on the stock toolchain.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.api.protocol import LifetimeSpec
from repro.api.registry import available
from repro.errors import ParameterError
from repro.serve import protocol
from repro.serve.client import LoadGenConfig, LoadGenerator, ServeClient, ServeRequestError
from repro.serve.server import ReproServer, ServeConfig, ServeError
from repro.serve.state import (
    MachineState,
    offline_digest,
    scripted_events,
    scripted_session,
)
from repro.serve.telemetry import LatencyHistogram

BN_PARAMS = {"d": 2, "b": 3, "s": 1, "t": 2}
BN_SPEC = LifetimeSpec(timeline="bernoulli", rate=0.0005, repair_rate=0.3, max_steps=40)


def canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


async def _started_server(**overrides) -> ReproServer:
    server = ReproServer(ServeConfig(port=0, **overrides))
    await server.start()
    return server


async def _stop(server: ReproServer) -> None:
    server.request_shutdown()
    await server.serve_until_shutdown()


class TestProtocol:
    def test_round_trip_all_frame_shapes(self):
        frames = [
            protocol.request_frame("event", 7, machine="m", kind="fault", node=3),
            protocol.ok_response(7, {"seq": 1}),
            protocol.error_response(7, "unknown-machine", "no such machine"),
            protocol.event_frame("telemetry", snapshot={"alive": True}),
        ]
        for frame in frames:
            assert protocol.decode_frame(protocol.encode_frame(frame)) == frame

    def test_canonical_bytes_are_stable(self):
        a = protocol.encode_frame({"v": 1, "b": 2, "a": 1})
        b = protocol.encode_frame({"a": 1, "v": 1, "b": 2})
        assert a == b  # sorted keys, compact separators

    def test_malformed_frames_rejected(self):
        for line in (b"not json\n", b"[1, 2, 3]\n", b'"just a string"\n', b"\xff\xfe\n"):
            with pytest.raises(protocol.ProtocolError) as err:
                protocol.decode_frame(line)
            assert err.value.code == "malformed"

    def test_version_mismatch_rejected_as_version_not_parse_error(self):
        for bad in ({"v": 2, "op": "ping"}, {"op": "ping"}, {"v": "1", "op": "ping"}):
            with pytest.raises(protocol.ProtocolError) as err:
                protocol.decode_frame(json.dumps(bad).encode() + b"\n")
            assert err.value.code == "version"

    def test_oversized_frames_rejected_both_directions(self):
        blob = {"v": protocol.PROTOCOL_VERSION, "pad": "x" * protocol.MAX_FRAME_BYTES}
        with pytest.raises(protocol.ProtocolError) as err:
            protocol.encode_frame(blob)
        assert err.value.code == "oversized"
        with pytest.raises(protocol.ProtocolError) as err:
            protocol.decode_frame(b"x" * (protocol.MAX_FRAME_BYTES + 1))
        assert err.value.code == "oversized"


class TestServerBasics:
    def test_ping_version_create_list(self):
        async def go():
            server = await _started_server()
            try:
                c = await ServeClient.connect("127.0.0.1", server.port)
                assert await c.request("ping") == {"pong": True}
                version = await c.request("version")
                assert version["protocol"] == protocol.PROTOCOL_VERSION
                info = await c.request(
                    "create", machine="m0", construction="bn", params=BN_PARAMS
                )
                assert info["num_nodes"] > 0
                assert info["incremental"] is True
                listing = await c.request("list")
                assert [m["name"] for m in listing["machines"]] == ["m0"]
                await c.close()
            finally:
                await _stop(server)

        asyncio.run(go())

    def test_op_errors_keep_connection_alive(self):
        async def go():
            server = await _started_server()
            try:
                c = await ServeClient.connect("127.0.0.1", server.port)
                with pytest.raises(ServeRequestError) as err:
                    await c.request("event", machine="ghost", kind="fault", node=0)
                assert err.value.code == "unknown-machine"
                with pytest.raises(ServeRequestError) as err:
                    await c.request("frobnicate")
                assert err.value.code == "unknown-op"
                with pytest.raises(ServeRequestError) as err:
                    await c.request("create", machine="m", construction="nope")
                assert err.value.code == "unknown-construction"
                # the connection survived all three op-level errors
                assert await c.request("ping") == {"pong": True}
                await c.close()
            finally:
                await _stop(server)

        asyncio.run(go())

    def test_create_twice_conflicts_unless_exist_ok(self):
        async def go():
            server = await _started_server()
            try:
                c = await ServeClient.connect("127.0.0.1", server.port)
                await c.request("create", machine="m", construction="sparerows",
                                params={"n": 8, "sigma": 2})
                with pytest.raises(ServeRequestError) as err:
                    await c.request("create", machine="m", construction="sparerows",
                                    params={"n": 8, "sigma": 2})
                assert err.value.code == "exists"
                again = await c.request("create", machine="m", construction="sparerows",
                                        params={"n": 8, "sigma": 2}, exist_ok=True)
                assert again["name"] == "m"
                await c.close()
            finally:
                await _stop(server)

        asyncio.run(go())


class TestWireViolations:
    """Framing violations answer with a stable code, then close."""

    async def _raw_exchange(self, server: ReproServer, raw: bytes) -> tuple[dict, bytes]:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port, limit=protocol.MAX_FRAME_BYTES + 1
        )
        writer.write(raw)
        await writer.drain()
        line = await reader.readline()
        rest = await reader.read()  # EOF ⇒ the server closed on us
        writer.close()
        await writer.wait_closed()
        return json.loads(line), rest

    def test_malformed_then_close(self):
        async def go():
            server = await _started_server()
            try:
                frame, rest = await self._raw_exchange(server, b"this is not json\n")
                assert frame["ok"] is False
                assert frame["error"]["code"] == "malformed"
                assert rest == b""
                assert server.telemetry.protocol_errors == 1
            finally:
                await _stop(server)

        asyncio.run(go())

    def test_version_mismatch_then_close(self):
        async def go():
            server = await _started_server()
            try:
                raw = json.dumps({"v": 99, "id": 1, "op": "ping"}).encode() + b"\n"
                frame, rest = await self._raw_exchange(server, raw)
                assert frame["error"]["code"] == "version"
                assert rest == b""
            finally:
                await _stop(server)

        asyncio.run(go())

    def test_oversized_line_rejected(self):
        async def go():
            server = await _started_server()
            try:
                raw = b'{"v":1,"pad":"' + b"x" * (protocol.MAX_FRAME_BYTES + 16) + b'"}\n'
                try:
                    frame, _ = await self._raw_exchange(server, raw)
                    assert frame["error"]["code"] == "oversized"
                except (ConnectionError, OSError):
                    pass  # the server may drop the socket before our read
                assert server.telemetry.protocol_errors == 1
            finally:
                await _stop(server)

        asyncio.run(go())


class TestConcurrentMutation:
    def test_seq_is_a_total_order_across_clients(self):
        """4 clients hammer one machine; every applied mutation gets a
        unique, gap-free sequence number — the actor lock's total order."""

        async def client_work(port: int, node: int, rounds: int) -> list[int]:
            c = await ServeClient.connect("127.0.0.1", port)
            seqs = []
            for i in range(rounds):
                kind = "fault" if i % 2 == 0 else "repair"
                result = await c.request("event", machine="m", kind=kind, node=node)
                assert result["alive"] is True
                seqs.append(result["seq"])
            await c.close()
            return seqs

        async def go():
            server = await _started_server()
            try:
                setup = await ServeClient.connect("127.0.0.1", server.port)
                await setup.request("create", machine="m", construction="bn",
                                    params=BN_PARAMS)
                # Spread each client's node across the host array so the
                # concurrent fault sets never crowd one brick.
                per_client = await asyncio.gather(
                    *(client_work(server.port, node, 24)
                      for node in (0, 450, 900, 1350))
                )
                all_seqs = sorted(s for seqs in per_client for s in seqs)
                assert all_seqs == list(range(1, 4 * 24 + 1))
                for seqs in per_client:  # each client saw its own order
                    assert seqs == sorted(seqs)
                await setup.close()
            finally:
                await _stop(server)

        asyncio.run(go())

    def test_events_batch_is_atomic(self):
        """A batched ingest holds the lock once: its seqs are contiguous
        even while another client floods single events."""

        async def go():
            server = await _started_server()
            try:
                a = await ServeClient.connect("127.0.0.1", server.port)
                b = await ServeClient.connect("127.0.0.1", server.port)
                await a.request("create", machine="m", construction="bn",
                                params=BN_PARAMS)
                flood = asyncio.ensure_future(_flood(b))
                for _ in range(5):
                    batch = [["fault", 900], ["repair", 900]] * 3
                    results = (await a.request("events", machine="m",
                                               events=batch))["results"]
                    seqs = [r["seq"] for r in results]
                    assert seqs == list(range(seqs[0], seqs[0] + len(batch)))
                flood.cancel()
                try:
                    await flood
                except asyncio.CancelledError:
                    pass
                await a.close()
                await b.close()
            finally:
                await _stop(server)

        async def _flood(client: ServeClient) -> None:
            i = 0
            while True:
                kind = "fault" if i % 2 == 0 else "repair"
                await client.request("event", machine="m", kind=kind, node=5)
                i += 1

        asyncio.run(go())


class TestStreamingAndShutdown:
    def test_graceful_shutdown_mid_stream(self):
        """A telemetry subscriber sees snapshots, then the final
        ``shutdown`` event frame, then EOF — never a bare disconnect."""

        async def go():
            server = await _started_server(telemetry_interval=0.02)
            try:
                sub = await ServeClient.connect("127.0.0.1", server.port)
                await sub.request("create", machine="m", construction="sparerows",
                                  params={"n": 8, "sigma": 2})
                assert (await sub.request("subscribe", machine="m"))["subscribed"]
                seen = 0
                while seen < 3:
                    frame = await sub.next_event(timeout=5.0)
                    assert frame["event"] == "telemetry"
                    assert frame["snapshot"]["machine"] == "m"
                    seen += 1
                other = await ServeClient.connect("127.0.0.1", server.port)
                assert (await other.request("shutdown"))["stopping"] is True
                # drain: telemetry frames may still be queued ahead of the
                # farewell, but the farewell must arrive before EOF
                while True:
                    frame = await sub.next_event(timeout=5.0)
                    if frame["event"] == "shutdown":
                        break
                    assert frame["event"] == "telemetry"
                with pytest.raises((ConnectionError, asyncio.TimeoutError)):
                    await sub.next_event(timeout=1.0)
                await sub.close()
                await other.close()
            finally:
                await _stop(server)

        asyncio.run(go())

    def test_slow_subscriber_drops_snapshots_not_the_server(self):
        async def go():
            server = await _started_server(
                telemetry_interval=0.005, subscriber_queue=1
            )
            try:
                sub = await ServeClient.connect("127.0.0.1", server.port)
                await sub.request("subscribe")
                # Simulate a consumer wedged mid-write (kernel buffers make
                # a merely-idle reader absorb small frames forever): stall
                # the pump so the bounded queue actually fills.
                (conn,) = server._conns
                conn.sub_task.cancel()
                await asyncio.sleep(0.3)
                assert server.telemetry.snapshots_dropped > 0
                # meanwhile the daemon still answers everyone else promptly
                other = await ServeClient.connect("127.0.0.1", server.port)
                assert await other.request("ping") == {"pong": True}
                await other.close()
                await sub.close()
            finally:
                await _stop(server)

        asyncio.run(go())


class TestDeterminism:
    """Online ingestion ≡ offline LifetimeSpec path, byte for byte."""

    def test_bn_online_matches_offline_digest(self):
        events = scripted_events("bn", BN_PARAMS, BN_SPEC, seed=3)
        assert events, "spec must produce a non-trivial event sequence"
        state = MachineState("m", "bn", BN_PARAMS)
        for kind, node in events:
            state.apply_event(kind, node)
        assert canonical(state.digest()) == canonical(
            offline_digest("bn", BN_PARAMS, BN_SPEC, seed=3)
        )

    def test_generic_construction_matches_offline_even_through_death(self):
        params = {"n": 8, "sigma": 2}
        spec = LifetimeSpec(timeline="uniform", repair_rate=0.1, max_steps=200)
        for seed in (0, 1, 2):
            events = scripted_events("sparerows", params, spec, seed)
            state = MachineState("m", "sparerows", params)
            for kind, node in events:
                state.apply_event(kind, node)
            assert canonical(state.digest()) == canonical(
                offline_digest("sparerows", params, spec, seed)
            )

    def test_online_over_the_wire_matches_offline_digest(self):
        async def go() -> dict:
            server = await _started_server()
            try:
                c = await ServeClient.connect("127.0.0.1", server.port)
                await c.request("create", machine="m", construction="bn",
                                params=BN_PARAMS)
                events = scripted_events("bn", BN_PARAMS, BN_SPEC, seed=3)
                half = len(events) // 2
                for kind, node in events[:half]:  # singles ...
                    await c.request("event", machine="m", kind=kind, node=node)
                await c.request(  # ... then one atomic batch
                    "events", machine="m",
                    events=[[k, n] for k, n in events[half:]],
                )
                digest = await c.request("digest", machine="m")
                await c.close()
                return digest
            finally:
                await _stop(server)

        wire_digest = asyncio.run(go())
        assert canonical(wire_digest) == canonical(
            offline_digest("bn", BN_PARAMS, BN_SPEC, seed=3)
        )

    #: Constructions the tests above already check.
    COVERED = {"bn", "sparerows"}
    #: A small instance of every other registered construction.
    SMALL = {
        "alon_chung": {"n": 20},
        "an": {},
        "dn": {"n": 20, "b": 2},
        "replication": {"n": 4},
    }

    @pytest.mark.parametrize("construction", sorted(set(available()) - COVERED))
    def test_every_construction_matches_offline_digest(self, construction):
        assert construction in self.SMALL, f"add a small {construction!r} instance to SMALL"
        params = self.SMALL[construction]
        spec = LifetimeSpec(timeline="uniform", repair_rate=0.1, max_steps=40)
        events = scripted_events(construction, params, spec, 1)
        state = MachineState("m", construction, params)
        for kind, node in events:
            state.apply_event(kind, node)
        assert canonical(state.digest()) == canonical(
            offline_digest(construction, params, spec, 1)
        )

    def test_scripted_session_is_reproducible(self):
        a, b = scripted_session(), scripted_session()
        assert canonical(a) == canonical(b)
        assert a["digest"]["alive"] is True
        assert a["telemetry"]["traffic"]["queries"] == 3
        # The scripted session's third query pins the adaptive/QoS path.
        adaptive = a["queries"][2]
        assert adaptive["router"] == "adaptive"
        assert [row["qos_class"] for row in adaptive["per_class"]] == [0, 1]


class TestTrafficQueries:
    @staticmethod
    def _rejected_query(**fields) -> ServeRequestError:
        """The error a ``traffic`` query with ``fields`` gets over the
        wire; the connection and the machine must both survive it."""

        async def go() -> ServeRequestError:
            server = await _started_server()
            try:
                c = await ServeClient.connect("127.0.0.1", server.port)
                await c.request("create", machine="m", construction="bn",
                                params=BN_PARAMS)
                with pytest.raises(ServeRequestError) as err:
                    await c.request("traffic", machine="m", **fields)
                ok = await c.request("traffic", machine="m", messages=4)
                assert ok["offered"] == 4
                await c.close()
                return err.value
            finally:
                await _stop(server)

        return asyncio.run(go())

    @pytest.mark.parametrize(
        "field,value", [("messages", -1), ("max_cycles", -5)]
    )
    def test_negative_field_is_a_bad_request_naming_it(self, field, value):
        err = self._rejected_query(**{field: value})
        assert err.code == "bad-request"
        assert field in str(err)

    @pytest.mark.parametrize(
        "field,value",
        [("messages", "lots"), ("seed", None), ("pattern", "spiral"),
         ("pattern", "bitreverse"), ("qos_classes", 0), ("credits", -1),
         ("messages", protocol.MAX_QUERY_HOPS // 36 + 1), ("messages", 10**12),
         ("max_cycles", protocol.MAX_QUERY_CYCLES + 1)],
    )
    def test_bad_field_is_a_bad_request_naming_it(self, monkeypatch, field, value):
        """Fields are checked before any work: a wrong type, an unknown
        pattern, a pattern the 36x36 guest has no traffic for, knobs out
        of range and a query past the work bounds (its ``messages`` times
        the guest's diameter of 36, or its ``max_cycles``) are all the
        client's fault.  No workload is generated for any of them."""
        import repro.serve.state as state_mod

        real = state_mod.make_traffic

        def guarded(shape, pattern, count, rng):
            assert count * 36 <= protocol.MAX_QUERY_HOPS, "built a workload past the bound"
            return real(shape, pattern, count, rng)

        monkeypatch.setattr(state_mod, "make_traffic", guarded)
        err = self._rejected_query(**{field: value})
        assert err.code == "bad-request"
        assert field in str(err)
        if isinstance(value, int) and value > protocol.MAX_QUERY_CYCLES:
            assert ("MAX_QUERY_HOPS" if field == "messages" else "MAX_QUERY_CYCLES") in str(err)

    def test_query_at_the_bounds_is_admitted(self, monkeypatch):
        """The largest query the bounds admit reaches the workload
        generator (stubbed here, so no real huge workload is built)."""
        import repro.serve.state as state_mod

        seen = []

        def stub(shape, pattern, count, rng):
            seen.append(count)
            raise ValueError("stub")

        monkeypatch.setattr(state_mod, "make_traffic", stub)
        state = MachineState("m", "bn", BN_PARAMS)
        with pytest.raises(ParameterError, match="stub"):
            state.traffic_query("uniform", protocol.MAX_QUERY_HOPS // 36, 0,
                                max_cycles=protocol.MAX_QUERY_CYCLES)
        assert seen == [protocol.MAX_QUERY_HOPS // 36]

    @staticmethod
    def _machine_with_stale_faults() -> MachineState:
        state = MachineState("m", "bn", BN_PARAMS)
        for kind, node in scripted_events("bn", BN_PARAMS, BN_SPEC, 3):
            state.apply_event(kind, node)
        # Faults the embedding was never repaired around, so some e-cube
        # routes cross them and the adaptive router has detours to search.
        phi = np.asarray(state.machine.recovery.phi).ravel()
        state.machine.faults.ravel()[phi[[5, 77, 140]]] = True
        return state

    @pytest.mark.parametrize("router", ["dimension", "adaptive"])
    def test_refused_messages_are_counted_on_both_routers(self, router):
        """A message with no healthy route stays in the reply: in
        ``total`` and as ``undeliverable`` in its class's row.  The
        dimension router refuses some here; the adaptive one detours
        them."""
        stats = self._machine_with_stale_faults().traffic_query(
            "uniform", 60, 1, router=router, qos_classes=2
        )
        assert (stats["undeliverable"] > 0) == (router == "dimension")
        assert stats["total"] == stats["offered"] == 60
        rows = stats["per_class"]
        assert sum(r["offered"] for r in rows) == stats["offered"]
        for r in rows:
            assert r["offered"] == (r["delivered"] + r["timed_out"]
                                    + r.get("undeliverable", 0) + r.get("dropped", 0))

    def test_swapped_embedding_is_refused_like_the_analytic_check(self):
        """Swap the host images of two guest nodes on a fault-free
        machine.  Every node stays healthy, but the guest links at the two
        nodes now map to host pairs that are not adjacent, which only the
        adjacency term of the link check can see.  The dimension router
        refuses exactly the messages whose e-cube routes
        ``embedded_predicates`` on the analytic ``is_adjacent`` finds
        broken."""
        from repro.sim.engine import MSG_UNDELIVERABLE
        from repro.sim.lifetime_traffic import serve_traffic
        from repro.sim.routing import (
            dimension_ordered_route,
            embedded_predicates,
            route_is_healthy,
        )
        from repro.sim.traffic import make_traffic
        from repro.util.rng import spawn_rng

        state = MachineState("m", "bn", BN_PARAMS)
        machine = state.machine
        phi = machine.recovery.phi.reshape(-1)
        phi[[5, 700]] = phi[[700, 5]]
        assert not machine.faults.any()
        guest = tuple(int(n) for n in state.construction.guest_shape())
        traffic = make_traffic(guest, "uniform", 300, spawn_rng(2, "serve-traffic", "uniform"))
        node_ok, edge_ok = embedded_predicates(
            phi, machine.faults.ravel(), machine.bt.bn.is_adjacent
        )
        broken = [
            not route_is_healthy(dimension_ordered_route(guest, s, d), node_ok, edge_ok)
            for s, d in traffic
        ]
        result, _ = serve_traffic(guest, traffic, machine)
        assert (result.message_status == MSG_UNDELIVERABLE).tolist() == broken
        assert state.traffic_query("uniform", 300, 2)["undeliverable"] == sum(broken) > 0

    @pytest.mark.parametrize(
        "construction,live,router",
        [("bn", False, "dimension"), ("bn", True, "dimension"),
         ("bn", True, "adaptive"), ("sparerows", True, "dimension")],
    )
    def test_each_path_builds_routes_once(
        self, monkeypatch, construction, live, router
    ):
        from repro.fastpath import traffic_batch

        if construction == "bn":
            state = self._machine_with_stale_faults()
            broken = state.traffic_query("uniform", 40, 1)["undeliverable"]
            assert broken > 0
        else:
            state = MachineState("g", "sparerows", {"n": 8, "sigma": 2})
        calls = {"routes_batch": 0, "adaptive_route": 0}

        def counted(name):
            real = getattr(traffic_batch, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(traffic_batch, name, wrapper)

        counted("routes_batch")
        counted("adaptive_route")
        stats = state.traffic_query(
            "uniform", 40, 1, live=live, router=router, qos_classes=2, credits=8
        )
        assert calls["routes_batch"] == 1
        if router == "adaptive":
            assert 0 < calls["adaptive_route"] <= broken
            assert stats["undeliverable"] < broken
        else:
            assert calls["adaptive_route"] == 0


class TestMemory:
    def test_event_ingestion_memory_stays_flat(self):
        """A machine keeps no per-event history: from 2k to 20k
        fault/repair events its traced memory grows by under 64 KiB (an
        event log grew it by about 3 MB)."""
        import gc
        import random
        import tracemalloc

        state = MachineState("m", "bn", BN_PARAMS)
        rng = random.Random(0)
        size = state.info()["num_nodes"]

        def feed(events: int) -> None:
            for _ in range(events // 2):
                node = rng.randrange(size)
                state.apply_event("fault", node)
                state.apply_event("repair", node)

        feed(2_000)
        tracemalloc.start()
        try:
            gc.collect()  # a full collection also empties the free lists
            before = tracemalloc.get_traced_memory()[0]
            feed(18_000)
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert state.alive and state.seq == 20_000
        assert growth < 64 * 1024


    def test_live_query_peak_memory(self):
        """A 10,000-message query on a live bn machine with a fault holds
        its routes as ragged int32 link ids and checks each distinct link
        once: its traced peak stays under 8 MiB (2.4 MiB measured; one
        int64 node id per route position alone would be 2.9 MiB)."""
        import tracemalloc

        state = MachineState("m", "bn", BN_PARAMS)
        state.apply_event("fault", 7)
        state.traffic_query("uniform", 32, 1)  # warm the per-shape tables
        tracemalloc.start()
        try:
            stats = state.traffic_query("uniform", 10_000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats["offered"] == 10_000 and stats["live"]
        assert peak < 8 * 2**20

class TestTelemetryPrimitives:
    def test_latency_histogram_percentiles(self):
        hist = LatencyHistogram()
        for ms in (1.0,) * 98 + (100.0, 200.0):
            hist.record(ms)
        assert hist.count == 100
        assert hist.percentile(50) <= 2.0
        assert hist.percentile(99) >= 50.0
        assert hist.percentile(100) == 200.0
        summary = hist.to_dict()
        assert summary["count"] == 100 and summary["max_ms"] == 200.0

    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.to_dict() == {"count": 0}
        assert hist.percentile(50) != hist.percentile(50)  # NaN

    def test_machine_telemetry_in_snapshot(self):
        state = MachineState("m", "sparerows", {"n": 8, "sigma": 2})
        state.apply_event("fault", 3)
        state.apply_event("repair", 3)
        snap = state.telemetry_snapshot()
        assert snap["events"] == {
            "faults": 1, "repairs": 1, "masked": 0, "replaced": 1,
            "rejected_dead": 0,
        }
        assert snap["live_faults"] == 0 and snap["seq"] == 2


class TestLoadGenerator:
    def test_small_burst_sustains_zero_errors(self):
        async def go() -> dict:
            server = await _started_server()
            try:
                config = LoadGenConfig(
                    port=server.port, clients=4, requests=60, messages=8, seed=7
                )
                return await LoadGenerator(config).run()
            finally:
                await _stop(server)

        report = asyncio.run(go())
        totals = report["totals"]
        assert totals["requests"] == 60
        assert totals["errors"] == 0 and totals["client_exceptions"] == 0
        assert not totals["machine_died"]
        assert report["latency"]["count"] == 60
        assert report["telemetry"]["alive"] is True


class TestModelTaggedEvents:
    """Fault-model tags on ingested events (docs/faults.md): per-tag
    tallies in digest/telemetry, surfaced only when nonempty."""

    def test_untagged_sessions_keep_byte_identical_digests(self):
        state = MachineState("m", "sparerows", {"n": 8, "sigma": 2})
        state.apply_event("fault", 3)
        assert "model_faults" not in state.digest()
        assert "model_faults" not in state.telemetry_snapshot()

    def test_tagged_faults_tally_per_model(self):
        state = MachineState("m", "sparerows", {"n": 8, "sigma": 2})
        state.apply_event("fault", 3, model="neighbor")
        state.apply_event("fault", 11, model="neighbor")
        state.apply_event("fault", 20, model="component")
        # Repairs are not arrivals: no tally even when tagged.
        state.apply_event("repair", 3, model="neighbor")
        expect = {"component": 1, "neighbor": 2}
        assert state.digest()["model_faults"] == expect
        assert state.telemetry_snapshot()["model_faults"] == expect

    def test_unknown_tag_rejected_with_registry_names(self):
        state = MachineState("m", "sparerows", {"n": 8, "sigma": 2})
        with pytest.raises(ValueError, match="bernoulli"):
            state.apply_event("fault", 3, model="gamma-ray")
        # The rejected event mutated nothing.
        assert state.seq == 0 and state.num_faults == 0

    def test_tags_flow_over_the_wire_in_both_event_ops(self):
        async def go() -> tuple[dict, dict]:
            server = await _started_server()
            try:
                c = await ServeClient.connect("127.0.0.1", server.port)
                await c.request("create", machine="m", construction="sparerows",
                                params={"n": 8, "sigma": 2})
                await c.request("event", machine="m", kind="fault", node=3,
                                model="neighbor")
                await c.request(
                    "events", machine="m",
                    events=[["repair", 3], ["fault", 11, "component"],
                            ["fault", 20, "component"]],
                )
                with pytest.raises(ServeRequestError) as err:
                    await c.request("event", machine="m", kind="fault", node=0,
                                    model="gamma-ray")
                digest = await c.request("digest", machine="m")
                await c.close()
                return digest, {"code": err.value.code}
            finally:
                await _stop(server)

        digest, err = asyncio.run(go())
        assert digest["model_faults"] == {"component": 2, "neighbor": 1}
        assert err["code"] == "bad-request"


class TestServeErrors:
    def test_handler_exception_is_answered_as_internal(self, monkeypatch, caplog):
        """An unexpected exception inside a handler gets an ``internal``
        error frame; the connection, the machine and its ``seq`` survive."""

        def broken(self, *args, **kwargs):
            raise RuntimeError("query exploded")

        async def go():
            server = await _started_server()
            try:
                c = await ServeClient.connect("127.0.0.1", server.port)
                await c.request("create", machine="m", construction="bn",
                                params=BN_PARAMS)
                for kind, node in scripted_events("bn", BN_PARAMS, BN_SPEC, 3)[:10]:
                    await c.request("event", machine="m", kind=kind, node=node)
                seq = (await c.request("telemetry", machine="m"))["seq"]
                digest = await c.request("digest", machine="m")
                monkeypatch.setattr(MachineState, "traffic_query", broken)
                with pytest.raises(ServeRequestError) as err:
                    await c.request("traffic", machine="m", messages=4)
                pong = await c.request("ping")
                after = (await c.request("telemetry", machine="m"))["seq"]
                after_digest = await c.request("digest", machine="m")
                errors = server.telemetry.errors
                await c.close()
                return err.value, pong, (seq, after), (digest, after_digest), errors
            finally:
                await _stop(server)

        err, pong, seqs, digests, errors = asyncio.run(asyncio.wait_for(go(), 30))
        assert err.code == "internal" and "query exploded" in str(err)
        assert pong == {"pong": True}
        assert seqs[0] == seqs[1] == 10
        assert canonical(digests[0]) == canonical(digests[1])
        assert errors == 1
        assert any(r.exc_info and "internal error" in r.getMessage()
                   for r in caplog.records)

    def test_kernel_value_error_is_internal_not_bad_request(self, monkeypatch):
        """A ``ValueError`` raised inside the traffic kernel is the
        server's bug, not the client's: it is answered ``internal``, and
        the connection, the machine and its ``seq`` survive."""
        import repro.fastpath.traffic_batch as traffic_batch

        def broken(*args, **kwargs):
            raise ValueError("kernel exploded")

        async def go():
            server = await _started_server()
            try:
                c = await ServeClient.connect("127.0.0.1", server.port)
                await c.request("create", machine="m", construction="bn",
                                params=BN_PARAMS)
                for kind, node in scripted_events("bn", BN_PARAMS, BN_SPEC, 3)[:6]:
                    await c.request("event", machine="m", kind=kind, node=node)
                digest = await c.request("digest", machine="m")
                with monkeypatch.context() as patch:
                    patch.setattr(traffic_batch, "simulate_batch", broken)
                    with pytest.raises(ServeRequestError) as err:
                        await c.request("traffic", machine="m", messages=4)
                ok = await c.request("traffic", machine="m", messages=4)
                seq = (await c.request("telemetry", machine="m"))["seq"]
                after = await c.request("digest", machine="m")
                await c.close()
                return err.value, ok, seq, (digest, after)
            finally:
                await _stop(server)

        err, ok, seq, digests = asyncio.run(asyncio.wait_for(go(), 30))
        assert err.code == "internal" and "kernel exploded" in str(err)
        assert ok["offered"] == 4
        assert seq == 6
        assert canonical(digests[0]) == canonical(digests[1])

    def test_bad_event_fields_are_bad_requests(self):
        state = MachineState("m", "sparerows", {"n": 8, "sigma": 2})
        for kind, node in (("fault", -1), ("meteor", 3)):
            with pytest.raises(ParameterError):
                state.apply_event(kind, node)

        async def go() -> list[str]:
            server = await _started_server()
            try:
                c = await ServeClient.connect("127.0.0.1", server.port)
                await c.request("create", machine="m", construction="sparerows",
                                params={"n": 8, "sigma": 2})
                codes = []
                for op, fields in (
                    ("event", {"kind": "fault", "node": "three"}),
                    ("event", {"kind": "fault"}),
                    ("events", {"events": [["fault", 3], ["fault", [4]]]}),
                    # Checked event by event before any is applied.
                    ("events", {"events": [["fault", 3], ["fault", 9999]]}),
                    ("events", {"events": [["fault", 3], ["meteor", 4]]}),
                    ("events", {"events": [["fault", 3], ["fault", 4, "gremlin"]]}),
                    ("create", {"construction": "bn", "params": [1, 2]}),
                ):
                    with pytest.raises(ServeRequestError) as err:
                        await c.request(op, machine="m", **fields)
                    codes.append(err.value.code)
                snap = await c.request("telemetry", machine="m")
                await c.close()
                return codes, snap
            finally:
                await _stop(server)

        codes, snap = asyncio.run(asyncio.wait_for(go(), 30))
        assert codes == ["bad-request"] * 7
        # the events batches were rejected before any of them applied
        assert snap["seq"] == 0 and snap["live_faults"] == 0

    def test_create_machine_validation(self):
        server = ReproServer()
        with pytest.raises(ServeError):
            server.create_machine("", "bn", {})
        with pytest.raises(ServeError) as err:
            server.create_machine("m", "bn", {"bogus": 1})
        assert err.value.code == "bad-request"
