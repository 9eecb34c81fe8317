"""Wire protocol of the serve daemon: versioned newline-delimited JSON.

One frame per line, canonical JSON (sorted keys, compact separators —
the same canonical-form discipline as
:func:`repro.util.serialization.save_json`, so identical payloads always
serialise to identical bytes).  Three frame shapes travel the wire:

* **request**   ``{"v": 1, "id": <int>, "op": <str>, ...}`` — client to
  server; ``id`` is an opaque client-chosen correlation token echoed in
  the response.
* **response**  ``{"v": 1, "id": <int>, "ok": true, "result": {...}}`` or
  ``{"v": 1, "id": <int>, "ok": false, "error": {"code": <str>,
  "message": <str>}}``.
* **event**     ``{"v": 1, "event": <str>, ...}`` — server-initiated
  (telemetry snapshots to subscribers, the final ``shutdown`` notice).
  Events carry no ``id``; clients distinguish them by the ``event`` key.

Hard limits and versioning are enforced at the framing layer, before any
dispatch: a frame larger than :data:`MAX_FRAME_BYTES`, a line that is not
a JSON object, or a frame whose ``v`` differs from
:data:`PROTOCOL_VERSION` raises :class:`ProtocolError` with a stable
``code`` (``oversized`` / ``malformed`` / ``version``) that the server
reports back before closing the offending connection.  The full op table
lives in docs/serve.md.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "MAX_FRAME_BYTES",
    "MAX_QUERY_CYCLES",
    "MAX_QUERY_HOPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_frame",
    "encode_frame",
    "error_response",
    "event_frame",
    "ok_response",
    "request_frame",
]

#: Bump on any incompatible frame-shape change; both ends reject mismatches.
PROTOCOL_VERSION = 1

#: Upper bound on one encoded frame (newline included).  Large enough for
#: a batched event ingest or a full telemetry snapshot, small enough that
#: a misbehaving peer cannot balloon server memory.
MAX_FRAME_BYTES = 1 << 20

#: Upper bound on ``messages`` times the guest's diameter in one traffic
#: query: the most link ids its route build can write.  Sized so the
#: costliest pattern at the bound ends in about a second (41,666 hotspot
#: messages on the 36x36 guest took 0.9 s on a 2-CPU container).
MAX_QUERY_HOPS = 1_500_000

#: Upper bound on ``max_cycles`` in one traffic query.  A credit-gated
#: query can keep a message or two in flight for every cycle it is
#: allowed; 50,000 such cycles took 1.0-1.4 s on a 2-CPU container.
MAX_QUERY_CYCLES = 40_000


class ProtocolError(Exception):
    """A frame violated the wire contract (framing layer, pre-dispatch).

    ``code`` is machine-readable and stable: ``"oversized"``,
    ``"malformed"`` or ``"version"``.
    """

    def __init__(self, message: str, *, code: str = "malformed") -> None:
        super().__init__(message)
        self.code = code


def _canonical(payload: dict) -> str:
    # NaN/Infinity survive (Python's json emits bare tokens both ends
    # parse) — telemetry stats legitimately contain NaN for empty windows,
    # exactly as the repro-experiment-v1 result files do.
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def encode_frame(payload: dict) -> bytes:
    """Serialise one frame to canonical JSON bytes, newline-terminated.

    Raises :class:`ProtocolError` (``oversized``) rather than emitting a
    frame the peer is contractually required to reject.
    """
    data = _canonical(payload).encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds MAX_FRAME_BYTES={MAX_FRAME_BYTES}",
            code="oversized",
        )
    return data


def decode_frame(line: bytes) -> dict:
    """Parse and validate one received line into a frame dict.

    Enforces, in order: the size cap, JSON well-formedness, object shape,
    and the protocol version — so a version mismatch on a well-formed
    frame is reported as ``version``, never as a confusing parse error.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds MAX_FRAME_BYTES={MAX_FRAME_BYTES}",
            code="oversized",
        )
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(payload).__name__}")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version!r} not supported (speaking {PROTOCOL_VERSION})",
            code="version",
        )
    return payload


def request_frame(op: str, rid: int, **fields: Any) -> dict:
    """A client request frame for ``op`` with correlation id ``rid``."""
    return {"v": PROTOCOL_VERSION, "id": rid, "op": op, **fields}


def ok_response(rid: Any, result: dict) -> dict:
    return {"v": PROTOCOL_VERSION, "id": rid, "ok": True, "result": result}


def error_response(rid: Any, code: str, message: str) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "id": rid,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def event_frame(event: str, **fields: Any) -> dict:
    """A server-initiated event frame (telemetry push, shutdown notice)."""
    return {"v": PROTOCOL_VERSION, "event": event, **fields}
