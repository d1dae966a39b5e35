"""Wire protocol (version 6): length-prefixed JSON frames, the error
table, and value conversion.

Framing: each message is a 4-byte big-endian unsigned payload length
followed by a UTF-8 JSON object (:data:`MAX_FRAME` bounds what a peer
will allocate for one).  Requests and responses are flat objects:

* request — ``{"id": <int>, "op": "<name>", ...operands}``;
* success — ``{"id": <int>, "ok": true, "result": {...}}``;
* failure — ``{"id": <int>, "ok": false,
  "error": {"code": "<code>", "message": "...", ...details}}``.

The ops are the rows of :data:`repro.server.ops.OPS` (docs/server.md
tabulates operands and results).  Every op also accepts ``deadline`` —
seconds of remaining budget, turned into lock-wait and step bounds and
answered ``deadline_exceeded`` once spent — and ``trace`` —
``{"trace_id": "<16-hex>", "span_id": "<16-hex>"}``, under which the
daemon opens its server span, so one operation is followable client →
primary → replica; a traced request's error carries the ``trace_id``.

Error codes are machine-readable contract, not prose, and :data:`ERRORS`
is their one declaration: meaning, recovery, and *disposition* — whether
asking the same endpoint again, asking another node, or nothing at all
can change the answer.  The client's exception classes and retry
decisions and the docs/server.md table are derived from it.

TML runtime values cross the wire as JSON with tagged escapes for the
types JSON cannot express directly (:func:`to_jsonable` /
:func:`from_jsonable`).  The version-by-version history is in CHANGES.md.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, NamedTuple

from repro.core.syntax import Char, Oid, UNIT, Unit

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "ProtocolError",
    "RequestError",
    "number",
    "send_frame",
    "recv_frame",
    "to_jsonable",
    "from_jsonable",
    "ErrorSpec",
    "ERRORS",
    "REJECTED",
    "ENDPOINT",
    "DETERMINISTIC",
]

PROTOCOL_VERSION = 6
#: refuse frames above this size — a corrupt length prefix must not make
#: the peer allocate gigabytes
MAX_FRAME = 16 * 1024 * 1024
_LEN = struct.Struct(">I")

E_BACKPRESSURE = "backpressure"
E_BUSY = "busy"
E_STEP_LIMIT = "step_limit"
E_EXEC = "exec_error"
E_BAD_REQUEST = "bad_request"
E_TXN_STATE = "txn_state"
E_NOT_FOUND = "not_found"
E_SHUTTING_DOWN = "shutting_down"
E_DEADLINE = "deadline_exceeded"
E_NOT_PRIMARY = "not_primary"
E_STALE_TERM = "stale_term"
E_STALE_READ = "stale_read"
E_REPL_TIMEOUT = "replication_timeout"
E_WRONG_SHARD = "wrong_shard"
E_TWOPC = "twopc_aborted"
E_READ_ONLY = "read_only"
E_OVERLOADED = "overloaded"
E_INTERNAL = "internal"
__all__ += [name for name in dir() if name.startswith("E_")]

#: dispositions — what a code says about asking again.  ``REJECTED``: the
#: daemon refused the request before executing it, so *any* op, writes
#: included, may be re-sent to the same endpoint after a pause (at least
#: ``retry_after`` when the details carry one).  ``ENDPOINT``: this node
#: cannot serve the request but another node of the deployment may.
#: ``DETERMINISTIC``: every node would answer the same — the connection
#: that delivered the answer is healthy and nothing is worth re-sending.
REJECTED = "rejected"
ENDPOINT = "endpoint"
DETERMINISTIC = "deterministic"


class ErrorSpec(NamedTuple):
    """One row of the error table (``meaning``/``recovery`` are the
    docs/server.md columns, markdown included)."""

    meaning: str
    recovery: str
    disposition: str = DETERMINISTIC
    #: a single-endpoint client with a retry policy re-sends the request:
    #: every ``REJECTED`` code, plus ``shutting_down`` — a restarting
    #: daemon comes back at the same address
    retryable: bool = False


ERRORS: dict[str, ErrorSpec] = {
    E_BACKPRESSURE: ErrorSpec(
        "admission control rejected: worker queue full (`queue_size` in details)",
        "retry with backoff", REJECTED, True,
    ),
    E_BUSY: ErrorSpec("transaction lock timeout", "retry / shorten txn", REJECTED, True),
    E_STEP_LIMIT: ErrorSpec(
        "instruction budget exhausted (`limit`, `instructions`, `output` in details)",
        "raise `step_limit`",
    ),
    E_EXEC: ErrorSpec(
        "uncaught TML exception, machine fault, or failed commit", "inspect `message`"
    ),
    E_BAD_REQUEST: ErrorSpec(
        "malformed operands, unknown op, disabled debug op", "fix the request"
    ),
    E_TXN_STATE: ErrorSpec(
        "op illegal in the session's txn state (double `begin`, `commit` with none, "
        "write in a read txn)",
        "fix client logic",
    ),
    E_NOT_FOUND: ErrorSpec("unknown root or unknown module/function", "—"),
    E_SHUTTING_DOWN: ErrorSpec("server is stopping", "reconnect later", ENDPOINT, True),
    E_DEADLINE: ErrorSpec(
        "the request's `deadline` budget expired (server- or client-side)",
        "raise the deadline",
    ),
    E_NOT_PRIMARY: ErrorSpec(
        "write sent to a replica (`primary` hint in details)",
        "redirect to the primary", ENDPOINT,
    ),
    E_STALE_TERM: ErrorSpec(
        "fencing: the sender's term is below the receiver's", "stop; re-subscribe"
    ),
    E_STALE_READ: ErrorSpec(
        "replica behind the request's `min_version` floor", "try another node", ENDPOINT
    ),
    E_REPL_TIMEOUT: ErrorSpec(
        "sync-replication ack quorum timed out (`committed: true` — the write is locally "
        "durable)",
        "check replica health",
    ),
    E_WRONG_SHARD: ErrorSpec(
        "root hashes to another shard (`shard`, `endpoints`, `epoch` hints in details)",
        "follow the hint (see [`sharding.md`](sharding.md))", ENDPOINT,
    ),
    E_TWOPC: ErrorSpec(
        "a cross-shard mset could not commit (prepare failed or timed out); nothing was "
        "applied",
        "retry the batch",
    ),
    E_READ_ONLY: ErrorSpec(
        "mutating request while the daemon is in degraded read-only mode — commit-path disk "
        "failure or `--read-only` (`reason`, `since`, `retry_after`, `manual` in details)",
        "fail writes over; reads keep working (see [`durability.md`](durability.md))",
        ENDPOINT,
    ),
    E_OVERLOADED: ErrorSpec(
        "the request aged out in the admission queue (`queued_s`, `retry_after` in details) "
        "— distinct from `backpressure`, which is a queue full on arrival",
        "back off for `retry_after`", REJECTED, True,
    ),
    E_INTERNAL: ErrorSpec("unexpected server error (logged server-side)", "report a bug"),
}


class ProtocolError(Exception):
    """Malformed frame, oversized message or mid-frame disconnect."""


class RequestError(Exception):
    """A structured protocol-level failure (code + message + details)."""

    def __init__(self, code: str, message: str, **details):
        super().__init__(message)
        self.code = code
        self.details = details


def number(request: dict, name: str, kind=int, default=None):
    """The numeric operand ``name`` of ``request`` as ``kind`` (``int`` or
    ``float``), ``default`` when absent.  The one place wire numbers are
    coerced: anything else answers ``bad_request`` naming the operand."""
    value = request.get(name)
    if value is None:
        return default
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise RequestError(
            E_BAD_REQUEST, f"operand {name!r} must be a number, got {value!r}"
        ) from None


def send_frame(sock: socket.socket, message: dict) -> None:
    """Serialize ``message`` and write one length-prefixed frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME}")
    sock.sendall(_LEN.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; None on clean EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise ProtocolError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, max_frame: int = MAX_FRAME) -> dict | None:
    """Read one frame; returns None when the peer closed the connection."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > max_frame:
        raise ProtocolError(f"announced frame of {length} bytes exceeds {max_frame}")
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad JSON payload: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame payload is not a JSON object")
    return message


# ---------------------------------------------------------------------------
# value conversion
# ---------------------------------------------------------------------------


def to_jsonable(value: Any) -> Any:
    """TML runtime value → JSON-safe representation (tagged escapes).

    Scalars that JSON covers pass through; everything else becomes a
    single-key tag object: ``{"$char": "c"}``, ``{"$unit": true}``,
    ``{"$oid": 7}``, ``{"$vec": [...]}`` (immutable vector), ``{"$arr":
    [...]}`` (mutable array), ``{"$bytes": "hex"}``.  Values with no wire
    form (closures, relations) degrade to ``{"$repr": "..."}`` — they stay
    in the image; the wire carries a description.
    """
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    # the VM's value types, imported where a value needs them: a client
    # process that sends only scalars never loads the machine
    from repro.machine.runtime import TmlArray, TmlByteArray, TmlVector

    if isinstance(value, Char):
        return {"$char": value.value}
    if isinstance(value, Unit):
        return {"$unit": True}
    if isinstance(value, Oid):
        return {"$oid": int(value)}
    if isinstance(value, TmlVector):
        return {"$vec": [to_jsonable(v) for v in value.slots]}
    if isinstance(value, TmlArray):
        return {"$arr": [to_jsonable(v) for v in value.slots]}
    if isinstance(value, TmlByteArray):
        return {"$bytes": bytes(value.data).hex()}
    if isinstance(value, (list, tuple)):
        return {"$vec": [to_jsonable(v) for v in value]}
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    return {"$repr": repr(value)}


def from_jsonable(value: Any) -> Any:
    """JSON wire representation → TML runtime value (inverse of above)."""
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    from repro.machine.runtime import TmlArray, TmlByteArray, TmlVector

    if isinstance(value, list):
        return TmlVector([from_jsonable(v) for v in value])
    if isinstance(value, dict):
        if "$char" in value:
            return Char(value["$char"])
        if "$unit" in value:
            return UNIT
        if "$oid" in value:
            return Oid(value["$oid"])
        if "$vec" in value:
            return TmlVector([from_jsonable(v) for v in value["$vec"]])
        if "$arr" in value:
            return TmlArray([from_jsonable(v) for v in value["$arr"]])
        if "$bytes" in value:
            return TmlByteArray(bytearray.fromhex(value["$bytes"]))
        if "$repr" in value:
            raise ProtocolError("$repr values are display-only, not sendable")
        return {k: from_jsonable(v) for k, v in value.items()}
    raise ProtocolError(f"unsendable wire value: {value!r}")
