"""Wire protocol: length-prefixed JSON frames and value conversion.

Framing (version 1): each message is a 4-byte big-endian unsigned payload
length followed by a UTF-8 JSON object.  Requests and responses are flat
JSON objects:

* request — ``{"id": <int>, "op": "<name>", ...operands}``;
* success — ``{"id": <int>, "ok": true, "result": {...}}``;
* failure — ``{"id": <int>, "ok": false,
  "error": {"code": "<code>", "message": "...", ...details}}``.

Error codes are machine-readable contract, not prose: ``backpressure``
(admission control rejected the request), ``busy`` (transaction lock
timeout), ``step_limit`` (instruction budget exhausted,
:class:`repro.machine.vm.StepLimitExceeded`), ``exec_error`` (uncaught TML
exception), ``bad_request``, ``txn_state``, ``not_found``, ``internal``,
``shutting_down``.

Version 2 adds the replication vocabulary (:mod:`repro.server.replication`)
and request deadlines: ``not_primary`` (a mutating request reached a
replica; details carry the upstream primary's address), ``stale_term``
(fencing rejected a deposed primary's stream), ``stale_read`` (a bounded-
staleness read's ``min_version`` floor is ahead of this replica), and
``deadline_exceeded`` (the request's remaining time budget ran out before
it could execute).  ``replication_timeout`` reports a write that committed
locally but was not acknowledged by the required number of replicas in
time (details carry ``committed: true``).  Framing is unchanged, so v1
clients interoperate for the v1 op set.

Version 3 adds the observability vocabulary: any request may carry a
``trace`` operand — ``{"trace_id": "<16-hex>", "span_id": "<16-hex>"}`` —
and the daemon opens its server span under that context, so one logical
operation is followable client → primary → replica in a single
distributed trace; error payloads carry the active ``trace_id`` when the
request was traced.  Three introspection ops join the set: ``stats``
(extended with per-op latency percentiles, slowlog/trace/history status
and replication lag), ``slowlog`` (the ring of slowest requests) and
``trace`` (runtime start/stop/sampling control of the daemon's NDJSON
export).  All are additive: unstamped requests and v2 clients are served
unchanged.

Version 4 adds the sharding vocabulary (:mod:`repro.server.sharding`):
``wrong_shard`` rejects a data operation whose root hashes to another
shard group — details carry the owning ``shard`` id and its ``endpoints``
so a ring-aware client can follow the hint — and ``twopc_aborted``
reports a cross-shard write whose two-phase commit could not reach a
commit decision (the transaction is guaranteed rolled back everywhere).
New ops: ``mset`` (bind several roots in one atomic commit; on a
coordinator the roots may span shards and run as 2PC), ``query``
(prefix-scan of a shard's owned roots, optionally folded through a stored
function — the executable half of scatter-gather), ``scatter``
(coordinator fan-out of a query to every shard with a merge step),
``topology`` (read the consistent-hash ring) and the participant ops
``shard.prepare`` / ``shard.decide`` / ``shard.indoubt`` / ``shard.adopt``
(see docs/sharding.md).  All additive; v3 clients are served unchanged.

Version 5 adds the resource-exhaustion vocabulary: ``read_only`` rejects a
mutating request because the daemon is in degraded read-only mode after a
disk-level failure (ENOSPC/EDQUOT/EIO/fsync failure mid-commit) or a
manual ``--read-only`` override — details carry the ``reason``, ``since``
(unix seconds) and a ``retry_after`` hint matching the recovery probe's
cadence; reads, ``stats``, ``ping`` and replication subscribe keep
working, and a cluster-aware client should *fail writes over* instead of
retrying the same endpoint.  ``overloaded`` rejects a request that waited
longer than the admission queue-time limit — distinct from
``backpressure`` (queue *full* on arrival); details carry ``queued_s``
and a ``retry_after`` backoff hint the client's retry policy honors.
Both additive; v4 clients are served unchanged.

Version 6 adds the anti-entropy repair vocabulary (:mod:`repro.server.repair`):
``repl.digest`` returns a digest tree over OID buckets — ``buckets`` maps
``str(oid >> bucket_bits)`` to a SHA-256 over the bucket's committed
``(oid, payload)`` pairs, with ``version``/``term``/``root`` for skew and
equality prechecks — and ``repl.fetch`` (operand ``buckets``: a list of
bucket ids) returns the committed payloads of those buckets as
``[oid, hex]`` pairs.  Together they let a replica whose scrub found bit
rot re-fetch only the diverged OID ranges from its primary instead of a
full snapshot resync.  Both run under a read transaction on the serving
node and are additive; v5 clients are served unchanged.

TML runtime values cross the wire as JSON with tagged escapes for the
types JSON cannot express directly (see :func:`to_jsonable` /
:func:`from_jsonable`).
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any

from repro.core.syntax import Char, Oid, UNIT, Unit
from repro.machine.runtime import TmlArray, TmlByteArray, TmlVector

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
    "E_BACKPRESSURE",
    "E_BUSY",
    "E_STEP_LIMIT",
    "E_EXEC",
    "E_BAD_REQUEST",
    "E_TXN_STATE",
    "E_NOT_FOUND",
    "E_INTERNAL",
    "E_SHUTTING_DOWN",
    "E_NOT_PRIMARY",
    "E_STALE_TERM",
    "E_STALE_READ",
    "E_DEADLINE",
    "E_REPL_TIMEOUT",
    "E_WRONG_SHARD",
    "E_TWOPC",
    "E_READ_ONLY",
    "E_OVERLOADED",
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
E_INTERNAL = "internal"
E_SHUTTING_DOWN = "shutting_down"
E_NOT_PRIMARY = "not_primary"
E_STALE_TERM = "stale_term"
E_STALE_READ = "stale_read"
E_DEADLINE = "deadline_exceeded"
E_REPL_TIMEOUT = "replication_timeout"
E_WRONG_SHARD = "wrong_shard"
E_TWOPC = "twopc_aborted"
E_READ_ONLY = "read_only"
E_OVERLOADED = "overloaded"


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
