"""Durable, checksummed commit log — the shipping unit of replication.

Every committed transaction of a replicated image is captured as one
logical :class:`ChangeRecord`: the serialized payload of each object the
commit wrote (exactly the bytes :meth:`repro.store.heap.ObjectHeap.commit`
put on disk), the roots the commit bound, rebound or unbound, the OID
counter, and the replication coordinates — a monotone ``version`` and the
fencing ``term`` of the primary that produced it.  Records are what a
primary appends locally and streams to replicas, and what a replica
applies inside a write transaction (:mod:`repro.server.replication`).

On disk a :class:`CommitLog` is an append-only file of framed records::

    magic "TYLG" | u32 format
    [ u32 payload_len | u32 crc32(payload) | payload ]*

Archive segments (:mod:`repro.store.recovery`) share the layout and the
codec (:func:`pack_frame`, :func:`read_frame`).  The CRC (reused from
:mod:`repro.store.checksum`) makes a torn tail self-describing: opening the
log stops at the first frame that fails to verify and truncates it away,
so a crash mid-append costs at most the record being appended — which the
image itself still has (the log append happens *after* the heap's commit
point), so nothing durable is lost.

Appends are fsynced before :meth:`CommitLog.append` returns; a record a
primary has streamed is therefore always recoverable locally for
followers that reconnect and catch up from an older version.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.obs.metrics import METRICS
from repro.store.checksum import crc32
from repro.store.serialize import Decoder, Encoder, SerializeError

__all__ = [
    "CommitLogError", "ChangeRecord", "CommitLog", "READ_BATCH",
    "LOG_HEADER", "read_format", "pack_frame", "read_frame",
]

_APPENDS = METRICS.counter("store.commitlog.appends", "records appended")
_APPEND_BYTES = METRICS.counter("store.commitlog.bytes", "record payload bytes appended")
_TRUNCATIONS = METRICS.counter(
    "store.commitlog.truncations", "opens that dropped a torn record tail"
)
_NOTE_ERRORS = METRICS.counter(
    "store.commitlog.note_errors",
    "I/O errors swallowed by the append truncate backstop",
)
#: records a read_from() iterator materializes per lock acquisition — a
#: large catch-up or restore replay never holds the whole tail in memory
READ_BATCH = 256

#: log the swallowed truncate-backstop error once per process (the counter
#: keeps counting); mirrors the server.io_errors log-once discipline
_note_error_logged = False


def _log_note_error_once(exc: OSError) -> None:
    global _note_error_logged
    _NOTE_ERRORS.inc()
    if not _note_error_logged:
        _note_error_logged = True
        print(
            "repro.store.commitlog: truncate backstop failed after an append "
            f"error ({exc}); the reopen-time CRC scan remains the backstop",
            file=sys.stderr,
        )

MAGIC = b"TYLG"
#: format 2 appends the originating trace context (``trace_id``) and the
#: commit wall-clock timestamp (µs) to every record, so one write is
#: followable primary → replica in a single distributed trace and
#: replicas can report commit-to-apply latency.  Format 3 adds ``meta``,
#: a small JSON annotation layer the sharding subsystem stamps two-phase
#: commit phases into (``{"twopc": "<txn>", "phase": "prepare"}``), making
#: in-doubt transactions visible from the log alone.  Format 4 makes the
#: record a delta: ``roots`` holds only the roots the commit bound or
#: rebound and ``removed`` the ones it unbound, where format 3 carried the
#: whole root directory in every record.  Older-format logs are reset on
#: open: the log is a sidecar of the image (the image is the truth), so
#: dropping it only costs followers a snapshot resync.
LOG_FORMAT = 4
_HEADER = struct.Struct("<4sI")
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
#: the first bytes of a log or archive segment written by this build
LOG_HEADER = _HEADER.pack(MAGIC, LOG_FORMAT)


class CommitLogError(Exception):
    """Corrupt commit log or invalid log operation."""


@dataclass(frozen=True)
class ChangeRecord:
    """One committed transaction in shippable form."""

    #: replication version this commit produced (monotone, contiguous)
    version: int
    #: fencing term of the primary that produced the commit
    term: int
    #: OID counter after the commit (replicas allocate above it)
    oid_counter: int
    #: ``(oid, serialized payload)`` for every object the commit wrote
    objects: tuple[tuple[int, bytes], ...]
    #: the roots the commit bound or rebound (a snapshot record, built
    #: from ``snapshot_state`` for ``reset_state``, lists every root)
    roots: dict[str, int] = field(default_factory=dict)
    #: the roots the commit unbound
    removed: tuple[str, ...] = ()
    #: node id of the producing primary (diagnostic, not part of fencing)
    node: str = ""
    #: trace id of the request whose commit produced this record ("" when
    #: the commit ran outside any sampled trace) — replicas re-activate it
    #: so primary and replica spans join into one distributed trace
    trace_id: str = ""
    #: wall-clock µs at which the primary committed (commit-to-apply
    #: latency source on replicas; 0 when unknown)
    committed_ts_us: int = 0
    #: small JSON-able annotations about the commit (e.g. the 2PC phase a
    #: sharded write is in); empty for ordinary commits
    meta: dict = field(default_factory=dict)

    def encode(self) -> bytes:
        enc = Encoder()
        enc.uvarint(self.version)
        enc.uvarint(self.term)
        enc.uvarint(self.oid_counter)
        enc.text(self.node)
        enc.text(self.trace_id)
        enc.uvarint(max(0, self.committed_ts_us))
        enc.text(
            json.dumps(self.meta, sort_keys=True, separators=(",", ":"))
            if self.meta
            else ""
        )
        enc.uvarint(len(self.objects))
        for oid, payload in self.objects:
            enc.uvarint(oid)
            enc.raw(payload)
        enc.uvarint(len(self.roots))
        for name in sorted(self.roots):
            enc.text(name)
            enc.uvarint(self.roots[name])
        enc.uvarint(len(self.removed))
        for name in self.removed:
            enc.text(name)
        return enc.getvalue()

    @classmethod
    def decode(cls, payload: bytes) -> "ChangeRecord":
        try:
            dec = Decoder(payload)
            version = dec.uvarint()
            term = dec.uvarint()
            oid_counter = dec.uvarint()
            node = dec.text()
            trace_id = dec.text()
            committed_ts_us = dec.uvarint()
            meta_text = dec.text()
            objects = tuple(
                (dec.uvarint(), dec.raw()) for _ in range(dec.uvarint())
            )
            roots = {dec.text(): dec.uvarint() for _ in range(dec.uvarint())}
            removed = tuple(dec.text() for _ in range(dec.uvarint()))
        except SerializeError as exc:
            raise CommitLogError(f"corrupt change record: {exc}") from exc
        try:
            meta = json.loads(meta_text) if meta_text else {}
        except json.JSONDecodeError as exc:
            raise CommitLogError(f"corrupt change record meta: {exc}") from exc
        return cls(
            version=version,
            term=term,
            oid_counter=oid_counter,
            objects=objects,
            roots=roots,
            removed=removed,
            node=node,
            trace_id=trace_id,
            committed_ts_us=committed_ts_us,
            meta=meta if isinstance(meta, dict) else {},
        )

    # wire form (the replication stream ships records as JSON frames) -------

    def as_wire(self) -> dict:
        wire = {
            "version": self.version,
            "term": self.term,
            "oid_counter": self.oid_counter,
            "node": self.node,
            "trace_id": self.trace_id,
            "committed_ts_us": self.committed_ts_us,
            "objects": [[oid, payload.hex()] for oid, payload in self.objects],
            "roots": dict(self.roots),
            "removed": list(self.removed),
        }
        if self.meta:
            wire["meta"] = dict(self.meta)
        return wire

    @classmethod
    def from_wire(cls, wire: dict) -> "ChangeRecord":
        try:
            return cls(
                version=int(wire["version"]),
                term=int(wire["term"]),
                oid_counter=int(wire["oid_counter"]),
                node=str(wire.get("node", "")),
                trace_id=str(wire.get("trace_id") or ""),
                committed_ts_us=int(wire.get("committed_ts_us", 0)),
                objects=tuple(
                    (int(oid), bytes.fromhex(payload))
                    for oid, payload in wire["objects"]
                ),
                roots={str(k): int(v) for k, v in wire["roots"].items()},
                # required: a peer that omits it is sending whole directories
                removed=tuple(str(name) for name in wire["removed"]),
                meta=dict(wire.get("meta") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CommitLogError(f"malformed wire record: {exc!r}") from exc


def read_format(f) -> int | None:
    """The format word of the log file ``f``, read from its current
    position (its start); None when ``f`` is not a commit log."""
    head = f.read(_HEADER.size)
    if len(head) < _HEADER.size or head[:4] != MAGIC:
        return None
    return _HEADER.unpack(head)[1]


def pack_frame(record: ChangeRecord) -> bytes:
    """``record`` as one length-prefixed, CRC-checked frame."""
    payload = record.encode()
    return _FRAME.pack(len(payload), crc32(payload)) + payload


def read_frame(f) -> ChangeRecord | None:
    """The record of the frame at ``f``'s position; None at the end.

    A frame that is cut short, fails its CRC or does not decode raises
    :class:`CommitLogError`: each caller decides what a torn tail means.
    """
    head = f.read(_FRAME.size)
    if len(head) < _FRAME.size:
        return None
    length, stored_crc = _FRAME.unpack(head)
    payload = f.read(length)
    if len(payload) < length or crc32(payload) != stored_crc:
        raise CommitLogError("torn or corrupt frame")
    return ChangeRecord.decode(payload)


class CommitLog:
    """Append-only, checksummed, crash-truncating record log."""

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        #: retention hook: called with this log *before* :meth:`reset`
        #: discards records, so an archiver can seal them first
        #: (:class:`repro.store.recovery.LogArchiver`); exceptions are
        #: counted, not raised — reset must win even when the archive
        #: volume is sick, or a snapshot resync could never complete
        self.retention: Callable[["CommitLog"], None] | None = None
        #: version -> byte offset of the frame (catch-up reads seek here)
        self._index: dict[int, int] = {}
        #: version -> term (fencing lineage checks without re-reading frames)
        self._terms: dict[int, int] = {}
        self.first_version: int | None = None
        self.last_version: int | None = None
        self.last_term: int = 0
        existed = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        self._file = open(self.path, "r+b" if existed else "w+b")
        if existed:
            self._recover()
        else:
            self._file.write(LOG_HEADER)
            self._file.flush()
            os.fsync(self._file.fileno())

    # ------------------------------------------------------------- recovery

    def _recover(self) -> None:
        self._file.seek(0)
        fmt = read_format(self._file)
        if fmt is None:
            raise CommitLogError(f"{self.path!r} is not a commit log")
        if fmt < LOG_FORMAT:
            # older record encoding: the image is the truth, the log just a
            # catch-up sidecar — restart it empty under the current format
            # (followers older than this point resync via snapshot)
            self._file.seek(0)
            self._file.truncate(0)
            self._file.write(LOG_HEADER)
            self._file.flush()
            os.fsync(self._file.fileno())
            _TRUNCATIONS.inc()
            return
        if fmt != LOG_FORMAT:
            raise CommitLogError(f"unsupported commit-log format {fmt}")
        good_end = _HEADER.size
        while True:
            try:
                record = read_frame(self._file)
            except CommitLogError:
                break  # torn tail: everything from here on is garbage
            if record is None:
                break
            self._note(record, good_end)
            good_end = self._file.tell()
        self._file.seek(0, os.SEEK_END)
        if self._file.tell() > good_end:
            _TRUNCATIONS.inc()
            self._file.truncate(good_end)
            self._file.flush()
            os.fsync(self._file.fileno())

    def _note(self, record: ChangeRecord, offset: int) -> None:
        self._index[record.version] = offset
        self._terms[record.version] = record.term
        if self.first_version is None:
            self.first_version = record.version
        self.last_version = record.version
        self.last_term = record.term

    # --------------------------------------------------------------- writes

    def append(self, record: ChangeRecord) -> None:
        """Append one record and make it durable before returning."""
        with self._lock:
            if self.last_version is not None and record.version != self.last_version + 1:
                raise CommitLogError(
                    f"non-contiguous append: version {record.version} "
                    f"after {self.last_version}"
                )
            frame = pack_frame(record)
            self._file.seek(0, os.SEEK_END)
            offset = self._file.tell()
            try:
                self._file.write(frame)
                self._file.flush()
                os.fsync(self._file.fileno())
            except OSError:
                # disk full / EIO mid-append: drop the torn frame now so
                # appends after the disk recovers start from a clean tail
                # (the CRC scan at reopen would also drop it, but a live
                # log must not carry a torn frame between two good ones)
                try:
                    self._file.truncate(offset)
                    self._file.flush()
                except OSError as backstop_exc:
                    _log_note_error_once(backstop_exc)
                raise
            self._note(record, offset)
            _APPENDS.inc()
            _APPEND_BYTES.inc(len(frame) - _FRAME.size)

    def reset(self) -> None:
        """Discard every record, keeping only the file header.

        Used when the log and its image disagree at boot (a crash landed
        between the image commit and the log append) and after a snapshot
        resync replaced the image's history: followers that would have
        needed the dropped records are served a snapshot instead.

        When a :attr:`retention` hook is attached (continuous archiving),
        it runs first so every record is sealed into the archive before
        being discarded — reset is the only operation that destroys
        history, so hooking it makes the archive lossless.
        """
        retention = self.retention
        if retention is not None and self.last_version is not None:
            try:
                retention(self)
            except OSError as exc:
                _log_note_error_once(exc)
        with self._lock:
            self._file.truncate(_HEADER.size)
            self._file.flush()
            os.fsync(self._file.fileno())
            self._index.clear()
            self._terms.clear()
            self.first_version = None
            self.last_version = None
            self.last_term = 0
            _TRUNCATIONS.inc()

    # ---------------------------------------------------------------- reads

    def term_at(self, version: int) -> int | None:
        """The term of the record at ``version`` (lineage/fencing checks)."""
        with self._lock:
            return self._terms.get(version)

    def has(self, version: int) -> bool:
        with self._lock:
            return version in self._index

    def bytes_since(self, version: int) -> int:
        """Payload bytes logged after ``version`` (replication byte-lag).

        A follower acked up to ``version``; everything appended after it is
        data that follower has not applied yet.  0 when it is caught up;
        the whole log when ``version`` predates it (the follower will be
        resynced anyway).
        """
        with self._lock:
            if self.last_version is None or version >= self.last_version:
                return 0
            start = self._index.get(version + 1)
            if start is None:
                start = _HEADER.size
            self._file.seek(0, os.SEEK_END)
            return max(0, self._file.tell() - start)

    def read_from(
        self, version: int, batch: int = READ_BATCH
    ) -> Iterator[ChangeRecord]:
        """Iterate records with ``record.version >= version``, in order.

        Bounded-batch: at most ``batch`` records are materialized per lock
        acquisition, so a large follower catch-up or a restore replay
        streams the tail instead of holding it all in memory.  Validation
        is eager — a ``version`` that predates the log raises
        :class:`CommitLogError` *here*, before any iteration (callers
        branch to a snapshot resync on it).  Records appended after a
        batch was read are picked up by the next batch; a concurrent
        :meth:`reset` simply ends the iteration.
        """
        with self._lock:
            if version not in self._index and (
                self.last_version is not None and version <= self.last_version
            ):
                raise CommitLogError(
                    f"version {version} predates this log "
                    f"(first is {self.first_version})"
                )
        return self._iter_from(version, max(1, batch))

    def _iter_from(self, version: int, batch: int) -> Iterator[ChangeRecord]:
        next_version = version
        while True:
            with self._lock:
                start = self._index.get(next_version)
                if start is None:
                    return  # past the end (or the log was reset): done
                self._file.seek(start)
                records: list[ChangeRecord] = []
                while len(records) < batch:
                    try:
                        record = read_frame(self._file)
                    except CommitLogError as exc:
                        raise CommitLogError(f"corrupt record mid-log: {exc}") from exc
                    if record is None:
                        break
                    records.append(record)
            if not records:
                return
            yield from records
            next_version = records[-1].version + 1

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "CommitLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
