"""In-process replay of the daemon's write path, and the store probes.

The daemon cannot be traced from outside beyond its own counters, so the
traced run replays the same key/value sequence through the same public
calls the daemon's ``set`` handler makes — frame decode →
``TransactionManager.write()`` → ``heap.update`` → ``heap.commit`` →
``PrimaryReplication`` change sink → ``CommitLog.append`` — on a page file
opened through a counting file factory.  Store self times and exact I/O
counts come from here; nothing in the daemon is touched.
"""

from __future__ import annotations

import os
import random
import threading
import time

import repro.store.heap as heap_module
from repro.server import protocol
from repro.server.replication import PrimaryReplication
from repro.store.commitlog import CommitLog
from repro.store.concurrency import RWLock, TransactionManager
from repro.store.faults import FaultPlan
from repro.store.heap import ObjectHeap
from repro.store.pager import Pager

import corpus
from trace import Recorder

__all__ = [
    "CountingFiles",
    "build_image",
    "replay_writes",
    "lock_wait_probe",
    "read_probe",
    "codec_probe",
    "durability_check",
    "HEAP_CACHE",
]

#: the daemon's default ``heap_cache_limit``
HEAP_CACHE = 4096


class _CountingFile:
    """A binary file that counts what the pager does to it."""

    def __init__(self, path: str, mode: str, counts: "CountingFiles"):
        self._file = open(path, mode)
        self._counts = counts

    def read(self, count: int = -1) -> bytes:
        data = self._file.read(count)
        self._counts.reads += 1
        self._counts.bytes_read += len(data)
        return data

    def write(self, data) -> int:
        self._counts.writes += 1
        self._counts.bytes_written += len(data)
        return self._file.write(data)

    def fsync(self) -> None:
        self._counts.fsyncs += 1
        self._file.flush()
        os.fsync(self._file.fileno())

    def __getattr__(self, name):  # seek, tell, flush, close, closed, fileno, truncate
        return getattr(self._file, name)


class CountingFiles:
    """``ObjectHeap(io_factory=counts.open)``: exact I/O counts of a heap."""

    def __init__(self) -> None:
        self.reads = self.writes = self.fsyncs = 0
        self.bytes_read = self.bytes_written = 0

    def open(self, path: str, mode: str) -> _CountingFile:
        return _CountingFile(path, mode, self)

    def snapshot(self) -> tuple[int, int, int, int, int]:
        return (self.reads, self.writes, self.fsyncs, self.bytes_read, self.bytes_written)


def build_image(path: str, values: dict) -> None:
    """Pre-load an image the way the daemon's ``mset`` binds roots: one
    stored object per root, one commit."""
    with ObjectHeap(path) as heap:
        for root, value in values.items():
            heap.set_root(root, heap.store(value))
        heap.commit()


def _instrument_store(rec: Recorder) -> list[list[int]]:
    """Spans at every store boundary of a commit.  Returns the per-commit
    list of chain payload sizes ``write_chain`` saw: object payloads first,
    the object table + root directory last."""
    rec.instrument(ObjectHeap, "commit", "store.heap.commit")
    rec.instrument(Pager, "sync_header", "store.pager.sync")
    rec.instrument(Pager, "release_chain", "store.pager.release_chain")
    rec.instrument(CommitLog, "append", "store.commitlog.append")
    rec.instrument(heap_module, "encode_value", "store.serialize.encode")
    rec.instrument(heap_module, "decode_value", "store.serialize.decode")
    chains: list[list[int]] = [[]]
    rec.instrument(
        Pager, "write_chain", "store.pager.write_chain",
        on_args=lambda pager, payload: chains[-1].append(len(payload)),
    )
    return chains


def replay_writes(
    rec: Recorder,
    image: str,
    writes: list[tuple[str, object]],
    replicate: bool,
) -> dict:
    """Replay ``writes`` against ``image``, one auto-commit each.

    Returns per-layer metrics plus ``wall_s``/``commits`` and the phase-sum
    ratio (children's share of the replay's wall time)."""
    counts = CountingFiles()
    heap = ObjectHeap(image, cache_limit=HEAP_CACHE, io_factory=counts.open)
    txns = TransactionManager(heap)
    replication = None
    if replicate:
        replication = PrimaryReplication(heap, txns, image + ".replaylog", node="replay")
        replication.attach()
    first_span = len(rec.spans)
    chains = _instrument_store(rec)
    user_bytes = commits = 0
    try:
        io_before = counts.snapshot()
        start = time.perf_counter()
        for request_id, (root, value) in enumerate(writes):
            with rec.span("bench.set"):
                with rec.span("server.protocol"):
                    wire = _Wire()
                    protocol.send_frame(
                        wire,
                        {"id": request_id, "op": "set", "root": root,
                         "value": protocol.to_jsonable(value)},
                    )
                    request = protocol.recv_frame(wire)
                    decoded = protocol.from_jsonable(request["value"])
                with txns.write():
                    heap.update(heap.root(request["root"]), decoded)
                with rec.span("server.protocol"):
                    protocol.send_frame(wire, {"id": request_id, "ok": True, "result": {}})
            chains.append([])
            commits += 1
            user_bytes += len(value) if isinstance(value, str) else 8
        wall = time.perf_counter() - start
        io_after = counts.snapshot()
    finally:
        rec.restore()
        if replication is not None:
            replication.detach()
            replication.log.close()
        heap.close()

    totals = rec.totals(first_span)

    def per_commit(name: str, field: str = "total_s") -> float:
        entry = totals.get(name)
        return getattr(entry, field) / commits if entry and commits else 0.0

    encode = totals.get("store.serialize.encode")
    children = sum(t.self_s for name, t in totals.items() if name != "bench.set")
    io = [after - before for before, after in zip(io_before, io_after)]
    tables = [sizes[-1] for sizes in chains if sizes]
    return {
        "metrics": {
            "store.heap.commit_self_s": per_commit("store.heap.commit", "self_s"),
            "store.heap.table_bytes_per_commit": sum(tables) / len(tables) if tables else 0.0,
            "store.pager.fsyncs_per_commit": io[2] / commits if commits else 0.0,
            "store.pager.page_writes_per_commit": io[1] / commits if commits else 0.0,
            "store.pager.sync_s": per_commit("store.pager.sync"),
            "store.pager.bytes_written_per_user_byte": io[4] / user_bytes if user_bytes else 0.0,
            "store.commitlog.append_s": per_commit("store.commitlog.append"),
            "store.commitlog.bytes_per_commit": (
                os.path.getsize(image + ".replaylog") / commits if replicate and commits else 0.0
            ),
            "store.serialize.encode_us_per_obj": (
                encode.total_s / encode.count * 1e6 if encode else 0.0
            ),
        },
        "wall_s": wall,
        "commits": commits,
        "first_span": first_span,
        "phase_sum": children / totals["bench.set"].total_s if commits else 0.0,
    }


class _Wire:
    """A loop-back socket: what ``send_frame`` writes, ``recv_frame`` reads."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def sendall(self, data: bytes) -> None:
        self._buffer += data

    def recv(self, count: int) -> bytes:
        data = bytes(self._buffer[:count])
        del self._buffer[:count]
        return data


def codec_probe(message: dict, repeats: int = 2000) -> tuple[float, float]:
    """(encode µs, decode µs) of one representative frame."""
    wire = _Wire()
    start = time.perf_counter()
    for _ in range(repeats):
        protocol.send_frame(wire, message)
    encoded = time.perf_counter()
    for _ in range(repeats):
        protocol.recv_frame(wire)
    decoded = time.perf_counter()
    return (encoded - start) / repeats * 1e6, (decoded - encoded) / repeats * 1e6


def read_probe(rec: Recorder, image: str, keys: list[str], sample: int = 1500) -> dict[str, float]:
    """Open the image as recovery does and fault in ``sample`` roots that
    cannot be cached yet: open time, per-miss load time, decode time."""
    first_span = len(rec.spans)
    rec.instrument(heap_module, "decode_value", "store.serialize.decode")
    try:
        start = time.perf_counter()
        heap = ObjectHeap(image, cache_limit=HEAP_CACHE)
        opened = time.perf_counter()
        picked = keys[: min(sample, len(keys))]
        for key in picked:
            heap.load_root(key)
        loaded = time.perf_counter()
        heap.close()
    finally:
        rec.restore()
    decode = rec.totals(first_span).get("store.serialize.decode")
    return {
        "store.recover_open_s": opened - start,
        "store.heap.load_miss_us": (loaded - opened) / len(picked) * 1e6,
        "store.serialize.decode_us_per_obj": (
            decode.total_s / decode.count * 1e6 if decode else 0.0
        ),
    }


def lock_wait_probe(rec: Recorder, image: str, keys: list[str], seconds: float) -> dict[str, float]:
    """A committing writer against a snapshot reader on one
    ``TransactionManager``: mean wait per lock acquisition, each side."""
    heap = ObjectHeap(image, cache_limit=HEAP_CACHE)
    txns = TransactionManager(heap)
    first_span = len(rec.spans)
    rec.instrument(RWLock, "acquire_write", "store.txn.write_lock_wait")
    rec.instrument(RWLock, "acquire_read", "store.txn.read_lock_wait")
    stop = threading.Event()
    errors: list[BaseException] = []

    def reader() -> None:
        rng = random.Random(1)
        try:
            while not stop.is_set():
                with txns.read():
                    heap.load_root(rng.choice(keys))
        except BaseException as exc:  # surfaced below: a probe must not hide a crash
            errors.append(exc)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        rng = random.Random(2)
        deadline = time.perf_counter() + seconds
        counter = 0
        while time.perf_counter() < deadline:
            counter += 1
            with txns.write():
                heap.update(heap.root(rng.choice(keys)), counter)
    finally:
        stop.set()
        thread.join(timeout=30)
        rec.restore()
        heap.close()
    if errors:
        raise errors[0]
    totals = rec.totals(first_span)

    def mean_ms(name: str) -> float:
        entry = totals.get(name)
        return entry.total_s / entry.count * 1e3 if entry else 0.0

    return {
        "store.txn.write_lock_wait_ms": mean_ms("store.txn.write_lock_wait"),
        "store.txn.read_lock_wait_ms": mean_ms("store.txn.read_lock_wait"),
    }


def durability_check(workdir: str, seed: int, commits: int = 20) -> tuple[int, int]:
    """``SIGKILL`` leaves the OS cache intact, so this check discards it
    itself: the page file sits on the write-back fault model (writes reach
    the disk only through fsync), the process "dies" with an uncommitted
    update pending, and a fresh open must find every committed value.
    Returns ``(attempted, failed)``."""
    path = os.path.join(workdir, "durability.tyc")
    data = corpus.kv_data(seed, 200)
    rng = random.Random(seed * 7919 + 7)
    blob = corpus.kv_blob(seed)
    plan = FaultPlan(writeback=True)
    heap = ObjectHeap(path, io_factory=plan.file_factory)
    expected = dict(data.values)
    for root, value in expected.items():
        heap.set_root(root, heap.store(value))
    heap.commit()
    for _ in range(commits):
        root = rng.choice(data.keys)
        expected[root] = corpus.fresh_value(rng, blob)
        heap.update(heap.root(root), expected[root])
        heap.commit()
    # in flight at the crash: written to the cache, never committed
    heap.update(heap.root(data.keys[0]), "never committed")
    plan.close_all()  # unsynced writes die with the process

    failed = 0
    with ObjectHeap(path) as reopened:
        for root, value in expected.items():
            if reopened.load_root(root) != value:
                failed += 1
    os.unlink(path)
    return len(expected), failed
