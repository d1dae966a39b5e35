"""Background integrity scrub and anti-entropy replica repair.

Bit rot on cold pages is invisible to a running daemon: the page checksum
layer only verifies pages that something *reads*, and a hot working set
plus the object cache can leave most of the image untouched for days.
This module makes corruption a detected-and-repaired event instead of a
read-time surprise:

**Scrub** — :func:`scrub_heap` walks every committed object and re-reads
its full page chain through the checksummed pager
(:meth:`ObjectHeap.committed_payload` bypasses the object cache on
purpose), under short read transactions so writers are never starved, at
a token-bucket page budget so a big image doesn't monopolize disk
bandwidth.  The daemon runs it periodically (``--scrub-interval``).

**Anti-entropy repair** — when scrub finds corruption on a replica, a
full snapshot resync would work but ships the whole image.  Instead the
replica and its primary exchange a digest tree over OID ranges: OIDs are
bucketed (``oid >> OID_BUCKET_BITS``), each bucket hashed over its
``(oid, payload)`` pairs, and only buckets whose digests differ are
re-fetched (wire ops ``repl.digest`` / ``repl.fetch``).  A locally
unreadable object folds a poison marker into its bucket digest, so rot
always diverges the digest even though the payload cannot be read.
Fetched payloads are applied under the write lock with the replica's own
roots and OID counter — repair replaces bytes, never logical state, so
the follower's replication cursor stays valid throughout.

Version skew would make every recently-written bucket look diverged, so
digests are only compared when both sides report the same replication
version; the repair loop waits for the replica to catch up first.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass, field

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.store.heap import HeapError, ObjectHeap
from repro.store.pager import DEFAULT_PAGE_SIZE, PageError

__all__ = [
    "OID_BUCKET_BITS",
    "bucket_of",
    "bucket_digests",
    "digest_root",
    "diff_buckets",
    "ScrubReport",
    "scrub_heap",
    "RepairError",
    "repair_from_upstream",
]

_SCRUB_CYCLES = METRICS.counter("store.scrub.cycles", "scrub cycles completed")
_SCRUB_OIDS = METRICS.counter("store.scrub.oids", "objects verified by scrub")
_SCRUB_PAGES = METRICS.counter("store.scrub.pages", "pages (approx) read by scrub")
_SCRUB_CORRUPT = METRICS.counter(
    "store.scrub.corrupt", "corrupt objects detected by scrub"
)
_REPAIR_ROUNDS = METRICS.counter("store.repair.rounds", "anti-entropy rounds run")
_REPAIR_BUCKETS = METRICS.counter(
    "store.repair.buckets_fetched", "diverged OID buckets re-fetched from the primary"
)
_REPAIR_OBJECTS = METRICS.counter(
    "store.repair.objects_applied", "objects re-applied by anti-entropy repair"
)

#: OIDs per digest bucket = 2**OID_BUCKET_BITS; both sides of the exchange
#: must agree on it (the ``repl.digest`` response carries it for checking)
OID_BUCKET_BITS = 6


class RepairError(Exception):
    """Anti-entropy repair could not converge the replica."""


def bucket_of(oid: int) -> int:
    return int(oid) >> OID_BUCKET_BITS


def bucket_digests(heap: ObjectHeap) -> dict[int, str]:
    """SHA-256 per OID bucket over the committed ``(oid, payload)`` pairs.

    Call under a read transaction.  An object whose chain cannot be read
    (bit rot) contributes a deterministic poison marker instead of its
    payload, so the bucket digest diverges from any healthy peer's.
    """
    hashes: dict[int, "hashlib._Hash"] = {}
    for oid in heap.committed_oids():
        h = hashes.get(bucket_of(oid))
        if h is None:
            h = hashes[bucket_of(oid)] = hashlib.sha256()
        try:
            payload = heap.committed_payload(oid)
        except (PageError, HeapError, OSError):
            payload = b"\x00corrupt\x00" + struct.pack("<Q", oid)
        h.update(struct.pack("<QI", oid, len(payload)))
        h.update(payload)
    return {bucket: h.hexdigest() for bucket, h in hashes.items()}


def digest_root(digests: dict[int, str]) -> str:
    """One digest over all bucket digests (cheap equality precheck)."""
    h = hashlib.sha256()
    for bucket in sorted(digests):
        h.update(struct.pack("<Q", bucket))
        h.update(digests[bucket].encode("ascii"))
    return h.hexdigest()


def diff_buckets(local: dict, remote: dict) -> list[int]:
    """Bucket ids present or differing on either side, ascending."""
    keys = {int(k) for k in local} | {int(k) for k in remote}
    return sorted(
        b
        for b in keys
        if local.get(b, local.get(str(b))) != remote.get(b, remote.get(str(b)))
    )


# ----------------------------------------------------------------------- scrub


class _TokenBucket:
    """Pages-per-second budget for the scrub's disk reads (0 = unbounded)."""

    def __init__(self, rate: float):
        self.rate = float(rate)
        self.tokens = self.rate
        self.last = time.monotonic()

    def take(self, n: int) -> None:
        if self.rate <= 0:
            return
        need = min(float(n), self.rate)  # a huge object still makes progress
        while True:
            now = time.monotonic()
            self.tokens = min(self.rate, self.tokens + (now - self.last) * self.rate)
            self.last = now
            if self.tokens >= need:
                self.tokens -= need
                return
            time.sleep(min(0.5, (need - self.tokens) / self.rate))


@dataclass
class ScrubReport:
    """One scrub cycle's outcome."""

    oids_checked: int = 0
    pages_read: int = 0
    corrupt_oids: list[int] = field(default_factory=list)
    skipped: int = 0
    duration_s: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.corrupt_oids

    def as_dict(self) -> dict:
        return {
            "oids_checked": self.oids_checked,
            "pages_read": self.pages_read,
            "corrupt_oids": list(self.corrupt_oids),
            "skipped": self.skipped,
            "duration_s": round(self.duration_s, 4),
            "clean": self.clean,
        }


def scrub_heap(
    heap: ObjectHeap,
    txns=None,
    *,
    pages_per_sec: float = 0,
    batch: int = 64,
    page_size: int = DEFAULT_PAGE_SIZE,
    stop=None,
) -> ScrubReport:
    """Verify every committed object's page chain against its checksums.

    Takes a short read transaction per ``batch`` of objects (when a
    :class:`TransactionManager` is supplied) so a long scrub of a big
    image never starves writers; ``pages_per_sec`` bounds the disk-read
    rate; ``stop`` (an Event) aborts between batches.
    """
    started = time.perf_counter()
    report = ScrubReport()
    bucket = _TokenBucket(pages_per_sec)

    def snapshot_oids() -> list[int]:
        if txns is None:
            return heap.committed_oids()
        with txns.read():
            return heap.committed_oids()

    def check(oid: int) -> None:
        try:
            payload = heap.committed_payload(oid)
        except (PageError, OSError):
            report.corrupt_oids.append(oid)
            _SCRUB_CORRUPT.inc()
            return
        except HeapError:
            report.skipped += 1  # dropped between snapshot and read
            return
        pages = max(1, -(-len(payload) // page_size))
        report.oids_checked += 1
        report.pages_read += pages
        _SCRUB_OIDS.inc()
        _SCRUB_PAGES.inc(pages)
        bucket.take(pages)

    oids = snapshot_oids()
    for start in range(0, len(oids), max(1, batch)):
        if stop is not None and stop.is_set():
            break
        chunk = oids[start : start + max(1, batch)]
        if txns is None:
            for oid in chunk:
                check(oid)
        else:
            with txns.read():
                for oid in chunk:
                    check(oid)
    report.duration_s = time.perf_counter() - started
    _SCRUB_CYCLES.inc()
    TRACER.event(
        "store.scrub.cycle",
        oids=report.oids_checked,
        pages=report.pages_read,
        corrupt=len(report.corrupt_oids),
        duration_ms=int(report.duration_s * 1000),
    )
    return report


# ---------------------------------------------------------------------- repair


def _local_version(heap: ObjectHeap) -> int:
    """The replication version the image's committed state embodies."""
    from repro.server.replication import replication_state

    return replication_state(heap)["version"]


def repair_from_upstream(
    heap: ObjectHeap,
    txns,
    upstream: tuple[str, int],
    *,
    timeout: float = 30.0,
    lock_timeout: float = 10.0,
    max_rounds: int = 8,
    settle: float = 0.25,
) -> dict:
    """Converge this replica's bytes with its primary's, range by range.

    Rounds of digest-compare → fetch-diverged → apply until the digest
    trees match (or ``max_rounds``).  Rounds where the primary's version
    differs from the replica's applied version are skipped with a short
    sleep — comparing mid-catch-up would flag every fresh write as
    divergence and degenerate into a full copy.

    Returns a report dict; ``converged`` is the success flag.  Never
    raises on divergence (the caller decides whether to escalate to a
    snapshot resync); network errors propagate as client exceptions.
    """
    from repro.server.client import Client

    host, port = upstream
    report = {
        "rounds": 0,
        "skew_waits": 0,
        "buckets_fetched": 0,
        "objects_applied": 0,
        "converged": False,
    }
    with Client(host=host, port=int(port), timeout=timeout) as client:
        for _ in range(max_rounds):
            report["rounds"] += 1
            _REPAIR_ROUNDS.inc()
            remote = client.request("repl.digest")
            with txns.read(timeout=lock_timeout):
                local_version = _local_version(heap)
                local = bucket_digests(heap)
            if int(remote.get("version", -1)) != local_version:
                report["skew_waits"] += 1
                time.sleep(settle)
                continue
            diverged = diff_buckets(local, remote.get("buckets", {}))
            if not diverged:
                report["converged"] = True
                break
            fetched = client.request("repl.fetch", buckets=diverged)
            objects = [
                (int(oid), bytes.fromhex(payload))
                for oid, payload in fetched.get("objects", [])
            ]
            report["buckets_fetched"] += len(diverged)
            _REPAIR_BUCKETS.inc(len(diverged))
            if not objects:
                time.sleep(settle)
                continue
            with txns.lock.write_locked(lock_timeout):
                # bytes only: no root delta and no OID-counter advance, so
                # its replication cursor and logical state are untouched
                heap.apply_changes(objects, {}, (), 0)
            txns.bump()
            report["objects_applied"] += len(objects)
            _REPAIR_OBJECTS.inc(len(objects))
    TRACER.event(
        "server.repair.run",
        converged=report["converged"],
        rounds=report["rounds"],
        buckets=report["buckets_fetched"],
        objects=report["objects_applied"],
    )
    return report
