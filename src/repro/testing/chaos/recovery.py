"""Suite ``recovery``: backup, restore, scrub and repair.

The ``crash`` and ``exhaustion`` suites prove the *image* survives; this
one proves the operator can get data back when the image itself is the
casualty — an operator error committed durably (a poison write), bit rot
on a cold replica page, or a machine lost mid-backup/mid-restore:

1. **point-in-time restore beats a poison write** — under live traffic a
   full backup plus rolling incrementals accumulate; after a poison write
   lands (acked, durable, replicated — undo is not an option) a restore
   to the pre-poison version must be *digest-identical* to an oracle
   captured at that commit boundary, and no write acked after the restore
   point may survive into the restored image;
2. **scrub + anti-entropy converge a rotten replica** — a flipped byte on
   a cold page is found by the background scrub (not by a lucky read),
   flips the replica into degraded read-only mode, and anti-entropy
   repair re-fetches only the diverged OID buckets from the primary — a
   clean re-scrub exits degraded mode, without a full snapshot resync;
3. **a crash mid-backup or mid-restore never publishes a bad artifact** —
   both paths build under temporary names and rename only after fsck, so
   an injected I/O failure leaves either nothing or the previous good
   artifact, and a retry succeeds.

:func:`negative_control` re-runs the point-in-time flow with the
archiver's fsync *disabled* over a write-back fault plan (buffered segment
bytes die with the "machine"): the restore point is lost and the restore
MUST fail — CI inverts the invocation, so a passing negative control
means the lost-restore-point detector is broken.
"""

from __future__ import annotations

import os
import threading
import time

from repro.server.client import connect
from repro.store.faults import FaultPlan
from repro.store.fsck import fsck_image
from repro.store.heap import HeapError, ObjectHeap
from repro.store.recovery import (
    ArchiveError,
    LogArchiver,
    backup_info,
    full_backup,
    incremental_backup,
    restore_image,
)
from repro.testing.chaos.harness import Cluster
from repro.testing.chaos.runner import InvariantViolation, Scenario, Suite, scenario

__all__ = ["SUITE", "RecoveryHarness", "build", "negative_control"]


class RecoveryHarness(Cluster):
    """A replicating primary (optionally with a replica) plus ledgered writes."""

    def __init__(self, root: str, replica: bool = False, **overrides):
        super().__init__(root)
        self.server = self.spawn("primary", replicate=True, **overrides)
        self.replica = (
            self.spawn("replica", replica_of=("127.0.0.1", self.server.port))
            if replica
            else None
        )
        self.dest = os.path.join(root, "backups")
        self.out = os.path.join(root, "restored.tyc")

    # ------------------------------------------------------------- workload

    def write_batch(self, prefix: str, count: int, start: int = 0) -> None:
        with connect(self.server.port) as db:
            for i in range(start, start + count):
                self._set(db, f"{prefix}{i}", {"i": i, "blob": "x" * 120})

    def set(self, key: str, value) -> None:
        with connect(self.server.port) as db:
            self._set(db, key, value)

    def _set(self, db, key: str, value) -> None:
        if not self.write(db, key, value):
            raise InvariantViolation(f"fault-free write {key!r} was not acked")

    def start_traffic(self, stop: threading.Event) -> threading.Thread:
        """A background writer that keeps commits (and archive material)
        flowing while backups run — backups must be safe against a live
        writer, not just a quiesced image."""

        def loop() -> None:
            seq = 0
            with connect(self.server.port) as db:
                while not stop.is_set():
                    seq += 1
                    if not self.write(db, "traffic", seq):
                        return
                    time.sleep(0.002)

        thread = threading.Thread(target=loop, name="recovery-traffic", daemon=True)
        thread.start()
        return thread

    # ------------------------------------------------------------- helpers

    def oracle(self) -> tuple[int, str]:
        """(version, logical digest) at the current commit boundary."""
        with self.server.txns.read():
            return self.server.repl_version(), self.server.heap.logical_digest()

    def backup(self, take=incremental_backup, **kwargs) -> dict:
        """``take`` (a full or incremental backup) of the live primary."""
        kwargs.setdefault("archiver", self.server.archiver)
        return take(
            self.image("primary"),
            self.dest,
            txns=self.server.txns,
            log=self.server.replication.log,
            **kwargs,
        )

    def wait_replica_caught_up(self, timeout: float = 15.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.replica.repl_version() == self.server.repl_version():
                return
            time.sleep(0.02)
        raise InvariantViolation(
            f"replica never caught up (replica at {self.replica.repl_version()}, "
            f"primary at {self.server.repl_version()})"
        )

    def flip_cold_replica_page(self) -> int:
        """Flip one byte inside a committed object's page on the replica's
        disk — bit rot no request will notice until scrub re-reads it.
        Returns the OID whose chain was rotted."""
        heap = self.replica.heap
        oid = heap.committed_oids()[-1]
        head, length = heap._table[oid]
        page = heap._pager.chain_pages(head, length)[0]
        offset = page * heap._pager.header.page_size + 16
        with open(self.image("replica"), "r+b") as f:
            f.seek(offset)
            byte = f.read(1)
            f.seek(offset)
            f.write(bytes([byte[0] ^ 0xFF]))
        return oid

    def verify_restored(self, expected_version: int, expected_digest: str) -> dict:
        """The restored image is fsck-clean and digest-equal to the oracle."""
        report = fsck_image(self.out)
        if not report.ok:
            raise InvariantViolation(
                f"restored image failed fsck: {report.as_dict()}"
            )
        heap = ObjectHeap(self.out)
        try:
            digest = heap.logical_digest()
            roots = len(heap.root_names())
        finally:
            heap.close()
        if digest != expected_digest:
            raise InvariantViolation(
                f"restored digest {digest[:16]}… differs from the oracle "
                f"{expected_digest[:16]}… at version {expected_version}"
            )
        return {"digest": digest, "roots": roots}


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def scenario_pitr_poison(root: str, quick: bool = False) -> dict:
    """Rolling backups under live traffic; restore to just before a poison
    write; the result must equal the oracle bit for logical bit."""
    harness = RecoveryHarness(root)
    stop = threading.Event()
    try:
        harness.write_batch("seed", 10 if quick else 25)
        traffic = harness.start_traffic(stop)
        full = harness.backup(full_backup)
        for round_no in range(2 if quick else 4):
            harness.write_batch("roll", 5, start=round_no * 5)
            harness.backup()
        harness.set("victim", "clean")
        stop.set()
        traffic.join(timeout=10)
        # the oracle: the exact committed state the operator wants back
        oracle_version, oracle_digest = harness.oracle()
        # the disaster: an acked, durable, poison write — undo is not an option
        harness.set("victim", "POISON")
        harness.write_batch("after", 5)
        harness.backup()
        restored = restore_image(harness.dest, harness.out, to_version=oracle_version)
        if restored["restored_version"] != oracle_version:
            raise InvariantViolation(
                f"restore stopped at {restored['restored_version']}, "
                f"asked for {oracle_version}"
            )
        checks = harness.verify_restored(oracle_version, oracle_digest)
        # no write acked after the restore point may survive restore
        heap = ObjectHeap(harness.out)
        try:
            victim = heap.load_root("victim")
            missing = [k for k in ("after0", "after4") if k not in heap.root_names()]
        finally:
            heap.close()
        if victim != "clean":
            raise InvariantViolation(f"poison survived the restore: victim={victim!r}")
        if len(missing) != 2:
            raise InvariantViolation("post-restore-point roots survived the restore")
        return {
            "base_version": full["base_version"],
            "restore_point": oracle_version,
            "records_applied": restored["records_applied"],
            **checks,
            **harness.verify(),
        }
    finally:
        stop.set()
        harness.teardown()


def scenario_bitrot_repair(root: str, quick: bool = False) -> dict:
    """Cold-page rot on a replica: scrub detects, degraded flips, repair
    converges from the primary bucket-by-bucket, clean re-scrub recovers."""
    harness = RecoveryHarness(root, replica=True)
    try:
        # enough keys that the committed OIDs span several >>OID_BUCKET_BITS
        # buckets — otherwise one diverged bucket IS the whole image and the
        # "no full resync" assertion below is vacuous
        harness.write_batch("data", 40 if quick else 80)
        harness.wait_replica_caught_up()
        replica = harness.replica
        total_oids = len(replica.heap.committed_oids())
        rotted = harness.flip_cold_replica_page()
        final = replica.health.run_scrub_cycle()
        info = replica.health.scrub_info()
        if info["corrupt_total"] < 1:
            raise InvariantViolation("scrub never detected the flipped page")
        repair = info["last_repair"]
        if not repair or not repair.get("converged"):
            raise InvariantViolation(
                f"anti-entropy repair did not converge: {repair}"
            )
        if repair["objects_applied"] >= total_oids:
            raise InvariantViolation(
                f"repair re-fetched {repair['objects_applied']}/{total_oids} "
                "objects — that is a full resync, not anti-entropy"
            )
        if not final["clean"]:
            raise InvariantViolation(f"re-scrub after repair still dirty: {final}")
        if replica.health.degraded_info()["active"]:
            raise InvariantViolation("replica still degraded after a clean re-scrub")
        # both sides agree again, via the wire op a cluster client would use
        with connect(harness.server.port) as db:
            primary_root = db.request("repl.digest")["root"]
        with connect(replica.port) as db:
            replica_root = db.request("repl.digest")["root"]
        if primary_root != replica_root:
            raise InvariantViolation("digest roots still diverge after repair")
        return {
            "rotted_oid": rotted,
            "total_oids": total_oids,
            "objects_refetched": repair["objects_applied"],
            "buckets_refetched": repair["buckets_fetched"],
            "repairs": info["repairs"],
            **harness.verify(),
        }
    finally:
        harness.teardown()


def scenario_crash_mid_backup(root: str, nth: int) -> dict:
    """An I/O failure mid-copy must leave no published base image; the
    retry after healing succeeds and restores cleanly."""
    harness = RecoveryHarness(root)
    plan = FaultPlan()
    try:
        harness.write_batch("seed", 15)
        plan.arm_write_failure(nth)
        try:
            harness.backup(full_backup, file_factory=plan.file_factory)
        except (OSError, ArchiveError):
            pass
        else:
            raise InvariantViolation("armed write failure did not fail the backup")
        # A crash before the fsck gate leaves at most a .partial temp file.
        # A crash after it may leave a (verified) base image but must NOT
        # leave a backup that claims completeness: backup.json is written
        # last, so backup_info() has to refuse the directory either way.
        base = os.path.join(harness.dest, "base.tyc")
        if os.path.exists(base):
            if not fsck_image(base).ok:
                raise InvariantViolation(
                    "crashed backup published a non-fsck-clean base image"
                )
            try:
                backup_info(harness.dest)
            except (OSError, ArchiveError):
                pass
            else:
                raise InvariantViolation(
                    "crashed backup left a directory that claims completeness"
                )
        plan.heal()
        oracle_version, oracle_digest = harness.oracle()
        harness.backup(full_backup)
        restore_image(harness.dest, harness.out)
        checks = harness.verify_restored(oracle_version, oracle_digest)
        return {"nth": nth, **checks, **harness.verify()}
    finally:
        harness.teardown()


def scenario_crash_mid_restore(root: str, nth: int) -> dict:
    """An I/O failure mid-replay must leave no image at the destination;
    the retry succeeds, fsck-clean and digest-equal to the oracle."""
    harness = RecoveryHarness(root)
    plan = FaultPlan()
    try:
        harness.write_batch("seed", 10)
        harness.backup(full_backup)
        harness.write_batch("more", 10)
        harness.backup()
        oracle_version, oracle_digest = harness.oracle()
        plan.arm_write_failure(nth)
        try:
            restore_image(harness.dest, harness.out, file_factory=plan.file_factory)
        except (OSError, ArchiveError, HeapError):
            pass
        else:
            raise InvariantViolation("armed write failure did not fail the restore")
        if os.path.exists(harness.out):
            raise InvariantViolation("crashed restore published an image")
        plan.heal()
        restored = restore_image(harness.dest, harness.out)
        checks = harness.verify_restored(oracle_version, oracle_digest)
        return {
            "nth": nth,
            "records_applied": restored["records_applied"],
            **checks,
            **harness.verify(),
        }
    finally:
        harness.teardown()


def negative_control(root: str) -> dict:
    """Archive fsync OFF over a write-back disk: the restore point MUST be
    lost.  The sealed segment's bytes sit in the "page cache" (the fault
    plan's pending buffer) and die with the machine; the manifest still
    promises the versions, so the restore hits a hole.  This scenario
    asserts the restore *succeeds* — with the protection disabled it
    cannot, so the sweep exits 1 and CI inverts the invocation."""
    harness = RecoveryHarness(root, archive=False)  # the daemon must not seal durably
    plan = FaultPlan(writeback=True)

    def segment_factory(path: str, mode: str):
        # segment payloads ride the write-back "page cache" and die
        # unsynced; the small manifest write happens to hit the platter —
        # the realistic partial-durability crash an fsync would prevent
        if ".tylg" in os.path.basename(path):
            return plan.file_factory(path, mode)
        return open(path, mode)

    unsafe = LogArchiver(
        harness.image("primary"), fsync=False, file_factory=segment_factory
    )
    try:
        harness.write_batch("seed", 10)
        harness.backup(full_backup, archiver=unsafe)
        harness.write_batch("roll", 10)
        harness.set("victim", "clean")
        oracle_version, oracle_digest = harness.oracle()
        harness.set("victim", "POISON")
        harness.backup(archiver=unsafe)
        plan.close_all()  # the crash: unsynced segment bytes are gone
        restored = restore_image(harness.dest, harness.out, to_version=oracle_version)
        checks = harness.verify_restored(oracle_version, oracle_digest)
        return {"restore_point": oracle_version, **restored, **checks}
    finally:
        harness.teardown()


def build(quick: bool = False) -> list[Scenario]:
    """The PITR flow, bit-rot repair, and the crash-mid-backup /
    crash-mid-restore injections at several positions."""
    nths = [2] if quick else [1, 2, 6]
    return [
        scenario("pitr/poison-restore", scenario_pitr_poison, quick),
        scenario("bitrot/scrub-repair", scenario_bitrot_repair, quick),
        *(scenario(f"crash/mid-backup/n{n}", scenario_crash_mid_backup, n) for n in nths),
        *(scenario(f"crash/mid-restore/n{n}", scenario_crash_mid_restore, n) for n in nths),
    ]


SUITE = Suite(
    "recovery",
    build,
    negative_control=("negative-control/no-archive-fsync", negative_control),
)
