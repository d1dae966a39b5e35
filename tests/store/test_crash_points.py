"""Fault injection and the exhaustive crash-point harness.

Two layers under test: the :class:`FaultFile` primitives themselves (torn
writes, write-back buffering, adversarial crash persistence, short reads,
fsync failures), and the ``crash`` chaos suite — the SQLite-style sweep
that crashes at every I/O operation and asserts the image always reopens
to an adjacent commit's state.  A negative control proves the harness
actually detects a broken commit protocol.
"""

import dataclasses

import pytest

from repro.testing.chaos import SUITES, crash, run
from repro.store.faults import CrashPoint, FaultFile, FaultPlan, FileDead
from repro.store.heap import ObjectHeap
from repro.store.pager import Pager


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "fault.bin")


class TestFaultFilePrimitives:
    def test_passthrough_roundtrip(self, path):
        plan = FaultPlan()
        f = FaultFile(path, "w+b", plan=plan)
        f.write(b"hello")
        f.seek(0)
        assert f.read(5) == b"hello"
        f.close()
        assert plan.ops == 2  # one write, one read

    def test_crash_kills_the_file(self, path):
        plan = FaultPlan(crash_at=0)
        f = FaultFile(path, "w+b", plan=plan)
        with pytest.raises(CrashPoint):
            f.write(b"doomed")
        assert plan.crashed
        with pytest.raises(FileDead):
            f.read(1)
        with pytest.raises(FileDead):
            f.fsync()
        # write-through but the crashing op itself never lands
        with open(path, "rb") as check:
            assert check.read() == b""

    def test_torn_write_persists_a_prefix(self, path):
        plan = FaultPlan(crash_at=0, torn=True)
        f = FaultFile(path, "w+b", plan=plan)
        with pytest.raises(CrashPoint):
            f.write(b"AAAABBBB")
        f.close()  # post-crash cleanup, as the harness's close_all() does
        with open(path, "rb") as check:
            assert check.read() == b"AAAA"  # first half only

    def test_writeback_buffers_until_fsync(self, path):
        plan = FaultPlan(writeback=True)
        f = FaultFile(path, "w+b", plan=plan)
        f.write(b"buffered")
        with open(path, "rb") as check:
            assert check.read() == b""  # nothing durable yet
        f.seek(0)
        assert f.read(8) == b"buffered"  # but the process sees its own write
        f.fsync()
        with open(path, "rb") as check:
            assert check.read() == b"buffered"
        f.close()

    def test_writeback_close_drops_pending(self, path):
        plan = FaultPlan(writeback=True)
        f = FaultFile(path, "w+b", plan=plan)
        f.write(b"lost")
        f.close()
        with open(path, "rb") as check:
            assert check.read() == b""

    def test_writeback_crash_is_adversarial(self, path):
        """At a crash, the *later* pending writes persist, not the earlier.

        This models out-of-order kernel flushing: only an fsync barrier
        orders a write before its dependents, so a protocol that skips the
        data fsync is caught (the header 'survives' without its data).
        """
        plan = FaultPlan(crash_at=2, writeback=True)
        f = FaultFile(path, "w+b", plan=plan)
        f.seek(0)
        f.write(b"11111111")  # op 0: earlier pending write
        f.seek(8)
        f.write(b"22222222")  # op 1: later pending write
        with pytest.raises(CrashPoint):
            f.fsync()  # op 2: crash before the barrier applies
        f.close()  # post-crash cleanup, as the harness's close_all() does
        with open(path, "rb") as check:
            data = check.read()
        assert b"22222222" in data  # the later half persisted...
        assert b"11111111" not in data  # ...the earlier half is gone

    def test_short_read_returns_fewer_bytes_once(self, path):
        with open(path, "wb") as setup:
            setup.write(b"x" * 100)
        plan = FaultPlan(short_read_at=0)
        f = FaultFile(path, "r+b", plan=plan)
        first = f.read(100)
        assert len(first) == 50  # the transient short read
        rest = f.read(100 - len(first))
        assert first + rest == b"x" * 100
        f.close()

    def test_fsync_failure_is_transient(self, path):
        plan = FaultPlan(fail_fsync_at=1)
        f = FaultFile(path, "w+b", plan=plan)
        f.write(b"data")  # op 0
        with pytest.raises(OSError, match="fsync"):
            f.fsync()  # op 1
        f.fsync()  # op 2: works again
        with open(path, "rb") as check:
            assert check.read() == b"data"
        f.close()

    def test_close_all_cleans_up_after_a_crash(self, path):
        plan = FaultPlan(crash_at=0)
        f = plan.file_factory(path, "w+b")
        with pytest.raises(CrashPoint):
            f.write(b"x")
        plan.close_all()
        assert f.closed


class TestFaultsUnderThePager:
    def test_pager_survives_short_reads(self, path):
        Pager(path, page_size=256).close()
        plan = FaultPlan(short_read_at=0)
        with Pager(path, page_size=256, file_factory=plan.file_factory) as pager:
            assert pager.header.npages >= 1  # header read looped, not failed

    def test_heap_crash_mid_commit_recovers(self, tmp_path):
        """A single spot-check of the invariant the full sweep proves."""
        image = str(tmp_path / "crash.tyc")
        heap = ObjectHeap(image, page_size=256)
        heap.set_root("k", heap.store(("v", 1)))
        heap.commit()
        heap.close()

        plan = FaultPlan(crash_at=30, torn=True)
        heap = ObjectHeap(image, page_size=256, io_factory=plan.file_factory)
        try:
            with pytest.raises(CrashPoint):
                heap.update(heap.root("k"), ("v", 2))
                heap.set_root("big", heap.store("Z" * 2000))
                heap.commit()
        finally:
            plan.close_all()

        recovered = ObjectHeap(image, page_size=256)
        value = recovered.load_root("k")
        assert value in (("v", 1), ("v", 2))  # pre- or post-commit, no third state
        recovered.close()


class TestCrashSimHarness:
    def test_exhaustive_sweep_is_clean(self, tmp_path):
        """Every crash point in every failure mode recovers — the tentpole."""
        report = run(SUITES["crash"], str(tmp_path))
        assert report["failures"] == []
        meta = report["meta"]
        assert meta["commits"] == 5
        assert meta["io_ops_per_run"] > 0
        # all four failure modes hit every I/O op of both record kinds: a
        # delta copied forward, a commit that compacts the chain, and a
        # delta that removes a root
        assert meta["table_records"] == [
            "complete", "delta", "delta", "complete", "delta",
        ]
        assert meta["roots_removed"] == [crash.FILLERS[0]]
        assert report["scenarios"] == meta["io_ops_per_run"] * len(crash.MODES)
        fsck_runs = sum(r["checks"]["fsck"] == "clean" for r in report["results"])
        assert fsck_runs == report["scenarios"]
        assert report["failed"] == 0
        assert report["passed"] == report["scenarios"]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown crash-sim mode"):
            crash.scenarios(modes=("lightning",))

    def test_negative_control_detects_broken_protocol(self, tmp_path, monkeypatch):
        """Remove the durability barriers and the harness must notice.

        With ``Pager._fsync`` a no-op there is no ordering between data
        pages and the header slot; the adversarial write-back crash model
        then persists headers whose data never landed.
        """
        monkeypatch.setattr(Pager, "_fsync", lambda self: None)
        unfsynced = dataclasses.replace(
            SUITES["crash"],
            build=lambda quick: crash.scenarios(modes=("writeback",), fsck=False),
        )
        report = run(unfsynced, str(tmp_path))
        assert report["failed"] > 0
        assert report["failures"]
