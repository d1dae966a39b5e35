"""Backup/restore and commit-log archiving: segment sealing, manifest
bookkeeping, full + incremental backups of a live daemon, point-in-time
restore by version and by timestamp, and the crash-safety envelope.

Offline pieces (archiver, segment codec, manifest) run against a bare
:class:`~repro.store.commitlog.CommitLog`; the backup/restore paths run
against an in-process daemon, as ``make sim-recovery`` does at scale.
"""

import json
import os
import struct
import time

import pytest

from repro import cli
from repro.server import ReproServer, ServerConfig, connect
from repro.store.checksum import crc32
from repro.store.commitlog import ChangeRecord, CommitLog
from repro.store.faults import FaultPlan
from repro.store.fsck import fsck_image
from repro.store.heap import ObjectHeap
from repro.store.recovery import (
    ArchiveError,
    LogArchiver,
    archive_dir,
    backup_info,
    commitlog_path,
    full_backup,
    incremental_backup,
    iter_archive,
    load_manifest,
    read_segment,
    restore_image,
    stale_segments,
)
from repro.store.serialize import Encoder


def _record(version, *, ts_us=0, key=b"payload"):
    return ChangeRecord(
        version=version,
        term=1,
        oid_counter=version + 10,
        objects=((version, key + str(version).encode()),),
        roots={"r": version},
        node="test",
        committed_ts_us=ts_us or version * 1000,
    )


def _log_with(path, versions):
    log = CommitLog(path)
    for v in versions:
        log.append(_record(v))
    return log


# ---------------------------------------------------------------- archiver


class TestLogArchiver:
    def test_seal_writes_segment_and_manifest(self, tmp_path):
        image = str(tmp_path / "db.tyc")
        with _log_with(commitlog_path(image), [1, 2, 3]) as log:
            archiver = LogArchiver(image)
            assert archiver.seal(log) == 3  # three records sealed
        assert archiver.sealed_version == 3
        manifest = load_manifest(archive_dir(image))
        assert manifest["sealed_version"] == 3
        (entry,) = manifest["segments"]
        assert entry["first_version"] == 1
        assert entry["last_version"] == 3
        records = list(
            read_segment(os.path.join(archive_dir(image), entry["name"]))
        )
        assert [r.version for r in records] == [1, 2, 3]
        assert records[0].objects == ((1, b"payload1"),)

    def test_seal_is_incremental_and_idempotent(self, tmp_path):
        image = str(tmp_path / "db.tyc")
        with _log_with(commitlog_path(image), [1, 2]) as log:
            archiver = LogArchiver(image)
            archiver.seal(log)
            # nothing new: no second segment
            archiver.seal(log)
            assert len(load_manifest(archive_dir(image))["segments"]) == 1
            log.append(_record(3))
            log.append(_record(4))
            assert archiver.seal(log) == 2  # only the two new records
            assert archiver.sealed_version == 4
        manifest = load_manifest(archive_dir(image))
        assert manifest["sealed_version"] == 4
        assert [e["first_version"] for e in manifest["segments"]] == [1, 3]

    def test_iter_archive_dedups_overlapping_seals(self, tmp_path):
        image = str(tmp_path / "db.tyc")
        archiver = LogArchiver(image)
        with _log_with(commitlog_path(image), [1, 2, 3]) as log:
            archiver.seal(log)
        # a second log whose tail overlaps the first seal
        with _log_with(str(tmp_path / "other.tylg"), [2, 3, 4, 5]) as log:
            archiver.seal(log)
        versions = [r.version for r in iter_archive(archive_dir(image))]
        assert versions == [1, 2, 3, 4, 5]
        assert [
            r.version for r in iter_archive(archive_dir(image), from_version=4)
        ] == [4, 5]

    def test_torn_segment_tail_ends_iteration(self, tmp_path):
        image = str(tmp_path / "db.tyc")
        with _log_with(commitlog_path(image), [1, 2, 3]) as log:
            archiver = LogArchiver(image)
            archiver.seal(log)
        (entry,) = load_manifest(archive_dir(image))["segments"]
        seg = os.path.join(archive_dir(image), entry["name"])
        with open(seg, "r+b") as f:
            f.truncate(os.path.getsize(seg) - 5)
        assert [r.version for r in read_segment(seg)] == [1, 2]


def _format3_segment(versions) -> bytes:
    """An archive segment as a log-format-3 daemon sealed it: every record
    lists the *whole* root directory and has no removed-roots field (the
    format-3 record encoder, copied as it stood)."""
    parts = [struct.pack("<4sI", b"TYLG", 3)]
    for version in versions:
        enc = Encoder()
        enc.uvarint(version)  # version
        enc.uvarint(1)  # term
        enc.uvarint(version + 10)  # oid_counter
        enc.text("old-daemon")  # node
        enc.text("")  # trace_id
        enc.uvarint(version * 1000)  # committed_ts_us
        enc.text("")  # meta
        enc.uvarint(1)
        enc.uvarint(version)
        enc.raw(b"payload%d" % version)
        roots = {f"r{v}": v for v in range(1, version + 1)}  # the directory
        enc.uvarint(len(roots))
        for name in sorted(roots):
            enc.text(name)
            enc.uvarint(roots[name])
        payload = enc.getvalue()
        parts.append(struct.pack("<II", len(payload), crc32(payload)))
        parts.append(payload)
    return b"".join(parts)


class TestOlderFormatSegments:
    """A segment's format word is part of what it says: a format-3 record
    replayed as a delta would keep every root that history removed."""

    def _archive(self, tmp_path):
        """A sealed current-format archive (v1-3) whose first segment is
        then replaced by what an older daemon would have written."""
        image = str(tmp_path / "db.tyc")
        archiver = LogArchiver(image)
        with _log_with(commitlog_path(image), [1, 2, 3]) as log:
            archiver.seal(log)
            log.append(_record(4))
            archiver.seal(log)
        directory = archive_dir(image)
        old, new = (e["name"] for e in load_manifest(directory)["segments"])
        with open(os.path.join(directory, old), "wb") as f:
            f.write(_format3_segment([1, 2, 3]))
        return directory, old, new

    def test_read_segment_and_iter_archive_refuse_it(self, tmp_path):
        directory, old, new = self._archive(tmp_path)
        with pytest.raises(ArchiveError, match="format 3"):
            list(read_segment(os.path.join(directory, old)))
        with pytest.raises(ArchiveError, match=old):
            list(iter_archive(directory))
        # a range that does not need the old segment is still served
        assert [r.version for r in iter_archive(directory, from_version=4)] == [4]
        assert stale_segments(directory) == [old]

    def test_restore_says_which_segment_and_what_to_do(self, tmp_path):
        server = _make_server(tmp_path)
        dest = str(tmp_path / "backups")
        try:
            full_backup(server.image_path, dest, **_backup_kwargs(server))
            with connect(server.port) as db:
                for i in range(4):
                    db.set(f"k{i}", i)
            incremental_backup(server.image_path, dest, **_backup_kwargs(server))
        finally:
            server.stop()
        archive = os.path.join(dest, "archive")
        entry = load_manifest(archive)["segments"][-1]  # the one past the base
        with open(os.path.join(archive, entry["name"]), "r+b") as f:
            f.seek(4)
            f.write(struct.pack("<I", 3))  # sealed by an older daemon
        with pytest.raises(ArchiveError, match=entry["name"]) as refused:
            restore_image(dest, str(tmp_path / "out.tyc"))
        assert "new full backup" in str(refused.value)
        assert not os.path.exists(tmp_path / "out.tyc")

        # `repro backup` onto that directory starts over instead of appending
        assert cli.main(["backup", str(tmp_path / "db.tyc"), dest]) == 0
        assert backup_info(dest)["epoch"] == 1
        restored = restore_image(dest, str(tmp_path / "out.tyc"))
        assert restored["records_applied"] == 0
        assert _digest(str(tmp_path / "out.tyc")) == _digest(str(tmp_path / "db.tyc"))


# ----------------------------------------------------------- backup/restore


def _make_server(tmp_path, **overrides):
    config = ServerConfig(
        workers=2, queue_size=32, lock_timeout=10.0, pgo_interval=None,
        history_interval=None, profile=False, replicate=True, node_id="p1",
        **overrides,
    )
    server = ReproServer(str(tmp_path / "db.tyc"), config)
    server.start()
    return server


def _backup_kwargs(server):
    return {
        "txns": server.txns,
        "log": server.replication.log,
        "archiver": server.archiver,
    }


def _digest(image_path):
    heap = ObjectHeap(image_path)
    try:
        return heap.logical_digest(), {
            name: heap.load_root(name) for name in heap.root_names()
        }
    finally:
        heap.close()


class TestBackupRestore:
    def test_full_then_incremental_then_restore(self, tmp_path):
        server = _make_server(tmp_path)
        dest = str(tmp_path / "backups")
        try:
            with connect(server.port) as db:
                for i in range(8):
                    db.set(f"k{i}", i)
            full = full_backup(server.image_path, dest, **_backup_kwargs(server))
            assert full["mode"] == "full"
            assert fsck_image(os.path.join(dest, "base.tyc")).ok
            with connect(server.port) as db:
                for i in range(8, 16):
                    db.set(f"k{i}", i)
            incr = incremental_backup(
                server.image_path, dest, **_backup_kwargs(server)
            )
            assert incr["mode"] == "incremental"
            assert incr["epoch"] == 2
            expected = server.heap.logical_digest()
        finally:
            server.stop()
        out = str(tmp_path / "restored.tyc")
        restored = restore_image(dest, out)
        assert restored["records_applied"] > 0
        digest, roots = _digest(out)
        assert digest == expected
        assert roots["k15"] == 15

    def test_point_in_time_by_version_and_ts(self, tmp_path):
        server = _make_server(tmp_path)
        dest = str(tmp_path / "backups")
        try:
            with connect(server.port) as db:
                db.set("victim", "clean")
            full_backup(server.image_path, dest, **_backup_kwargs(server))
            with connect(server.port) as db:
                db.set("keep", 1)
            point_version = server.repl_version()
            point_digest = server.heap.logical_digest()
            time.sleep(0.002)
            point_ts = time.time()
            time.sleep(0.002)
            with connect(server.port) as db:
                db.set("victim", "POISON")
            incremental_backup(server.image_path, dest, **_backup_kwargs(server))
        finally:
            server.stop()

        by_version = restore_image(
            dest, str(tmp_path / "byv.tyc"), to_version=point_version
        )
        assert by_version["restored_version"] == point_version
        digest, roots = _digest(str(tmp_path / "byv.tyc"))
        assert digest == point_digest
        assert roots["victim"] == "clean"
        assert roots["keep"] == 1

        restore_image(
            dest, str(tmp_path / "byts.tyc"), to_ts_us=int(point_ts * 1e6)
        )
        digest, roots = _digest(str(tmp_path / "byts.tyc"))
        assert digest == point_digest
        assert roots["victim"] == "clean"

    def test_a_removed_root_stays_removed_after_replay(self, tmp_path):
        """Records are deltas: a removal is replayed, not implied."""
        server = _make_server(tmp_path)
        dest = str(tmp_path / "backups")
        try:
            with connect(server.port) as db:
                db.set("kept", 1)
                db.set("doomed", 2)
            full_backup(server.image_path, dest, **_backup_kwargs(server))
            with connect(server.port) as db:
                db.set("later", 3)
            before_removal = server.repl_version()
            with server.txns.write():
                assert server.heap.remove_root("doomed")
            with connect(server.port) as db:
                db.set("kept", 4)
            incremental_backup(server.image_path, dest, **_backup_kwargs(server))
            expected = server.heap.logical_digest()
        finally:
            server.stop()
        restore_image(dest, str(tmp_path / "latest.tyc"))
        digest, roots = _digest(str(tmp_path / "latest.tyc"))
        assert digest == expected
        assert "doomed" not in roots and roots["kept"] == 4
        restore_image(dest, str(tmp_path / "before.tyc"), to_version=before_removal)
        _, roots = _digest(str(tmp_path / "before.tyc"))
        assert roots["doomed"] == 2 and roots["later"] == 3

    def test_restore_refuses_point_before_base(self, tmp_path):
        server = _make_server(tmp_path)
        dest = str(tmp_path / "backups")
        try:
            with connect(server.port) as db:
                for i in range(4):
                    db.set(f"k{i}", i)
            base_version = server.repl_version()
            full_backup(server.image_path, dest, **_backup_kwargs(server))
        finally:
            server.stop()
        with pytest.raises(ArchiveError, match="base full backup"):
            restore_image(
                dest, str(tmp_path / "out.tyc"), to_version=base_version - 1
            )

    def test_lost_restore_point_is_an_error(self, tmp_path):
        server = _make_server(tmp_path)
        dest = str(tmp_path / "backups")
        try:
            with connect(server.port) as db:
                db.set("a", 1)
            full_backup(server.image_path, dest, **_backup_kwargs(server))
            with connect(server.port) as db:
                db.set("b", 2)
            beyond = server.repl_version() + 10
        finally:
            server.stop()
        # the archive never reached `beyond`: restore must refuse, loudly
        with pytest.raises(ArchiveError, match="restore point lost"):
            restore_image(dest, str(tmp_path / "out.tyc"), to_version=beyond)

    def test_incremental_requires_full_first(self, tmp_path):
        server = _make_server(tmp_path)
        try:
            with pytest.raises((ArchiveError, OSError)):
                incremental_backup(
                    server.image_path,
                    str(tmp_path / "nothing"),
                    **_backup_kwargs(server),
                )
        finally:
            server.stop()

    def test_crash_mid_backup_never_claims_completeness(self, tmp_path):
        server = _make_server(tmp_path)
        dest = str(tmp_path / "backups")
        plan = FaultPlan()
        try:
            with connect(server.port) as db:
                for i in range(6):
                    db.set(f"k{i}", i)
            plan.arm_write_failure(2)
            with pytest.raises((OSError, ArchiveError)):
                full_backup(
                    server.image_path,
                    dest,
                    **_backup_kwargs(server),
                    file_factory=plan.file_factory,
                )
            # either no base at all, or a verified base with no backup.json
            base = os.path.join(dest, "base.tyc")
            if os.path.exists(base):
                assert fsck_image(base).ok
                with pytest.raises((OSError, ArchiveError)):
                    backup_info(dest)
            plan.heal()
            full_backup(server.image_path, dest, **_backup_kwargs(server))
            expected = server.heap.logical_digest()
        finally:
            server.stop()
        out = str(tmp_path / "restored.tyc")
        restore_image(dest, out)
        digest, _ = _digest(out)
        assert digest == expected

    def test_crash_mid_restore_never_publishes(self, tmp_path):
        server = _make_server(tmp_path)
        dest = str(tmp_path / "backups")
        plan = FaultPlan()
        try:
            with connect(server.port) as db:
                for i in range(6):
                    db.set(f"k{i}", i)
            full_backup(server.image_path, dest, **_backup_kwargs(server))
            with connect(server.port) as db:
                db.set("later", 7)
            incremental_backup(server.image_path, dest, **_backup_kwargs(server))
            expected = server.heap.logical_digest()
        finally:
            server.stop()
        out = str(tmp_path / "restored.tyc")
        plan.arm_write_failure(2)
        with pytest.raises((OSError, ArchiveError)):
            restore_image(dest, out, file_factory=plan.file_factory)
        assert not os.path.exists(out)
        plan.heal()
        restore_image(dest, out)
        digest, roots = _digest(out)
        assert digest == expected
        assert roots["later"] == 7

    def test_backup_info_rejects_missing_and_corrupt_meta(self, tmp_path):
        with pytest.raises((OSError, ArchiveError)):
            backup_info(str(tmp_path / "nope"))
        dest = tmp_path / "bad"
        dest.mkdir()
        (dest / "backup.json").write_text("{not json")
        with pytest.raises((ArchiveError, json.JSONDecodeError)):
            backup_info(str(dest))


class TestServerArchiving:
    def test_daemon_archives_on_log_reset(self, tmp_path):
        server = _make_server(tmp_path)
        try:
            with connect(server.port) as db:
                for i in range(10):
                    db.set(f"k{i}", i)
            assert server.archiver is not None
            tip = server.repl_version()
            # whatever trims the log (gap recovery, resync, retention)
            # goes through reset(), whose hook must seal the tail first
            server.replication.log.reset()
            sealed = server.archiver.sealed_version
            assert sealed == tip
            versions = [
                r.version for r in iter_archive(archive_dir(server.image_path))
            ]
            assert versions == list(range(1, sealed + 1))
        finally:
            server.stop()

    def test_no_archive_flag_disables_attachment(self, tmp_path):
        server = _make_server(tmp_path, archive=False)
        try:
            assert server.archiver is None
        finally:
            server.stop()
