"""Unit tests for the durable, checksummed commit log (repro.store.commitlog)."""

import os
import struct

import pytest

from repro.store.commitlog import LOG_FORMAT, ChangeRecord, CommitLog, CommitLogError


def record(version, term=1, node="n1"):
    return ChangeRecord(
        version=version,
        term=term,
        oid_counter=100 + version,
        objects=((7, b"payload-%d" % version), (8, b"\x00\x01\x02")),
        roots={"root": 7, "other": 8},
        removed=("retired", "staging:λ"),
        node=node,
    )


class TestRoundtrip:
    def test_binary_encode_decode(self):
        original = record(3)
        assert ChangeRecord.decode(original.encode()) == original

    def test_wire_roundtrip(self):
        original = record(5, term=2)
        assert ChangeRecord.from_wire(original.as_wire()) == original

    def test_malformed_wire_is_structured(self):
        with pytest.raises(CommitLogError):
            ChangeRecord.from_wire({"version": 1})

    def test_a_wire_record_without_its_removed_roots_is_refused(self):
        """A peer that omits the field is shipping whole root directories
        (log format 3); merged as a delta they would resurrect removed roots."""
        wire = record(5).as_wire()
        assert wire["removed"] == ["retired", "staging:λ"]
        del wire["removed"]
        with pytest.raises(CommitLogError, match="removed"):
            ChangeRecord.from_wire(wire)


class TestAppendRead:
    def test_append_then_read_from(self, tmp_path):
        path = tmp_path / "log"
        with CommitLog(path) as log:
            for v in range(1, 6):
                log.append(record(v))
            assert log.first_version == 1
            assert log.last_version == 5
            got = list(log.read_from(3))
        assert [r.version for r in got] == [3, 4, 5]

    def test_read_from_streams_in_bounded_batches(self, tmp_path):
        with CommitLog(tmp_path / "log") as log:
            for v in range(1, 8):
                log.append(record(v))
            it = log.read_from(1, batch=2)
            # lazily iterable: records appended after batches were read
            # are still picked up by later batches
            first = [next(it), next(it), next(it)]
            log.append(record(8))
            rest = list(it)
        assert [r.version for r in first + rest] == list(range(1, 9))

    def test_non_contiguous_append_is_refused(self, tmp_path):
        with CommitLog(tmp_path / "log") as log:
            log.append(record(1))
            with pytest.raises(CommitLogError):
                log.append(record(3))

    def test_read_before_first_version_is_an_error(self, tmp_path):
        with CommitLog(tmp_path / "log") as log:
            log.append(record(4))
            log.append(record(5))
            with pytest.raises(CommitLogError):
                log.read_from(2)  # predates the log: caller must resync

    def test_read_past_end_is_empty(self, tmp_path):
        with CommitLog(tmp_path / "log") as log:
            log.append(record(1))
            assert list(log.read_from(2)) == []

    def test_term_at_tracks_fencing_lineage(self, tmp_path):
        with CommitLog(tmp_path / "log") as log:
            log.append(record(1, term=1))
            log.append(record(2, term=3))
            assert log.term_at(1) == 1
            assert log.term_at(2) == 3
            assert log.term_at(9) is None


class TestRecovery:
    def test_reopen_recovers_index(self, tmp_path):
        path = tmp_path / "log"
        with CommitLog(path) as log:
            for v in range(1, 4):
                log.append(record(v))
        with CommitLog(path) as log:
            assert log.last_version == 3
            assert [r.version for r in log.read_from(1)] == [1, 2, 3]

    def test_read_before_first_raises_eagerly(self, tmp_path):
        # the predates-the-log error must raise at the call, not at the
        # first next() — subscribe() branches to a snapshot resync on it
        with CommitLog(tmp_path / "log") as log:
            log.append(record(4))
            try:
                log.read_from(1)
            except CommitLogError:
                pass
            else:
                pytest.fail("read_from(1) did not raise eagerly")

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "log"
        with CommitLog(path) as log:
            log.append(record(1))
            log.append(record(2))
            size = os.path.getsize(path)
        # simulate a crash mid-append: garbage half-frame at the tail
        with open(path, "ab") as f:
            f.write(b"\xff" * 11)
        with CommitLog(path) as log:
            assert log.last_version == 2
        assert os.path.getsize(path) == size  # garbage gone, records kept

    def test_corrupt_payload_drops_tail(self, tmp_path):
        path = tmp_path / "log"
        with CommitLog(path) as log:
            log.append(record(1))
            keep = os.path.getsize(path)
            log.append(record(2))
        with open(path, "r+b") as f:
            f.seek(keep + 10)  # flip a byte inside record 2's payload
            byte = f.read(1)
            f.seek(keep + 10)
            f.write(bytes([byte[0] ^ 0xFF]))
        with CommitLog(path) as log:
            assert log.last_version == 1  # record 2 failed its CRC

    def test_a_log_of_an_older_format_is_restarted_empty(self, tmp_path):
        """Format 3 records list the whole root directory: nothing in such a
        log can be replayed as a delta, and the image is the truth anyway."""
        path = tmp_path / "log"
        with CommitLog(path) as log:
            log.append(record(1))
        with open(path, "r+b") as f:
            f.seek(4)
            f.write(struct.pack("<I", LOG_FORMAT - 1))
        with CommitLog(path) as log:
            assert log.last_version is None
            log.append(record(1))
        with open(path, "rb") as f:
            assert f.read(8) == b"TYLG" + struct.pack("<I", LOG_FORMAT)

    def test_not_a_log_is_refused(self, tmp_path):
        path = tmp_path / "bogus"
        path.write_bytes(b"definitely not a commit log")
        with pytest.raises(CommitLogError):
            CommitLog(path)


class TestReset:
    def test_reset_discards_history(self, tmp_path):
        path = tmp_path / "log"
        with CommitLog(path) as log:
            log.append(record(1))
            log.append(record(2))
            log.reset()
            assert log.last_version is None
            assert list(log.read_from(1)) == []
            # a fresh history may start anywhere (post-snapshot versions)
            log.append(record(40))
            assert log.first_version == 40

    def test_reset_runs_retention_hook_before_discarding(self, tmp_path):
        sealed = []
        with CommitLog(tmp_path / "log") as log:
            log.retention = lambda lg: sealed.extend(lg.read_from(lg.first_version))
            log.append(record(1))
            log.append(record(2))
            log.reset()
            assert [r.version for r in sealed] == [1, 2]
            log.reset()  # empty log: the hook must not fire again
            assert len(sealed) == 2

    def test_reset_survives_a_failing_retention_hook(self, tmp_path):
        def bad_hook(_log):
            raise OSError(28, "archive volume full")

        with CommitLog(tmp_path / "log") as log:
            log.retention = bad_hook
            log.append(record(1))
            log.reset()  # must not raise: reset wins over archiving
            assert log.last_version is None

    def test_deposed_primary_term_at_after_reset(self, tmp_path):
        """A deposed primary whose log was reset (snapshot resync from the
        new leader) must not serve stale term_at answers: the archiver and
        lineage checks key on term_at, so a reset log answers None for the
        discarded versions and only the new lineage after re-append."""
        with CommitLog(tmp_path / "log") as log:
            # old lineage: this node led at term 1
            log.append(record(1, term=1))
            log.append(record(2, term=1))
            assert log.term_at(2) == 1
            # deposed: another node promoted to term 2, our history was
            # replaced by a snapshot resync which resets the log
            log.reset()
            assert log.term_at(1) is None
            assert log.term_at(2) is None
            assert log.last_term == 0
            # following the new primary: records arrive under term 2 at
            # the resync's version horizon
            log.append(record(7, term=2))
            assert log.term_at(7) == 2
            assert log.term_at(2) is None  # old version stays gone
            assert log.last_term == 2
