"""The object table as a chain of records (repro.store.table, format v3).

What is pinned here: the one codec and its sentinels; that a commit writes
what it changed, by exact I/O counts that do not grow with the image; and
that a format-v2 image — whose table is a complete record by construction —
opens, is written on and fscks clean without a migration pass.
"""

import struct

import pytest

from repro.obs.metrics import METRICS
from repro.store.checksum import crc32
from repro.store.commitlog import ChangeRecord, CommitLog
from repro.store.fsck import fsck_image
from repro.store.heap import ObjectHeap
from repro.store.pager import PageError, Pager
from repro.store.serialize import Encoder, SerializeError
from repro.store.table import encode_table, load_table


class _Records:
    """A page store for the codec tests: head -> record bytes."""

    def __init__(self):
        self.records: dict[int, bytes] = {}

    def put(self, head: int, raw: bytes) -> tuple[int, int]:
        self.records[head] = raw
        return head, len(raw)

    def read_chain(self, head: int, length: int) -> bytes:
        return self.records[head][:length]


def _v2_table(table: dict, roots: dict) -> bytes:
    """The format-v2 table encoder, copied as it stood when v2 was current."""
    encoder = Encoder()
    encoder.uvarint(len(table))
    for oid, (head, length) in table.items():
        encoder.uvarint(oid)
        encoder.uvarint(head)
        encoder.uvarint(length)
    encoder.uvarint(len(roots))
    for name, oid in roots.items():
        encoder.text(name)
        encoder.uvarint(oid)
    return encoder.getvalue()


class TestCodec:
    TABLE = {1: (7, 40), 200: (300, 70_000), 3_000_000: (2**33, 1)}
    ROOTS = {"a": 1, "λ-root": 200, "n" * 200: 3_000_000}

    def test_a_complete_record_is_a_v2_table(self):
        assert encode_table(self.TABLE, self.ROOTS) == _v2_table(self.TABLE, self.ROOTS)

    def test_chain_folds_oldest_first_with_sentinels(self):
        store = _Records()
        base = store.put(5, encode_table(self.TABLE, self.ROOTS))
        first = store.put(
            9, encode_table({1: (8, 41), 4: (11, 5)}, {"b": 4, "a": 0}, prev=base)
        )
        # the newest record wins: rebinds b, drops oid 200, re-adds root a
        newest = store.put(
            12, encode_table({200: (0, 0), 4: (13, 6)}, {"a": 4}, prev=first)
        )
        chain = load_table(store.read_chain, *newest)
        assert chain.table == {1: (8, 41), 3_000_000: (2**33, 1), 4: (13, 6)}
        assert chain.roots == {"λ-root": 200, "n" * 200: 3_000_000, "b": 4, "a": 4}
        assert chain.records == [base, first, newest]
        assert chain.tail == ({200: (0, 0), 4: (13, 6)}, {"a": 4})

    def test_a_chain_of_one_has_no_tail_and_an_empty_image_no_records(self):
        store = _Records()
        base = store.put(5, encode_table(self.TABLE, self.ROOTS))
        chain = load_table(store.read_chain, *base)
        assert (chain.table, chain.roots) == (self.TABLE, self.ROOTS)
        assert chain.tail == ({}, {})
        assert load_table(store.read_chain, 0, 0) == ({}, {}, [], ({}, {}))

    def test_corrupt_records_are_refused(self):
        store = _Records()
        good = encode_table(self.TABLE, self.ROOTS, prev=(3, 9))
        for raw in (good[:-1] + b"\x80", good[: len(good) // 2], good + b"\x01"):
            with pytest.raises(SerializeError):
                load_table(store.read_chain, *store.put(5, raw))
        # a chain that loops back on itself is an error, not a hang
        store.put(5, encode_table({}, {}, prev=(6, 4)))
        store.put(6, encode_table({}, {}, prev=(5, 4)))
        with pytest.raises(SerializeError, match="revisits"):
            load_table(store.read_chain, 5, 4)


# ------------------------------------------------------- O(dirty), by counts


class _CountingFile:
    def __init__(self, path, mode, counts):
        self._file = open(path, mode)
        self._counts = counts

    def write(self, data):
        self._counts["writes"] += 1
        self._counts["bytes"] += len(data)
        return self._file.write(data)

    def fsync(self):  # counted, not waited for: the test is about what is written
        self._counts["fsyncs"] += 1

    def __getattr__(self, name):
        return getattr(self._file, name)


def _steady_state_cost(tmp_path, roots: int, page_size: int = 1024) -> dict:
    """Per-commit I/O of one-object commits on an image of ``roots`` roots,
    averaged over two compaction periods (the image as built ends in a
    complete record, so the first period starts with the first commit)."""
    path = str(tmp_path / f"cost-{roots}.tyc")
    with ObjectHeap(path, page_size) as heap:
        for index in range(roots):
            heap.set_root(f"key-{index:05d}", heap.store(index))
        heap.commit()
    counts = {"writes": 0, "bytes": 0, "fsyncs": 0}
    heap = ObjectHeap(
        path, page_size, io_factory=lambda p, m: _CountingFile(p, m, counts)
    )
    log = CommitLog(str(tmp_path / f"cost-{roots}.log"))
    logged = []

    def sink(changes):
        record = ChangeRecord(
            version=len(logged) + 1, term=1, oid_counter=changes.oid_counter,
            objects=changes.objects, roots=changes.roots, removed=changes.removed,
        )
        log.append(record)
        logged.append(len(record.encode()))

    compactions = METRICS.get("store.heap.table_compactions")
    table_bytes = METRICS.get("store.heap.table_bytes")
    # every object in turn, starting where OIDs take two bytes at either
    # size so that the logged records are byte-for-byte as long
    oids = heap.committed_oids()
    targets = oids[127:] + oids[:127]
    heap.change_sink = sink
    commits = 0
    counts.update(writes=0, bytes=0, fsyncs=0)
    done, table_start = compactions.value + 2, table_bytes.value
    while compactions.value < done:
        if len(logged) == 32:
            heap.change_sink = None
        heap.update(targets[commits % len(targets)], -commits)
        heap.commit()
        commits += 1
        assert commits < 20 * roots, "never compacted"
    heap.close()
    log.close()
    return {
        "period": commits / 2,
        "pages": counts["writes"] / commits,
        "bytes": counts["bytes"] / commits,
        "table_bytes": (table_bytes.value - table_start) / commits,
        "fsyncs": counts["fsyncs"] / commits,
        "log_bytes": logged,
    }


def test_a_commit_costs_what_it_changed_not_what_the_image_holds(tmp_path):
    small = _steady_state_cost(tmp_path, 400)
    large = _steady_state_cost(tmp_path, 2000)
    # the large image compacts a fifth as often and five times as much: the
    # average stays put (it grew fivefold with the root count when every
    # commit wrote the whole table)
    assert large["period"] > 4 * small["period"]
    for what in ("pages", "bytes", "table_bytes"):
        assert large[what] <= 1.5 * small[what], (what, small, large)
    assert small["fsyncs"] == large["fsyncs"] == 4
    # the replication record is the commit's delta: same bytes at any size
    assert len(small["log_bytes"]) == len(large["log_bytes"]) == 32
    assert small["log_bytes"] == large["log_bytes"]
    assert max(large["log_bytes"]) < 40


def test_a_delta_is_copied_forward_in_one_page_until_it_is_full(tmp_path):
    """The chain grows by bytes, not by commits."""
    path = str(tmp_path / "cow.tyc")
    heap = ObjectHeap(path, page_size=256)
    for index in range(64):
        heap.set_root(f"key-{index:03d}", heap.store(index))
    heap.commit()
    lengths, npages = [], []
    for commit in range(12):
        heap.update(heap.root(f"key-{commit:03d}"), -commit)
        heap.commit()
        lengths.append(len(heap._chain))
        npages.append(heap._pager.header.npages)
    # one record beside the complete one, rewritten with each commit merged
    # in; once the free list has its few shadow pages the file stops growing
    assert lengths == [2] * 12
    assert npages[3:] == [npages[3]] * 9
    heap.close()
    report = fsck_image(path, page_size=256)
    assert report.ok
    (chain,) = [f for f in report.findings if f.code == "table-chain"]
    assert "chain of 2 record(s)" in chain.message
    with ObjectHeap(path, page_size=256) as reopened:
        assert [reopened.load_root(f"key-{i:03d}") for i in range(13)] == [
            0, -1, -2, -3, -4, -5, -6, -7, -8, -9, -10, -11, 12,
        ]


def test_fsck_repair_restarts_the_chain_and_an_unreadable_record_is_an_error(tmp_path):
    path = str(tmp_path / "torn-chain.tyc")
    heap = ObjectHeap(path, page_size=256)
    for index in range(64):
        heap.set_root(f"key-{index:03d}", heap.store(index))
    heap.commit()
    heap.update(heap.root("key-000"), "changed")
    heap.commit()
    assert len(heap._chain) == 2
    heap.close()

    assert fsck_image(path, page_size=256, repair=True).ok
    with ObjectHeap(path, page_size=256) as heap:
        assert len(heap._chain) == 1  # repair published one complete record
        assert heap.load_root("key-000") == "changed"
        heap.update(heap.root("key-001"), "again")
        heap.commit()
        (complete, _), _delta = heap._chain
    with open(path, "r+b") as image:  # rot a page of the *older* record
        image.seek(complete * 256 + 20)
        image.write(b"\xff\xff\xff")
    report = fsck_image(path, page_size=256)
    assert [f.code for f in report.errors] == ["table-unreadable"]
    with pytest.raises(PageError):
        ObjectHeap(path, page_size=256)


# ------------------------------------------------------------ format v2 opens


def _claim_format(path: str, version: int) -> None:
    """Rewrite both header slots to carry ``version`` (checksums redone)."""
    slot = struct.Struct("<4sHHIQQQQQQQ")
    with open(path, "r+b") as image:
        for index in range(2):
            image.seek(index * 72)
            fields = list(slot.unpack(image.read(slot.size)))
            fields[1] = version
            packed = slot.pack(*fields)
            image.seek(index * 72)
            image.write(packed + struct.pack("<I", crc32(packed)))


@pytest.fixture
def v2_image(tmp_path):
    """An image whose table was written by the v2 encoder, header and all."""
    path = str(tmp_path / "v2.tyc")
    values = {f"root-{index:03d}": ("value", index) for index in range(300)}
    with Pager(path) as pager:
        table, roots = {}, {}
        for oid, (name, value) in enumerate(values.items(), start=1):
            enc = Encoder()
            enc.value(value)
            payload = enc.getvalue()
            table[oid] = (pager.write_chain(payload), len(payload))
            roots[name] = oid
        raw = _v2_table(table, roots)
        pager.header.table_page = pager.write_chain(raw)
        pager.header.table_len = len(raw)
        pager.header.oid_counter = len(values) + 1
        pager.sync_header()
        pager.sync_header()  # both slots written, as after any v2 commit
    # the version word is all that separates this from what a v2 binary wrote
    _claim_format(path, 2)
    return path, values


class TestFormatV2:
    def test_v2_image_opens_reads_commits_and_fscks_clean(self, v2_image):
        path, values = v2_image
        assert fsck_image(path).format == 2
        with ObjectHeap(path) as heap:
            assert heap.image_info()["format"] == 2  # opened as it is
            assert {n: heap.load_root(n) for n in heap.root_names()} == values
            heap.update(heap.root("root-007"), "rewritten")
            heap.set_root("new", heap.store("added"))
            heap.remove_root("root-008")
            heap.commit()
            assert heap.image_info()["format"] == 3  # written on as v3
        expected = {**values, "root-007": "rewritten", "new": "added"}
        del expected["root-008"]
        with ObjectHeap(path) as heap:
            assert {n: heap.load_root(n) for n in heap.root_names()} == expected
        report = fsck_image(path)
        assert report.ok and report.format == 3
        # no migration pass: the v2 table is still there, a delta chained to it
        (chain,) = [f for f in report.findings if f.code == "table-chain"]
        assert "chain of 2 record(s)" in chain.message

    def test_a_header_from_the_future_is_refused(self, v2_image):
        path, _ = v2_image
        with ObjectHeap(path) as heap:
            heap.commit()
        _claim_format(path, 4)
        with pytest.raises(PageError, match="unsupported format version 4"):
            ObjectHeap(path)
