"""The bit-flip corruption matrix for ``python -m repro fsck``.

Every page role gets a flipped bit — a header slot, the object table
chain, a data chain — and the tests assert three things each time: the
corruption is *detected at read time* by the checksums, *reported* by
fsck with the right finding, and (where applicable) *repaired* by
``--repair`` without losing any intact object.
"""

import os

import pytest

from repro.store.fsck import QUARANTINE_ROOT, fsck_image
from repro.store.heap import ObjectHeap
from repro.store.pager import SLOT_SIZE, PageError, Pager
from tests.store import legacy_module

PAGE_SIZE = 256


@pytest.fixture
def image(tmp_path):
    """A committed image with two roots: a small tuple and a 2000-byte blob."""
    path = str(tmp_path / "fsck.tyc")
    heap = ObjectHeap(path, PAGE_SIZE)
    heap.set_root("small", heap.store(("keep", 1)))
    heap.set_root("blob", heap.store("D" * 2000))
    heap.commit()
    heap.close()
    return path


def _flip_byte(path, offset):
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0xFF]))


def _chain_of(path, root):
    """(oid, pages) of the object a root names, via a read-only open."""
    heap = ObjectHeap(path, PAGE_SIZE)
    try:
        oid = int(heap.root(root))
        head, length = heap._table[oid]
        return oid, heap._pager.chain_pages(head, length)
    finally:
        heap.close()


def _findings(result, code):
    return [f for f in result.findings if f.code == code]


class TestCleanImage:
    def test_clean_image_is_ok(self, image):
        result = fsck_image(image, page_size=PAGE_SIZE)
        assert result.ok
        assert result.errors == []
        assert result.format == 3
        assert result.objects_checked >= 2
        assert _findings(result, "geometry")

    def test_missing_image_is_an_error(self, tmp_path):
        result = fsck_image(str(tmp_path / "nope.tyc"))
        assert not result.ok
        assert _findings(result, "missing")

    def test_as_dict_is_json_shaped(self, image):
        import json

        summary = fsck_image(image, page_size=PAGE_SIZE).as_dict()
        json.dumps(summary)  # must be serializable as-is
        assert summary["ok"] is True
        assert summary["errors"] == 0


class TestDataPageFlip:
    def test_read_time_detection(self, image):
        _, pages = _chain_of(image, "blob")
        _flip_byte(image, pages[1] * PAGE_SIZE + 40)
        heap = ObjectHeap(image, PAGE_SIZE)
        try:
            with pytest.raises(PageError, match="checksum mismatch"):
                heap.load_root("blob")
            assert heap.load_root("small") == ("keep", 1)  # others unharmed
        finally:
            heap.close()

    def test_fsck_reports_the_corrupt_object(self, image):
        oid, pages = _chain_of(image, "blob")
        _flip_byte(image, pages[1] * PAGE_SIZE + 40)
        result = fsck_image(image, page_size=PAGE_SIZE)
        assert not result.ok
        assert any(f.oid == oid for f in _findings(result, "chain-corrupt"))
        assert any(f.oid == oid for f in _findings(result, "root-corrupt"))

    def test_repair_quarantines_without_losing_intact_objects(self, image):
        oid, pages = _chain_of(image, "blob")
        _flip_byte(image, pages[1] * PAGE_SIZE + 40)
        result = fsck_image(image, page_size=PAGE_SIZE, repair=True)
        assert result.repaired
        assert oid in result.quarantined

        # the repaired image is fully clean again
        after = fsck_image(image, page_size=PAGE_SIZE)
        assert after.ok and not after.warnings

        heap = ObjectHeap(image, PAGE_SIZE)
        try:
            assert heap.load_root("small") == ("keep", 1)
            assert heap.root("blob") is None  # detached, not dangling
            quarantine = heap.load_root(QUARANTINE_ROOT)
            assert str(oid) in quarantine
        finally:
            heap.close()

    def test_repaired_image_accepts_new_commits(self, image):
        _, pages = _chain_of(image, "blob")
        _flip_byte(image, pages[1] * PAGE_SIZE + 40)
        fsck_image(image, page_size=PAGE_SIZE, repair=True)
        heap = ObjectHeap(image, PAGE_SIZE)
        try:
            heap.set_root("fresh", heap.store("after repair"))
            heap.commit()
        finally:
            heap.close()
        heap = ObjectHeap(image, PAGE_SIZE)
        try:
            assert heap.load_root("fresh") == "after repair"
        finally:
            heap.close()


class TestTablePageFlip:
    def test_fsck_reports_unreadable_table(self, image):
        pager = Pager(image, PAGE_SIZE)
        pages = pager.chain_pages(pager.header.table_page, pager.header.table_len)
        pager.close()
        _flip_byte(image, pages[0] * PAGE_SIZE + 20)
        result = fsck_image(image, page_size=PAGE_SIZE)
        assert not result.ok
        assert _findings(result, "table-unreadable")

    def test_heap_refuses_to_open_on_corrupt_table(self, image):
        pager = Pager(image, PAGE_SIZE)
        pages = pager.chain_pages(pager.header.table_page, pager.header.table_len)
        pager.close()
        _flip_byte(image, pages[0] * PAGE_SIZE + 20)
        with pytest.raises(PageError, match="checksum mismatch"):
            ObjectHeap(image, PAGE_SIZE)


class TestHeaderSlotFlip:
    def test_torn_slot_is_a_warning_not_an_error(self, image):
        # the image's newest header slot; dual-slot recovery rolls back
        pager = Pager(image, PAGE_SIZE)
        active = pager._active_slot
        pager.close()
        _flip_byte(image, active * SLOT_SIZE + 10)
        result = fsck_image(image, page_size=PAGE_SIZE)
        assert result.ok  # recovered: degraded, not broken
        assert _findings(result, "torn-header-slot")

    def test_repair_heals_the_torn_slot(self, image):
        pager = Pager(image, PAGE_SIZE)
        active = pager._active_slot
        pager.close()
        _flip_byte(image, active * SLOT_SIZE + 10)
        fsck_image(image, page_size=PAGE_SIZE, repair=True)
        after = fsck_image(image, page_size=PAGE_SIZE)
        assert after.ok
        assert not _findings(after, "torn-header-slot")


class TestReferenceIntegrity:
    def test_dangling_root_reported_and_detached(self, image):
        heap = ObjectHeap(image, PAGE_SIZE)
        heap.set_root("ghost", 9999)
        heap.commit()
        heap.close()
        result = fsck_image(image, page_size=PAGE_SIZE)
        assert not result.ok
        assert any(f.oid == 9999 for f in _findings(result, "dangling-root"))

        fsck_image(image, page_size=PAGE_SIZE, repair=True)
        heap = ObjectHeap(image, PAGE_SIZE)
        try:
            assert heap.root("ghost") is None
            assert heap.load_root("small") == ("keep", 1)
            assert "9999" in heap.load_root(QUARANTINE_ROOT)
        finally:
            heap.close()

    def test_unreachable_object_is_a_warning(self, image):
        heap = ObjectHeap(image, PAGE_SIZE)
        orphan = heap.store(("orphan", 1))
        heap.commit()  # stored but never bound to a root
        heap.close()
        result = fsck_image(image, page_size=PAGE_SIZE)
        assert result.ok  # warn-only
        assert any(f.oid == int(orphan) for f in _findings(result, "unreachable"))

    def test_repair_keeps_unreachable_objects_triageable(self, image):
        heap = ObjectHeap(image, PAGE_SIZE)
        orphan = heap.store(("orphan", 1))
        heap.commit()
        heap.close()
        fsck_image(image, page_size=PAGE_SIZE, repair=True)
        heap = ObjectHeap(image, PAGE_SIZE)
        try:
            assert heap.load(orphan) == ("orphan", 1)  # still present
            assert str(int(orphan)) in heap.load_root(QUARANTINE_ROOT)
        finally:
            heap.close()
        assert fsck_image(image, page_size=PAGE_SIZE).ok


def _code_image(path, layout):
    """A committed image holding module ``calc``, written in ``layout``
    ("ptml": a compile + persist now; "legacy": the old-layout fixture,
    whose records hold code objects); returns ``fact``'s PTML OID."""
    from repro.lang import TycoonSystem

    heap = ObjectHeap(path)
    if layout == "legacy":
        legacy_module.install(heap)
        heap.close()
        return legacy_module.PTML_OIDS["fact"]
    system = TycoonSystem(heap=heap)
    system.compile(legacy_module.SOURCE)
    system.persist("calc")
    system.commit()
    heap.close()
    return int(system.compiled["calc"].functions["fact"].code.ptml_ref)


@pytest.mark.parametrize("layout", ["ptml", "legacy"])
class TestStoredCode:
    """A module record's PTML references reach fsck through the decoder's
    resolver, as every other OID does."""

    def test_a_stored_module_leaves_nothing_unreachable(self, tmp_path, layout):
        path = str(tmp_path / "code.tyc")
        _code_image(path, layout)
        result = fsck_image(path)
        assert result.ok
        assert _findings(result, "unreachable") == []

    def test_a_dropped_ptml_object_is_a_dangling_reference(self, tmp_path, layout):
        path = str(tmp_path / "code.tyc")
        ptml = _code_image(path, layout)
        heap = ObjectHeap(path)
        objects, roots, counter = heap.snapshot_state()
        record = int(heap.root("module:calc"))
        heap.reset_state([(oid, data) for oid, data in objects if oid != ptml], roots, counter)
        heap.close()
        result = fsck_image(path)
        assert not result.ok
        assert [(f.oid, f.message) for f in _findings(result, "dangling-ref")] == [
            (record, f"oid {record} references missing oid {ptml}")
        ]


class TestLeakedPages:
    def test_repair_reclaims_leaked_pages(self, image):
        # orphan a chain by writing it without ever publishing a reference
        pager = Pager(image, PAGE_SIZE)
        pager.write_chain(b"L" * 600)
        pager.sync_header()
        pager.close()
        result = fsck_image(image, page_size=PAGE_SIZE)
        assert result.ok  # leaks are info, not errors
        assert result.leaked_pages

        fsck_image(image, page_size=PAGE_SIZE, repair=True)
        after = fsck_image(image, page_size=PAGE_SIZE)
        assert after.leaked_pages == []


class TestFsckCli:
    def test_cli_exit_codes_and_json(self, image, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "report.json")
        assert main(["fsck", image, "--json", out]) == 0
        assert os.path.exists(out)
        assert "0 error(s)" in capsys.readouterr().out

        _, pages = _chain_of(image, "blob")
        _flip_byte(image, pages[0] * PAGE_SIZE + 40)
        assert main(["fsck", image]) == 1  # errors -> nonzero
        assert main(["fsck", image, "--repair"]) == 0
        assert main(["fsck", image]) == 0

    def test_a_fresh_process_decodes_stored_modules_and_relations(self, tmp_path):
        # in a fresh interpreter nothing has loaded the codecs of the domain
        # objects yet; fsck must register them rather than report every
        # stored module and relation as undecodable
        import subprocess
        import sys

        import repro
        from repro.lang.modules import compile_module, store_module
        from repro.query.relation import Relation

        path = str(tmp_path / "domain.tyc")
        heap = ObjectHeap(path)
        store_module(heap, compile_module("module m export f let f(x: Int): Int = x end"))
        relation = Relation("r", ["id", "v"])
        relation.insert_many([(1, 2), (3, 4)])
        heap.set_root("data", heap.store(relation))
        heap.commit()
        heap.close()

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        run = subprocess.run(
            [sys.executable, "-m", "repro", "fsck", path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stdout + run.stderr
        assert " 0 error(s)" in run.stdout
