"""Format v1 → v2 migration (repro.store.format).

The v1 writer below reproduces the seed on-disk layout byte-for-byte
(single ``<4sIQQQQQ`` header, 8-byte chain links, no checksums), so these
tests prove real pre-upgrade images — which no current code can produce —
still open: explicitly via :func:`migrate_v1_image`, implicitly through
``Pager``/``ObjectHeap``, and via ``fsck --repair``.
"""

import struct

import pytest

from repro.store.format import migrate_v1_image, read_v1_image
from repro.store.fsck import fsck_image
from repro.store.heap import ObjectHeap
from repro.store.pager import MAGIC, PageError, Pager
from repro.store.serialize import Encoder, decode_value, encode_value

V1_PAGE_SIZE = 256


def write_v1_image(path, objects, roots, page_size=V1_PAGE_SIZE, oid_counter=None):
    """Emit a format-v1 image file: ``objects`` is oid -> payload bytes."""
    capacity = page_size - 8
    pages = {}
    npages = 1

    def write_chain(payload):
        nonlocal npages
        chunks = [
            payload[i : i + capacity] for i in range(0, len(payload), capacity)
        ] or [b""]
        ids = list(range(npages, npages + len(chunks)))
        npages += len(chunks)
        for index, (pid, chunk) in enumerate(zip(ids, chunks)):
            nxt = ids[index + 1] if index + 1 < len(ids) else 0
            pages[pid] = struct.pack("<Q", nxt) + chunk
        return ids[0]

    entries = [(oid, write_chain(payload), len(payload))
               for oid, payload in objects.items()]
    table = Encoder()
    table.uvarint(len(entries))
    for oid, head, length in entries:
        table.uvarint(oid)
        table.uvarint(head)
        table.uvarint(length)
    table.uvarint(len(roots))
    for name, oid in roots.items():
        table.text(name)
        table.uvarint(oid)
    raw = table.getvalue()
    table_page = write_chain(raw)

    if oid_counter is None:
        oid_counter = max(objects, default=0) + 1
    header = struct.pack(
        "<4sIQQQQQ", b"TYC1", page_size, npages, 0, table_page, len(raw), oid_counter
    )
    with open(path, "wb") as f:
        f.write(header + b"\x00" * (page_size - len(header)))
        for pid in range(1, npages):
            body = pages.get(pid, b"")
            f.write(body + b"\x00" * (page_size - len(body)))
    return path


@pytest.fixture
def v1_image(tmp_path):
    """A v1 image with a small object, a multi-page blob, and two roots."""
    path = str(tmp_path / "legacy.tyc")
    objects = {
        1: encode_value(("alpha", 42)),
        2: encode_value("V" * 900),  # spans several 256-byte v1 pages
    }
    write_v1_image(path, objects, {"a": 1, "blob": 2}, oid_counter=3)
    return path


class TestReadV1:
    def test_lifts_objects_and_roots(self, v1_image):
        image = read_v1_image(v1_image)
        assert image.page_size == V1_PAGE_SIZE
        assert image.roots == {"a": 1, "blob": 2}
        assert decode_value(image.objects[1]) == ("alpha", 42)
        assert decode_value(image.objects[2]) == "V" * 900
        assert image.oid_counter == 3

    def test_rejects_non_v1_file(self, tmp_path):
        path = str(tmp_path / "not-v1.tyc")
        with open(path, "wb") as f:
            f.write(b"NOPE" + b"\x00" * 300)
        with pytest.raises(PageError, match="not a format v1 image"):
            read_v1_image(path)


class TestMigration:
    def test_explicit_migration_preserves_everything(self, v1_image):
        summary = migrate_v1_image(v1_image)
        assert summary["from_format"] == 1 and summary["to_format"] == 3
        assert summary["objects"] == 2 and summary["roots"] == 2
        with open(v1_image, "rb") as f:
            assert f.read(4) == MAGIC
        heap = ObjectHeap(v1_image, V1_PAGE_SIZE)
        try:
            assert heap.load_root("a") == ("alpha", 42)
            assert heap.load_root("blob") == "V" * 900
            assert int(heap.root("a")) == 1  # OIDs preserved, not renumbered
        finally:
            heap.close()

    def test_pager_migrates_automatically(self, v1_image):
        with Pager(v1_image) as pager:
            assert pager.image_info()["format"] == 3

    def test_heap_opens_v1_image_transparently(self, v1_image):
        heap = ObjectHeap(v1_image)  # default page size: tolerated on reopen
        try:
            assert heap.load_root("a") == ("alpha", 42)
            heap.set_root("new", heap.store("post-migration"))
            heap.commit()
        finally:
            heap.close()
        assert fsck_image(v1_image, page_size=V1_PAGE_SIZE).ok

    def test_migrate_false_refuses_v1(self, v1_image):
        with pytest.raises(PageError, match="format v1"):
            Pager(v1_image, migrate=False)

    def test_migrated_image_is_fsck_clean(self, v1_image):
        migrate_v1_image(v1_image)
        result = fsck_image(v1_image, page_size=V1_PAGE_SIZE)
        assert result.ok
        assert result.objects_checked == 2

    def test_oid_counter_survives(self, v1_image):
        migrate_v1_image(v1_image)
        heap = ObjectHeap(v1_image, V1_PAGE_SIZE)
        try:
            fresh = heap.store("new object")
            assert int(fresh) >= 3  # never collides with migrated OIDs
        finally:
            heap.close()

    def test_empty_v1_image(self, tmp_path):
        path = str(tmp_path / "empty.tyc")
        write_v1_image(path, {}, {})
        migrate_v1_image(path)
        heap = ObjectHeap(path, V1_PAGE_SIZE)
        try:
            assert heap.root_names() == []
        finally:
            heap.close()


class TestFsckOnV1:
    def test_fsck_reports_v1_without_touching_it(self, v1_image):
        result = fsck_image(v1_image)
        assert result.format == 1
        assert result.ok
        with open(v1_image, "rb") as f:
            assert f.read(4) == b"TYC1"  # check alone never rewrites

    def test_fsck_repair_migrates(self, v1_image):
        result = fsck_image(v1_image, repair=True)
        assert result.repaired
        after = fsck_image(v1_image, page_size=V1_PAGE_SIZE)
        assert after.format == 3 and after.ok
