"""On-disk format versions and the v1 → v2 migration.

Format v1 (magic ``TYC1``, PRs 0–3): a single unchecksummed header at
offset 0 (``<4sIQQQQQ``), data pages with an 8-byte next-link and no
checksum trailer, and a free list threaded *through* the free pages
themselves.  Format v2 (magic ``TYC2``, :mod:`repro.store.pager`) adds
per-page checksums, dual header slots with a commit epoch, and a
shadow-paged free-list record.  Format v3 keeps v2's pages and header and
lets the object table be a chain of records (:mod:`repro.store.table`); a
v2 image is a valid v3 image whose chain has one record, so v2 → v3 needs
no migration — only v1 does.

Because v2/v3 pages carry a checksum trailer (different chain capacity)
and the header moved, v1 images cannot be upgraded page-by-page.  Instead
:func:`migrate_v1_image` replays the image *logically*: it walks the v1
object table, lifts every object's serialized payload, and writes a fresh
image in the current format with identical OIDs, roots and payload bytes.
The rewrite lands in a temp file and is published with ``os.replace``, so
a crash mid-way leaves the original v1 image untouched.

``Pager`` calls this automatically when it opens a ``TYC1`` file (see
``Pager(..., migrate=...)``); ``python -m repro fsck`` reports the format
version either way.
"""

from __future__ import annotations

import os
import struct

from repro.store.table import encode_table, load_table

__all__ = ["V1Image", "read_v1_image", "migrate_v1_image"]

MAGIC_V1 = b"TYC1"
_V1_HEADER_FMT = "<4sIQQQQQ"
_V1_HEADER_SIZE = struct.calcsize(_V1_HEADER_FMT)
_V1_CHAIN_LINK = 8


class V1Image:
    """The logical content of a format-v1 image, lifted off its pages."""

    def __init__(self, page_size: int, oid_counter: int):
        self.page_size = page_size
        self.oid_counter = oid_counter
        #: oid -> serialized payload bytes
        self.objects: dict[int, bytes] = {}
        #: root name -> oid
        self.roots: dict[str, int] = {}


def _v1_read_chain(data: bytes, page_size: int, head: int, length: int) -> bytes:
    """Read a v1 page chain from the raw file bytes (bounded, cycle-safe)."""
    from repro.store.pager import PageError

    npages = len(data) // page_size
    capacity = page_size - _V1_CHAIN_LINK
    out = bytearray()
    page_id = head
    remaining = length
    visited: set[int] = set()
    while remaining > 0:
        if not 1 <= page_id < npages:
            raise PageError(f"v1 chain page {page_id} out of range")
        if page_id in visited:
            raise PageError(f"v1 chain cycle at page {page_id}")
        visited.add(page_id)
        raw = data[page_id * page_size : (page_id + 1) * page_size]
        (next_id,) = struct.unpack("<Q", raw[:_V1_CHAIN_LINK])
        take = min(remaining, capacity)
        out += raw[_V1_CHAIN_LINK : _V1_CHAIN_LINK + take]
        remaining -= take
        page_id = next_id
    return bytes(out)


def read_v1_image(path: str | os.PathLike) -> V1Image:
    """Lift a v1 image's objects and roots into memory."""
    from repro.store.pager import PageError

    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _V1_HEADER_SIZE or data[:4] != MAGIC_V1:
        raise PageError(f"{os.fspath(path)!r} is not a format v1 image")
    _, page_size, npages, _free_head, table_page, table_len, oid_counter = (
        struct.unpack(_V1_HEADER_FMT, data[:_V1_HEADER_SIZE])
    )
    if page_size == 0 or npages < 1 or table_page >= max(npages, 1):
        raise PageError("corrupt v1 header")
    image = V1Image(page_size=page_size, oid_counter=max(oid_counter, 1))
    # a v1 table is one complete record: a chain of one
    table, image.roots, _, _ = load_table(
        lambda head, length: _v1_read_chain(data, page_size, head, length),
        table_page,
        table_len,
    )
    for oid, (head, length) in table.items():
        image.objects[oid] = _v1_read_chain(data, page_size, head, length)
    return image


def migrate_v1_image(
    path: str | os.PathLike, checksum: str | None = None
) -> dict:
    """Rewrite a v1 image in the current format, in place (atomic
    ``os.replace`` publish).

    OIDs, roots and serialized payloads are preserved byte-for-byte; only
    the page framing changes.  Returns a summary dict for logs/fsck.
    """
    from repro.store.pager import FORMAT_VERSION, MIN_PAGE_SIZE, Pager

    path = os.fspath(path)
    image = read_v1_image(path)
    page_size = max(image.page_size, MIN_PAGE_SIZE)
    tmp = path + ".migrate"
    if os.path.exists(tmp):
        os.remove(tmp)
    pager = Pager(tmp, page_size, checksum=checksum)
    try:
        table = {
            oid: (pager.write_chain(payload), len(payload))
            for oid, payload in image.objects.items()
        }
        raw = encode_table(table, image.roots)
        pager.header.table_page = pager.write_chain(raw)
        pager.header.table_len = len(raw)
        pager.header.oid_counter = image.oid_counter
        pager.sync_header()
    finally:
        pager.close()
    os.replace(tmp, path)
    return {
        "path": path,
        "from_format": 1,
        "to_format": FORMAT_VERSION,
        "objects": len(image.objects),
        "roots": len(image.roots),
        "page_size": page_size,
    }
