"""Fixed-size page file — the lowest storage layer (on-disk format v3).

A single file of ``page_size``-byte pages.  Page 0 holds **two** header
slots (magic, format version, checksum kind, geometry, free-list record,
object-table location, OID counter, commit epoch); pages are allocated
from the free list or by extending the file.

Integrity model (formats v2 and v3, magic ``TYC2``):

* every data page carries a 4-byte checksum trailer
  (:mod:`repro.store.checksum`), verified on every read — a flipped bit or
  a torn page write surfaces as :class:`PageError`, never a garbage decode;
* commits are **dual-header**: the two header slots in page 0 are written
  alternately, each carrying a monotonically increasing epoch and its own
  checksum.  Recovery picks the newest slot that verifies, so a torn
  header write rolls back to the previous commit instead of bricking the
  image;
* the free list is **shadow-paged**: free page ids live in a chained
  record republished by every ``sync_header``, never inside the free
  pages themselves.  A freed page's content is therefore meaningless, and
  a crashed commit that tore a half-reused free page cannot corrupt the
  free list of the durable snapshot (the v1 design kept next-pointers in
  the free pages, where exactly that tear was fatal);
* chain walks are bounded and cycle-checked — a corrupt next-pointer is
  detected, not followed forever (and never double-freed).

Records larger than one page are chained: each data page reserves its
first 8 payload bytes for the next page id (0 = end of chain) — see
:meth:`Pager.write_chain` / :meth:`Pager.read_chain`.

Durability protocol (shadow-paging-lite): all data pages and the new
free-list record are written first and made durable with an fsync; then
the *inactive* header slot is written with ``epoch + 1`` and fsynced —
the single commit point.  A crash anywhere in between leaves the previous
consistent state reachable (exhaustively verified by
:mod:`repro.testing.chaos.crash`).

Format v3 has v2's pages and header; what changed is what the header's
``table_page/table_len`` may name: the newest record of a *chain* of
object-table records (:mod:`repro.store.table`) instead of always the
whole table.  A v2 table is a chain of one, so v2 images open as they are
and become v3 with the first commit; the version number exists so that a
v2-only binary refuses an image whose newest record is a delta.

Version 1 images (magic ``TYC1``, no checksums, single header, on-page
free list) are migrated in place on first open — see
:mod:`repro.store.format`.

All file I/O goes through a pluggable ``file_factory`` so the fault
injector (:mod:`repro.store.faults`) can interpose torn writes, short
reads, fsync failures and simulated crashes under the real pager code.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass
from typing import Callable

from repro.obs.metrics import METRICS
from repro.store.checksum import CHECKSUM_KINDS, checksum_fn, kind_name

__all__ = [
    "PageError",
    "Header",
    "Pager",
    "DEFAULT_PAGE_SIZE",
    "MIN_PAGE_SIZE",
    "FORMAT_VERSION",
    "MAGIC",
    "MAGIC_V1",
    "HEADER_SLOTS",
    "SLOT_SIZE",
    "CHECKSUM_LEN",
]

_PAGE_READS = METRICS.counter("store.pager.page_reads", "pages read from disk")
_PAGE_WRITES = METRICS.counter("store.pager.page_writes", "pages written to disk")
_BYTES_READ = METRICS.counter("store.pager.bytes_read", "payload bytes read")
_BYTES_WRITTEN = METRICS.counter("store.pager.bytes_written", "payload bytes written")
_PAGES_ALLOCATED = METRICS.counter("store.pager.pages_allocated", "page allocations")
_HEADER_SYNCS = METRICS.counter(
    "store.pager.header_syncs", "header slot writes + fsync (commit points)"
)
_CHECKSUM_FAILURES = METRICS.counter(
    "store.pager.checksum_failures", "page reads rejected by the checksum"
)
_HEADER_RECOVERIES = METRICS.counter(
    "store.pager.header_recoveries",
    "opens that fell back to the other header slot (torn header write)",
)
_FREE_LIST_RESETS = METRICS.counter(
    "store.pager.free_list_resets",
    "opens that dropped an unreadable free-list record (leak, not loss)",
)
_SHORT_READS = METRICS.counter(
    "store.pager.short_reads", "page reads completed across several read calls"
)

MAGIC = b"TYC2"
MAGIC_V1 = b"TYC1"
FORMAT_VERSION = 3
#: versions this build opens (it only ever writes ``FORMAT_VERSION``)
_READABLE_VERSIONS = (2, FORMAT_VERSION)
DEFAULT_PAGE_SIZE = 4096
#: magic, version, checksum kind, page_size, epoch, npages, free_page,
#: free_len, table_page, table_len, oid_counter
_SLOT_FMT = "<4sHHIQQQQQQQ"
_SLOT_STRUCT_SIZE = struct.calcsize(_SLOT_FMT)
CHECKSUM_LEN = 4
SLOT_SIZE = _SLOT_STRUCT_SIZE + CHECKSUM_LEN  # 72 bytes
HEADER_SLOTS = 2
#: page 0 must hold both header slots; data pages need room for the chain
#: link, the checksum trailer, and a useful payload
MIN_PAGE_SIZE = HEADER_SLOTS * SLOT_SIZE
MAX_PAGE_SIZE = 1 << 24
_CHAIN_LINK = 8  # bytes reserved per data page for the next-page pointer


class PageError(Exception):
    """Corrupt page file or invalid page operation."""


@dataclass(slots=True)
class Header:
    """The mutable header state of a page file (one slot's worth)."""

    page_size: int
    npages: int
    free_page: int
    free_len: int
    table_page: int
    table_len: int
    oid_counter: int
    epoch: int = 0
    checksum_kind: str = "crc32"
    #: format version of the slot (as read; every write is FORMAT_VERSION)
    version: int = FORMAT_VERSION

    def pack(self) -> bytes:
        """Serialize into one checksummed header slot."""
        kind_id, crc = CHECKSUM_KINDS[self.checksum_kind]
        packed = struct.pack(
            _SLOT_FMT,
            MAGIC,
            self.version,
            kind_id,
            self.page_size,
            self.epoch,
            self.npages,
            self.free_page,
            self.free_len,
            self.table_page,
            self.table_len,
            self.oid_counter,
        )
        return packed + struct.pack("<I", crc(packed))

    @classmethod
    def unpack(cls, raw: bytes) -> "Header":
        """Parse and *validate* one header slot.

        A garbage slot fails here with a specific :class:`PageError` —
        checksum mismatch, bad magic, unsupported version/kind, or an
        absurd field value — never a downstream ``struct`` error.
        """
        if len(raw) < SLOT_SIZE:
            raise PageError("truncated header slot")
        (
            magic,
            version,
            kind_id,
            page_size,
            epoch,
            npages,
            free_page,
            free_len,
            table_page,
            table_len,
            oid_counter,
        ) = struct.unpack(_SLOT_FMT, raw[:_SLOT_STRUCT_SIZE])
        if magic != MAGIC:
            if magic == MAGIC_V1:
                raise PageError("format v1 header in a v2 slot")
            raise PageError("bad magic: not a Tycoon store file")
        if version not in _READABLE_VERSIONS:
            raise PageError(f"unsupported format version {version}")
        kind = kind_name(kind_id)
        if kind is None:
            raise PageError(f"unsupported checksum kind id {kind_id}")
        (stored_crc,) = struct.unpack(
            "<I", raw[_SLOT_STRUCT_SIZE : _SLOT_STRUCT_SIZE + CHECKSUM_LEN]
        )
        if checksum_fn(kind)(raw[:_SLOT_STRUCT_SIZE]) != stored_crc:
            raise PageError("header slot checksum mismatch")
        if page_size == 0 or not MIN_PAGE_SIZE <= page_size <= MAX_PAGE_SIZE:
            raise PageError(f"absurd page size {page_size}")
        if npages < 1:
            raise PageError(f"absurd page count {npages}")
        if free_page >= npages:
            raise PageError(f"free-list record page {free_page} beyond {npages} pages")
        if table_page >= npages:
            raise PageError(f"object table page {table_page} beyond {npages} pages")
        if table_len > npages * page_size or free_len > npages * page_size:
            raise PageError("record length exceeds the file")
        return cls(
            page_size=page_size,
            npages=npages,
            free_page=free_page,
            free_len=free_len,
            table_page=table_page,
            table_len=table_len,
            oid_counter=oid_counter,
            epoch=epoch,
            checksum_kind=kind,
            version=version,
        )


def _default_file_factory(path: str, mode: str):
    return open(path, mode)


class Pager:
    """Page allocation and chained-record I/O over a single file."""

    def __init__(
        self,
        path: str | os.PathLike,
        page_size: int = DEFAULT_PAGE_SIZE,
        checksum: str | None = None,
        file_factory: Callable[[str, str], object] | None = None,
        migrate: bool = True,
    ):
        if page_size < MIN_PAGE_SIZE or page_size < _CHAIN_LINK + CHECKSUM_LEN + 16:
            raise PageError(f"page size {page_size} too small")
        if checksum is not None and checksum not in CHECKSUM_KINDS:
            raise PageError(f"unknown checksum kind {checksum!r}")
        self.path = os.fspath(path)
        self._open_file = file_factory or _default_file_factory
        #: LIFO of reusable page ids (shadow-paged: persisted by sync_header)
        self._free: list[int] = []
        self._free_set: set[int] = set()
        #: per-slot status from the last recovery: (header | None, error | None)
        self.slot_status: list[tuple[Header | None, str | None]] = []
        #: non-None when the free-list record could not be read at open
        self.free_list_error: str | None = None
        existed = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        self._file = self._open_file(self.path, "r+b" if existed else "w+b")
        #: guards every seek+read / seek+write pair on ``_file``: snapshot
        #: readers hold only the shared side of the store's RWLock, so two
        #: of them (or a reader and the scrub) can be inside the pager at
        #: once, and a seek landing between another thread's seek and its
        #: read hands that thread the wrong page
        self._io_lock = threading.Lock()
        if existed:
            if self._read_at(0, 4) == MAGIC_V1:
                self._migrate_v1(migrate)
            self._recover(page_size, checksum)
        else:
            self.header = Header(
                page_size=page_size,
                npages=1,
                free_page=0,
                free_len=0,
                table_page=0,
                table_len=0,
                oid_counter=1,
                epoch=0,
                checksum_kind=checksum or "crc32",
            )
            self._checksum = checksum_fn(self.header.checksum_kind)
            # fresh page 0: all zeros, both slots invalid until the first sync
            self._write_at(0, b"\x00" * page_size)
            self._active_slot = 1  # first sync_header publishes into slot 0
            self.sync_header()

    # ------------------------------------------------------------- recovery

    def _migrate_v1(self, migrate: bool) -> None:
        """Rewrite a v1 image in place as v2, then continue the open."""
        if not migrate:
            raise PageError(
                "format v1 image: open with migrate=True or run "
                "`python -m repro fsck`"
            )
        self._file.close()
        from repro.store.format import migrate_v1_image  # circular-import guard

        migrate_v1_image(self.path)
        self._file = self._open_file(self.path, "r+b")

    def _recover(self, page_size: int, checksum: str | None) -> None:
        """Pick the newest header slot that verifies (dual-header recovery)."""
        raw = self._read_at(0, HEADER_SLOTS * SLOT_SIZE)
        self.slot_status = []
        candidates: list[tuple[int, Header]] = []
        torn_slots = 0
        for slot in range(HEADER_SLOTS):
            slice_ = raw[slot * SLOT_SIZE : (slot + 1) * SLOT_SIZE]
            try:
                header = Header.unpack(slice_)
            except PageError as exc:
                self.slot_status.append((None, str(exc)))
                if any(slice_):  # a written-then-corrupted slot, not fresh zeros
                    torn_slots += 1
                continue
            self.slot_status.append((header, None))
            candidates.append((slot, header))
        if not candidates:
            raise PageError(
                f"no valid header slot in {self.path!r}: "
                + "; ".join(err or "ok" for _, err in self.slot_status)
            )
        slot, header = max(candidates, key=lambda item: item[1].epoch)
        if torn_slots:
            _HEADER_RECOVERIES.inc()
        self._active_slot = slot
        self.header = header
        self._checksum = checksum_fn(header.checksum_kind)
        if header.page_size != page_size and page_size != DEFAULT_PAGE_SIZE:
            raise PageError(
                f"file has page size {header.page_size}, asked {page_size}"
            )
        if checksum is not None and checksum != header.checksum_kind:
            raise PageError(
                f"file uses checksum {header.checksum_kind!r}, asked {checksum!r}"
            )
        self._load_free_list()

    def reload(self) -> None:
        """Re-read the durable header, free list and page count from disk.

        After a commit fails mid-publish on an I/O error (disk full, EIO,
        fsync failure), the in-memory header, free list and ``npages`` may
        have diverged from the durable state — pages were allocated and
        chains written for a commit that never reached its commit point.
        Re-running recovery discards that divergence: the pager returns to
        exactly the state the last *successful* ``sync_header`` persisted,
        and the orphaned pages are reclaimable by ``fsck --repair``.
        """
        self._recover(self.header.page_size, None)

    def _load_free_list(self) -> None:
        """Load the shadow-paged free-list record into memory.

        An unreadable record (media fault on its pages) degrades to an
        empty free list: the affected pages *leak* until ``repro fsck
        --repair`` rebuilds the list, but no live data is ever at risk.
        """
        self._free = []
        self._free_set = set()
        self.free_list_error = None
        if not self.header.free_page:
            return
        try:
            raw = self.read_chain(self.header.free_page, self.header.free_len)
            count = len(raw) // 8
            ids = struct.unpack(f"<{count}Q", raw[: count * 8])
        except PageError as exc:
            self.free_list_error = str(exc)
            _FREE_LIST_RESETS.inc()
            return
        for page_id in ids:
            if 1 <= page_id < self.header.npages and page_id not in self._free_set:
                self._free.append(page_id)
                self._free_set.add(page_id)

    # ------------------------------------------------------------- raw I/O

    @property
    def page_size(self) -> int:
        return self.header.page_size

    @property
    def page_capacity(self) -> int:
        """Payload bytes per page (page size minus the checksum trailer)."""
        return self.header.page_size - CHECKSUM_LEN

    @property
    def chain_capacity(self) -> int:
        """Payload bytes per chained-record page."""
        return self.page_capacity - _CHAIN_LINK

    def _read_at(self, offset: int, size: int) -> bytes:
        with self._io_lock:
            self._file.seek(offset)
            return _read_exact(self._file, size)

    def _write_at(self, offset: int, data: bytes) -> None:
        with self._io_lock:
            self._file.seek(offset)
            self._file.write(data)

    def _read_raw(self, page_id: int) -> bytes:
        raw = self._read_at(page_id * self.header.page_size, self.header.page_size)
        _PAGE_READS.inc()
        _BYTES_READ.inc(self.header.page_size)
        return raw

    def _write_raw(self, page_id: int, data: bytes) -> None:
        if len(data) > self.header.page_size:
            raise PageError("page overflow")
        padded = data + b"\x00" * (self.header.page_size - len(data))
        self._write_at(page_id * self.header.page_size, padded)
        _PAGE_WRITES.inc()
        _BYTES_WRITTEN.inc(len(data))

    def _write_page(self, page_id: int, payload: bytes) -> None:
        """Write a data page: zero-padded payload plus checksum trailer."""
        capacity = self.page_capacity
        if len(payload) > capacity:
            raise PageError("page overflow")
        body = payload + b"\x00" * (capacity - len(payload))
        self._write_raw(page_id, body + struct.pack("<I", self._checksum(body)))

    def _read_page(self, page_id: int, verify: bool = True) -> bytes:
        """Read a data page's payload, verifying the checksum trailer."""
        raw = self._read_raw(page_id)
        body = raw[: self.page_capacity]
        if verify:
            (stored,) = struct.unpack("<I", raw[self.page_capacity :][:CHECKSUM_LEN])
            if self._checksum(body) != stored:
                _CHECKSUM_FAILURES.inc()
                raise PageError(f"checksum mismatch on page {page_id}")
        return body

    def read(self, page_id: int, verify: bool = True) -> bytes:
        if not 1 <= page_id < self.header.npages:
            raise PageError(f"page {page_id} out of range")
        return self._read_page(page_id, verify=verify)

    def write(self, page_id: int, data: bytes) -> None:
        if not 1 <= page_id < self.header.npages:
            raise PageError(f"page {page_id} out of range")
        self._write_page(page_id, data)

    # --------------------------------------------------------- allocation

    def allocate(self) -> int:
        """Take a page from the free list, or grow the file."""
        _PAGES_ALLOCATED.inc()
        if self._free:
            page_id = self._free.pop()
            self._free_set.discard(page_id)
            return page_id
        return self._grow()

    def _grow(self) -> int:
        page_id = self.header.npages
        self.header.npages += 1
        self._write_page(page_id, b"")
        return page_id

    def release(self, page_id: int) -> None:
        """Return a page to the free list (pure bookkeeping, no page write)."""
        if not 1 <= page_id < self.header.npages:
            raise PageError(f"cannot release page {page_id}")
        if page_id in self._free_set:
            raise PageError(f"double free of page {page_id}")
        self._free.append(page_id)
        self._free_set.add(page_id)

    def free_pages(self) -> list[int]:
        """The current reusable page ids (newest first)."""
        return list(reversed(self._free))

    # ------------------------------------------------------------- chains

    def write_chain(self, payload: bytes) -> int:
        """Store a record across chained pages; returns the head page id."""
        chunks = self._chunks(payload)
        pages = [self.allocate() for _ in chunks]
        self._write_chain_into(pages, chunks)
        return pages[0]

    def _chunks(self, payload: bytes) -> list[bytes]:
        capacity = self.chain_capacity
        chunks = [payload[i : i + capacity] for i in range(0, len(payload), capacity)]
        return chunks or [b""]

    def _write_chain_into(self, pages: list[int], chunks: list[bytes]) -> None:
        for index, (page_id, chunk) in enumerate(zip(pages, chunks)):
            next_id = pages[index + 1] if index + 1 < len(pages) else 0
            self._write_page(page_id, struct.pack("<Q", next_id) + chunk)

    def _next_link(self, page_id: int, raw: bytes, visited: set[int]) -> int:
        """Decode and validate a chain's next-pointer (cycle/range checks)."""
        (next_id,) = struct.unpack("<Q", raw[:_CHAIN_LINK])
        if next_id:
            if not 1 <= next_id < self.header.npages:
                raise PageError(
                    f"chain link {next_id} out of range on page {page_id}"
                )
            if next_id in visited:
                raise PageError(f"chain cycle: page {next_id} linked twice")
        return next_id

    def read_chain(self, head: int, length: int) -> bytes:
        """Read ``length`` payload bytes from a page chain."""
        capacity = self.chain_capacity
        out = bytearray()
        page_id = head
        remaining = length
        visited: set[int] = set()
        while remaining > 0:
            if page_id == 0:
                raise PageError("record chain truncated")
            visited.add(page_id)
            raw = self.read(page_id)
            take = min(remaining, capacity)
            out += raw[_CHAIN_LINK : _CHAIN_LINK + take]
            remaining -= take
            page_id = self._next_link(page_id, raw, visited)
        return bytes(out)

    def release_chain(self, head: int, length: int) -> None:
        """Free every page of a record chain (cycle-safe, never double-frees)."""
        for page_id in self.chain_pages(head, length):
            self.release(page_id)

    def chain_pages(self, head: int, length: int) -> list[int]:
        """The page ids of a record chain, in order (checksum-verified)."""
        capacity = self.chain_capacity
        pages: list[int] = []
        page_id = head
        remaining = max(length, 1)  # zero-length records still own one page
        visited: set[int] = set()
        while remaining > 0 and page_id:
            if not 1 <= page_id < self.header.npages:
                raise PageError(f"chain page {page_id} out of range")
            visited.add(page_id)
            pages.append(page_id)
            raw = self.read(page_id)
            remaining -= capacity
            page_id = self._next_link(page_id, raw, visited)
        return pages

    # ------------------------------------------------------------ durability

    def _fsync(self) -> None:
        fsync = getattr(self._file, "fsync", None)
        if fsync is not None:
            fsync()
        else:
            self._file.flush()
            os.fsync(self._file.fileno())

    def sync_header(self) -> None:
        """Publish the current state — the dual-slot commit point.

        Persists the free list as a fresh shadow-paged record (never onto
        pages the durable snapshot still references — callers must release
        pages the previous snapshot uses only *after* a sync, as the heap
        does), makes all data durable, then writes the *inactive* header
        slot with a bumped epoch and fsyncs.  A torn slot write leaves the
        previous slot — and thus the previous commit — authoritative.
        """
        _HEADER_SYNCS.inc()
        old_free = (self.header.free_page, self.header.free_len)
        spares: list[int] = []
        if self._free:
            # the record's own pages may come from the free list: free pages
            # hold no meaningful content, and the *durable* old record's
            # chain pages are never in the in-memory list at this point.
            # Pop an upper bound first (popping shrinks the list, so the
            # final payload can only need fewer pages, never more).  When
            # the list is too small to survive the popping, grow instead —
            # the record must never swallow the last reusable pages.
            needed = max(1, -(-(8 * len(self._free)) // self.chain_capacity))
            if len(self._free) > needed:
                pages = [self.allocate() for _ in range(needed)]
            else:
                pages = [self._grow() for _ in range(needed)]
            payload = struct.pack(f"<{len(self._free)}Q", *self._free)
            chunks = self._chunks(payload)
            spares = pages[len(chunks) :]
            pages = pages[: len(chunks)]
            self._write_chain_into(pages, chunks)
            self.header.free_page = pages[0]
            self.header.free_len = len(payload)
        else:
            self.header.free_page = 0
            self.header.free_len = 0
        self._file.flush()
        self._fsync()  # data durable before the header points at it
        self.header.epoch += 1
        self.header.version = FORMAT_VERSION  # a v2 image becomes v3 here
        target = (self._active_slot + 1) % HEADER_SLOTS
        self._write_at(target * SLOT_SIZE, self.header.pack())
        self._file.flush()
        self._fsync()  # the commit point
        self._active_slot = target
        # the superseded free-list record (and any over-reserved spare
        # pages) are reclaimable now; they are persisted as free by the
        # *next* sync (a crash before then leaks them — bounded, and
        # `repro fsck --repair` sweeps leaks)
        for page_id in spares:
            self.release(page_id)
        if old_free[0]:
            for page_id in self.chain_pages(*old_free):
                if page_id not in self._free_set:
                    self.release(page_id)

    def close(self) -> None:
        if not getattr(self._file, "closed", True):
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def file_size(self) -> int:
        return self.header.npages * self.header.page_size

    def image_info(self) -> dict:
        """Identity and durability state of the open image (ping/fsck)."""
        return {
            "path": self.path,
            "format": self.header.version,
            "page_size": self.header.page_size,
            "npages": self.header.npages,
            "epoch": self.header.epoch,
            "checksum": self.header.checksum_kind,
            "active_slot": self._active_slot,
            "free_pages": len(self._free),
        }


def _read_exact(file, count: int) -> bytes:
    """Read ``count`` bytes, retrying short reads; zero-pad at EOF."""
    chunks: list[bytes] = []
    remaining = count
    short = False
    while remaining > 0:
        chunk = file.read(remaining)
        if not chunk:
            break  # EOF: pages past the end read as zeros (caught by checksums)
        if len(chunk) < remaining:
            short = True
        chunks.append(chunk)
        remaining -= len(chunk)
    if short and remaining == 0:
        _SHORT_READS.inc()
    raw = b"".join(chunks)
    if remaining > 0:
        raw += b"\x00" * remaining
    return raw
