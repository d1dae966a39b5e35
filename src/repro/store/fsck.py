"""Offline integrity checking and repair — ``python -m repro fsck``.

:func:`fsck_image` walks every structure of a store image and reports
findings at three severities:

* **error** — integrity is violated: an invalid header slot pair, a page
  failing its checksum, an undecodable payload, a dangling OID reference,
  a root naming a missing object, a page claimed both free and in use, or
  an unreadable free-list record;
* **warn** — suspicious but safe: a torn (invalid, non-empty) header
  slot that dual-header recovery routed around, or an intact object no
  root can reach;
* **info** — bookkeeping: leaked pages (unreferenced and not on the free
  list — the expected residue of a crash between the two header syncs of
  a commit), format/geometry facts.

With ``repair=True`` the image is rewritten in place:

* corrupt objects are **quarantined** — removed from the object table and
  recorded (OID → reason) in a ``__fsck_quarantine__`` root, so intact
  objects are never lost and the damage stays diagnosable;
* roots that named a corrupt object are detached (and recorded);
* unreachable-but-intact objects are kept and listed in the quarantine
  record, which *makes* them reachable for later triage;
* the free list is rebuilt from scratch (every page that no live chain
  references becomes free), clearing leaks and free/in-use conflicts;
* one complete table record (the object table is a chain of records,
  :mod:`repro.store.table`; every record of it is checked and accounted)
  and the header are committed through the normal dual-slot protocol,
  which also overwrites any torn header slot.

Format v1 images are checked logically (via :mod:`repro.store.format`)
and left untouched unless ``repair=True``, which migrates them to v3
first.  The crash harness (:mod:`repro.testing.chaos.crash`) runs fsck over
every post-crash image and requires zero errors.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.syntax import Oid
from repro.obs.metrics import METRICS
from repro.store.pager import (
    DEFAULT_PAGE_SIZE,
    FORMAT_VERSION,
    MAGIC_V1,
    PageError,
    Pager,
)
from repro.store.serialize import decode_value, encode_value
from repro.store.table import encode_table, load_table

__all__ = ["Finding", "FsckResult", "fsck_image", "QUARANTINE_ROOT"]

_FSCK_RUNS = METRICS.counter("store.fsck.runs", "fsck invocations")
_FSCK_ERRORS = METRICS.counter("store.fsck.errors_found", "error findings")
_FSCK_QUARANTINED = METRICS.counter(
    "store.fsck.objects_quarantined", "objects quarantined by --repair"
)
_FSCK_PAGES_RECLAIMED = METRICS.counter(
    "store.fsck.pages_reclaimed", "leaked pages returned to the free list"
)

QUARANTINE_ROOT = "__fsck_quarantine__"


@dataclass(slots=True)
class Finding:
    severity: str  # "error" | "warn" | "info"
    code: str  # stable machine-readable kind, e.g. "checksum-mismatch"
    message: str
    page: int | None = None
    oid: int | None = None

    def as_dict(self) -> dict:
        out = {"severity": self.severity, "code": self.code, "message": self.message}
        if self.page is not None:
            out["page"] = self.page
        if self.oid is not None:
            out["oid"] = self.oid
        return out


@dataclass
class FsckResult:
    path: str
    format: int | None = None
    findings: list[Finding] = field(default_factory=list)
    objects_checked: int = 0
    pages_referenced: int = 0
    leaked_pages: list[int] = field(default_factory=list)
    repaired: bool = False
    quarantined: dict[int, str] = field(default_factory=dict)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warn"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def add(self, severity: str, code: str, message: str, **kw) -> None:
        self.findings.append(Finding(severity, code, message, **kw))
        if severity == "error":
            _FSCK_ERRORS.inc()

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "ok": self.ok,
            "format": self.format,
            "objects_checked": self.objects_checked,
            "pages_referenced": self.pages_referenced,
            "leaked_pages": len(self.leaked_pages),
            "repaired": self.repaired,
            "quarantined": {str(k): v for k, v in self.quarantined.items()},
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "findings": [f.as_dict() for f in self.findings],
        }


def _fsck_v1(path: str, result: FsckResult, repair: bool) -> FsckResult:
    from repro.store.format import migrate_v1_image, read_v1_image

    result.format = 1
    try:
        image = read_v1_image(path)
    except Exception as exc:
        result.add("error", "v1-unreadable", f"format v1 image unreadable: {exc}")
        return result
    result.objects_checked = len(image.objects)
    result.add(
        "info",
        "format-v1",
        f"format v1 image ({len(image.objects)} objects, "
        f"{len(image.roots)} roots); opens migrate it to v{FORMAT_VERSION}",
    )
    for oid, payload in image.objects.items():
        try:
            decode_value(payload, resolver=lambda ref: ref)
        except Exception as exc:
            result.add(
                "error", "undecodable", f"oid {oid} does not decode: {exc}", oid=oid
            )
    if repair and result.ok:
        summary = migrate_v1_image(path)
        result.repaired = True
        result.add(
            "info",
            "migrated",
            f"migrated to format v{summary['to_format']} ({summary['objects']} objects)",
        )
    return result


def fsck_image(
    path: str | os.PathLike,
    page_size: int = DEFAULT_PAGE_SIZE,
    repair: bool = False,
) -> FsckResult:
    """Check (and optionally repair) a store image; see module docstring."""
    _FSCK_RUNS.inc()
    _register_codecs()
    path = os.fspath(path)
    result = FsckResult(path=path)
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        result.add("error", "missing", f"no such image: {path}")
        return result
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == MAGIC_V1:
        return _fsck_v1(path, result, repair)

    try:
        pager = Pager(path, page_size, migrate=False)
    except PageError as exc:
        result.add("error", "unopenable", f"image does not open: {exc}")
        return result
    try:
        return _fsck_v2(pager, result, repair)
    finally:
        pager.close()


def _register_codecs() -> None:
    """Register the codecs of the domain objects an image holds: stored
    modules (``tl-module``) and relations (``relation``).  Their modules
    register them on import, which a fresh ``python -m repro fsck`` does
    not otherwise do; without them every such object reads as undecodable."""
    import repro.lang.modules  # noqa: F401
    import repro.query.relation  # noqa: F401


def _fsck_v2(pager: Pager, result: FsckResult, repair: bool) -> FsckResult:
    header = pager.header
    result.format = header.version
    result.add(
        "info",
        "geometry",
        f"format v{header.version}, page_size={header.page_size}, npages={header.npages}, "
        f"epoch={header.epoch}, checksum={header.checksum_kind}",
    )

    # --- header slots -----------------------------------------------------
    for slot, (slot_header, err) in enumerate(pager.slot_status):
        if slot_header is None:
            result.add(
                "warn",
                "torn-header-slot",
                f"header slot {slot} invalid ({err}); recovered via the other slot",
            )
    if pager.free_list_error is not None:
        result.add(
            "error",
            "free-list-unreadable",
            f"free-list record unreadable: {pager.free_list_error}; "
            "its pages leak until repaired",
        )

    # --- object table -----------------------------------------------------
    table: dict[int, tuple[int, int]] = {}
    roots: dict[str, int] = {}
    referenced: set[int] = set()
    if header.free_page and pager.free_list_error is None:
        referenced.update(pager.chain_pages(header.free_page, header.free_len))
    if header.table_page:
        try:
            table, roots, records, _ = load_table(
                pager.read_chain, header.table_page, header.table_len
            )
            record_pages = [pager.chain_pages(*record) for record in records]
        except Exception as exc:
            result.add(
                "error",
                "table-unreadable",
                f"object table unreadable: {exc}; object walk impossible",
                page=header.table_page,
            )
            return result
        referenced.update(page for pages in record_pages for page in pages)
        result.add(
            "info",
            "table-chain",
            f"object table is a chain of {len(records)} record(s) on "
            f"{sum(map(len, record_pages))} page(s), the complete one on "
            f"{len(record_pages[0])}",
        )

    # --- objects: chains, checksums, payload decode, references -----------
    corrupt: dict[int, str] = {}
    outrefs: dict[int, set[int]] = {}
    chain_pages: dict[int, list[int]] = {}
    for oid, (head, length) in sorted(table.items()):
        result.objects_checked += 1
        try:
            pages = pager.chain_pages(head, length)
        except PageError as exc:
            corrupt[oid] = f"chain unreadable: {exc}"
            result.add("error", "chain-corrupt", f"oid {oid}: {exc}", oid=oid)
            continue
        overlap = referenced.intersection(pages)
        if overlap:
            corrupt[oid] = f"chain shares pages {sorted(overlap)} with another record"
            result.add(
                "error",
                "chain-overlap",
                f"oid {oid}: {corrupt[oid]}",
                oid=oid,
                page=min(overlap),
            )
            continue
        chain_pages[oid] = pages
        referenced.update(pages)
        try:
            raw = pager.read_chain(head, length)
            refs: set[int] = set()

            def _record(ref: Oid, _refs=refs) -> Oid:
                _refs.add(ref.value)
                return ref

            decode_value(raw, resolver=_record)
            outrefs[oid] = refs
        except Exception as exc:
            corrupt[oid] = f"payload does not decode: {exc}"
            result.add("error", "undecodable", f"oid {oid}: {corrupt[oid]}", oid=oid)

    # --- reference and root integrity -------------------------------------
    for oid, refs in sorted(outrefs.items()):
        for ref in sorted(refs):
            if ref not in table:
                result.add(
                    "error",
                    "dangling-ref",
                    f"oid {oid} references missing oid {ref}",
                    oid=oid,
                )
    for name, oid in sorted(roots.items()):
        if oid not in table:
            result.add(
                "error", "dangling-root", f"root {name!r} names missing oid {oid}",
                oid=oid,
            )
        elif oid in corrupt:
            result.add(
                "error",
                "root-corrupt",
                f"root {name!r} names corrupt oid {oid}",
                oid=oid,
            )

    # --- reachability ------------------------------------------------------
    reachable: set[int] = set()
    stack = [oid for oid in roots.values() if oid in table]
    while stack:
        oid = stack.pop()
        if oid in reachable:
            continue
        reachable.add(oid)
        stack.extend(
            ref for ref in outrefs.get(oid, ()) if ref in table and ref not in reachable
        )
    unreachable = sorted(set(table) - reachable - set(corrupt))
    for oid in unreachable:
        result.add(
            "warn", "unreachable", f"oid {oid} is reachable from no root", oid=oid
        )

    # --- page accounting ---------------------------------------------------
    free = set(pager.free_pages())
    conflicts = sorted(free & referenced)
    for page in conflicts:
        result.add(
            "error", "free-in-use", f"page {page} is both free and referenced",
            page=page,
        )
    result.pages_referenced = len(referenced)
    all_pages = set(range(1, header.npages))
    result.leaked_pages = sorted(all_pages - referenced - free)
    if result.leaked_pages:
        result.add(
            "info",
            "leaked-pages",
            f"{len(result.leaked_pages)} leaked pages "
            "(expected after a crash; --repair reclaims them)",
        )

    if repair:
        _repair_v2(pager, result, table, roots, corrupt, unreachable)
    return result


def _repair_v2(
    pager: Pager,
    result: FsckResult,
    table: dict[int, tuple[int, int]],
    roots: dict[str, int],
    corrupt: dict[int, str],
    unreachable: list[int],
) -> None:
    """Rewrite the image: quarantine damage, rebuild the free list."""
    header = pager.header
    keep = {oid: entry for oid, entry in table.items() if oid not in corrupt}
    quarantine: dict[int, str] = dict(corrupt)
    for oid in unreachable:
        quarantine.setdefault(oid, "unreachable from any root")
    new_roots = {}
    for name, oid in roots.items():
        if oid in corrupt or oid not in table:
            quarantine[oid] = (
                quarantine.get(oid, "missing") + f"; was root {name!r}"
            )
            result.add(
                "info", "root-detached", f"root {name!r} detached by repair", oid=oid
            )
        else:
            new_roots[name] = oid

    # rebuild the free list from first principles: every page no kept chain
    # uses is free (this also clears leaks and free/in-use conflicts, and
    # retires the old free-list record and table chains wholesale)
    referenced: set[int] = set()
    for oid, (head, length) in list(keep.items()):
        try:
            referenced.update(pager.chain_pages(head, length))
        except PageError as exc:  # pragma: no cover - caught in the check pass
            keep.pop(oid)
            quarantine[oid] = f"chain unreadable: {exc}"
    free = sorted(set(range(1, header.npages)) - referenced, reverse=True)
    reclaimed = len(free) - (header.npages - 1 - result.pages_referenced)
    pager._free = free
    pager._free_set = set(free)
    header.free_page = 0  # superseded record is already in the rebuilt list
    header.free_len = 0

    if quarantine:
        payload = encode_value({str(oid): why for oid, why in quarantine.items()})
        qoid = header.oid_counter
        header.oid_counter += 1
        keep[qoid] = (pager.write_chain(payload), len(payload))
        new_roots[QUARANTINE_ROOT] = qoid
        _FSCK_QUARANTINED.inc(len(quarantine))

    raw = encode_table(keep, new_roots)  # one complete record: the chain restarts
    header.table_page = pager.write_chain(raw)
    header.table_len = len(raw)
    pager.sync_header()

    result.repaired = True
    result.quarantined = quarantine
    _FSCK_PAGES_RECLAIMED.inc(max(len(result.leaked_pages), 0))
    result.add(
        "info",
        "repaired",
        f"repair committed: {len(keep)} objects kept, "
        f"{len(quarantine)} quarantined, free list rebuilt "
        f"({len(free)} free pages, {max(reclaimed, 0)} newly reclaimed)",
    )
