"""Disaster recovery: commit-log archiving, backup and point-in-time restore.

The paper's premise — one persistent image holding code *and* data — makes
the image a single point of total loss.  Crash recovery (shadow paging),
replication and degraded mode protect against process death, node loss and
disk faults, but three disaster classes need *history*, not redundancy:

* a logically bad committed write (operator error, buggy client) is
  faithfully replicated everywhere — only replay-to-a-point undoes it;
* silent bit rot on cold pages survives until something reads them;
* ``CommitLog.reset()`` discards records, so the log alone is not history.

This module closes the history gap with three cooperating pieces:

**Continuous archiving** — :class:`LogArchiver` seals commit-log records
into checksummed archive segments (``IMAGE.archive/NNNNNN.tylg``, the same
TYLG framing + CRC32 the live log uses) before they can be destroyed.  It
hooks :attr:`CommitLog.retention` (invoked by ``reset()``) so the only
operation that discards records archives them first, and it can seal the
live tail on demand (incremental backup).  A JSON manifest records
``[first_version, last_version, term]`` per segment and the high-water
``sealed_version``; every write is fsync + atomic-rename.

**Backup** — :func:`full_backup` copies the image page-for-page at a
commit boundary (hold a read transaction on a live server: commits are
excluded, so the file is static) and refuses to publish a copy that does
not pass :func:`repro.store.fsck.fsck_image`.  :func:`incremental_backup`
seals the live log tail and ships only the archive segments the backup
directory does not have yet.

**Point-in-time restore** — :func:`restore_image` replays archived
:class:`ChangeRecord`s through :meth:`ObjectHeap.apply_changes` onto the
base copy, stopping at ``--to-version``/``--to-ts``, and publishes the
result only after it fscks clean.  Both backup and restore build their
artifact under a temporary name and ``os.replace`` it into place, so a
crash mid-way never leaves a non-fsck-clean artifact at the final path.
"""

from __future__ import annotations

import json
import os
import time
import threading

from repro.obs.metrics import METRICS
from repro.store.commitlog import (
    LOG_FORMAT,
    LOG_HEADER,
    CommitLog,
    CommitLogError,
    pack_frame,
    read_format,
    read_frame,
)
from repro.store.fsck import fsck_image
from repro.store.heap import ObjectHeap

__all__ = [
    "ArchiveError",
    "LogArchiver",
    "archive_dir",
    "commitlog_path",
    "iter_archive",
    "stale_segments",
    "load_manifest",
    "full_backup",
    "incremental_backup",
    "restore_image",
    "backup_info",
]

_SEALS = METRICS.counter("store.archive.seals", "archive segments sealed")
_SEALED_RECORDS = METRICS.counter(
    "store.archive.records", "change records sealed into archive segments"
)
_SEALED_BYTES = METRICS.counter(
    "store.archive.bytes", "record payload bytes sealed into archive segments"
)
_ARCHIVE_ERRORS = METRICS.counter(
    "store.archive.errors", "archive seal attempts that failed"
)
_BACKUPS = METRICS.counter("store.recovery.backups", "backups taken (full + incremental)")
_RESTORES = METRICS.counter("store.recovery.restores", "restores completed")
_REPLAYED = METRICS.counter(
    "store.recovery.records_replayed", "archived records replayed by restores"
)

MANIFEST_FORMAT = 1
MANIFEST_NAME = "manifest.json"
BACKUP_META_NAME = "backup.json"
BASE_IMAGE_NAME = "base.tyc"
#: the committed ``__replication__`` root (mirrors
#: repro.server.replication.REPL_ROOT without a store→server import)
_REPL_ROOT = "__replication__"
#: bytes copied per write while duplicating an image (small enough that a
#: fault plan's per-op crash points land *inside* a backup/restore copy)
_COPY_CHUNK = 64 * 1024


class ArchiveError(Exception):
    """Corrupt/missing archive state or an invalid backup/restore request."""


def archive_dir(image_path: str | os.PathLike) -> str:
    """The archive directory of an image (``IMAGE.archive/``)."""
    return os.fspath(image_path) + ".archive"


def commitlog_path(image_path: str | os.PathLike) -> str:
    """The sidecar commit log of an image (``IMAGE.commitlog``)."""
    return os.fspath(image_path) + ".commitlog"


# --------------------------------------------------------------- file plumbing


def _open_file(path: str, mode: str, file_factory=None):
    return file_factory(path, mode) if file_factory is not None else open(path, mode)


def _fsync_file(f) -> None:
    # FaultFile exposes fsync() (routing through the fault plan); plain
    # binary files need flush + os.fsync
    if hasattr(f, "fsync"):
        f.fsync()
    else:
        f.flush()
        os.fsync(f.fileno())


def _fsync_dir(path: str) -> None:
    fd = os.open(path or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_atomic(
    path: str, data: bytes, *, fsync: bool = True, file_factory=None
) -> None:
    """Write ``data`` to ``path`` via tmp + fsync + atomic rename."""
    tmp = path + ".tmp"
    f = _open_file(tmp, "wb", file_factory)
    try:
        for off in range(0, len(data), _COPY_CHUNK):
            f.write(data[off : off + _COPY_CHUNK])
        if fsync:
            _fsync_file(f)
    finally:
        f.close()
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(os.path.dirname(path))


def _copy_file(
    src: str, dst: str, *, fsync: bool = True, file_factory=None
) -> int:
    """Copy ``src`` to ``dst`` (non-atomic; callers rename afterwards)."""
    total = 0
    out = _open_file(dst, "wb", file_factory)
    try:
        with open(src, "rb") as inp:
            while True:
                chunk = inp.read(_COPY_CHUNK)
                if not chunk:
                    break
                out.write(chunk)
                total += len(chunk)
        if fsync:
            _fsync_file(out)
    finally:
        out.close()
    return total


# -------------------------------------------------------------------- manifest


def load_manifest(directory: str) -> dict:
    """The archive manifest of ``directory`` (empty defaults when absent)."""
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError:
        return {"format": MANIFEST_FORMAT, "sealed_version": 0, "segments": []}
    except (OSError, json.JSONDecodeError) as exc:
        raise ArchiveError(f"corrupt archive manifest {path!r}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise ArchiveError(f"unsupported archive manifest format in {path!r}")
    manifest.setdefault("sealed_version", 0)
    manifest.setdefault("segments", [])
    return manifest


def _store_manifest(
    directory: str, manifest: dict, *, fsync: bool = True, file_factory=None
) -> None:
    data = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
    _write_atomic(
        os.path.join(directory, MANIFEST_NAME),
        data,
        fsync=fsync,
        file_factory=file_factory,
    )


# -------------------------------------------------------------------- segments


def read_segment(path: str):
    """Iterate the records of one archive segment, CRC-verified.

    A torn tail (the segment was never durably sealed — e.g. the archive
    fsync was skipped and the machine died) simply ends the iteration;
    restore's contiguity check is what surfaces the resulting hole.  A
    segment sealed under another commit-log format is refused with
    :class:`ArchiveError`: its records mean something else (a format-3
    record lists the whole root directory, and replayed as a delta it
    would keep every root that history removed).
    """
    try:
        with open(path, "rb") as f:
            fmt = read_format(f)
            if fmt is None:
                return
            if fmt != LOG_FORMAT:
                raise ArchiveError(
                    f"archive segment {path!r} is in commit-log format {fmt} "
                    f"(this build reads {LOG_FORMAT}); its records cannot be "
                    "replayed — take a new full backup"
                )
            while True:
                try:
                    record = read_frame(f)
                except CommitLogError:
                    return  # torn tail: the records end here
                if record is None:
                    return
                yield record
    except FileNotFoundError:
        return


def stale_segments(directory: str) -> list[str]:
    """Names of the archive's segments sealed under another log format."""
    stale = []
    for entry in load_manifest(directory)["segments"]:
        name = str(entry["name"])
        try:
            with open(os.path.join(directory, name), "rb") as f:
                if read_format(f) not in (None, LOG_FORMAT):
                    stale.append(name)
        except FileNotFoundError:
            continue
    return stale


def iter_archive(directory: str, from_version: int = 1, to_version: int | None = None):
    """Iterate archived records with ``from_version <= version`` in order.

    Segments are visited in manifest order; overlapping version ranges
    (a tail sealed twice) are deduplicated by skipping already-yielded
    versions.  Holes are *not* filled or detected here — restore enforces
    contiguity where it matters.  A segment of another log format that
    the range needs raises :class:`ArchiveError` (see :func:`read_segment`).
    """
    manifest = load_manifest(directory)
    last_yielded = from_version - 1
    for entry in manifest["segments"]:
        first = int(entry.get("first_version", 0))
        last = int(entry.get("last_version", 0))
        if last <= last_yielded:
            continue
        if to_version is not None and first > to_version:
            break
        for record in read_segment(os.path.join(directory, str(entry["name"]))):
            if record.version <= last_yielded:
                continue
            if to_version is not None and record.version > to_version:
                return
            last_yielded = record.version
            yield record


class LogArchiver:
    """Seals commit-log records into the image's archive directory.

    Attach :meth:`seal` as the log's retention hook
    (``log.retention = archiver.seal``) for loss-proof resets, and call it
    directly to seal the live tail at backup time.  ``fsync=False`` exists
    solely for the recovery harness's negative control — it must lose a
    restore point under a simulated crash.
    """

    def __init__(
        self, image_path: str | os.PathLike, *, fsync: bool = True, file_factory=None
    ):
        self.image_path = os.fspath(image_path)
        self.directory = archive_dir(self.image_path)
        self.fsync = fsync
        self.file_factory = file_factory
        self._lock = threading.Lock()

    @property
    def sealed_version(self) -> int:
        return int(load_manifest(self.directory).get("sealed_version", 0))

    def seal(self, log: CommitLog) -> int:
        """Seal every record of ``log`` newer than ``sealed_version``.

        Returns the number of records sealed (0 when the archive is
        already caught up).  Safe to call from the retention hook and
        from a backup concurrently (internal lock).
        """
        with self._lock:
            try:
                return self._seal_locked(log)
            except OSError:
                _ARCHIVE_ERRORS.inc()
                raise

    def _seal_locked(self, log: CommitLog) -> int:
        if log.last_version is None:
            return 0
        manifest = load_manifest(self.directory)
        sealed = int(manifest.get("sealed_version", 0))
        if log.last_version <= sealed:
            return 0
        start = log.first_version
        if sealed >= start:
            start = sealed + 1
        records = list(log.read_from(start))
        if not records:
            return 0
        os.makedirs(self.directory, exist_ok=True)
        seq = int(manifest.get("next_seq", 1))
        name = f"{seq:06d}.tylg"
        data = LOG_HEADER + b"".join(pack_frame(record) for record in records)
        _write_atomic(
            os.path.join(self.directory, name),
            data,
            fsync=self.fsync,
            file_factory=self.file_factory,
        )
        manifest["segments"].append(
            {
                "name": name,
                "first_version": records[0].version,
                "last_version": records[-1].version,
                "term": records[-1].term,
                "records": len(records),
                "bytes": len(data),
            }
        )
        manifest["sealed_version"] = records[-1].version
        manifest["next_seq"] = seq + 1
        _store_manifest(
            self.directory,
            manifest,
            fsync=self.fsync,
            file_factory=self.file_factory,
        )
        _SEALS.inc()
        _SEALED_RECORDS.inc(len(records))
        _SEALED_BYTES.inc(len(data))
        return len(records)


# ---------------------------------------------------------------------- backup


def _image_coordinates(path: str) -> tuple[int, int, str]:
    """(version, term, logical_digest) of a closed image's committed state."""
    with ObjectHeap(path) as heap:
        version, term = _replication_version(heap)
        return version, term, heap.logical_digest()


def _replication_version(heap: ObjectHeap) -> tuple[int, int]:
    oid = heap.root(_REPL_ROOT)
    if oid is None:
        return 0, 0
    try:
        state = heap.load(oid)
    except Exception:
        return 0, 0
    if not isinstance(state, dict):
        return 0, 0
    return int(state.get("version", 0)), int(state.get("term", 0))


def backup_info(dest: str | os.PathLike) -> dict:
    """The ``backup.json`` metadata of a backup directory."""
    path = os.path.join(os.fspath(dest), BACKUP_META_NAME)
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError as exc:
        raise ArchiveError(f"{os.fspath(dest)!r} holds no full backup") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise ArchiveError(f"corrupt backup metadata {path!r}: {exc}") from exc


def _sync_archive(
    src_dir: str, dst_dir: str, *, fsync: bool = True, file_factory=None
) -> int:
    """Copy archive segments missing from ``dst_dir``; returns the count."""
    try:
        manifest = load_manifest(src_dir)
    except ArchiveError:
        raise
    if not manifest["segments"]:
        return 0
    os.makedirs(dst_dir, exist_ok=True)
    have = set(os.listdir(dst_dir))
    copied = 0
    for entry in manifest["segments"]:
        name = str(entry["name"])
        if name in have:
            continue
        tmp = os.path.join(dst_dir, name + ".copy")
        _copy_file(
            os.path.join(src_dir, name), tmp, fsync=fsync, file_factory=file_factory
        )
        os.replace(tmp, os.path.join(dst_dir, name))
        copied += 1
    if fsync:
        _fsync_dir(dst_dir)
    _store_manifest(dst_dir, manifest, fsync=fsync, file_factory=file_factory)
    return copied


def full_backup(
    image_path: str | os.PathLike,
    dest: str | os.PathLike,
    *,
    txns=None,
    log: CommitLog | None = None,
    archiver: LogArchiver | None = None,
    fsync: bool = True,
    file_factory=None,
) -> dict:
    """Take a full, fsck-verified backup of ``image_path`` into ``dest``.

    Pass the live server's ``txns`` (:class:`TransactionManager`) to
    snapshot at a commit boundary: the copy runs inside a read
    transaction, which excludes writers, so the page file is static for
    the duration.  The base copy is published (renamed into place) only
    after it passes fsck — a crash mid-backup leaves at most a temp file.
    """
    image_path = os.fspath(image_path)
    dest = os.fspath(dest)
    os.makedirs(dest, exist_ok=True)
    base = os.path.join(dest, BASE_IMAGE_NAME)
    tmp = base + ".partial"

    if txns is not None:
        with txns.read():
            _copy_file(image_path, tmp, fsync=fsync, file_factory=file_factory)
    else:
        _copy_file(image_path, tmp, fsync=fsync, file_factory=file_factory)

    check = fsck_image(tmp)
    if not check.ok:
        raise ArchiveError(
            f"backup copy of {image_path!r} failed fsck: "
            + "; ".join(f.message for f in check.errors[:3])
        )
    version, term, digest = _image_coordinates(tmp)
    os.replace(tmp, base)
    if fsync:
        _fsync_dir(dest)

    # ship the archive state too, so a restore from this directory alone
    # can replay past the base (segments sealed before this backup)
    if archiver is not None and log is not None:
        archiver.seal(log)
    sealed_dir = (
        archiver.directory if archiver is not None else archive_dir(image_path)
    )
    segments = 0
    if os.path.isdir(sealed_dir):
        segments = _sync_archive(
            sealed_dir,
            os.path.join(dest, "archive"),
            fsync=fsync,
            file_factory=file_factory,
        )

    meta = {
        "format": MANIFEST_FORMAT,
        "image": image_path,
        "base_version": version,
        "base_term": term,
        "base_digest": digest,
        "epoch": 1,
        "created_ts_us": int(time.time() * 1_000_000),
    }
    _write_atomic(
        os.path.join(dest, BACKUP_META_NAME),
        json.dumps(meta, indent=2, sort_keys=True).encode("utf-8"),
        fsync=fsync,
        file_factory=file_factory,
    )
    _BACKUPS.inc()
    return {
        "mode": "full",
        "base_version": version,
        "base_digest": digest,
        "segments_copied": segments,
        "dest": dest,
    }


def incremental_backup(
    image_path: str | os.PathLike,
    dest: str | os.PathLike,
    *,
    txns=None,
    log: CommitLog | None = None,
    archiver: LogArchiver | None = None,
    fsync: bool = True,
    file_factory=None,
) -> dict:
    """Ship archive segments newer than the backup's last epoch.

    Seals the live commit-log tail first (via ``log``/``archiver`` on a
    running server, or by opening the sidecar log of a quiesced image),
    then copies every segment ``dest/archive`` does not have yet.
    Requires a prior :func:`full_backup` in ``dest``.
    """
    image_path = os.fspath(image_path)
    dest = os.fspath(dest)
    meta = backup_info(dest)  # raises when there is no full backup yet

    if archiver is None:
        archiver = LogArchiver(image_path, fsync=fsync, file_factory=file_factory)
    sealed = 0
    if log is not None:
        if txns is not None:
            with txns.read():
                sealed = archiver.seal(log)
        else:
            sealed = archiver.seal(log)
    elif os.path.exists(commitlog_path(image_path)):
        with CommitLog(commitlog_path(image_path)) as sidecar:
            sealed = archiver.seal(sidecar)

    segments = 0
    if os.path.isdir(archiver.directory):
        segments = _sync_archive(
            archiver.directory,
            os.path.join(dest, "archive"),
            fsync=fsync,
            file_factory=file_factory,
        )
    meta["epoch"] = int(meta.get("epoch", 1)) + 1
    meta["last_incremental_ts_us"] = int(time.time() * 1_000_000)
    _write_atomic(
        os.path.join(dest, BACKUP_META_NAME),
        json.dumps(meta, indent=2, sort_keys=True).encode("utf-8"),
        fsync=fsync,
        file_factory=file_factory,
    )
    _BACKUPS.inc()
    return {
        "mode": "incremental",
        "sealed": sealed,
        "segments_copied": segments,
        "epoch": meta["epoch"],
        "dest": dest,
    }


# --------------------------------------------------------------------- restore


def restore_image(
    backup_dir: str | os.PathLike,
    out_image: str | os.PathLike,
    *,
    to_version: int | None = None,
    to_ts_us: int | None = None,
    force: bool = False,
    fsync: bool = True,
    file_factory=None,
) -> dict:
    """Restore an image from a backup directory, optionally to a point.

    Replays archived records onto the base full backup strictly in
    version order (``to_version`` keeps records ``<= N``; ``to_ts_us``
    keeps records committed at or before that wall-clock µs).  The
    restored image is built under a temporary name, fsck-verified, and
    only then renamed to ``out_image`` — a crash mid-restore never
    publishes a partial artifact.  Raises :class:`ArchiveError` when the
    archive cannot reach an explicitly requested ``to_version`` (a lost
    restore point — exactly what the negative control must trip).
    """
    backup_dir = os.fspath(backup_dir)
    out_image = os.fspath(out_image)
    meta = backup_info(backup_dir)
    base = os.path.join(backup_dir, BASE_IMAGE_NAME)
    if not os.path.exists(base):
        raise ArchiveError(f"backup {backup_dir!r} has no {BASE_IMAGE_NAME}")
    if os.path.exists(out_image) and not force:
        raise ArchiveError(f"{out_image!r} exists (pass force to overwrite)")
    base_version = int(meta.get("base_version", 0))
    if to_version is not None and to_version < base_version:
        raise ArchiveError(
            f"cannot restore to version {to_version}: the base full backup "
            f"is already at version {base_version} (take full backups more "
            "often, or restore from an older backup directory)"
        )

    tmp = out_image + ".restoring"
    _copy_file(base, tmp, fsync=fsync, file_factory=file_factory)
    check = fsck_image(tmp)
    if not check.ok:
        raise ArchiveError(
            f"base backup {base!r} failed fsck: "
            + "; ".join(f.message for f in check.errors[:3])
        )

    applied = 0
    last_applied = base_version
    heap = ObjectHeap(tmp, io_factory=file_factory)
    try:
        expected = base_version + 1
        for record in iter_archive(
            os.path.join(backup_dir, "archive"), from_version=expected
        ):
            if to_version is not None and record.version > to_version:
                break
            if to_ts_us is not None and record.committed_ts_us > to_ts_us:
                break
            if record.version != expected:
                raise ArchiveError(
                    f"archive gap: expected version {expected}, "
                    f"found {record.version}"
                )
            heap.apply_changes(
                record.objects, record.roots, record.removed, record.oid_counter
            )
            last_applied = record.version
            expected += 1
            applied += 1
        if to_version is not None and last_applied < to_version:
            raise ArchiveError(
                f"archive only reaches version {last_applied}, cannot "
                f"restore to {to_version} (restore point lost)"
            )
        digest = heap.logical_digest()
    finally:
        heap.close()

    check = fsck_image(tmp)
    if not check.ok:
        raise ArchiveError(
            "restored image failed fsck: "
            + "; ".join(f.message for f in check.errors[:3])
        )
    os.replace(tmp, out_image)
    if fsync:
        _fsync_dir(os.path.dirname(out_image))
    _RESTORES.inc()
    _REPLAYED.inc(applied)
    return {
        "path": out_image,
        "base_version": base_version,
        "restored_version": last_applied,
        "records_applied": applied,
        "digest": digest,
    }
