"""Fault-injecting file layer for durability testing.

:class:`FaultFile` is a drop-in replacement for the binary file object the
pager writes through (plug it in via ``Pager(file_factory=...)`` or
``ObjectHeap(io_factory=...)``).  An attached :class:`FaultPlan` decides,
per I/O operation, whether to:

* **crash** — raise :class:`CrashPoint` and mark the file dead (every
  further operation raises), simulating power loss at exactly that
  operation;
* **tear** the crashing write — persist only a prefix of the data before
  dying, the classic torn-sector failure;
* **short-read** — return fewer bytes than asked once (the caller must
  loop, as real ``read(2)`` demands);
* **fail an fsync** — raise ``OSError`` once, without dying;
* **fail a write** — raise ``OSError`` (carrying a configurable errno such
  as ``ENOSPC``/``EIO``) once, without dying — the disk-full model;
* **exhaust** — enter a persistent disk-full state in which *every* write
  and fsync fails until :meth:`FaultPlan.heal` is called, modelling a
  volume that stays full until an operator frees space.

Injected write/fsync failures carry :attr:`FaultPlan.fault_errno`
(``ENOSPC`` by default) so production code can exercise its errno
classification.  Besides absolute op indices (``fail_write_at``), faults
can be *armed by countdown* (:meth:`FaultPlan.arm_write_failure` /
:meth:`FaultPlan.arm_fsync_failure`: "fail the Nth write/fsync from
now") — robust against workloads whose absolute op counts drift.

Two durability models:

* *write-through* (default) — writes hit the disk file immediately, so a
  crash preserves everything written so far.  This models the most
  generous kernel (every write already flushed).
* *write-back* (``writeback=True``) — writes are buffered in memory and
  only applied to the disk file by ``fsync``.  A crash is adversarial: the
  *later half* of the pending buffer persists while the earlier half is
  lost, modelling a kernel that flushed unsynced writes out of order at
  the worst moment (only an fsync barrier between a write and its
  dependents survives this).  Reads see the process's own buffered writes,
  as the page cache would serve them.

A commit protocol is only correct if recovery succeeds under *both*
extremes (plus torn variants); :mod:`repro.testing.chaos.crash` runs all of
them at every successive I/O operation.

Operation indices are global per :class:`FaultPlan` (shared across every
file it opens), so a "crash at op *k*" plan is deterministic for a given
workload.
"""

from __future__ import annotations

import errno as _errno
import os
from dataclasses import dataclass, field

__all__ = ["CrashPoint", "FileDead", "FaultPlan", "FaultFile"]


class CrashPoint(Exception):
    """The simulated machine lost power at this I/O operation."""


class FileDead(Exception):
    """I/O after a simulated crash — the 'process' is gone."""


@dataclass
class FaultPlan:
    """Deterministic per-operation fault schedule (shared op counter)."""

    #: global I/O op index (0-based, counting reads/writes/fsyncs) to die at;
    #: None runs fault-free and simply counts
    crash_at: int | None = None
    #: when the crashing op is a write, persist the first half of it before
    #: dying (torn write) instead of dropping it entirely
    torn: bool = False
    #: buffer writes and apply them only on fsync (crash drops the buffer)
    writeback: bool = False
    #: op index at which one read returns only half the requested bytes
    short_read_at: int | None = None
    #: op index at which one fsync raises OSError (transient sync failure)
    fail_fsync_at: int | None = None
    #: op index at which one write raises OSError (transient disk-full/EIO)
    fail_write_at: int | None = None
    #: errno injected write/fsync failures carry (disk-full by default)
    fault_errno: int = _errno.ENOSPC
    #: persistent disk-full mode: every write and fsync fails until heal()
    exhausted: bool = False
    #: record the kind of every op ("read"/"write"/"fsync") in op_log, so
    #: a counting run can report how many ops of each kind a workload does
    record_ops: bool = False
    op_log: list = field(default_factory=list, repr=False)

    #: operations observed so far (read by harnesses after a counting run)
    ops: int = 0
    crashed: bool = field(default=False, init=False)
    #: every file opened through this plan (so harnesses can close the
    #: underlying OS files after a simulated crash strands them)
    files: list = field(default_factory=list, repr=False)
    #: one-shot countdowns ("fail the Nth write/fsync from now"), armed by
    #: arm_write_failure()/arm_fsync_failure()
    _write_failure_in: int | None = field(default=None, init=False, repr=False)
    _fsync_failure_in: int | None = field(default=None, init=False, repr=False)

    def file_factory(self, path: str, mode: str) -> "FaultFile":
        """Use as ``Pager(..., file_factory=plan.file_factory)``."""
        file = FaultFile(path, mode, plan=self)
        self.files.append(file)
        return file

    def close_all(self) -> None:
        """Close every file this plan opened (post-crash cleanup)."""
        for file in self.files:
            file.close()

    def arm_write_failure(self, nth: int = 1, fault_errno: int | None = None) -> None:
        """Make the ``nth`` write from now (1 = the very next) fail once."""
        if fault_errno is not None:
            self.fault_errno = fault_errno
        self._write_failure_in = max(1, int(nth))

    def arm_fsync_failure(self, nth: int = 1, fault_errno: int | None = None) -> None:
        """Make the ``nth`` fsync from now (1 = the very next) fail once."""
        if fault_errno is not None:
            self.fault_errno = fault_errno
        self._fsync_failure_in = max(1, int(nth))

    def exhaust(self, fault_errno: int | None = None) -> None:
        """Enter persistent disk-full mode: all writes and fsyncs fail."""
        if fault_errno is not None:
            self.fault_errno = fault_errno
        self.exhausted = True

    def heal(self) -> None:
        """Leave disk-full mode and disarm any pending one-shot failures."""
        self.exhausted = False
        self._write_failure_in = None
        self._fsync_failure_in = None

    def _tick(self, kind: str = "io") -> int:
        index = self.ops
        self.ops += 1
        if self.record_ops:
            self.op_log.append(kind)
        return index

    def _countdown_fires(self, kind: str) -> bool:
        attr = "_write_failure_in" if kind == "write" else "_fsync_failure_in"
        left = getattr(self, attr)
        if left is None:
            return False
        left -= 1
        setattr(self, attr, left if left > 0 else None)
        return left <= 0

    def _io_error(self, op: str) -> OSError:
        return OSError(self.fault_errno, f"simulated {op} failure")


class FaultFile:
    """File-like object routing every operation through a :class:`FaultPlan`."""

    def __init__(self, path: str, mode: str, plan: FaultPlan):
        self._file = open(path, mode)
        self._plan = plan
        self._pos = 0
        #: write-back buffer: offset -> bytes, in application order
        self._pending: dict[int, bytes] = {}
        self.closed = False

    # ------------------------------------------------------------ plumbing

    def _check_alive(self) -> None:
        if self._plan.crashed:
            raise FileDead("I/O on a crashed fault file")
        if self.closed:
            raise ValueError("I/O operation on closed file")

    def _crash(self) -> None:
        # adversarial write-back at death: the kernel may have flushed any
        # subset of unsynced writes in any order, so persist the *later*
        # half of the pending buffer while dropping the earlier half —
        # exactly the reordering that breaks a protocol whose header write
        # is not ordered after its data by an fsync
        pending = list(self._pending.items())
        for offset, buf in pending[len(pending) // 2 :]:
            self._apply(offset, buf)
        self._pending.clear()
        self._plan.crashed = True
        raise CrashPoint(f"simulated crash at I/O op {self._plan.ops - 1}")

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        self._check_alive()
        if whence == os.SEEK_SET:
            self._pos = offset
        elif whence == os.SEEK_CUR:
            self._pos += offset
        elif whence == os.SEEK_END:
            self._pos = self._disk_size() + offset
        else:  # pragma: no cover - pager never uses other whence values
            raise ValueError(f"unsupported whence {whence}")
        return self._pos

    def tell(self) -> int:
        return self._pos

    def fileno(self) -> int:
        return self._file.fileno()

    def _disk_size(self) -> int:
        self._file.seek(0, os.SEEK_END)
        return self._file.tell()

    # ----------------------------------------------------------------- read

    def read(self, count: int = -1) -> bytes:
        self._check_alive()
        index = self._plan._tick("read")
        if index == self._plan.crash_at:
            self._crash()
        if count is None or count < 0:  # pragma: no cover - pager reads sized
            count = max(self._disk_size() - self._pos, 0)
        if index == self._plan.short_read_at and count > 1:
            count //= 2  # transient short read; the caller must loop
        data = self._read_disk(self._pos, count)
        if self._plan.writeback:
            data = self._overlay(self._pos, data, count)
        self._pos += len(data)
        return data

    def _read_disk(self, offset: int, count: int) -> bytes:
        self._file.seek(offset)
        return self._file.read(count)

    def _overlay(self, offset: int, data: bytes, count: int) -> bytes:
        """Apply pending (unsynced) writes over disk bytes — the page cache."""
        end = offset + count
        span = bytearray(data)
        if len(span) < count:
            # pending writes may extend past the current on-disk EOF
            pend_end = max(
                (off + len(buf) for off, buf in self._pending.items()), default=0
            )
            span += b"\x00" * (min(end, pend_end) - offset - len(span))
        for off, buf in self._pending.items():
            lo = max(off, offset)
            hi = min(off + len(buf), offset + len(span))
            if lo < hi:
                span[lo - offset : hi - offset] = buf[lo - off : hi - off]
        return bytes(span)

    # ---------------------------------------------------------------- write

    def write(self, data: bytes) -> int:
        self._check_alive()
        plan = self._plan
        index = plan._tick("write")
        if index == plan.crash_at:
            if plan.torn and data:
                # half the sectors made it to the platter before the lights
                # went out — even in write-back mode the kernel may have
                # flushed part of an unsynced write at any time
                self._apply(self._pos, bytes(data[: max(len(data) // 2, 1)]))
            self._crash()
        if plan.exhausted or index == plan.fail_write_at or plan._countdown_fires("write"):
            raise plan._io_error("write")
        if self._plan.writeback:
            self._pending[self._pos] = bytes(data)
        else:
            self._apply(self._pos, bytes(data))
        self._pos += len(data)
        return len(data)

    def _apply(self, offset: int, data: bytes) -> None:
        size = self._disk_size()
        if offset > size:
            # sparse write past EOF: zero-fill the gap, as the OS would
            self._file.seek(size)
            self._file.write(b"\x00" * (offset - size))
        self._file.seek(offset)
        self._file.write(data)

    # ----------------------------------------------------------- durability

    def flush(self) -> None:
        self._check_alive()
        if not self._plan.writeback:
            self._file.flush()

    def fsync(self) -> None:
        self._check_alive()
        plan = self._plan
        index = plan._tick("fsync")
        if index == plan.crash_at:
            self._crash()
        if plan.exhausted or index == plan.fail_fsync_at or plan._countdown_fires("fsync"):
            raise plan._io_error("fsync")
        for offset, buf in self._pending.items():
            self._apply(offset, buf)
        self._pending.clear()
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        # pending (unsynced) writes die with the process model: close does
        # NOT flush them — only fsync makes data durable
        self._pending.clear()
        self._file.close()
