"""Single-writer / snapshot-reader concurrency control over a shared heap.

:class:`ObjectHeap` is a single-threaded data structure; the multi-session
server (:mod:`repro.server`) shares one heap between many worker threads.
The concurrency story is deliberately simple and matches the paper's
open-environment model, where the image is one shared mutable world:

* any number of *readers* run concurrently — they may fault objects into
  the cache (an idempotent, GIL-atomic dict insert) but never mutate
  committed state;
* at most one *writer* runs at a time, and it excludes all readers from
  its first mutation through its commit/abort — so a reader can never
  observe a partially applied transaction.  Combined with the heap's
  shadow-paging commit this gives snapshot semantics: whatever a read
  transaction sees is exactly one committed version of the image.

:class:`RWLock` is writer-preferring (a waiting writer blocks new readers,
so a steady read load cannot starve commits) and supports acquiring in one
thread and releasing in another — a server session may begin a transaction
on one pooled worker thread and commit it on a different one.

:class:`TransactionManager` packages the lock with the heap's
commit/abort and a monotonically increasing committed-state ``version``
(read transactions record the version they observe).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.store.heap import HeapError, ObjectHeap

__all__ = ["LockTimeout", "RWLock", "Txn", "TransactionManager"]

_TXN_BEGINS = METRICS.counter("store.txn.begins", "transactions started")
_TXN_COMMITS = METRICS.counter("store.txn.commits", "write transactions committed")
_TXN_ABORTS = METRICS.counter("store.txn.aborts", "write transactions aborted")
_TXN_TIMEOUTS = METRICS.counter(
    "store.txn.lock_timeouts", "transaction lock acquisitions that timed out"
)
_ACTIVE_READERS = METRICS.gauge(
    "store.txn.active_readers", "read transactions currently holding the lock"
)
_ACTIVE_WRITERS = METRICS.gauge(
    "store.txn.active_writers", "write transactions currently holding the lock (0/1)"
)


class LockTimeout(HeapError):
    """The read/write lock could not be acquired within the timeout."""


class RWLock:
    """A readers-writer lock: shared readers, one exclusive writer.

    Writer-preferring: once a writer is waiting, new readers queue behind
    it.  Not reentrant.  ``release_*`` may be called from a different
    thread than the matching ``acquire_*`` (sessions migrate between pool
    workers), so no thread ownership is tracked.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @staticmethod
    def _deadline(timeout: float | None) -> float | None:
        return None if timeout is None else time.monotonic() + timeout

    def _wait(self, deadline: float | None) -> bool:
        """Wait on the condition; False once the deadline has passed."""
        if deadline is None:
            self._cond.wait()
            return True
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        self._cond.wait(remaining)
        return True

    def acquire_read(self, timeout: float | None = None) -> bool:
        deadline = self._deadline(timeout)
        with self._cond:
            while self._writer or self._writers_waiting:
                if not self._wait(deadline):
                    return False
            self._readers += 1
            return True

    def release_read(self) -> None:
        with self._cond:
            if self._readers <= 0:
                raise RuntimeError("release_read without a matching acquire")
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self, timeout: float | None = None) -> bool:
        deadline = self._deadline(timeout)
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    if not self._wait(deadline):
                        return False
                self._writer = True
                return True
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        with self._cond:
            if not self._writer:
                raise RuntimeError("release_write without a matching acquire")
            self._writer = False
            self._cond.notify_all()

    @contextmanager
    def read_locked(self, timeout: float | None = None):
        if not self.acquire_read(timeout):
            raise LockTimeout(f"read lock not acquired within {timeout}s")
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self, timeout: float | None = None):
        if not self.acquire_write(timeout):
            raise LockTimeout(f"write lock not acquired within {timeout}s")
        try:
            yield
        finally:
            self.release_write()


class Txn:
    """One open transaction handle (returned by ``TransactionManager.begin``).

    Write transactions own the heap exclusively until :meth:`commit` or
    :meth:`abort`; read transactions pin one committed version until
    :meth:`close`.  All three release the underlying lock exactly once —
    further calls are no-ops, so error paths can close unconditionally.
    """

    __slots__ = ("manager", "mode", "version", "_open")

    def __init__(self, manager: "TransactionManager", mode: str, version: int):
        self.manager = manager
        self.mode = mode
        #: committed-state version observed at begin
        self.version = version
        self._open = True

    def commit(self) -> None:
        """Publish (write) or simply end (read) the transaction."""
        if not self._open:
            return
        self._open = False
        self.manager._finish(self, commit=True)

    def abort(self) -> None:
        """Discard uncommitted changes (write) or end the snapshot (read)."""
        if not self._open:
            return
        self._open = False
        self.manager._finish(self, commit=False)

    close = abort

    def __enter__(self) -> "Txn":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.commit()
        else:
            self.abort()
        return False


class TransactionManager:
    """Per-session transactions over one shared :class:`ObjectHeap`."""

    def __init__(
        self,
        heap: ObjectHeap,
        default_timeout: float | None = None,
        io_rollback: bool = True,
    ):
        self.heap = heap
        self.lock = RWLock()
        self.default_timeout = default_timeout
        #: on commit I/O failure, roll the heap back to the durable state
        #: (heap.rollback_to_durable) instead of a logical abort — required
        #: for correctness after mid-commit ENOSPC/EIO/fsync failures; the
        #: exhaustion harness's negative control turns it off to prove that
        self._io_rollback = io_rollback
        self._version = 0
        self._version_lock = threading.Lock()

    @property
    def version(self) -> int:
        """Monotonic counter of committed write transactions."""
        return self._version

    def bump(self) -> None:
        """Advance the committed version for an externally applied commit.

        Replication applies records through :meth:`ObjectHeap.apply_changes`
        (no ``heap.commit``), so the replica bumps the version itself while
        holding the write lock — snapshot readers then observe the new
        state under a new version number, exactly as after a local commit.
        """
        with self._version_lock:
            self._version += 1

    # ------------------------------------------------------------ explicit

    def begin(self, mode: str = "read", timeout: float | None = None) -> Txn:
        """Open a transaction; raises :class:`LockTimeout` when contended."""
        if mode not in ("read", "write"):
            raise HeapError(f"unknown transaction mode {mode!r}")
        timeout = timeout if timeout is not None else self.default_timeout
        acquired = (
            self.lock.acquire_write(timeout)
            if mode == "write"
            else self.lock.acquire_read(timeout)
        )
        if not acquired:
            _TXN_TIMEOUTS.inc()
            raise LockTimeout(f"{mode} transaction not started within {timeout}s")
        _TXN_BEGINS.inc()
        (_ACTIVE_WRITERS if mode == "write" else _ACTIVE_READERS).inc()
        return Txn(self, mode, self._version)

    def _finish(self, txn: Txn, commit: bool) -> None:
        if txn.mode == "write":
            try:
                if commit:
                    self.heap.commit()
                    with self._version_lock:
                        self._version += 1
                    _TXN_COMMITS.inc()
                    TRACER.event("store.txn.commit", version=self._version)
                else:
                    self.heap.abort()
                    _TXN_ABORTS.inc()
            except BaseException as exc:
                # a failed commit keeps the old durable state; drop the
                # in-memory changes so the next writer starts clean.  When
                # the commit died in its *I/O* (disk full, EIO, fsync
                # failure) a logical abort is not enough — the object table
                # and free list may already reference half-written chains —
                # so re-read everything from the durable image instead.
                if commit and isinstance(exc, OSError) and self._io_rollback:
                    try:
                        self.heap.rollback_to_durable()
                        # the failure may have struck *after* the commit
                        # point, in which case the rollback adopted the new
                        # durable state: bump so version-keyed caches
                        # (snapshots) never serve stale reads
                        with self._version_lock:
                            self._version += 1
                    except Exception:
                        self.heap.abort()
                else:
                    self.heap.abort()
                _TXN_ABORTS.inc()
                raise
            finally:
                _ACTIVE_WRITERS.dec()
                self.lock.release_write()
        else:
            _ACTIVE_READERS.dec()
            self.lock.release_read()

    # ------------------------------------------------------- context forms

    @contextmanager
    def read(self, timeout: float | None = None):
        """Snapshot-read block: ``with txns.read(): ...``."""
        txn = self.begin("read", timeout)
        try:
            yield txn
        finally:
            txn.close()

    @contextmanager
    def write(self, timeout: float | None = None):
        """Exclusive write block: commits on success, aborts on exception."""
        txn = self.begin("write", timeout)
        try:
            yield txn
        except BaseException:
            txn.abort()
            raise
        else:
            txn.commit()
