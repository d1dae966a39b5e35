"""Keeping one daemon's image safe when resources fail: I/O error
classification, degraded read-only mode and its recovery probe, the
background integrity scrub with anti-entropy repair, and the memory
governor.

:class:`Health` is a component with a server back-reference (the idiom
of :class:`~repro.server.pgo.PgoWorker`): the daemon's transaction glue
asks it whether a write may proceed and hands it every commit-path
``OSError``; its three timers (``probe_tick``, ``run_scrub_cycle``,
``mem_watchdog_tick``) run on the daemon's periodic runner.
"""

from __future__ import annotations

import errno
import sys
import threading
import time

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.server import protocol
from repro.server.protocol import RequestError
from repro.server.repair import repair_from_upstream, scrub_heap
from repro.store.concurrency import LockTimeout
from repro.store.fsck import fsck_image

__all__ = ["Health", "HEAP_CACHE_LIMIT", "classify_os_error", "note_io_error"]

#: bound on the heap's clean-object cache; the memory governor shrinks it
#: under pressure and restores this value afterwards
HEAP_CACHE_LIMIT = 4096

_IO_ERRORS = METRICS.counter(
    "server.io_errors", "OS-level I/O errors observed (classified, not swallowed)"
)
_DEGRADED = METRICS.gauge(
    "server.degraded", "1 while the daemon is in degraded read-only mode"
)
_DEGRADED_ENTRIES = METRICS.counter(
    "server.degraded_entries", "times the daemon entered degraded read-only mode"
)
_SHED_MEMORY = METRICS.counter(
    "server.shed.memory", "mutating requests rejected by the memory budget"
)
_MEM_CACHED_BYTES = METRICS.gauge(
    "server.mem.heap_bytes", "serialized bytes held by the heap object cache"
)
_MEM_PRESSURE = METRICS.gauge(
    "server.mem.pressure", "1 while the memory watchdog is shedding load"
)

#: errnos that mean "the peer went away", not "the disk is failing" —
#: counted but never treated as a store-level incident
_DISCONNECT_ERRNOS = frozenset(
    getattr(errno, name, -1)
    for name in (
        "EPIPE", "ECONNRESET", "ENOTCONN", "ESHUTDOWN", "ECONNABORTED",
        "EBADF", "ETIMEDOUT",
    )
)
_DISK_FULL_ERRNOS = frozenset(
    getattr(errno, name, -1) for name in ("ENOSPC", "EDQUOT")
)


def classify_os_error(exc: OSError) -> str:
    """Bucket an OSError: ``disk_full`` / ``io_error`` / ``disconnect`` /
    ``os_error``.  Commit-path failures of the first two classes flip the
    daemon into degraded read-only mode; disconnects are routine."""
    if exc.errno in _DISK_FULL_ERRNOS:
        return "disk_full"
    if exc.errno in _DISCONNECT_ERRNOS:
        return "disconnect"
    if exc.errno == errno.EIO or "fsync" in str(exc):
        return "io_error"
    return "os_error"


def note_io_error(where: str, exc: OSError) -> None:
    """Classify, count and debug-log an OSError instead of swallowing it.

    Every OS-level failure is at least visible in ``server.io_errors``
    (with a per-class child counter) and the trace stream; non-disconnect
    classes also reach stderr because they may be the first sign of a
    dying disk.
    """
    kind = classify_os_error(exc)
    _IO_ERRORS.inc()
    METRICS.counter(
        f"server.io_errors.{kind}", f"{kind}-class I/O errors observed"
    ).inc()
    TRACER.event("server.io_error", where=where, kind=kind, error=str(exc))
    if kind != "disconnect":
        print(f"repro-server: {kind} during {where}: {exc}", file=sys.stderr)


class Health:
    """Degraded mode, scrub/repair and memory pressure of one daemon."""

    def __init__(self, server):
        self.server = server
        #: degraded read-only mode: set by commit-path I/O failures (or the
        #: manual ``read_only`` config), cleared by the recovery probe
        self.degraded = False
        self._reason: str | None = None
        self._since: float | None = None  # unix seconds
        self._manual = False
        self._lock = threading.Lock()
        self._probe_failures = 0
        self._recoveries = 0
        #: memory watchdog state: the shrunk cache limit is restored when
        #: pressure clears (hysteresis at 80% of the budget)
        self.mem_pressure = False
        self._mem_shed_rounds = 0
        self._scrub_lock = threading.Lock()
        self._scrub_state: dict = {
            "cycles": 0,
            "corrupt_total": 0,
            "repairs": 0,
            "repair_failures": 0,
            "last": None,
            "last_repair": None,
        }

    # ------------------------------------------------------- degraded mode

    @property
    def shedding(self) -> bool:
        """True while deferrable image writers (PGO rounds, history
        flushes) must stand down: the disk refused a write, or memory is
        over budget — optimizing code is the first work to drop."""
        return self.degraded or self.mem_pressure

    def check_writable(self) -> None:
        """Refuse a mutating request: ``read_only`` while degraded,
        ``not_primary`` on a replica."""
        if self.degraded:
            raise RequestError(
                protocol.E_READ_ONLY,
                "daemon is in degraded read-only mode: "
                + (self._reason or "unknown reason"),
                reason=self._reason,
                since=self._since,
                retry_after=self.server.config.degraded_probe_interval,
                manual=self._manual,
            )
        follower = self.server.follower
        if follower is not None:
            host, port = follower.upstream
            raise RequestError(
                protocol.E_NOT_PRIMARY,
                "this node is a read replica; write to the primary",
                primary={"host": host, "port": port},
            )

    def commit_io_failure(self, where: str, exc: OSError) -> RequestError:
        """Classify a commit-path I/O failure and flip degraded mode.

        Returns the structured error to answer the request with.  The
        transaction layer has already rolled the heap back to the durable
        image, so no half-written state is reachable; all this method adds
        is the *mode* flip that stops further writes from hammering a disk
        that just failed, plus the wire-level story.
        """
        kind = classify_os_error(exc)
        note_io_error(where, exc)
        if self.server.config.unsafe_no_degraded:
            # negative control: the unprotected daemon answers internal
            # and keeps accepting writes, which the harness proves unsafe
            return RequestError(
                protocol.E_INTERNAL, f"commit I/O failed ({kind}): {exc}"
            )
        self.enter_degraded(f"{kind} during {where}: {exc}")
        return RequestError(
            protocol.E_READ_ONLY,
            f"commit failed ({kind}): {exc}; daemon is now read-only",
            reason=self._reason,
            since=self._since,
            retry_after=self.server.config.degraded_probe_interval,
        )

    def enter_degraded(self, reason: str, manual: bool = False) -> None:
        """Flip into degraded read-only mode (idempotent).

        Reads, ``ping``/``stats``, replication subscriptions and open read
        transactions keep working; every mutating request is answered with
        the structured ``read_only`` error until the recovery probe (or an
        operator restart without ``--read-only``) clears the mode.
        """
        with self._lock:
            if self.degraded:
                if manual:
                    self._manual = True
                return
            self._reason = reason
            self._since = time.time()
            self._manual = manual
            self.degraded = True
        _DEGRADED.set(1)
        _DEGRADED_ENTRIES.inc()
        TRACER.event("server.degraded.enter", reason=reason, manual=manual)
        print(f"repro-server: entering degraded read-only mode: {reason}",
              file=sys.stderr)
        replication = self.server.replication
        if replication is not None:
            # a deposed-by-disk primary tells its replicas: their status
            # turns red and a cluster client can fail writes over
            replication.notify_degraded(reason)

    def exit_degraded(self) -> None:
        """Leave degraded mode (probe-verified writability)."""
        with self._lock:
            if not self.degraded:
                return
            self.degraded = False
            self._reason = None
            self._since = None
            self._manual = False
        _DEGRADED.set(0)
        self._recoveries += 1
        TRACER.event("server.degraded.exit")
        print("repro-server: degraded mode cleared; writes re-enabled",
              file=sys.stderr)

    def degraded_info(self) -> dict:
        return {
            "active": self.degraded,
            "reason": self._reason,
            "since": self._since,
            "manual": self._manual,
            "probe_interval": self.server.config.degraded_probe_interval,
            "probe_failures": self._probe_failures,
            "recoveries": self._recoveries,
        }

    def probe_tick(self) -> None:
        """Background writability probe: auto-recover from degraded mode.

        Each tick (while degraded, unless the mode is the manual
        override): verify the image with a read-only fsck first — writes
        must never resume over a corrupt image — then attempt an empty
        commit under the write lock, which exercises the full publish path
        (table write, header sync, fsync).  Success clears the mode.
        """
        if not self.degraded or self._manual:
            return
        if self.server.follower is not None:
            # a replica never commits locally (the probe's empty commit
            # would fork its image); scrub+repair own its recovery
            return
        failure = self._probe()
        if failure is None:
            self.exit_degraded()
        elif failure:
            self._probe_failures += 1
            TRACER.event("server.degraded.probe", ok=False, **failure)

    def _probe(self) -> dict | None:
        """One probe: None when writable again, else what failed (empty
        when a reader merely held the image — try again next tick)."""
        server = self.server
        if server.image_path is not None:
            try:
                report = fsck_image(server.image_path)
            except Exception as exc:
                return {"stage": "fsck", "error": str(exc)}
            if not report.ok:
                return {"stage": "fsck", "errors": len(report.errors)}
        try:
            with server.txns.write(timeout=1.0):
                pass  # empty commit: full write+fsync path, no data change
        except LockTimeout:
            return {}
        except OSError as exc:
            return {"stage": "commit", "error": str(exc)}
        except Exception as exc:  # whatever it is, the image stays read-only
            return {"stage": "commit", "error": f"{type(exc).__name__}: {exc}"}
        return None

    # ------------------------------------------------- scrub + anti-entropy

    def scrub_info(self) -> dict:
        with self._scrub_lock:
            return dict(self._scrub_state)

    def _scrub(self):
        server = self.server
        return scrub_heap(
            server.heap,
            server.txns,
            pages_per_sec=server.config.scrub_pages_per_sec,
            stop=server.stopping,
        )

    def run_scrub_cycle(self) -> dict:
        """One integrity pass over every committed object's page chain.

        Corruption flips the daemon into degraded read-only mode; on a
        replica an anti-entropy repair against the upstream runs next, and
        a clean re-scrub exits degraded mode again.  Returns the (final)
        scrub report.
        """
        report = self._scrub()
        with self._scrub_lock:
            self._scrub_state["cycles"] += 1
            self._scrub_state["corrupt_total"] += len(report.corrupt_oids)
            self._scrub_state["last"] = report.as_dict()
        if report.clean:
            return report.as_dict()
        oids = report.corrupt_oids
        self.enter_degraded(
            f"scrub found {len(oids)} unreadable object(s) (oids {oids[:8]})"
        )
        follower = self.server.follower
        if follower is not None:
            repaired = self._repair_and_verify(follower.upstream)
            with self._scrub_lock:
                self._scrub_state["repairs" if repaired else "repair_failures"] += 1
            if repaired:
                self.exit_degraded()
        return self.scrub_info()["last"]

    def _repair_and_verify(self, upstream) -> bool:
        """Anti-entropy repair from the upstream, then prove it by re-scrub.

        Only a clean re-scrub counts — a repair that claims convergence
        but leaves unreadable pages keeps the replica read-only-and-red
        rather than quietly serving bad data.
        """
        server = self.server
        try:
            result = repair_from_upstream(
                server.heap,
                server.txns,
                upstream,
                lock_timeout=server.config.lock_timeout,
            )
        except Exception as exc:
            TRACER.event(
                "server.repair.error", error=f"{type(exc).__name__}: {exc}"
            )
            return False
        with self._scrub_lock:
            self._scrub_state["last_repair"] = result
        if not result.get("converged"):
            return False
        verify = self._scrub()
        with self._scrub_lock:
            self._scrub_state["last"] = verify.as_dict()
        return verify.clean

    # ------------------------------------------------------ memory governor

    def check_memory(self, session) -> None:
        """Busy-style memory admission for mutating requests.

        Reads always pass — they only touch the (bounded) clean cache.
        Writes are rejected while the cache's accounted bytes exceed the
        global budget, or when the open transaction's dirty set has
        outgrown the per-transaction object budget (dirty objects cannot
        be evicted, so they are the unboundable half of heap memory).
        """
        config = self.server.config
        heap = self.server.heap
        budget = config.mem_budget_bytes
        cap = config.mem_txn_budget_objects
        if budget is not None and heap.cached_bytes > budget:
            message = (
                f"heap memory budget exceeded "
                f"({heap.cached_bytes} > {budget} bytes); retry shortly"
            )
        elif cap is not None and session.txn is not None and heap.dirty_count >= cap:
            message = (
                f"transaction holds {heap.dirty_count} uncommitted "
                f"object(s), over the per-transaction budget of {cap}; "
                "commit or abort first"
            )
        else:
            return
        _SHED_MEMORY.inc()
        raise RequestError(
            protocol.E_BUSY,
            message,
            reason="memory",
            retry_after=max(0.05, config.mem_watchdog_interval),
        )

    def memory_info(self) -> dict:
        config = self.server.config
        return {
            **self.server.heap.mem_stats(),
            "budget_bytes": config.mem_budget_bytes,
            "txn_budget_objects": config.mem_txn_budget_objects,
            "pressure": self.mem_pressure,
            "shed_rounds": self._mem_shed_rounds,
        }

    def mem_watchdog_tick(self) -> None:
        """Shed load when the heap outgrows its byte budget.

        Over budget: deferrable image writers stand down (:attr:`shedding`)
        and the clean-object cache bound is halved, evicting immediately.
        Under 80% of budget: restore everything.  The busy-style admission
        check (:meth:`check_memory`) handles the per-request half; this
        timer handles the standing pressure.
        """
        heap = self.server.heap
        budget = self.server.config.mem_budget_bytes
        stats = heap.mem_stats()
        _MEM_CACHED_BYTES.set(stats["cached_bytes"])
        shrunk = max(16, (stats["cached_objects"] or 32) // 2)
        if stats["cached_bytes"] > budget and not self.mem_pressure:
            self.mem_pressure = True
            self._mem_shed_rounds += 1
            _MEM_PRESSURE.set(1)
            heap.set_cache_limit(shrunk)
            TRACER.event(
                "server.mem.shed", cached_bytes=stats["cached_bytes"],
                budget=budget, cache_limit=shrunk,
            )
        elif self.mem_pressure and stats["cached_bytes"] < 0.8 * budget:
            self.mem_pressure = False
            _MEM_PRESSURE.set(0)
            heap.set_cache_limit(HEAP_CACHE_LIMIT)
            TRACER.event(
                "server.mem.restore", cached_bytes=stats["cached_bytes"],
                cache_limit=HEAP_CACHE_LIMIT,
            )
        elif self.mem_pressure:
            # still over the hysteresis band: keep squeezing the cache
            heap.set_cache_limit(shrunk)
