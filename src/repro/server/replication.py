"""Commit-log shipping replication: primary fan-out, followers, fencing.

One replicated image is a *primary* daemon plus any number of *replica*
daemons.  The primary captures every committed transaction as a logical
:class:`~repro.store.commitlog.ChangeRecord` (the heap's ``change_sink``
hook hands it the exact serialized payloads the commit wrote), appends it
to a durable :class:`~repro.store.commitlog.CommitLog` next to the image,
and streams it to subscribed replicas over the ordinary length-prefixed
JSON protocol.  Replicas apply records under the image's write lock via
:meth:`~repro.store.heap.ObjectHeap.apply_changes`, append them to their
own log (so a promoted replica can serve catch-up), and acknowledge each
applied version back to the primary.

**Coordinates.**  Each record carries a monotone ``version`` (contiguous
per lineage) and the producing primary's fencing ``term``.  Both are also
stamped *inside* the image via the ``__replication__`` root, which the
primary's ``pre_commit`` hook folds into every commit — so the durable
image itself always knows which (term, version) it embodies, atomically
with the data.

**Fencing.**  Promotion (:meth:`ReplicaFollower.promote` via the daemon's
``promote`` op) bumps the term above every term the node has ever seen.
A deposed primary keeps producing records under its old term; any replica
that has accepted a higher term rejects those records — and rejects
snapshot resyncs stamped with the stale term — so a split brain cannot
roll back state acknowledged under the newer term.  ``fence=False``
disables exactly these checks; the chaos harness uses it as the negative
control that proves the checks are what prevents acknowledged-write loss.

**Sync acknowledgement.**  With ``sync_replicas=N`` the daemon holds each
write's response until N subscribers acknowledged the commit's version
(:meth:`PrimaryReplication.wait_for_acks`); a timeout answers with the
structured ``replication_timeout`` error (the write *is* committed
locally), so a client-visible success implies the write survives failover
to any acked replica.

**Code.**  A stored module is PTML in the image, so replicating the image
replicates the code.  An applied record that binds or removes a
``module:*`` root, and every snapshot resync, makes the replica's
:class:`~repro.lang.system.TycoonSystem` forget the modules concerned
(:meth:`~repro.lang.system.TycoonSystem.forget`, under the write lock);
the next ``call`` that reaches one regenerates it from the applied image.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import TYPE_CHECKING

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.server import protocol
from repro.server.protocol import recv_frame, send_frame
from repro.store.commitlog import ChangeRecord, CommitLog, CommitLogError
from repro.store.concurrency import TransactionManager
from repro.store.heap import ChangeSet, HeapError, ObjectHeap

if TYPE_CHECKING:
    from repro.lang.system import TycoonSystem

__all__ = [
    "REPL_ROOT",
    "ReplicationError",
    "StaleTermError",
    "replication_state",
    "PrimaryReplication",
    "ReplicaFollower",
]

_RECORDS_SHIPPED = METRICS.counter(
    "server.repl.records_shipped", "change records enqueued to subscribers"
)
_RECORDS_APPLIED = METRICS.counter(
    "server.repl.records_applied", "change records applied by this follower"
)
_RESYNCS = METRICS.counter(
    "server.repl.resyncs", "snapshot resyncs served or applied"
)
_FENCED = METRICS.counter(
    "server.repl.fenced", "stale-term records/snapshots rejected by fencing"
)
_ACK_TIMEOUTS = METRICS.counter(
    "server.repl.ack_timeouts", "sync writes that missed their ack quorum"
)
_LAG_VERSIONS = METRICS.gauge(
    "server.repl.lag_versions", "versions this follower is behind its primary"
)
_APPLY_LATENCY = METRICS.histogram(
    "server.repl.apply_latency_us",
    "primary commit → local apply latency (microseconds)",
)

#: root holding ``{"term", "version", "node"}`` — committed atomically with
#: every transaction, making the image self-describing for replication
REPL_ROOT = "__replication__"

#: prefix of two-phase-commit staging roots (:mod:`repro.server.sharding`).
#: A commit that creates or retires one is a 2PC phase transition; the
#: change sink stamps the phase into the record's ``meta`` so the commit
#: log itself shows which transactions were in doubt at any point.
TWOPC_STAGING_PREFIX = "__2pc__:"


def _twopc_meta(changes: ChangeSet, staging: set[str]) -> dict:
    """Commit-log ``meta`` for a 2PC phase transition (empty otherwise).

    ``staging`` is the set of staging roots the committed image held
    before this commit, and is brought up to date here.  The commit's own
    root delta classifies it: a staging root it binds that was not there
    is a *prepare*, one it unbinds is a *decide* (the participant applied
    or rolled back and retired the staging record).
    """
    appeared = {
        n for n in changes.roots
        if n.startswith(TWOPC_STAGING_PREFIX) and n not in staging
    }
    retired = staging.intersection(changes.removed)
    staging |= appeared
    staging -= retired
    prepared = sorted(n[len(TWOPC_STAGING_PREFIX):] for n in appeared)
    decided = sorted(n[len(TWOPC_STAGING_PREFIX):] for n in retired)
    meta: dict = {}
    if prepared:
        meta["twopc"] = prepared[0] if len(prepared) == 1 else prepared
        meta["phase"] = "prepare"
    elif decided:
        meta["twopc"] = decided[0] if len(decided) == 1 else decided
        meta["phase"] = "decide"
    return meta


class ReplicationError(Exception):
    """Replication protocol violation or invalid role operation."""


class StaleTermError(ReplicationError):
    """Fencing: the peer's term proves this node's view is deposed."""

    def __init__(self, message: str, term: int):
        super().__init__(message)
        self.term = term


def replication_state(heap: ObjectHeap) -> dict:
    """The committed ``__replication__`` coordinates of an image."""
    oid = heap.root(REPL_ROOT)
    if oid is None:
        return {"term": 0, "version": 0, "node": ""}
    try:
        state = heap.load(oid)
    except HeapError:
        return {"term": 0, "version": 0, "node": ""}
    if not isinstance(state, dict):
        return {"term": 0, "version": 0, "node": ""}
    return {
        "term": int(state.get("term", 0)),
        "version": int(state.get("version", 0)),
        "node": str(state.get("node", "")),
    }


def _open_log(path: str, version: int, term: int) -> CommitLog:
    """Open the node's commit log, dropping it when it disagrees with the
    image (a crash can land between image commit and log append; serving
    catch-up from a log that skips a version would diverge followers —
    they get a snapshot resync instead)."""
    log = CommitLog(path)
    if log.last_version is not None and (
        log.last_version != version or log.last_term != term
    ):
        log.reset()
    return log


class _Subscriber:
    """One follower connection on the primary: queue + sender thread."""

    def __init__(self, key: int, node: str, send, acked: int):
        self.key = key
        self.node = node
        self.send = send  # session.send — thread-safe, raises OSError when gone
        self.queue: queue.Queue = queue.Queue()
        #: highest version this follower acknowledged as applied
        self.acked = acked
        self.alive = True


class PrimaryReplication:
    """The primary role: change capture, durable log, subscriber fan-out."""

    def __init__(
        self,
        heap: ObjectHeap,
        txns: TransactionManager,
        log_path: str,
        node: str,
        term: int | None = None,
        fence: bool = True,
    ):
        self.heap = heap
        self.txns = txns
        self.node = node
        self.fence = fence
        state = replication_state(heap)
        self.version = state["version"]
        #: fencing term this primary produces records under (>= 1)
        self.term = term if term is not None else max(1, state["term"])
        if self.term < state["term"]:
            raise ReplicationError(
                f"cannot start primary at term {self.term}: the image has "
                f"already committed under term {state['term']}"
            )
        self.log = _open_log(log_path, self.version, state["term"])
        self._pending = self.version
        #: staging roots present in the committed image — the baseline the
        #: next commit's 2PC phase classification reads (kept by _twopc_meta)
        self._staging = {
            n for n in heap.root_names() if n.startswith(TWOPC_STAGING_PREFIX)
        }
        #: serializes fan-out vs. subscriber registration, so a subscriber
        #: never misses the records committed while it was catching up
        self._fanout = threading.Lock()
        self._subs: dict[int, _Subscriber] = {}
        self._ack_cond = threading.Condition()
        self._stopped = False

    # --------------------------------------------------------- commit hooks

    def attach(self) -> None:
        self.heap.pre_commit = self._pre_commit
        self.heap.change_sink = self._change_sink

    def detach(self) -> None:
        if self.heap.pre_commit is self._pre_commit:
            self.heap.pre_commit = None
        if self.heap.change_sink is self._change_sink:
            self.heap.change_sink = None

    def _pre_commit(self, heap: ObjectHeap) -> None:
        # stamp the coordinates of the commit being built; self.version only
        # advances in _change_sink, i.e. once the commit actually succeeded
        self._pending = self.version + 1
        state = {"term": self.term, "version": self._pending, "node": self.node}
        oid = heap.root(REPL_ROOT)
        if oid is None:
            heap.set_root(REPL_ROOT, heap.store(state))
        else:
            heap.update(oid, state)

    def _change_sink(self, changes: ChangeSet) -> None:
        self.version = self._pending
        meta = _twopc_meta(changes, self._staging)
        # the sink runs on the committing request's thread: whatever trace
        # context the daemon activated for that request is current here, so
        # the record carries the originating trace end-to-end
        ctx = TRACER.current()
        record = ChangeRecord(
            version=self.version,
            term=self.term,
            oid_counter=changes.oid_counter,
            objects=changes.objects,
            roots=changes.roots,
            removed=changes.removed,
            node=self.node,
            trace_id=ctx.trace_id if ctx is not None else "",
            committed_ts_us=int(time.time() * 1_000_000),
            meta=meta,
        )
        try:
            self.log.append(record)
        except CommitLogError:
            # a gap (e.g. the log was behind the image at boot): restart the
            # log here; followers older than this point get snapshots
            self.log.reset()
            self.log.append(record)
        with self._fanout:
            subs = [s for s in self._subs.values() if s.alive]
        for sub in subs:
            sub.queue.put(record)
            _RECORDS_SHIPPED.inc()

    # ---------------------------------------------------------- subscribers

    def subscribe(
        self, key: int, node: str, from_version: int, last_term: int, send
    ) -> dict:
        """Register a follower; returns the handshake result.

        The caller (daemon) invokes this on the subscriber's connection
        thread.  Either the follower's history is a prefix of ours (serve
        records ``from_version+1..``) or it diverged / predates the log
        (serve a full snapshot).  Registration happens under the fan-out
        lock *while holding a read transaction*, so the catch-up content
        and the live stream tile exactly: no record is missed or doubled.
        """
        if self.fence and last_term > self.term:
            _FENCED.inc()
            raise StaleTermError(
                f"subscriber {node!r} has accepted term {last_term}, "
                f"this primary is at term {self.term}",
                term=last_term,
            )
        with self.txns.read():
            with self._fanout:
                resync = False
                catchup = iter(())  # bounded-batch record iterator
                if from_version > self.version:
                    resync = True  # follower is ahead: divergent lineage
                elif from_version < self.version:
                    lineage_ok = (
                        self.log.term_at(from_version) == last_term
                        if from_version else self._log_starts_empty()
                    )
                    if lineage_ok and self.log.has(from_version + 1):
                        catchup = self.log.read_from(from_version + 1)
                    else:
                        resync = True
                elif from_version and self.log.term_at(from_version) not in (
                    None,
                    last_term,
                ):
                    resync = True  # same version, different history
                result: dict = {
                    "term": self.term,
                    "version": self.version,
                    "node": self.node,
                    "resync": resync,
                }
                if resync:
                    _RESYNCS.inc()
                    objects, roots, oid_counter = self.heap.snapshot_state()
                    result["snapshot"] = ChangeRecord(
                        version=self.version,
                        term=self.term,
                        oid_counter=oid_counter,
                        objects=tuple(objects),
                        roots=roots,
                        node=self.node,
                    ).as_wire()
                sub = _Subscriber(key, node, send, acked=from_version)
                # drain the (batched) catch-up iterator while still inside
                # the read txn + fan-out lock, so catch-up and live stream
                # tile exactly; only one batch is in memory at a time
                caught_up = 0
                for record in catchup:
                    sub.queue.put(record)
                    caught_up += 1
                self._subs[key] = sub
        threading.Thread(
            target=self._pump, args=(sub,), name=f"repro-repl-sub-{key}", daemon=True
        ).start()
        TRACER.event(
            "server.repl.subscribe", node=node, from_version=from_version,
            resync=resync, catchup=caught_up,
        )
        return result

    def _log_starts_empty(self) -> bool:
        """True when record 1 wrote every object below its OID counter, so
        an empty follower may replay the log; an image built before its
        first replicated commit holds objects no record carries."""
        first = next(self.log.read_from(1, batch=1), None) if self.log.has(1) else None
        return first is not None and len(first.objects) == first.oid_counter - 1

    def _pump(self, sub: _Subscriber) -> None:
        while sub.alive and not self._stopped:
            try:
                item = sub.queue.get(timeout=0.5)
            except queue.Empty:
                continue
            if isinstance(item, ChangeRecord):
                item = {"push": "record", "record": item.as_wire()}
            try:
                sub.send(item)
            except (OSError, protocol.ProtocolError):
                self.drop_subscriber(sub.key)
                return

    def notify_degraded(self, reason: str) -> None:
        """Tell every subscriber the primary lost its disk (best effort).

        Pushes a ``{"push": "degraded"}`` frame on each subscriber
        connection so replicas can surface ``primary_degraded`` in their
        status — the signal a cluster client uses to fail writes over
        instead of hammering a read-only primary.  Pre-v5 followers skip
        unknown push kinds, so the frame is backward-safe.  The frame goes
        through each subscriber's queue, behind the records committed
        before the failure: a follower reads a record push as "the primary
        is writing again", so the notice must never overtake one.
        """
        with self._fanout:
            subs = [s for s in self._subs.values() if s.alive]
        for sub in subs:
            sub.queue.put({"push": "degraded", "reason": reason})

    def ack(self, key: int, version: int) -> None:
        with self._fanout:
            sub = self._subs.get(key)
            if sub is not None:
                sub.acked = max(sub.acked, int(version))
        with self._ack_cond:
            self._ack_cond.notify_all()

    def drop_subscriber(self, key: int) -> None:
        with self._fanout:
            sub = self._subs.pop(key, None)
            if sub is not None:
                sub.alive = False
        with self._ack_cond:
            self._ack_cond.notify_all()

    def acked_count(self, version: int) -> int:
        with self._fanout:
            return sum(1 for s in self._subs.values() if s.acked >= version)

    def wait_for_acks(self, version: int, count: int, timeout: float) -> int:
        """Block until ``count`` subscribers acked ``version`` (or timeout);
        returns the number that did."""
        deadline = time.monotonic() + timeout
        with self._ack_cond:
            while True:
                acked = self.acked_count(version)
                if acked >= count:
                    return acked
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    _ACK_TIMEOUTS.inc()
                    return acked
                self._ack_cond.wait(remaining)

    # -------------------------------------------------------------- control

    def status(self) -> dict:
        with self._fanout:
            subs = [
                {
                    "node": s.node,
                    "acked": s.acked,
                    "lag": max(0, self.version - s.acked),
                    "bytes_behind": self.log.bytes_since(s.acked),
                }
                for s in self._subs.values()
            ]
        return {
            "role": "primary",
            "node": self.node,
            "term": self.term,
            "version": self.version,
            "fence": self.fence,
            "subscribers": subs,
            "log": {
                "first": self.log.first_version,
                "last": self.log.last_version,
            },
        }

    def stop(self) -> None:
        self._stopped = True
        self.detach()
        with self._fanout:
            subs = list(self._subs.values())
            self._subs.clear()
        for sub in subs:
            sub.alive = False
        self.log.close()


class ReplicaFollower:
    """The replica role: subscribe upstream, apply, ack, report lag."""

    def __init__(
        self,
        heap: ObjectHeap,
        txns: TransactionManager,
        system: TycoonSystem,
        upstream: tuple[str, int],
        log_path: str,
        node: str,
        fence: bool = True,
        retry_delay: float = 0.2,
        connect_timeout: float = 5.0,
    ):
        self.heap = heap
        self.txns = txns
        #: the code this node runs: each apply drops what it rebinds
        self.system = system
        self.upstream = (upstream[0], int(upstream[1]))
        self.node = node
        self.fence = fence
        self.retry_delay = retry_delay
        self.connect_timeout = connect_timeout
        state = replication_state(heap)
        #: highest term this node has ever accepted (fencing floor)
        self.term = state["term"]
        #: last applied record version
        self.version = state["version"]
        #: primary's version as of the last handshake/record (lag source)
        self.primary_version = self.version
        self.connected = False
        self.last_error: str | None = None
        #: the upstream primary announced it flipped into degraded
        #: read-only mode (disk failure) — surfaced in status() so a
        #: cluster client can fail writes over to a promoted node
        self.primary_degraded = False
        self.primary_degraded_reason: str | None = None
        self.log = _open_log(log_path, self.version, self.term)
        self._apply_lock = threading.Lock()
        self._stop = threading.Event()
        self._sock: socket.socket | None = None
        self._thread = threading.Thread(
            target=self._run, name=f"repro-repl-follow-{node}", daemon=True
        )

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        self._thread.start()

    def _interrupt(self) -> None:
        """Wake the follow thread out of a blocking recv immediately."""
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def stop(self) -> None:
        self._stop.set()
        self._interrupt()
        self._thread.join(timeout=10)
        self.log.close()

    def promote(self, term: int | None = None) -> int:
        """Stop following and return the fencing term to produce under:
        strictly above every term this node has accepted."""
        self._stop.set()
        self._interrupt()
        self._thread.join(timeout=10)
        new_term = max(self.term + 1, term if term is not None else 0)
        self.log.close()
        return new_term

    # ------------------------------------------------------------ following

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self._follow_once()
            except (OSError, protocol.ProtocolError, ReplicationError,
                    CommitLogError, HeapError) as exc:
                self.connected = False
                self.last_error = f"{type(exc).__name__}: {exc}"
            if not self._stop.is_set():
                self._stop.wait(self.retry_delay)

    def _follow_once(self) -> None:
        with socket.create_connection(self.upstream, timeout=self.connect_timeout) as sock:
            self._sock = sock
            send_frame(sock, {
                "id": 1,
                "op": "repl.subscribe",
                "node": self.node,
                "from_version": self.version,
                "last_term": self.term,
            })
            sock.settimeout(self.connect_timeout)
            # the primary's sender thread may start pushing records before
            # the handshake response frame is written: buffer such pushes
            # (they are already in apply order) and replay them after
            pending: list[dict] = []
            response = None
            while response is None:
                frame = self._next_frame(sock)
                if frame is None:
                    return
                if frame.get("push") == "record":
                    pending.append(frame)
                elif "id" in frame:
                    response = frame
            if not response.get("ok"):
                error = response.get("error") or {}
                self.last_error = f"[{error.get('code')}] {error.get('message')}"
                return
            result = response.get("result", {})
            upstream_term = int(result.get("term", 0))
            if self.fence and upstream_term < self.term:
                # a deposed primary: refuse to follow it backwards
                _FENCED.inc()
                self.last_error = (
                    f"upstream term {upstream_term} is behind accepted term "
                    f"{self.term}; refusing stream"
                )
                return
            self.primary_version = int(result.get("version", self.version))
            _LAG_VERSIONS.set(self.lag)
            if result.get("resync"):
                self._apply_snapshot(ChangeRecord.from_wire(result["snapshot"]))
            self.connected = True
            self.last_error = None
            ack_id = 2
            while not self._stop.is_set():
                if pending:
                    frame = pending.pop(0)
                else:
                    frame = self._next_frame(sock)
                if frame is None:
                    self.connected = False
                    return
                if frame.get("push") == "degraded":
                    self.primary_degraded = True
                    self.primary_degraded_reason = frame.get("reason")
                    continue
                if frame.get("push") != "record":
                    continue  # ack responses and future pushes
                # a record push means the primary is writing again
                self.primary_degraded = False
                self.primary_degraded_reason = None
                record = ChangeRecord.from_wire(frame["record"])
                if not self._apply_record(record):
                    self.connected = False
                    return  # rejected (fencing) or gap: reconnect/handshake
                send_frame(sock, {
                    "id": ack_id, "op": "repl.ack",
                    "version": self.version, "node": self.node,
                })
                ack_id += 1

    def _next_frame(self, sock: socket.socket) -> dict | None:
        """One frame, treating idle timeouts as 'check _stop and go on'."""
        while True:
            try:
                return recv_frame(sock)
            except socket.timeout:
                if self._stop.is_set():
                    return None

    # -------------------------------------------------------------- applying

    def _apply_snapshot(self, snapshot: ChangeRecord) -> None:
        if self.fence and snapshot.term < self.term:
            _FENCED.inc()
            raise StaleTermError(
                f"snapshot from term {snapshot.term} rejected: this node "
                f"accepted term {self.term}",
                term=snapshot.term,
            )
        _RESYNCS.inc()
        with self._apply_lock:
            with self.txns.lock.write_locked(timeout=self.connect_timeout):
                self.heap.reset_state(
                    list(snapshot.objects), dict(snapshot.roots), snapshot.oid_counter
                )
                for name in list(self.system.compiled):
                    self.system.forget(name)
                self.txns.bump()
            self.version = snapshot.version
            self.term = max(self.term, snapshot.term)
            self.log.reset()
        _LAG_VERSIONS.set(self.lag)
        TRACER.event(
            "server.repl.resync", version=snapshot.version, term=snapshot.term,
            objects=len(snapshot.objects),
        )

    def _apply_record(self, record: ChangeRecord) -> bool:
        if self.fence and record.term < self.term:
            _FENCED.inc()
            self.last_error = (
                f"record v{record.version} from deposed term {record.term} "
                f"rejected (accepted term {self.term})"
            )
            return False
        with self._apply_lock:
            if record.version != self.version + 1:
                self.last_error = (
                    f"record v{record.version} does not follow applied "
                    f"v{self.version}; renegotiating"
                )
                return False
            # re-activate the originating trace so the apply span joins the
            # same distributed trace the primary's commit belongs to
            with TRACER.activate(record.trace_id or None):
                with TRACER.span(
                    "server.repl.apply", version=record.version,
                    term=record.term, origin=record.node,
                ):
                    with self.txns.lock.write_locked(timeout=self.connect_timeout):
                        self.heap.apply_changes(
                            record.objects,
                            record.roots,
                            record.removed,
                            record.oid_counter,
                        )
                        for root in (*record.roots, *record.removed):
                            if root.startswith("module:"):
                                self.system.forget(root[len("module:"):])
                        self.txns.bump()
            self.version = record.version
            self.term = max(self.term, record.term)
            self.primary_version = max(self.primary_version, record.version)
            try:
                self.log.append(record)
            except CommitLogError:
                self.log.reset()
                self.log.append(record)
        _RECORDS_APPLIED.inc()
        if record.committed_ts_us:
            _APPLY_LATENCY.observe(
                max(0, int(time.time() * 1_000_000) - record.committed_ts_us)
            )
        _LAG_VERSIONS.set(self.lag)
        return True

    # --------------------------------------------------------------- status

    @property
    def lag(self) -> int:
        return max(0, self.primary_version - self.version)

    def status(self) -> dict:
        return {
            "role": "replica",
            "node": self.node,
            "term": self.term,
            "version": self.version,
            "fence": self.fence,
            "upstream": {"host": self.upstream[0], "port": self.upstream[1]},
            "connected": self.connected,
            "lag": self.lag,
            "last_error": self.last_error,
            "primary_degraded": self.primary_degraded,
            "primary_degraded_reason": self.primary_degraded_reason,
        }
