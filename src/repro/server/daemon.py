"""The repro daemon: concurrent sessions over one persistent image.

One :class:`ReproServer` owns one :class:`~repro.store.heap.ObjectHeap`
and one :class:`~repro.lang.TycoonSystem` built over it.  Clients connect
over TCP; each connection is one *session*.  Per connection a cheap reader
thread parses frames and submits stateless requests to the bounded worker
pool (:mod:`repro.server.pool`); a full queue answers with the structured
``backpressure`` error instead of queueing unboundedly.  ``begin`` and
every request of a session holding an open transaction run on the
session's own connection thread instead (see :meth:`ReproServer._admit`),
so a session blocked on the transaction lock can never starve the pool.

Transactions (single-writer / snapshot-reader, see
:mod:`repro.store.concurrency`):

* without an explicit transaction each request runs in its own implicit
  one — ``read`` for pure execution, ``write`` (auto-commit) for
  mutating operations;
* ``begin``/``commit``/``abort`` give a session an explicit transaction
  spanning several requests; a write transaction holds the image
  exclusively until the session commits, aborts or disconnects.

Execution requests resolve stored functions through the system's live
links (:meth:`ReproServer.resolve`) and run on a fresh VM per request with
a per-request step limit (the budget errors surface as structured
``step_limit`` responses).  Each run collects PGO evidence — a
:class:`~repro.obs.profile.ClosureProfile`, per-closure invocations and
instructions credited once per activation, so the run still executes in the
compiled tier — whether it returns, raises or runs out of steps; the
aggregated profile feeds the background PGO worker
(:mod:`repro.server.pgo`), which rewrites hot functions in the live image
— sessions transparently pick up the faster code on their next call.

This module keeps configuration, sessions, lifecycle, admission and the
one dispatch path (:meth:`ReproServer._handle`); what each operation does
lives in the op table it reads (:mod:`repro.server.ops`), degraded mode,
scrub and the memory governor in :mod:`repro.server.health`.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
import traceback

from repro.analysis.verify_tam import TamVerificationError
from repro.lang.errors import TLError
from repro.lang.stdlib import STDLIB_MODULE_NAMES
from repro.lang.system import TycoonSystem
from repro.obs.exporters import NdjsonRecorder
from repro.obs.history import MetricsHistory
from repro.obs.metrics import METRICS
from repro.obs.profile import ClosureProfile
from repro.obs.slowlog import SlowLog
from repro.obs.trace import NULL_SPAN, TRACER, new_trace_id
from repro.server import protocol, roles
from repro.server.config import ServerConfig
from repro.server.health import HEAP_CACHE_LIMIT, Health, note_io_error
from repro.server.ops import OPS
from repro.server.periodic import Periodic
from repro.server.pgo import PgoWorker
from repro.server.pool import Backpressure, WorkerPool
from repro.server.protocol import RequestError, number, recv_frame, send_frame
from repro.server.replication import PrimaryReplication, ReplicaFollower
from repro.server.sharding.coordinator import OPS as COORDINATOR_OPS, Coordinator
from repro.server.sharding.participant import load_topology
from repro.server.sharding.ring import ShardTopology
from repro.store.concurrency import LockTimeout, TransactionManager
from repro.store.heap import HeapError, ObjectHeap
from repro.store.recovery import LogArchiver

__all__ = ["ServerConfig", "Session", "ReproServer", "RequestError"]

_REQUESTS = METRICS.counter("server.requests", "requests received")
_REQUEST_ERRORS = METRICS.counter("server.request_errors", "requests answered with an error")
_LATENCY = METRICS.histogram(
    "server.request_latency_us", "request handling latency (microseconds)"
)
_ACTIVE_SESSIONS = METRICS.gauge("server.active_sessions", "connected sessions")
_SESSIONS_OPENED = METRICS.counter("server.sessions_opened", "sessions accepted")
_DRAIN_ABORTS = METRICS.counter(
    "server.drain_aborted_txns", "open transactions aborted by graceful shutdown"
)
_REAPED_SESSIONS = METRICS.counter(
    "server.reaped_sessions", "sessions closed by the idle timeout/reaper"
)
_SHED_DEADLINE = METRICS.counter(
    "server.shed.deadline", "requests dropped because their deadline had expired"
)
_SHED_OVERLOADED = METRICS.counter(
    "server.shed.overloaded", "requests shed after waiting too long in the queue"
)
_SLOW_CLIENT_CLOSES = METRICS.counter(
    "server.slow_client_closes", "sessions closed for blocking in send too long"
)
_CODE_HITS = METRICS.counter(
    "server.codecache.hits", "calls into a module that was already linked"
)
_CODE_MISSES = METRICS.counter(
    "server.codecache.misses", "calls that linked their module first"
)


class Session:
    """One client connection: id, socket, and its open transaction."""

    def __init__(self, session_id: int, sock: socket.socket, addr):
        self.id = session_id
        self.sock = sock
        self.addr = addr
        self.txn = None
        #: serializes request execution within the session (requests keep
        #: their submission order even if pool scheduling would race them)
        self.lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._txn_lock = threading.Lock()
        self.closed = False
        #: monotonic timestamp of the last received frame (reaper input)
        self.last_active = time.monotonic()
        #: monotonic timestamp since when a send has been blocked in
        #: sendall (None when not sending) — the reaper closes sessions
        #: stuck here past ``send_timeout`` so a slow client that stopped
        #: reading cannot pin a worker thread indefinitely
        self.sending_since: float | None = None
        #: replication subscriber connections are long-lived and mostly
        #: quiet — exempt from idle timeout and the reaper
        self.subscriber = False
        #: the connection's reader thread (joined by the teardown)
        self.thread: threading.Thread | None = None

    def take_txn(self):
        """Atomically detach and return the open transaction (or None).

        Both the connection thread's cleanup and the shutdown drain race to
        release a session; whoever wins the swap aborts (and counts) the
        transaction exactly once.
        """
        with self._txn_lock:
            txn, self.txn = self.txn, None
            return txn

    def send(self, message: dict) -> None:
        with self._send_lock:
            if not self.closed:
                self.sending_since = time.monotonic()
                try:
                    send_frame(self.sock, message)
                finally:
                    self.sending_since = None

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError as exc:
            # routine when the peer hung up first, but never silent: a
            # non-disconnect errno here can be the first sign of trouble
            note_io_error("session.close", exc)
        self.sock.close()



class ReproServer:
    """The multi-session daemon over one persistent image."""

    def __init__(self, image: str | None, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self.image_path = image
        is_replica = self.config.replica_of is not None
        if (is_replica or self.config.replicate) and image is None:
            raise ValueError("replication needs a file-backed image")
        started = time.monotonic()
        self.heap = ObjectHeap(
            image, cache_limit=HEAP_CACHE_LIMIT, io_factory=self.config.io_factory
        )
        opened = time.monotonic()
        # a replica's heap state is the primary's, object for object — it
        # must not write locally, so the stdlib links purely in memory
        self.system = TycoonSystem(heap=self.heap, persist_stdlib=not is_replica)
        #: seconds per in-process phase of the boot (``stats`` → ``boot``):
        #: open the image, compile and link the stdlib, load the stored
        #: modules and caches, the boot commit
        self.boot_phases = {"open_s": opened - started, "stdlib_s": time.monotonic() - opened}
        self.txns = TransactionManager(
            self.heap,
            default_timeout=self.config.lock_timeout,
            io_rollback=not self.config.unsafe_no_degraded,
        )
        self.slowlog = SlowLog(self.config.slowlog_capacity)
        self.history = MetricsHistory()
        #: NDJSON recorder installed by the ``trace`` op (daemon-managed;
        #: a recorder attached by the embedding process is never touched)
        self._trace_recorder: NdjsonRecorder | None = None
        self._trace_path: str | None = None
        self._trace_lock = threading.Lock()
        TRACER.sample_rate = self.config.trace_sample
        self.pool = WorkerPool(
            workers=self.config.workers,
            queue_size=self.config.queue_size,
            name="repro-server",
        )
        self.health = Health(self)
        self.pgo_worker: PgoWorker | None = (
            PgoWorker(self)
            # PGO rewrites functions in the image: primary-only by nature
            if self.config.pgo_interval is not None and not is_replica
            else None
        )
        #: replication roles (at most one is non-None; both None when the
        #: image is a plain standalone server).  role_lock guards the
        #: promote/follow transitions (repro.server.roles).
        self.replication: PrimaryReplication | None = None
        self.follower: ReplicaFollower | None = None
        self.role_lock = threading.Lock()
        #: merged profile of every profiled request since the last PGO round
        self._profile = ClosureProfile()
        self._profile_lock = threading.Lock()
        self._sessions: dict[int, Session] = {}
        self._sessions_lock = threading.Lock()
        self._next_session = 1
        self._listener: socket.socket | None = None
        self._bound_port: int | None = None
        self._accept_thread: threading.Thread | None = None
        #: every timer of this daemon, started by start() and stopped and
        #: joined by the teardown
        self._tasks: list[Periodic] = []
        self.stopping = threading.Event()
        self._stopped = threading.Event()
        self._stop_once = threading.Lock()  # won exactly once, never released
        self._started_at = time.monotonic()
        #: continuous commit-log archiving (None: disabled or no image)
        self.archiver: LogArchiver | None = None
        if self.config.replicate and not is_replica:
            self.replication = roles.make_primary(self, "primary", None)
        self._boot()
        if is_replica:
            self.follower = roles.make_follower(self, self.config.replica_of)
        roles.attach_archiver(self)
        #: the sharding topology this node operates under: explicit config
        #: wins, else whatever ``__topology__`` the image carries
        self.topology: ShardTopology | None = None
        if self.config.shards:
            self.topology = ShardTopology.build(
                self.config.shards, vnodes=self.config.shard_vnodes
            )
        else:
            load_topology(self)
        #: the effective op table.  A coordinator overrides the data plane
        #: (get/set/mset/run/scatter/topology) and augments stats; every
        #: other op stays the base entry, so a coordinator is still a full
        #: daemon (ping, call, transactions, replication ops) over its image.
        self.ops = OPS
        self.coordinator: Coordinator | None = None
        if self.config.coordinator:
            self.coordinator = Coordinator(self)
            self.ops = {**OPS, **COORDINATOR_OPS}
        if self.config.read_only:
            # manual override: after the boot commit (a fresh image still
            # needs its baseline), the daemon serves reads only and the
            # recovery probe never clears it
            self.health.enter_degraded("manual read-only override", manual=True)

    @property
    def role(self) -> str:
        if self.replication is not None:
            return "primary"
        if self.follower is not None:
            return "replica"
        return "standalone"

    def repl_version(self) -> int:
        """The replication version this node embodies (staleness floor)."""
        node = self.replication or self.follower
        return node.version if node is not None else self.txns.version

    # ----------------------------------------------------------------- boot

    def _boot(self) -> None:
        """Load persisted modules and the metrics history, commit boot state.

        Building the :class:`TycoonSystem` stores the stdlib's PTML into
        the image (dirty objects), so a fresh image gets one boot commit
        establishing the baseline.  A module that cannot be decoded or
        whose code fails verification is skipped; the others are served.
        """
        started = time.monotonic()
        loaded = []
        for root in self.heap.root_names():
            if not root.startswith("module:"):
                continue
            name = root[len("module:"):]
            if name in STDLIB_MODULE_NAMES:
                continue
            try:
                self.system.load(name)
                loaded.append(name)
            except (TLError, HeapError, TamVerificationError) as exc:
                print(f"repro-server: skipping module {name!r}: {exc}", file=sys.stderr)
        # the persisted metrics history survives restarts: reload the ring
        # so `stats --history` sees across-restart continuity
        warm_history = self.history.attach(self.heap)
        committing = time.monotonic()
        self.heap.commit()
        self.boot_phases.update(
            modules_s=committing - started, commit_s=time.monotonic() - committing
        )
        TRACER.event(
            "server.boot", modules=loaded, warm_history=warm_history,
            roots=len(self.heap.root_names()), **self.boot_phases,
        )

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Bind, listen and serve in background threads; returns at once."""
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.config.host, self.config.port))
        self._listener.listen(64)
        self._bound_port = self._listener.getsockname()[1]
        self.pool.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept", daemon=True
        )
        self._accept_thread.start()
        if self.follower is not None:
            self.follower.start()
        config, health, pgo = self.config, self.health, self.pgo_worker
        reaping = config.idle_timeout is not None or config.send_timeout is not None
        watching = config.mem_budget_bytes is not None
        self._tasks = [
            Periodic(name, interval, tick)
            for name, interval, tick in (
                ("repro-server-reaper", config.reaper_interval if reaping else None, self._reap),
                ("repro-server-history", config.history_interval, self._history_tick),
                ("repro-server-probe", config.degraded_probe_interval, health.probe_tick),
                ("repro-server-scrub", config.scrub_interval, health.run_scrub_cycle),
                ("repro-server-memwatch", config.mem_watchdog_interval if watching else None,
                 health.mem_watchdog_tick),
                ("repro-pgo", config.pgo_interval if pgo else None, pgo and pgo.tick),
            )
            if interval is not None  # None: this timer is configured off
        ]
        if self.coordinator is not None:
            self._tasks.append(self.coordinator.resolver)
        for task in self._tasks:
            task.start()
        if self.coordinator is not None:
            # topology push + in-doubt recovery now, not one interval on
            self.coordinator.resolver.wake()

    def _history_tick(self) -> None:
        """Snapshot the metrics registry into ``obs:history``.

        Replicas record in memory only — they must never write their image
        locally (it would fork away from the primary's) — so only primary
        and standalone daemons persist the ring; no image writes while
        degraded or shedding either.
        """
        self.record_history_snapshot()
        if self.health.shedding or self.follower is not None:
            return
        try:
            with self.txns.write(timeout=1.0):
                self.history.flush(self.heap)
        except LockTimeout:
            pass  # contended image: the next tick retries
        except OSError as exc:
            self.health.commit_io_failure("history.flush", exc)

    def uptime_s(self) -> float:
        return round(time.monotonic() - self._started_at, 3)

    def session_count(self) -> int:
        with self._sessions_lock:
            return len(self._sessions)

    def record_history_snapshot(self, **meta) -> dict:
        """Append one metrics snapshot to the in-memory history ring."""
        return self.history.record(
            METRICS,
            role=self.role,
            version=self.txns.version,
            repl_version=self.repl_version(),
            uptime_ms=int((time.monotonic() - self._started_at) * 1000),
            sessions=len(self._sessions),
            **meta,
        )

    @property
    def port(self) -> int:
        # cached at bind time: still answerable after a stop/crash (a
        # restarting node reuses its old port, clients retry against it)
        if self._bound_port is None:
            raise RuntimeError("server is not started")
        return self._bound_port

    @property
    def address(self) -> tuple[str, int]:
        return (self.config.host, self.port)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server has fully stopped."""
        return self._stopped.wait(timeout)

    def initiate_shutdown(self) -> None:
        """Trigger :meth:`stop` without blocking (signal-handler safe).

        New requests are refused with the structured ``shutting_down``
        error immediately; the actual drain runs on a background thread so
        a SIGTERM handler (or a request handler) never joins itself.
        """
        self.stopping.set()
        threading.Thread(target=self.stop, name="repro-server-stop", daemon=True).start()

    def _teardown(self, drain: bool) -> None:
        """Everything :meth:`stop` and :meth:`crash` share: close the
        listener, stop the pool, the follower, the sessions and every
        periodic task (joined).  With ``drain`` admitted requests finish
        and sessions are released in order; without, sockets just die.
        """
        if self._listener is not None:
            # shutdown() wakes a thread blocked in accept() (close() alone
            # leaves it — and the kernel listen socket — alive, keeping the
            # port bound: EADDRINUSE on the restart that follows)
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError as exc:
                note_io_error("listener.shutdown", exc)
            try:
                self._listener.close()
            except OSError as exc:
                note_io_error("listener.close", exc)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=10)
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        if not drain:
            for session in sessions:
                session.close()
        self.pool.stop(drain=drain)
        if self.follower is not None:
            self.follower.stop()
        if drain:
            # an in-flight handler holds session.lock; wait (bounded) for
            # it to answer before the socket goes away
            for session in sessions:
                if session.lock.acquire(timeout=5):
                    session.lock.release()
            for session in sessions:
                self._release_session(session)
                if session.thread is not None:
                    session.thread.join(timeout=5)
        for task in self._tasks:
            task.stop()
        if self.coordinator is not None:
            # after the drain: an in-flight cross-shard request may still
            # need the shard routers to finish its phase two
            self.coordinator.close()

    def stop(self) -> None:
        """Graceful shutdown: drain in-flight work, close sessions and heap.

        Order matters: refuse new work first, let already-admitted requests
        finish (bounded wait per session), abort transactions left open,
        join every background task, then flush and close the image — so
        SIGTERM never tears a commit and no timer outlives the heap.
        """
        self.stopping.set()
        if not self._stop_once.acquire(blocking=False):
            self._stopped.wait(30)  # someone else is tearing down
            return
        self._teardown(drain=True)
        if self.follower is None and not self.health.degraded:
            # a replica never writes locally — flushing the caches would
            # fork its heap state away from the primary's; a degraded
            # daemon skips the flush too (the disk already refused writes,
            # and the caches are reconstructible)
            if self.config.history_interval is not None:
                self.record_history_snapshot(reason="shutdown")
            try:
                with self.txns.write():
                    self.history.flush(self.heap)
            except OSError as exc:
                # shutdown must complete even on a full disk: the rollback
                # in the txn layer already restored the durable state
                note_io_error("shutdown.flush", exc)
        if self.replication is not None:
            self.replication.stop()
        self.heap.close()
        TRACER.event("server.stop")
        self.stop_trace()
        self._stopped.set()

    def crash(self) -> None:
        """Die like a SIGKILL: no drain, no flush, no heap close.

        Test/chaos use only.  Every socket is torn down and the worker
        threads stopped, but nothing is written: the image is left exactly
        as the last durable commit published it, which is what a real
        process kill leaves behind.
        """
        self.stopping.set()
        if not self._stop_once.acquire(blocking=False):
            return
        self._teardown(drain=False)
        if self.replication is not None:
            self.replication.stop()
        TRACER.event("server.crash")
        self._stopped.set()

    # ---------------------------------------------------------- connections

    def _accept_loop(self) -> None:
        while not self.stopping.is_set():
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            if self.config.idle_timeout is not None:
                # a dead client must not hold a session (and possibly a
                # write transaction) forever: recv wakes up and gives up
                sock.settimeout(self.config.idle_timeout)
            with self._sessions_lock:
                session = Session(self._next_session, sock, addr)
                self._next_session += 1
                self._sessions[session.id] = session
            _SESSIONS_OPENED.inc()
            _ACTIVE_SESSIONS.set(len(self._sessions))
            TRACER.event("server.session.open", session=session.id)
            session.thread = threading.Thread(
                target=self._serve_connection,
                args=(session,),
                name=f"repro-session-{session.id}",
                daemon=True,
            )
            session.thread.start()

    def _serve_connection(self, session: Session) -> None:
        # runs until the peer closes or stop()/the reaper closes the
        # session socket (which wakes recv with an error) — during a drain
        # _admit answers every new request with ``shutting_down``, so the
        # loop itself does not need to watch the stop flag, and a request
        # already in the kernel buffer still gets its typed refusal
        try:
            while True:
                try:
                    request = recv_frame(session.sock)
                except socket.timeout:
                    if session.subscriber:
                        continue  # subscribers are quiet by design
                    _REAPED_SESSIONS.inc()
                    TRACER.event("server.session.idle_timeout", session=session.id)
                    break
                except (protocol.ProtocolError, OSError):
                    break
                if request is None:
                    break
                session.last_active = time.monotonic()
                self._admit(session, request)
        finally:
            self._release_session(session)

    def _reap(self) -> None:
        """Close sessions idle past the timeout even when recv won't wake.

        The socket timeout covers a reader blocked in ``recv``; the reaper
        covers the rest (e.g. a reader thread that died, or a half-open
        connection detected only by time).  A session mid-request (its lock
        held) is never reaped — only truly idle ones.
        """
        limit = self.config.idle_timeout
        send_limit = self.config.send_timeout
        now = time.monotonic()
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            # slow-sender sweep first: a client that stopped reading
            # blocks a worker (or subscriber pump) inside sendall —
            # closing the socket from here unblocks it with an error.
            # Applies to subscribers too: a wedged replica link must
            # not pin its pump thread forever.
            sending = session.sending_since
            if (
                send_limit is not None
                and sending is not None
                and now - sending > send_limit
            ):
                _SLOW_CLIENT_CLOSES.inc()
                TRACER.event(
                    "server.session.send_timeout", session=session.id,
                    blocked_s=round(now - sending, 3),
                )
                self._release_session(session)
                continue
            if (
                limit is None
                or session.subscriber
                or now - session.last_active <= limit
            ):
                continue
            if not session.lock.acquire(blocking=False):
                continue  # a request is in flight: it is not idle
            try:
                _REAPED_SESSIONS.inc()
                TRACER.event("server.session.reaped", session=session.id)
                self._release_session(session)
            finally:
                session.lock.release()

    def _admit(self, session: Session, request: dict) -> None:
        """Admission control: pooled execution or immediate backpressure.

        Two execution lanes prevent a pool deadlock: ops the table marks
        ``inline`` and every request of a session *holding* a transaction
        run directly on the session's own connection thread — a blocked
        transaction only ever blocks its own session, and the lock holder
        never needs a pool worker to reach its ``commit``.  Everything
        else goes through the bounded pool and gets the structured
        ``backpressure`` rejection when it is full.
        """
        _REQUESTS.inc()
        request_id = request.get("id")
        if self.stopping.is_set():
            self._send_error(
                session, request_id,
                RequestError(protocol.E_SHUTTING_DOWN, "server is shutting down"),
            )
            return
        try:
            # pin the absolute deadline at *arrival*: queue time counts
            # against the client's budget, and a request that would expire
            # while queued is dropped here instead of wasting a worker
            deadline = self._pin_deadline(request)
        except RequestError as exc:
            self._send_error(session, request_id, exc)
            return
        if deadline is not None and deadline <= 0:
            _SHED_DEADLINE.inc()
            self._send_error(
                session, request_id,
                RequestError(
                    protocol.E_DEADLINE,
                    "request deadline already expired on arrival",
                    deadline=deadline,
                ),
            )
            return
        name = request.get("op")
        op = self.ops.get(name) if isinstance(name, str) else None
        if op is None or op.lane == "inline" or session.txn is not None:
            # (an unknown op is answered on the spot by _handle)
            self._handle(session, request)
            return
        enqueued = time.monotonic()
        wait_limit = self.config.queue_wait_limit

        def job() -> None:
            if wait_limit is not None:
                waited = time.monotonic() - enqueued
                if waited > wait_limit:
                    # adaptive shedding: the request was admitted but aged
                    # out in the queue — answering it now only adds more
                    # latency to a server already behind; shed with a
                    # backoff hint instead
                    _SHED_OVERLOADED.inc()
                    self._send_error(
                        session, request_id,
                        RequestError(
                            protocol.E_OVERLOADED,
                            f"request waited {waited:.2f}s in the admission "
                            f"queue (limit {wait_limit}s)",
                            queued_s=round(waited, 3),
                            retry_after=self._overload_retry_after(),
                        ),
                    )
                    return
            self._handle(session, request)

        try:
            self.pool.submit(job)
        except Backpressure as exc:
            self._send_error(
                session, request_id,
                RequestError(
                    protocol.E_BACKPRESSURE, str(exc), queue_size=exc.queue_size
                ),
            )

    def _overload_retry_after(self) -> float:
        """Backoff hint scaled to the current backlog (seconds)."""
        return round(min(5.0, 0.1 + 0.05 * self.pool.depth), 3)

    def _release_session(self, session: Session) -> None:
        txn = session.take_txn()
        if txn is not None:
            try:
                # during shutdown both the drain and the connection thread
                # race to release; take_txn hands the transaction to exactly
                # one of them, so the drain-abort count is deterministic
                if self.stopping.is_set():
                    _DRAIN_ABORTS.inc()
                txn.abort()
            except HeapError:
                pass  # the heap may already be closed mid-teardown
        session.close()
        if session.subscriber and self.replication is not None:
            self.replication.drop_subscriber(session.id)
        with self._sessions_lock:
            if self._sessions.pop(session.id, None) is not None:
                _ACTIVE_SESSIONS.set(len(self._sessions))
                TRACER.event("server.session.close", session=session.id)

    # ------------------------------------------------------------- handling

    @staticmethod
    def _incoming_trace(request: dict) -> tuple[str | None, str | None]:
        """The client-stamped (trace_id, span_id), or (None, None)."""
        stamped = request.get("trace")
        if not isinstance(stamped, dict):
            return None, None
        trace_id = stamped.get("trace_id")
        if not isinstance(trace_id, str) or len(trace_id) != 16:
            return None, None
        span_id = stamped.get("span_id")
        if not isinstance(span_id, str) or len(span_id) != 16:
            span_id = None
        return trace_id, span_id

    def _handle(self, session: Session, request: dict) -> None:
        request_id = request.get("id")
        name = request.get("op")
        start = time.perf_counter()
        # trace context: honor the client's stamp (its sampling decision
        # sticks end to end); unstamped requests become new roots at the
        # daemon's own sampling rate when a recorder is attached
        trace_id, client_span = self._incoming_trace(request)
        if trace_id is None and TRACER.enabled and TRACER.should_sample():
            trace_id = new_trace_id()
        outcome = "ok"
        op = None
        with TRACER.activate(trace_id, client_span):
            span = (
                TRACER.span("server.request", session=session.id, op=name)
                if trace_id is not None
                else NULL_SPAN
            )
            reply = None
            try:
                # normally pinned at arrival by _admit; this covers direct
                # _handle calls (tests, embedding)
                self._pin_deadline(request)
                with session.lock:
                    op = self.ops.get(name) if isinstance(name, str) else None
                    if op is None:
                        raise RequestError(
                            protocol.E_BAD_REQUEST, f"unknown op {name!r}"
                        )
                    self._check_deadline(request)
                    # run the handler under the server span's context so the
                    # spans it opens (store.commit, ...) nest beneath it —
                    # and the replication sink stamps its records with it
                    with TRACER.activate(span.trace_id or trace_id, span.span_id):
                        result = self.run_txn(op.txn, session, request, op.handler)
                span.set(status="ok")
                reply = {"id": request_id, "ok": True, "result": result}
            except Exception as exc:
                if not isinstance(exc, RequestError):
                    # anything else is an internal error
                    traceback.print_exc(file=sys.stderr)
                    exc = RequestError(
                        protocol.E_INTERNAL, f"{type(exc).__name__}: {exc}"
                    )
                outcome = exc.code
                span.set(status=exc.code)
                if trace_id is not None:
                    TRACER.event(
                        "server.request.error", op=name, code=exc.code,
                        session=session.id,
                    )
                reply = self._error_reply(request_id, exc, trace_id=trace_id)
            finally:
                # bookkeeping runs BEFORE the reply frame leaves: a client
                # that reacts to the response by asking for stats/slowlog
                # must see this request already accounted for
                steps = request.get("_steps")
                lock_wait_us = request.get("_lock_wait_us")
                if steps is not None:
                    span.set(steps=steps)
                if lock_wait_us is not None:
                    span.set(lock_wait_us=lock_wait_us)
                span.finish()
                latency_us = int((time.perf_counter() - start) * 1e6)
                _LATENCY.observe(latency_us)
                if op is not None:
                    METRICS.histogram(
                        f"server.op.{name}.latency_us",
                        f"latency of the {name} op (microseconds)",
                    ).observe(latency_us)
                self.slowlog.record(
                    name if isinstance(name, str) else "?",
                    latency_us,
                    outcome=outcome,
                    trace_id=trace_id,
                    session=session.id,
                    steps=steps,
                    lock_wait_us=lock_wait_us,
                )
        if reply is not None:
            try:
                session.send(reply)
            except OSError as exc:
                # client vanished before the answer; the work is done —
                # but count and classify it (a non-disconnect errno here
                # is not routine)
                note_io_error("reply.send", exc)

    def _error_reply(
        self, request_id, error: RequestError, trace_id: str | None = None
    ) -> dict:
        _REQUEST_ERRORS.inc()
        payload = {"code": error.code, "message": str(error)}
        if trace_id is not None:
            # the join key into the NDJSON export and the slowlog: a client
            # holding a failed response can find the server-side story
            payload["trace_id"] = trace_id
        payload.update(error.details)
        return {"id": request_id, "ok": False, "error": payload}

    def _send_error(self, session: Session, request_id, error: RequestError) -> None:
        try:
            session.send(self._error_reply(request_id, error))
        except OSError as exc:
            note_io_error("error.send", exc)  # peer is gone; still counted

    # ----------------------------------------------------- deadline budgets

    @staticmethod
    def _pin_deadline(request: dict) -> float | None:
        """Turn the ``deadline`` operand (seconds of budget) into an
        absolute ``_deadline_at``, once; returns the operand."""
        deadline = number(request, "deadline", float)
        if deadline is not None and "_deadline_at" not in request:
            request["_deadline_at"] = time.monotonic() + deadline
        return deadline

    @staticmethod
    def remaining(request: dict) -> float | None:
        """Seconds left of the request's deadline (None: no deadline)."""
        deadline_at = request.get("_deadline_at")
        if deadline_at is None:
            return None
        return deadline_at - time.monotonic()

    def _check_deadline(self, request: dict) -> None:
        remaining = self.remaining(request)
        if remaining is not None and remaining <= 0:
            raise RequestError(
                protocol.E_DEADLINE,
                "request deadline exceeded before execution",
                deadline=request.get("deadline"),
            )

    def _lock_budget(self, request: dict) -> float:
        """Lock timeout for this request: config cap, shrunk to the
        remaining deadline."""
        budget = self.config.lock_timeout
        remaining = self.remaining(request)
        if remaining is not None:
            budget = max(0.001, min(budget, remaining))
        return budget

    # ----------------------------------------------------- transaction glue

    def run_txn(self, mode: str | None, session: Session, request: dict, handler):
        """Call ``handler(self, session, request)`` under the transaction
        its table entry declares: the session's open one, else an implicit
        ``mode`` transaction (``write`` auto-commits); None: no transaction.
        """
        if mode is None:
            return handler(self, session, request)
        write = mode == "write"
        if write:
            self.health.check_writable()
            self.health.check_memory(session)
        if session.txn is not None:
            if write and session.txn.mode != "write":
                raise RequestError(
                    protocol.E_TXN_STATE,
                    "mutating request inside a read transaction",
                )
            return handler(self, session, request)
        waited = time.perf_counter()
        try:
            with self.txns.begin(mode, self._lock_budget(request)):
                request["_lock_wait_us"] = int((time.perf_counter() - waited) * 1e6)
                result = handler(self, session, request)
        except LockTimeout as exc:
            remaining = self.remaining(request)
            if remaining is not None and remaining <= 0:
                raise RequestError(
                    protocol.E_DEADLINE, "deadline exceeded waiting for the lock"
                ) from exc
            raise RequestError(protocol.E_BUSY, str(exc)) from exc
        except OSError as exc:
            if not write:
                raise
            # the auto-commit died in its I/O (disk full, EIO, fsync
            # failure): the txn layer already rolled the heap back to the
            # durable state; classify, flip degraded, answer read_only
            raise self.health.commit_io_failure("auto-commit", exc) from exc
        if write:
            if isinstance(result, dict):
                # the auto-commit has published: report the version it produced
                result.setdefault("repl_version", self.repl_version())
            self.await_replicas(result)
        return result

    def await_replicas(self, result) -> None:
        """Sync replication: hold the response until the ack quorum is in.

        The write is already durable locally; with ``sync_replicas=N`` a
        success response additionally guarantees N replicas applied it —
        the no-acknowledged-write-lost half of failover.
        """
        replication = self.replication
        required = self.config.sync_replicas
        if replication is None or required <= 0:
            return
        version = replication.version
        acked = replication.wait_for_acks(
            version, required, self.config.replication_timeout
        )
        if acked < required:
            raise RequestError(
                protocol.E_REPL_TIMEOUT,
                f"committed locally (v{version}) but only {acked}/{required} "
                f"replica(s) acknowledged within "
                f"{self.config.replication_timeout}s",
                committed=True,
                version=version,
                acked=acked,
            )
        if isinstance(result, dict):
            result.setdefault("acked_replicas", acked)

    def bind_root(self, root: str, value) -> int:
        """Bind one root to a decoded value (shared by set/mset/decide)."""
        oid = self.heap.root(root)
        # update(oid, None) means "mark dirty", so binding a root to the
        # null value always goes through a fresh store + rebind
        if oid is None or value is None:
            oid = self.heap.store(value)
            self.heap.set_root(root, oid)
        else:
            self.heap.update(oid, value)
        return int(oid)

    # ------------------------------------------------------ code and profile

    def resolve(self, module: str, function: str):
        """The closure a ``call`` of ``module.function`` runs, and whether
        the module was already linked (a ``hit``).

        The link lives in :attr:`TycoonSystem.linked`; compiling a module
        drops its link and its importers', so a call observes the newest
        committed definition of everything it reaches.
        """
        hit = module in self.system.linked
        try:
            closure = self.system.closure(module, function)
        except TLError as exc:
            raise RequestError(protocol.E_NOT_FOUND, str(exc)) from exc
        (_CODE_HITS if hit else _CODE_MISSES).inc()
        return closure, hit

    def take_profile(self) -> ClosureProfile:
        """Hand the aggregated profile to the caller, starting a fresh one."""
        with self._profile_lock:
            profile = self._profile
            self._profile = ClosureProfile()
        return profile

    def merge_profile(self, profile: ClosureProfile) -> None:
        with self._profile_lock:
            self._profile.merge(profile)

    # ---------------------------------------------------------- NDJSON trace

    def trace_status(self) -> dict:
        return {
            "recording": TRACER.enabled,
            "managed": self._trace_recorder is not None,
            "path": self._trace_path,
            "sample_rate": TRACER.sample_rate,
        }

    def start_trace(self, path: str) -> None:
        """Attach a daemon-managed NDJSON recorder writing to ``path``."""
        with self._trace_lock:
            if TRACER.enabled:
                raise RequestError(
                    protocol.E_BAD_REQUEST,
                    "a trace recorder is already attached"
                    + (f" (writing {self._trace_path})" if self._trace_path else ""),
                )
            try:
                recorder = NdjsonRecorder(path)
            except OSError as exc:
                raise RequestError(
                    protocol.E_BAD_REQUEST, f"cannot open {path!r}: {exc}"
                ) from exc
            self._trace_recorder = recorder
            self._trace_path = path
            TRACER.recorder = recorder

    def stop_trace(self) -> None:
        """Detach and close the daemon-managed recorder, if there is one."""
        with self._trace_lock:
            recorder = self._trace_recorder
            self._trace_recorder = None
            self._trace_path = None
            if recorder is None:
                return
            if TRACER.recorder is recorder:
                TRACER.recorder = None
            recorder.close()
