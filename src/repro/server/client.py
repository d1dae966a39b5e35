"""Blocking client for the repro daemon — with optional self-healing.

One :class:`Client` is one session: a TCP connection speaking the
length-prefixed JSON protocol of :mod:`repro.server.protocol`, requests
issued strictly one at a time (the daemon still interleaves *sessions*
concurrently).  Failures come back typed, so callers branch on the
exception class (or ``exc.code``) rather than parsing messages:

* :class:`ServerError` — the daemon answered with a structured error;
  each wire code callers branch on has its own subclass.  What a code
  implies for retrying is read from its row of
  :data:`repro.server.protocol.ERRORS`: *rejected* before execution
  (:class:`BusyError`, :class:`BackpressureError`,
  :class:`OverloadedError` — side-effect free, safe to re-send whatever
  the op), about this *endpoint* only (another node may serve it), or
  *deterministic* (the same everywhere; the request may have executed);
* :class:`ConnectionLost` — the TCP session died mid-request.  Only
  *idempotent* requests (:data:`IDEMPOTENT_OPS`, read-mode ``call``) are
  safe to replay, because a mutating request may have committed before
  the response was lost.

Pass a :class:`RetryPolicy` to opt into automatic recovery: rejected
requests are retried with exponential backoff + jitter, and idempotent
requests transparently *reconnect* and retry when the connection drops —
which is exactly what surviving a daemon SIGTERM + restart takes.  Retries
never happen inside an explicit transaction (the server aborts a
disconnected session's transaction, so replaying mid-transaction requests
would silently drop the transaction's earlier effects).  The default
(``retry=None``) keeps the historical fail-fast behavior.  Connecting,
a session's requests and :class:`ClusterClient`'s routing all retry
through one loop, :func:`_retry`.

Every request issued through the public operations carries a trace stamp
(``trace_sample`` governs how often a new trace is rooted; requests made
inside an active :data:`repro.obs.trace.TRACER` context always join it),
so the daemon's server span — and, through the replication stream, the
replica's apply span — share the client's trace id.  The stamp is pinned
before the retry loop: retries and :class:`ClusterClient` failover reuse
one trace id per logical operation.

>>> with connect(port, retry=RetryPolicy()) as db:   # doctest: +SKIP
...     db.set("counter", 0)
...     with db.transaction():
...         value = db.get("counter")["counter"]
...         db.set("counter", value + 1)
...     db.call("bench", "fib", [20])
"""

from __future__ import annotations

import random
import socket
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER, new_span_id, new_trace_id
from repro.server import protocol
from repro.server.protocol import from_jsonable, recv_frame, send_frame, to_jsonable
from repro.server.sharding.ring import RingError, ShardTopology, is_system_root

__all__ = [
    "Client",
    "ClusterClient",
    "ClientError",
    "ConnectionLost",
    "NoPrimaryError",
    "ServerError",  # its per-code subclasses are appended where they are defined
    "RetryPolicy",
    "connect",
]

_RETRIES = METRICS.counter(
    "server.client.retries", "requests retried after a rejection or disconnect"
)
_RECONNECTS = METRICS.counter(
    "server.client.reconnects", "TCP sessions re-established by the retry layer"
)
_GAVE_UP = METRICS.counter(
    "server.client.gave_up", "requests that exhausted their retry budget"
)

#: requests with no server-side effects: safe to replay even when the
#: connection died mid-request and the first attempt's fate is unknown —
#: every op the daemon runs under a read transaction (a test holds this
#: set to the op table), plus the introspection ops
IDEMPOTENT_OPS = frozenset({
    "ping", "get", "roots", "query", "scatter", "topology", "stats", "slowlog",
    "repl.status", "repl.digest", "repl.fetch", "shard.indoubt",
})


class ClientError(Exception):
    """Client-side failure: connection lost, protocol violation."""


class ConnectionLost(ClientError):
    """The TCP session died; whether the request executed is unknown."""


class NoPrimaryError(ClientError):
    """No endpoint of the cluster currently reports the primary role."""


#: wire code → the exception class raised for it (codes without a class
#: of their own raise plain :class:`ServerError`); filled by subclassing
_ERROR_TYPES: dict[str, type["ServerError"]] = {}


class ServerError(Exception):
    """The daemon answered with a structured error.

    A subclass binds itself to its wire code with ``code=``; what the
    code implies comes from that row of :data:`protocol.ERRORS`.
    """

    #: the daemon refused the request *before* executing it, so this
    #: client's retry policy may re-send it whatever the op
    retryable = False

    def __init_subclass__(cls, code: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.retryable = protocol.ERRORS[code].retryable
        _ERROR_TYPES[code] = cls

    def __init__(self, code: str, message: str, details: dict | None = None):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.details = details or {}

    @property
    def disposition(self) -> str:
        """The code's :data:`protocol.ERRORS` disposition; a code this
        client does not know is taken as deterministic (never retried,
        never a reason to drop a connection)."""
        spec = protocol.ERRORS.get(self.code)
        return spec.disposition if spec is not None else protocol.DETERMINISTIC


class BusyError(ServerError, code=protocol.E_BUSY):
    """Rejected: the transaction lock could not be acquired in time."""


class BackpressureError(ServerError, code=protocol.E_BACKPRESSURE):
    """Rejected: the worker pool's bounded queue is full."""


class OverloadedError(ServerError, code=protocol.E_OVERLOADED):
    """Rejected: the request aged out in the admission queue (distinct
    from :class:`BackpressureError`, a queue full on arrival).
    ``details["retry_after"]`` is the server's backoff hint, which the
    retry layer honors as a minimum pause."""


class ShuttingDownError(ServerError, code=protocol.E_SHUTTING_DOWN):
    """Rejected: the daemon is draining for shutdown."""


class NotPrimaryError(ServerError, code=protocol.E_NOT_PRIMARY):
    """A mutating request reached a replica; details may name the primary."""


class StaleReadError(ServerError, code=protocol.E_STALE_READ):
    """A bounded-staleness read's ``min_version`` is ahead of this replica."""


class ReadOnlyError(ServerError, code=protocol.E_READ_ONLY):
    """The daemon is in degraded read-only mode (disk-level failure or
    ``--read-only``).  Not retryable against the same endpoint — the mode
    persists until the recovery probe clears it; a :class:`ClusterClient`
    fails writes over instead."""


class WrongShardError(ServerError, code=protocol.E_WRONG_SHARD):
    """The root hashes to another shard group; ``details`` carry the
    owning ``shard`` id and its ``endpoints`` — a ring-aware client
    follows the hint (see :meth:`ClusterClient.use_topology`)."""


class DeadlineExceeded(ServerError, code=protocol.E_DEADLINE):
    """The request's time budget ran out (client- or server-side)."""


class ReplicationTimeoutError(ServerError, code=protocol.E_REPL_TIMEOUT):
    """The write committed locally but the replica quorum did not ack in
    time — ``details["committed"]`` is True; the data is durable on the
    primary and will reach replicas when they catch up."""


class TwopcAbortedError(ServerError, code=protocol.E_TWOPC):
    """A cross-shard write's two-phase commit could not reach its commit
    point; the transaction is rolled back on every participant, so the
    operation may be retried as a whole."""


__all__ += [cls.__name__ for cls in _ERROR_TYPES.values()]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter (AWS-style).

    Attempt *n* (1-based retries) sleeps
    ``min(max_delay, base_delay * multiplier**(n-1))`` scaled by a random
    factor in ``[1 - jitter, 1]`` — jitter keeps a thundering herd of
    clients from re-arriving in lockstep after a restart.
    """

    max_attempts: int = 6
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    #: also retry the initial TCP connect (daemon not yet listening)
    retry_connect: bool = True
    #: jitter source — inject a seeded ``random.Random`` for reproducible
    #: backoff sequences in tests; None uses the module-level RNG
    rng: random.Random | None = None

    def delay(self, retry_index: int) -> float:
        """Sleep before retry number ``retry_index`` (1-based)."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (retry_index - 1))
        return raw * (1.0 - self.jitter * (self.rng or random).random())


#: what ``recover(exc)`` tells :func:`_retry` to do about a failed attempt
_GIVE_UP, _BACKOFF, _NOW = "give up", "back off", "now"


def _expired(deadline: float, what: str) -> DeadlineExceeded:
    return DeadlineExceeded(
        protocol.E_DEADLINE, f"deadline of {deadline}s expired before {what!r} completed"
    )


def _retry(policy: RetryPolicy, deadline, what: str, attempt, recover, span=None):
    """The one retry loop: call ``attempt(remaining)`` until it returns.

    ``deadline`` (seconds, or None) is pinned here, once: every attempt
    is handed what is left of it and no pause outlasts it.  A failed
    attempt goes to ``recover(exc)``, which repairs whatever the failure
    invalidated and answers how to go on — ``_GIVE_UP`` (the error
    stands), ``_NOW`` (we were redirected: no pause) or ``_BACKOFF``
    (the policy's jittered delay).  Every failure, paused for or not,
    counts against ``policy.max_attempts``.
    """
    deadline_at = None if deadline is None else time.monotonic() + float(deadline)
    retries = 0
    while True:
        remaining = None
        if deadline_at is not None:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                raise _expired(deadline, what)
        try:
            return attempt(remaining)
        except (ServerError, ClientError) as exc:
            how = recover(exc)
            retries += 1
            if span is not None:
                span.set(retries=retries)
            if how is _GIVE_UP or retries >= policy.max_attempts:
                _GAVE_UP.inc()
                raise
            _RETRIES.inc()
            if how is _NOW:
                continue
            pause = policy.delay(retries)
            if isinstance(exc, ServerError) and exc.disposition == protocol.REJECTED:
                # the same node gets the request again, and an overloaded
                # one says how soon: re-arriving earlier only feeds the
                # overload, so retry_after is a floor under the backoff
                try:
                    pause = max(pause, float(exc.details.get("retry_after", 0)))
                except (TypeError, ValueError):
                    pass
            if deadline_at is not None:
                pause = min(pause, deadline_at - time.monotonic())
            if pause > 0:
                time.sleep(pause)


def _sampled(rate: float, rng: random.Random) -> bool:
    """Roll ``trace_sample``; the RNG is not consulted at rates 0 and 1."""
    return rate >= 1.0 or (rate > 0.0 and rng.random() < rate)


def _decode(result: dict) -> dict:
    """Wire values of a result → runtime values, in place: the keys that
    carry them are ``value``, ``values`` and scatter's ``partials``."""
    if "value" in result:
        result["value"] = from_jsonable(result["value"])
    if "values" in result:
        result["values"] = {
            name: from_jsonable(v) for name, v in result["values"].items()
        }
    if "partials" in result:
        result["partials"] = [
            {**p, "value": from_jsonable(p.get("value"))} for p in result["partials"]
        ]
    return result


class Client:
    """One session against a running repro daemon."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 60.0,
        retry: RetryPolicy | None = None,
        deadline: float | None = None,
        trace_sample: float = 1.0,
    ):
        self._host = host
        self._port = port
        self._timeout = timeout
        self.retry = retry
        #: default per-request time budget in seconds; each request carries
        #: its *remaining* budget so the daemon can bound lock waits and
        #: step counts to it (``deadline_exceeded`` when it runs out)
        self.deadline = deadline
        #: probability a request *outside* any active trace roots a new
        #: one (stamps ``trace`` on the wire); requests inside an active
        #: context always join it — the upstream decision sticks
        self.trace_sample = trace_sample
        # a seeded RetryPolicy RNG makes the *whole* client deterministic:
        # sampling decisions must draw from the same source as backoff
        # jitter, or chaos-sim runs diverge despite the seed
        self._trace_rng = (retry and retry.rng) or random.Random()
        self.sock: socket.socket | None = None
        self._next_id = 1
        self._closed = False
        self._in_txn = False
        self._connect(initial=True)

    # ----------------------------------------------------------- transport

    def _connect(self, initial: bool = False) -> None:
        def attempt(_remaining) -> None:
            try:
                self.sock = socket.create_connection(
                    (self._host, self._port), timeout=self._timeout
                )
            except OSError as exc:
                self.sock = None
                raise ConnectionLost(
                    f"cannot connect to {self._host}:{self._port}: {exc}"
                ) from exc

        if self.retry is None or not self.retry.retry_connect:
            attempt(None)
        else:  # daemon not yet listening, or restarting
            _retry(self.retry, None, "connect", attempt, lambda exc: _BACKOFF)
        if not initial:
            _RECONNECTS.inc()

    def _drop_socket(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    def request(self, op: str, **operands) -> dict:
        """Send one request and block for its response's ``result``.

        Single-shot: raises the typed error on failure.  The retrying
        public operations go through :meth:`_invoke`.
        """
        if self._closed:
            raise ClientError("client is closed")
        if self.sock is None:
            self._connect()
        request_id = self._next_id
        self._next_id += 1
        message = {"id": request_id, "op": op}
        message.update(operands)
        try:
            send_frame(self.sock, message)
            response = recv_frame(self.sock)
        except (OSError, protocol.ProtocolError) as exc:
            self._drop_socket()
            raise ConnectionLost(f"connection failed during {op!r}: {exc}") from exc
        if response is None:
            self._drop_socket()
            raise ConnectionLost(f"server closed the connection during {op!r}")
        if response.get("id") != request_id:
            raise ClientError(
                f"response id {response.get('id')!r} does not match {request_id}"
            )
        if response.get("ok"):
            return response.get("result", {})
        error = response.get("error") or {}
        details = {
            k: v for k, v in error.items() if k not in ("code", "message")
        }
        code = error.get("code", protocol.E_INTERNAL)
        raise _ERROR_TYPES.get(code, ServerError)(
            code, error.get("message", "unknown server error"), details
        )

    def _trace_stamp(self, op: str):
        """Trace stamp for one logical operation — ``(wire dict, span)``.

        A request inside an active trace context always joins it (the
        upstream sampling decision sticks); outside any context the
        client rolls its own ``trace_sample`` to root a new trace.  A
        real ``client.request`` span is opened only when a recorder is
        attached locally; without one the stamp is bare ids — which is
        all a daemon-side recorder needs to trace the server half.
        """
        ctx = TRACER.current()
        if ctx is None and not _sampled(self.trace_sample, self._trace_rng):
            return None, None
        if TRACER.enabled:
            span = TRACER.span(
                "client.request", op=op, host=self._host, port=self._port
            )
            return {"trace_id": span.trace_id, "span_id": span.span_id}, span
        if ctx is not None:
            trace_id, span_id, _parent = ctx.child_ids()
        else:
            trace_id, span_id = new_trace_id(), new_span_id()
        return {"trace_id": trace_id, "span_id": span_id}, None

    def _invoke(self, op: str, idempotent: bool | None = None, **operands) -> dict:
        """Issue a request under the retry policy (see module docstring).

        Operands that are None are left off the wire (the daemon reads an
        absent operand and a null one alike).  When a deadline is
        configured (per-call ``deadline=`` operand or the client-wide
        default) it is pinned when the request *starts*: every attempt
        ships the remaining seconds, and both local waits and retries
        stop once the budget is spent.  The trace stamp is likewise
        pinned up front: every retry carries the same trace id.
        """
        operands = {k: v for k, v in operands.items() if v is not None}
        stamp, span = self._trace_stamp(op)
        if stamp is not None:
            operands["trace"] = stamp
        deadline = operands.pop("deadline", self.deadline)
        status = "error"  # what the span reports unless told otherwise
        try:
            if self.retry is None or self._in_txn:  # fail fast: one attempt
                if deadline is not None and deadline <= 0:
                    raise _expired(deadline, op)
                result = self._send(op, operands, deadline)
            else:
                if idempotent is None:
                    idempotent = op in IDEMPOTENT_OPS

                def recover(exc):
                    if isinstance(exc, ServerError):
                        again = exc.retryable  # rejected, never executed
                    else:
                        # the request may have executed before the link died:
                        # only replay requests with no server-side effects
                        again = idempotent and isinstance(exc, ConnectionLost)
                    return _BACKOFF if again else _GIVE_UP

                result = _retry(
                    self.retry, deadline, op,
                    lambda remaining: self._send(op, operands, remaining),
                    recover, span,
                )
            status = "ok"
            return result
        except (ServerError, ConnectionLost) as exc:
            status = getattr(exc, "code", "connection_lost")
            raise
        finally:
            if span is not None:
                span.set(status=status).finish()

    def _send(self, op: str, operands: dict, remaining: float | None) -> dict:
        if remaining is not None:  # ship what is left of the deadline
            operands["deadline"] = round(remaining, 6)
        return self.request(op, **operands)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._drop_socket()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ---------------------------------------------------------- operations

    def ping(self) -> dict:
        return self._invoke("ping")

    def call(
        self,
        module: str,
        function: str,
        args: list | None = None,
        step_limit: int | None = None,
        mode: str = "read",
        full: bool = False,
        deadline: float | None = None,
    ) -> Any:
        """Call a stored function; returns its value (or the full result)."""
        # a read-mode call has no server-side effects, so it is replayable
        result = _decode(self._invoke(
            "call", idempotent=(mode == "read"), module=module, function=function,
            args=[to_jsonable(a) for a in (args or [])], mode=mode,
            step_limit=step_limit, deadline=deadline,
        ))
        return result if full else result["value"]

    def run(self, source: str, deadline: float | None = None) -> list[str]:
        """Compile and persist TL source; returns the stored module names."""
        return self._invoke("run", source=source, deadline=deadline)["modules"]

    def get(
        self,
        *roots: str,
        min_version: int | None = None,
        deadline: float | None = None,
    ) -> dict[str, Any]:
        """Read root objects in one snapshot; name → value.

        ``min_version`` bounds staleness on a replica: the read fails with
        :class:`StaleReadError` unless the replica has applied at least
        that replication version.
        """
        result = self._invoke(
            "get", roots=list(roots), min_version=min_version, deadline=deadline
        )
        return _decode(result)["values"]

    def set(self, root: str, value: Any, deadline: float | None = None) -> dict:
        """Bind a root to a value (auto-commits outside a transaction).

        Returns the full result dict — ``oid`` plus, on a replicated
        primary, the ``repl_version`` the commit produced.
        """
        return self._invoke(
            "set", root=root, value=to_jsonable(value), deadline=deadline
        )

    def roots(self) -> list[str]:
        return self._invoke("roots")["roots"]

    def mset(self, writes: dict[str, Any], deadline: float | None = None) -> dict:
        """Bind several roots in one atomic commit.

        Against a plain daemon all roots must live there; against a
        coordinator the roots may span shards — the coordinator runs the
        write as a two-phase commit and a success response means every
        shard applied it (:class:`TwopcAbortedError` means none did).
        """
        wire = {str(root): to_jsonable(v) for root, v in writes.items()}
        return self._invoke("mset", writes=wire, deadline=deadline)

    def query(
        self,
        prefix: str = "",
        module: str | None = None,
        function: str | None = None,
        min_version: int | None = None,
        deadline: float | None = None,
    ) -> dict:
        """Prefix-scan the daemon's owned roots; optionally fold the
        matching values through a stored function (shard-local half of
        scatter-gather)."""
        return _decode(self._invoke(
            "query", prefix=prefix, module=module, function=function,
            min_version=min_version, deadline=deadline,
        ))

    def scatter(
        self,
        prefix: str = "",
        module: str | None = None,
        function: str | None = None,
        merge: str = "concat",
        deadline: float | None = None,
    ) -> dict:
        """Coordinator-side scatter-gather: fan a query out to every shard
        and merge (``concat`` | ``sum`` | ``values``)."""
        return _decode(self._invoke(
            "scatter", prefix=prefix, module=module, function=function,
            merge=merge, deadline=deadline,
        ))

    def topology(self) -> dict:
        """The shard topology this daemon operates under (wire form)."""
        return self._invoke("topology")

    def begin(self, mode: str = "write", timeout: float | None = None) -> dict:
        result = self._invoke("begin", mode=mode, timeout=timeout)
        self._in_txn = True
        return result

    def commit(self) -> dict:
        return self._end("commit")

    def abort(self) -> dict:
        return self._end("abort")

    def _end(self, op: str) -> dict:
        try:
            return self.request(op)
        finally:
            self._in_txn = False

    @contextmanager
    def transaction(self, mode: str = "write", timeout: float | None = None):
        """``with db.transaction(): ...`` — commit on success, abort on error."""
        self.begin(mode, timeout)
        try:
            yield self
        except BaseException:
            self.abort()
            raise
        else:
            self.commit()

    def stats(self, metrics: bool = False, history: int | bool | None = None) -> dict:
        """Live introspection snapshot (see the daemon's ``stats`` op).

        ``history`` asks for the in-image metrics-history ring as well:
        True for all kept entries, an int for the most recent N.
        """
        return self._invoke("stats", metrics=metrics, history=history)

    def slowlog(self, n: int | None = None, clear: bool = False) -> dict:
        """The daemon's ring of slowest requests, slowest first."""
        return self._invoke("slowlog", n=n, clear=clear or None)

    def trace_ctl(
        self,
        action: str = "status",
        path: str | None = None,
        rate: float | None = None,
    ) -> dict:
        """Control the daemon's NDJSON trace export at runtime.

        ``trace_ctl("start", path=...)`` attaches a recorder writing to a
        *server-side* path, ``trace_ctl("stop")`` detaches it,
        ``trace_ctl("sample", rate=0.1)`` adjusts root sampling, and the
        default ``status`` just reports.
        """
        return self._invoke(
            "trace", idempotent=(action == "status"),
            action=action, path=path, rate=rate,
        )

    def pgo(self, top: int | None = None) -> dict:
        """Ask the server to run one PGO round right now."""
        return self._invoke("pgo", top=top)

    def repl_status(self, digest: bool = False) -> dict:
        """Replication role, term, version (and optionally a state digest)."""
        return self._invoke("repl.status", digest=digest)

    def promote(self, term: int | None = None) -> dict:
        """Promote this node to primary (fencing term bumps past any seen)."""
        return self.request("promote", **({} if term is None else {"term": term}))

    def follow(self, host: str, port: int) -> dict:
        """Re-point this node at a (new) upstream primary."""
        return self.request("follow", host=host, port=port)

    def shutdown(self) -> dict:
        return self.request("shutdown")


def _elsewhere(exc: Exception) -> bool:
    """May another node of the same group serve what this one could not?"""
    if isinstance(exc, ServerError):
        # wrong_shard is about another *group*: every node of this one
        # answers alike, and the hint is for the ring-aware parent to follow
        return (
            exc.disposition == protocol.ENDPOINT
            and exc.code != protocol.E_WRONG_SHARD
        )
    return isinstance(exc, (ConnectionLost, NoPrimaryError))


class ClusterClient:
    """Failover-aware facade over a replicated cluster's endpoints.

    Operations run under :func:`_retry` with the facade's policy, and the
    error table classifies a failure: a *rejected* request is re-sent to
    the same node after the backoff, a *deterministic* answer is final
    (its connection kept), connection loss or an *endpoint* answer sends
    the request to another node:

    * **writes** go to whichever endpoint currently reports the ``primary``
      role.  A ``not_primary`` rejection that names the new primary is
      followed directly; anything else re-pings every endpoint and picks
      the primary with the highest term.  A degraded (``read_only``)
      primary is never retried in place — the mode outlives any backoff —
      but keeps its connection, reads still work there.  Replayed writes
      may execute twice when the first attempt's ack was lost; root binds
      are value-idempotent, so the state converges to the same image.
    * **reads** round-robin across replicas with *bounded staleness*: each
      read carries a ``min_version`` floor (default: the ``repl_version``
      of this client's last write — read-your-writes), and a replica that
      has not caught up answers ``stale_read``, upon which the next
      candidate (ultimately the primary) is tried.

    The facade holds one lazily (re)connected :class:`Client` per
    endpoint; it is not thread-safe — use one per worker thread.
    """

    def __init__(
        self,
        endpoints: list[tuple[str, int]],
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        deadline: float | None = None,
        trace_sample: float = 1.0,
        topology: dict | ShardTopology | None = None,
    ):
        if not endpoints:
            raise ValueError("ClusterClient needs at least one endpoint")
        self.endpoints: list[tuple[str, int]] = [
            (str(h), int(p)) for h, p in endpoints
        ]
        self._timeout = timeout
        self.retry = retry or RetryPolicy()
        #: default time budget of one routed operation, retries included
        self.deadline = deadline
        #: the facade makes the sampling decision once per *logical*
        #: operation and activates the resulting context around routing,
        #: so retries and failover reuse one trace id; the per-endpoint
        #: clients are built with ``trace_sample=0.0`` and never self-root
        self.trace_sample = trace_sample
        # as in Client: sampling draws from the (seeded) backoff RNG, so a
        # chaos run replays identically under its seed
        self._trace_rng = self.retry.rng or random.Random()
        self._clients: dict[tuple[str, int], Client] = {}
        self._primary: tuple[str, int] | None = None
        self._replicas: list[tuple[str, int]] = []
        self._rr = 0
        #: highest repl_version any write through this client produced —
        #: the default min_version floor for reads (read-your-writes)
        self.last_write_version = 0
        self._lock = threading.Lock()
        #: ring-aware mode: when a topology is adopted, sharded roots are
        #: routed directly to their owning shard group through one child
        #: ClusterClient per shard (each child keeps its own
        #: read-your-writes floor); the seed ``endpoints`` then serve as
        #: the coordinator for cross-shard writes and system roots
        self.topology: ShardTopology | None = None
        self._shard_routers: dict[int, "ClusterClient"] = {}
        if topology is not None:
            self.use_topology(topology)

    # ------------------------------------------------------------- topology

    def _client(self, endpoint: tuple[str, int]) -> Client:
        client = self._clients.get(endpoint)
        if client is None or client.sock is None and client._closed:
            client = Client(
                host=endpoint[0],
                port=endpoint[1],
                timeout=self._timeout,
                retry=None,  # the facade owns retries and rerouting
                deadline=self.deadline,
                trace_sample=0.0,  # the facade owns the sampling decision
            )
            self._clients[endpoint] = client
        return client

    def _drop(self, endpoint: tuple[str, int]) -> None:
        client = self._clients.pop(endpoint, None)
        if client is not None:
            client.close()

    def discover(self) -> dict:
        """Ping every endpoint; elect the highest-term primary, list replicas.

        A primary that reports itself degraded (read-only after a disk
        failure) is only elected when no healthy primary exists — writes
        should land on a promoted replacement, while a cluster that is
        *entirely* degraded still routes so reads keep working.
        """
        primaries: list[tuple[bool, int, tuple[str, int]]] = []
        replicas: list[tuple[str, int]] = []
        seen: dict[str, dict] = {}
        for endpoint in list(self.endpoints):
            key = f"{endpoint[0]}:{endpoint[1]}"
            try:
                info = seen[key] = self._client(endpoint).ping()
            except (ClientError, ServerError) as exc:
                self._drop(endpoint)
                seen[key] = {"error": str(exc)}
                continue
            if info.get("role", "standalone") == "replica":
                replicas.append(endpoint)
            else:
                primaries.append(
                    (not info.get("degraded"), int(info.get("term", 0)), endpoint)
                )
        # healthy beats degraded, then the highest term (the first seen on a tie)
        best = max(primaries, key=lambda p: p[:2], default=None)
        with self._lock:
            self._primary = best[2] if best else None
            self._replicas = replicas
        return seen

    # -------------------------------------------------------------- routing

    def _trace_root(self):
        """One trace context per logical operation, spanning failover.

        Activated *around* the routing loop: every endpoint attempt's
        stamp derives from the same trace id, so a write that retried
        through a failover is still one trace in the NDJSON export.
        Inside an already-active context this is a pass-through.
        """
        if TRACER.current() is not None or not _sampled(self.trace_sample, self._trace_rng):
            return nullcontext()
        return TRACER.activate(new_trace_id(), new_span_id())

    def _route(self, fn, write: bool, deadline: float | None = None):
        """Run ``fn(client, remaining)`` on a node that can serve it —
        ``remaining`` is what is left of ``deadline`` (default: the
        facade's), to be shipped with the request.  A write's
        ``repl_version`` raises the read-your-writes floor."""
        if deadline is None:
            deadline = self.deadline
        with self._trace_root():
            result = _retry(
                self.retry, deadline, "write" if write else "read",
                lambda remaining: self._one_pass(fn, write, remaining),
                self._recover,
            )
        if write and isinstance(result, dict):
            version = result.get("repl_version")
            if isinstance(version, int):
                self.last_write_version = max(self.last_write_version, version)
        return result

    def _candidates(self, write: bool) -> list[tuple[str, int]]:
        """Who may serve the request: the primary alone for a write; for a
        read the replicas, rotating, then the primary (it is never stale)."""
        with self._lock:
            primary = [self._primary] if self._primary is not None else []
            if write:
                return primary
            replicas = list(self._replicas)
            if replicas:
                self._rr = (self._rr + 1) % len(replicas)
                replicas = replicas[self._rr :] + replicas[: self._rr]
            return replicas + primary

    def _one_pass(self, fn, write: bool, remaining):
        candidates = self._candidates(write)
        if not candidates:
            self.discover()
            candidates = self._candidates(write)
        failed: Exception = NoPrimaryError(
            f"no {'primary' if write else 'node'} among {len(self.endpoints)} endpoints"
        )
        for endpoint in candidates:
            try:
                return fn(self._client(endpoint), remaining)
            except (ServerError, ClientError) as exc:
                if isinstance(exc, (ConnectionLost, ShuttingDownError)):
                    self._drop(endpoint)  # the session is gone, or about to be
                if not _elsewhere(exc):
                    raise  # the same answer everywhere, or a busy node
                failed = exc  # e.g. stale: the next one may have caught up
        with self._lock:  # nobody could serve it: rediscover before the next pass
            self._primary = None
            if not write:
                self._replicas = []
        raise failed

    def _recover(self, exc: Exception) -> str:
        """How :func:`_retry` goes on after a failed pass."""
        if isinstance(exc, ServerError) and exc.disposition == protocol.REJECTED:
            return _BACKOFF  # never executed: same node, later
        if not _elsewhere(exc):
            return _GIVE_UP
        hint = exc.details.get("primary") if isinstance(exc, NotPrimaryError) else None
        if not hint:
            return _BACKOFF
        # the replica told us who leads now: no backoff, we were redirected
        target = (str(hint["host"]), int(hint["port"]))
        if target not in self.endpoints:
            self.endpoints.append(target)
        self._primary = target
        return _NOW

    def op_primary(self, op: str, deadline: float | None = None, **operands) -> dict:
        """Issue an arbitrary op against the current primary."""
        return self._route(
            lambda c, d: c._invoke(op, deadline=d, **operands), True, deadline
        )

    def op_replica(self, op: str, deadline: float | None = None, **operands) -> dict:
        """Issue a side-effect-free op via the replica read path (primary
        as the last resort)."""
        return self._route(
            lambda c, d: c._invoke(op, deadline=d, **operands), False, deadline
        )

    # ------------------------------------------------------------- sharding

    def use_topology(self, topology: dict | ShardTopology) -> "ClusterClient":
        """Adopt a shard topology and route ring-aware from now on."""
        if not isinstance(topology, ShardTopology):
            topology = ShardTopology.from_dict(topology)
        self.topology = topology
        self._close_routers()  # they route by the ring just replaced
        return self

    def discover_topology(self) -> dict | None:
        """Ask the cluster for its topology and adopt it when present."""
        try:
            wire = self.topology_info().get("topology")
            self.use_topology(wire)
        except (ClientError, ServerError, RingError):
            return None  # nobody answered, or no (well-formed) ring there
        return wire

    def _shard_of(self, root: str) -> int | None:
        """Owning shard id, or None when the root routes to the seed
        endpoints (no topology adopted, or a system root)."""
        topology = self.topology
        if topology is None or is_system_root(root):
            return None
        return topology.shard_for(root)

    def _shard_router(self, sid: int, endpoints=None) -> "ClusterClient":
        """Shard ``sid``'s child router; ``endpoints`` replaces it with one
        over those (a ``wrong_shard`` hint knows better than our ring)."""
        with self._lock:
            router = self._shard_routers.get(sid)
        if router is None or endpoints is not None:
            stale, router = router, ClusterClient(
                endpoints or self.topology.endpoints(sid),
                timeout=self._timeout,
                retry=self.retry,  # shares the (possibly seeded) RNG
                deadline=self.deadline,
                trace_sample=0.0,  # the parent owns the sampling decision
            )
            with self._lock:
                self._shard_routers[sid] = router
            if stale is not None:
                stale.close()
        return router

    def _on_shard(self, sid: int, fn):
        """``fn(router)`` against shard ``sid``'s group.  A ``wrong_shard``
        answer is followed once: rebuild the named shard's router from the
        hinted endpoints, refresh the ring from there (the hinted shard
        knows the possibly newer ring we mis-route by), and retry."""
        try:
            return fn(self._shard_router(sid))
        except WrongShardError as exc:
            sid = exc.details.get("shard")
            hinted = exc.details.get("endpoints")
            if not isinstance(sid, int) or not hinted:
                raise
            router = self._shard_router(
                sid, [(str(e["host"]), int(e["port"])) for e in hinted]
            )
            try:
                fresh = ShardTopology.from_dict(router.topology_info().get("topology"))
                if fresh.epoch > self.topology.epoch:
                    self.topology = fresh
            except (ClientError, ServerError, RingError):
                pass
            return fn(router)

    # ----------------------------------------------------------- operations

    def set(self, root: str, value: Any, deadline: float | None = None) -> dict:
        sid = self._shard_of(root)
        if sid is not None:
            # per-shard floor lives on the child router; shard repl
            # versions are not comparable across groups, so the parent's
            # global floor is deliberately left alone here
            return self._on_shard(sid, lambda r: r.set(root, value, deadline=deadline))
        return self._route(lambda c, d: c.set(root, value, deadline=d), True, deadline)

    def mset(self, writes: dict[str, Any], deadline: float | None = None) -> dict:
        """Atomic multi-root bind.  Single-shard batches go straight to the
        owning group; cross-shard batches (or any batch before a topology
        is adopted) go to the seed endpoints — against a sharded
        deployment those are the coordinator, which runs 2PC."""
        shards = {self._shard_of(root) for root in writes}
        if len(shards) == 1 and None not in shards:
            (sid,) = shards
            return self._on_shard(sid, lambda r: r.mset(writes, deadline=deadline))
        result = self._route(lambda c, d: c.mset(writes, deadline=d), True, deadline)
        # feed the per-shard repl versions of a coordinator 2PC result into
        # the child routers' read-your-writes floors
        shards = result.get("shards") if isinstance(result, dict) else None
        if isinstance(shards, dict) and self.topology is not None:
            for sid, version in shards.items():
                if isinstance(version, int) and sid.isdigit() and (
                    int(sid) in self.topology.shard_ids()
                ):
                    router = self._shard_router(int(sid))
                    router.last_write_version = max(router.last_write_version, version)
        return result

    def run(self, source: str, deadline: float | None = None) -> list[str]:
        return self._route(lambda c, d: c.run(source, deadline=d), True, deadline)

    def call(
        self,
        module: str,
        function: str,
        args: list | None = None,
        step_limit: int | None = None,
        mode: str = "read",
        full: bool = False,
        deadline: float | None = None,
    ) -> Any:
        result = self._route(
            lambda c, d: c.call(module, function, args, step_limit, mode, True, d),
            mode == "write", deadline,
        )
        return result if full else result["value"]

    def get(
        self,
        *roots: str,
        min_version: int | None = None,
        deadline: float | None = None,
    ) -> dict[str, Any]:
        groups: dict[int | None, list[str]] = {} if roots else {None: []}
        for root in roots:
            groups.setdefault(self._shard_of(root), []).append(root)
        floor = self.last_write_version if min_version is None else min_version
        out: dict[str, Any] = {}
        for sid, names in groups.items():
            if sid is None:  # the seed endpoints, under this facade's own floor
                out.update(self._route(
                    lambda c, d: c.get(
                        *names, min_version=floor if floor > 0 else None, deadline=d
                    ),
                    False, deadline,
                ))
            else:
                out.update(self._on_shard(
                    sid,
                    lambda r: r.get(*names, min_version=min_version, deadline=deadline),
                ))
        return out

    def scatter(
        self,
        prefix: str = "",
        module: str | None = None,
        function: str | None = None,
        merge: str = "concat",
        deadline: float | None = None,
    ) -> dict:
        """Scatter-gather through the seed endpoints (the coordinator)."""
        return self._route(
            lambda c, d: c.scatter(prefix, module, function, merge, deadline=d),
            False, deadline,
        )

    def topology_info(self) -> dict:
        """The deployment's topology, from whichever endpoint answers."""
        return self._route(lambda c, d: c.topology(), False)

    # ------------------------------------------------------------ utilities

    def promote(self, endpoint: tuple[str, int], term: int | None = None) -> dict:
        """Promote one endpoint to primary and re-route writes to it."""
        endpoint = (str(endpoint[0]), int(endpoint[1]))
        result = self._client(endpoint).promote(term)
        with self._lock:
            self._primary = endpoint
            if endpoint in self._replicas:
                self._replicas.remove(endpoint)
        return result

    def _close_routers(self) -> None:
        with self._lock:
            stale, self._shard_routers = self._shard_routers, {}
        for router in stale.values():
            router.close()

    def close(self) -> None:
        for endpoint in list(self._clients):
            self._drop(endpoint)
        self._close_routers()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def connect(
    port: int,
    host: str = "127.0.0.1",
    timeout: float = 60.0,
    retry: RetryPolicy | None = None,
    deadline: float | None = None,
) -> Client:
    """Open one session against a daemon listening on ``host:port``."""
    return Client(host=host, port=port, timeout=timeout, retry=retry, deadline=deadline)
