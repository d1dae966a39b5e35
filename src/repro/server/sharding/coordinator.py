"""The sharding coordinator: routing, cross-shard 2PC, scatter-gather.

A coordinator is an ordinary :class:`~repro.server.daemon.ReproServer`
(it has its own image, holding decision records and any modules pushed
through it) whose op table is the base table overridden by :data:`OPS`,
the routed data plane at the bottom of this module.  Single-shard data
operations are routed to the owning shard group through one failover-aware
:class:`~repro.server.client.ClusterClient` per shard; cross-shard
``mset`` runs the two-phase commit of :mod:`repro.server.sharding.twopc`;
``scatter`` fans a ``query`` out to every shard and merges the partials.

**Recovery.**  At start the coordinator refuses cross-shard writes until
one full resolver pass succeeded: recorded decisions are re-driven to
their participants (a crash after the decision fsync must still commit
everywhere) and orphaned in-doubt staging — a transaction this
coordinator owns with *no* decision record — is aborted (presumed
abort: the decision fsync had not happened, so no participant may have
applied).  The same pass then runs periodically, so a shard that was
unreachable during phase two converges as soon as it returns.

**Failpoints.**  ``twopc_failpoint`` crashes the daemon at a named
protocol point (``after-prepare``, ``after-decision``, ``mid-decide``);
the sharding chaos harness uses them to prove recovery handles every
crash window, and ``durable_decisions=False`` + ``mid-decide`` is the
negative control that loses atomicity exactly as the design predicts.
"""

from __future__ import annotations

import itertools
import threading
import time

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.server import protocol
from repro.server.client import (
    ClientError,
    ClusterClient,
    RetryPolicy,
    ServerError,
)
from repro.server.ops import OPS as BASE_OPS, Op
from repro.server.periodic import Periodic
from repro.server.protocol import RequestError
from repro.server.sharding.ring import ShardTopology, is_system_root
from repro.server.sharding.twopc import (
    DECISION_PREFIX,
    TwopcError,
    decision_root,
    make_decision,
    parse_decision,
)

__all__ = ["Coordinator", "OPS"]

_TXNS_COMMITTED = METRICS.counter(
    "server.shard.twopc_committed", "cross-shard transactions committed"
)
_TXNS_ABORTED = METRICS.counter(
    "server.shard.twopc_aborted", "cross-shard transactions aborted"
)
_TXNS_RESOLVED = METRICS.counter(
    "server.shard.twopc_resolved", "in-doubt transactions resolved by recovery"
)
_SCATTERS = METRICS.counter(
    "server.shard.scatters", "scatter-gather queries coordinated"
)

#: merge strategies the scatter op accepts
_MERGES = ("concat", "sum", "values")


class Coordinator:
    """Request routing and 2PC over the shard groups of one topology."""

    def __init__(self, server):
        self.server = server
        config = server.config
        topology = server.topology
        if topology is None:
            raise ValueError(
                "a coordinator needs shard groups (config.shards) or a "
                "persisted __topology__ root"
            )
        self.topology: ShardTopology = topology
        self.node = config.node_id or "coordinator"
        self._routers: dict[int, ClusterClient] = {}
        self._router_locks = {
            sid: threading.Lock() for sid in range(len(topology.shards))
        }
        #: last fencing term observed per shard primary — prepares carry it
        #: so a deposed shard primary cannot stage writes for a transaction
        #: the new primary never hears about
        self._terms: dict[int, int] = {}
        #: txn ids with a live mset request on this process — recovery and
        #: the resolver must not abort them out from under the handler
        self._inflight: set[str] = set()
        self._inflight_lock = threading.Lock()
        self._seq = itertools.count(1)
        #: set once boot recovery completed one full resolver pass;
        #: cross-shard msets wait on it
        self._recovered = threading.Event()
        self._pushed = False
        #: the in-doubt resolver; the daemon starts, wakes and joins it with
        #: its other periodic tasks.  Every 0.5 s until boot recovery is
        #: complete, every ``resolver_interval`` after.
        self.resolver = Periodic("repro-shard-resolver", 0.5, self._resolver_tick)

    def close(self) -> None:
        for router in list(self._routers.values()):
            router.close()
        self._routers.clear()

    # -------------------------------------------------------------- routing

    def _shard_call(self, sid: int, fn):
        """Run ``fn(router)`` against shard ``sid``'s ClusterClient.

        Routers are lazy and serialized per shard — ClusterClient is not
        thread-safe, and one connection per shard is plenty for a
        coordinator (parallelism comes from fanning out across shards).
        """
        lock = self._router_locks[sid]
        with lock:
            router = self._routers.get(sid)
            if router is None:
                router = ClusterClient(
                    self.topology.endpoints(sid),
                    timeout=self.server.config.replication_timeout + 25.0,
                    retry=RetryPolicy(max_attempts=4),
                    # retries and failover included, so a busy or failing
                    # shard cannot hold a cross-shard operation past it
                    deadline=self.server.config.twopc_timeout,
                    trace_sample=0.0,  # the incoming request owns the trace
                )
                self._routers[sid] = router
            return fn(router)

    def _wrap(self, sid: int, exc: Exception):
        """Shard-call failure → the structured error the client sees."""
        if isinstance(exc, RequestError):
            return exc
        if isinstance(exc, ServerError):
            details = dict(exc.details)
            details["shard"] = sid
            error = RequestError(exc.code, f"shard {sid}: {exc.message}")
            error.details = details
            return error
        if isinstance(exc, ClientError):
            # shard group unreachable: report retryable, the client may
            # come back once its failover settles
            return RequestError(
                protocol.E_BUSY, f"shard {sid} unreachable: {exc}", shard=sid
            )
        return RequestError(
            protocol.E_INTERNAL, f"shard {sid}: {type(exc).__name__}: {exc}",
            shard=sid,
        )

    def _refresh_term(self, sid: int) -> None:
        try:
            info = self._shard_call(sid, lambda r: r.op_primary("ping"))
        except (ClientError, ServerError):
            self._terms.pop(sid, None)
            return
        term = info.get("term")
        if isinstance(term, int):
            self._terms[sid] = term

    def push_topology(self) -> dict:
        """Push the ring to every shard (``shard.adopt``); best effort.

        Shards assembled from config already hold the topology — this is
        how a deployment bootstrapped through a coordinator distributes
        it, and how epoch bumps will propagate.
        """
        wire = self.topology.as_dict()
        adopted: dict[int, bool] = {}
        for sid in range(len(self.topology.shards)):
            try:
                self._shard_call(
                    sid,
                    lambda r, sid=sid: r.op_primary(
                        "shard.adopt", topology=wire, shard=sid
                    ),
                )
                adopted[sid] = True
            except (ClientError, ServerError):
                adopted[sid] = False
        return adopted

    # ------------------------------------------------------- fan-out helper

    def _fan_out(self, sids: list[int], fn, timeout: float):
        """Run ``fn(sid)`` for each shard concurrently; {sid: (ok, value)}.

        Worker threads re-activate the caller's trace context so every
        per-shard request joins the one distributed trace of the incoming
        request.  A shard that misses ``timeout`` counts as failed (its
        thread may still finish in the background; results arriving late
        are discarded).
        """
        ctx = TRACER.current()
        results: dict[int, tuple[bool, object]] = {}
        results_lock = threading.Lock()

        def work(sid: int) -> None:
            with TRACER.activate(
                ctx.trace_id if ctx is not None else None,
                ctx.span_id if ctx is not None else None,
            ):
                try:
                    value = fn(sid)
                    outcome = (True, value)
                except Exception as exc:  # collected, classified by caller
                    outcome = (False, exc)
            with results_lock:
                results[sid] = outcome

        threads = [
            threading.Thread(
                target=work, args=(sid,), name=f"repro-shard-fan-{sid}",
                daemon=True,
            )
            for sid in sids
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + timeout
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        with results_lock:
            for sid in sids:
                if sid not in results:
                    results[sid] = (
                        False,
                        TimeoutError(f"shard {sid} did not answer in {timeout}s"),
                    )
            return dict(results)

    def _gather(self, sids: list[int], fn) -> dict[int, dict]:
        """Fan out within the cross-shard time budget; every shard must
        answer — the first failure (in shard order) is raised, wrapped."""
        fanned = self._fan_out(sids, fn, timeout=self.server.config.twopc_timeout)
        gathered = {}
        for sid, (ok, payload) in sorted(fanned.items()):
            if not ok:
                raise self._wrap(sid, payload)
            gathered[sid] = payload
        return gathered

    def _local_roots(self, names, op: str) -> bool:
        """True when every root is a system root (served from this image);
        a request may not mix them with sharded roots."""
        system = [is_system_root(str(name)) for name in names]
        if any(system) and not all(system):
            raise RequestError(
                protocol.E_BAD_REQUEST,
                f"one {op} cannot mix system roots and sharded roots",
            )
        return all(system)

    def _shard_get(self, sid: int, names: list[str]) -> dict:
        def run(router: ClusterClient) -> dict:
            operands: dict = {"roots": names}
            # per-shard read-your-writes: the router's floor is the highest
            # repl_version a write through this coordinator produced there
            if router.last_write_version > 0:
                operands["min_version"] = router.last_write_version
            return router.op_replica("get", **operands)

        return self._shard_call(sid, run)

    # ---------------------------------------------------------------- 2PC

    def _two_phase(self, request, groups: dict[int, dict]) -> dict:
        config = self.server.config
        if not self._recovered.wait(timeout=config.twopc_timeout):
            raise RequestError(
                protocol.E_BUSY,
                "coordinator is still recovering in-doubt transactions",
            )
        participants = sorted(groups)
        txn = f"{self.node}:{int(time.time() * 1_000_000)}:{next(self._seq)}"
        with self._inflight_lock:
            self._inflight.add(txn)
        try:
            TRACER.event(
                "server.shard.twopc_begin", txn=txn, participants=participants
            )
            fanned = self._fan_out(
                participants,
                lambda sid: self._prepare_shard(sid, txn, participants, groups[sid]),
                timeout=config.twopc_timeout,
            )
            failed = {sid: exc for sid, (ok, exc) in fanned.items() if not ok}
            if failed:
                # phase one failed somewhere: abort everywhere (idempotent —
                # shards that never staged treat the abort as a no-op), and
                # anything unreachable is caught by presumed-abort recovery
                for sid in participants:
                    if sid not in failed:
                        try:
                            self._decide_shard(sid, txn, "abort")
                        except (ClientError, ServerError):
                            pass
                _TXNS_ABORTED.inc()
                sid, exc = sorted(failed.items())[0]
                cause = self._wrap(sid, exc)
                error = RequestError(
                    protocol.E_TWOPC,
                    f"prepare failed on shard {sid}: {cause}; "
                    f"transaction rolled back",
                    txn=txn,
                    shard=sid,
                )
                raise error from (exc if isinstance(exc, Exception) else None)
            self._failpoint("after-prepare")
            if config.durable_decisions:
                # THE commit point: the decision record's fsync.  Crash
                # before it → presumed abort; crash after it → recovery
                # re-drives the commit to every participant.
                self._record_decision(txn, participants)
            self._failpoint("after-decision")
            versions: dict[str, int] = {}
            first = True
            for sid in participants:
                result = self._decide_shard(sid, txn, "commit")
                versions[str(sid)] = int(result.get("repl_version", 0))
                if first:
                    first = False
                    self._failpoint("mid-decide")
            if config.durable_decisions:
                self._clear_decision(txn)
            _TXNS_COMMITTED.inc()
            TRACER.event("server.shard.twopc_commit", txn=txn)
            return {
                "committed": True,
                "txn": txn,
                "participants": participants,
                "shards": versions,
            }
        finally:
            with self._inflight_lock:
                self._inflight.discard(txn)

    def _prepare_shard(
        self, sid: int, txn: str, participants: list[int], writes: dict
    ) -> dict:
        operands = {
            "txn": txn,
            "coordinator": self.node,
            "participants": participants,
            "writes": writes,
        }
        term = self._terms.get(sid)
        if term is not None:
            operands["term"] = term

        def send(router: ClusterClient) -> dict:
            # prepare is idempotent on the shard (an existing staging root
            # answers "already"), so a connection lost mid-request may be
            # replayed safely
            return router.op_primary("shard.prepare", **operands)

        try:
            result = self._shard_call(sid, send)
        except ServerError as exc:
            if exc.code != protocol.E_STALE_TERM:
                raise
            # the shard failed over since we last looked: learn the new
            # primary's term and retry once under it
            self._refresh_term(sid)
            term = self._terms.get(sid)
            if term is not None:
                operands["term"] = term
            else:
                operands.pop("term", None)
            result = self._shard_call(sid, send)
        term = result.get("term")
        if isinstance(term, int):
            self._terms[sid] = term
        return result

    def _decide_shard(self, sid: int, txn: str, decision: str) -> dict:
        return self._shard_call(
            sid,
            lambda r: r.op_primary("shard.decide", txn=txn, decision=decision),
        )

    def _failpoint(self, name: str) -> None:
        if self.server.config.twopc_failpoint != name:
            return
        TRACER.event("server.shard.failpoint", failpoint=name)
        # die like a crash: the response must never reach the client (the
        # invariant under test is about *acknowledged* writes)
        threading.Thread(
            target=self.server.crash, name="repro-shard-failpoint", daemon=True
        ).start()
        raise RequestError(
            protocol.E_SHUTTING_DOWN, f"coordinator crashed at failpoint {name!r}"
        )

    # ------------------------------------------------------ decision records

    def _record_decision(self, txn: str, participants: list[int]) -> None:
        server = self.server
        record = make_decision(txn, "commit", participants)
        with server.txns.write(timeout=server.config.lock_timeout):
            server.heap.set_root(decision_root(txn), server.heap.store(record))

    def _clear_decision(self, txn: str) -> None:
        server = self.server
        with server.txns.write(timeout=server.config.lock_timeout):
            server.heap.remove_root(decision_root(txn))

    def _pending_decisions(self) -> list[dict]:
        heap = self.server.heap
        out = []
        for name in heap.root_names():
            if not name.startswith(DECISION_PREFIX):
                continue
            try:
                out.append(parse_decision(heap.load_root(name)))
            except TwopcError:
                continue
        return out

    # -------------------------------------------------------------- recovery

    def _resolve_once(self) -> bool:
        """One resolver pass; True when every shard was reached.

        Two halves: (1) re-drive recorded decisions — a decision root that
        still exists means phase two may not have reached every
        participant; (2) presumed abort — staging on a shard for a
        transaction this coordinator owns, with no live request and no
        decision record, proves the transaction never reached its commit
        point, so it is aborted.
        """
        complete = True
        decided = {d["txn"]: d for d in self._pending_decisions()}
        for txn, decision in decided.items():
            with self._inflight_lock:
                if txn in self._inflight:
                    continue
            done = True
            for sid in decision["participants"]:
                if sid >= len(self.topology.shards):
                    continue
                try:
                    self._decide_shard(sid, txn, decision["decision"])
                except (ClientError, ServerError):
                    done = False
                    complete = False
            if done:
                self._clear_decision(txn)
                _TXNS_RESOLVED.inc()
                TRACER.event(
                    "server.shard.twopc_resolved", txn=txn,
                    decision=decision["decision"],
                )
        for sid in range(len(self.topology.shards)):
            try:
                listed = self._shard_call(
                    sid, lambda r: r.op_replica("shard.indoubt")
                )
            except (ClientError, ServerError):
                complete = False
                continue
            for entry in listed.get("indoubt", []):
                txn = entry.get("txn")
                if not isinstance(txn, str):
                    continue
                if entry.get("coordinator") != self.node:
                    continue  # another coordinator's transaction
                with self._inflight_lock:
                    if txn in self._inflight:
                        continue
                if txn in decided:
                    continue  # the re-drive half handles it
                try:
                    self._decide_shard(sid, txn, "abort")
                    _TXNS_RESOLVED.inc()
                    TRACER.event(
                        "server.shard.twopc_presumed_abort", txn=txn, shard=sid
                    )
                except (ClientError, ServerError):
                    complete = False
        return complete

    def _resolver_tick(self) -> None:
        if not self._pushed:
            # best-effort topology push first: shards assembled by hand
            # learn the ring before any ownership-checked traffic arrives
            self._pushed = True
            self.push_topology()
        if self._recovered.is_set():
            self._resolve_once()
        elif self._resolve_once():
            self._recovered.set()
            TRACER.event("server.shard.recovered")
            self.resolver.interval = self.server.config.resolver_interval

    def indoubt_count(self) -> int:
        """Decision roots still pending phase two (the `repro top` column)."""
        return len(self._pending_decisions())


# ------------------------------------------------------- the routed data plane
# (handlers like the base table's; their state is ``server.coordinator``)


def _local(name: str, server, session, request):
    """Serve the op from the coordinator's own image: the base table's
    entry under the transaction it declares (system roots, local stats)."""
    op = BASE_OPS[name]
    return server.run_txn(op.txn, session, request, op.handler)


def get(server, session, request):
    coord = server.coordinator
    roots = request.get("roots")
    if not isinstance(roots, list) or not roots:
        raise RequestError(protocol.E_BAD_REQUEST, "get needs a list of roots")
    if coord._local_roots(roots, "get"):
        return _local("get", server, session, request)
    groups: dict[int, list[str]] = {}
    for name in roots:
        groups.setdefault(coord.topology.shard_for(str(name)), []).append(str(name))
    gathered = coord._gather(
        sorted(groups), lambda sid: coord._shard_get(sid, groups[sid])
    )
    values: dict[str, object] = {}
    shards: dict[str, int] = {}
    for sid, payload in gathered.items():
        values.update(payload.get("values", {}))
        shards[str(sid)] = int(payload.get("repl_version", 0))
    return {"values": values, "shards": shards, "version": server.txns.version}


def set_(server, session, request):
    coord = server.coordinator
    root = request.get("root")
    if not isinstance(root, str):
        raise RequestError(protocol.E_BAD_REQUEST, "set needs a root name")
    if is_system_root(root):
        return _local("set", server, session, request)
    sid = coord.topology.shard_for(root)
    try:
        result = coord._shard_call(
            sid,
            lambda r: r.op_primary("set", root=root, value=request.get("value")),
        )
    except Exception as exc:
        raise coord._wrap(sid, exc) from exc
    result["shard"] = sid
    return result


def run(server, session, request):
    """Persist modules locally, then broadcast to every shard primary.

    Scatter-gather ships *names* of stored functions, not code — the
    PTML plan fragments must already live on every shard, which is
    exactly what this broadcast establishes.
    """
    coord = server.coordinator
    result = _local("run", server, session, request)
    source = request.get("source")
    coord._gather(
        list(range(len(coord.topology.shards))),
        lambda sid: coord._shard_call(
            sid, lambda r: r.op_primary("run", source=source)
        ),
    )
    result["shards"] = len(coord.topology.shards)
    return result


def topology(server, session, request):
    coord = server.coordinator
    return {
        "topology": coord.topology.as_dict(),
        "coordinator": True,
        "node": coord.node,
        "recovered": coord._recovered.is_set(),
    }


def mset(server, session, request):
    coord = server.coordinator
    writes = request.get("writes")
    if not isinstance(writes, dict) or not writes:
        raise RequestError(protocol.E_BAD_REQUEST, "mset needs a writes object")
    if coord._local_roots(writes, "mset"):
        return _local("mset", server, session, request)
    groups: dict[int, dict] = {}
    for root, wire in writes.items():
        groups.setdefault(coord.topology.shard_for(str(root)), {})[str(root)] = wire
    if len(groups) == 1:
        # single-shard fast path: one ordinary atomic commit there
        (sid, shard_writes), = groups.items()
        try:
            result = coord._shard_call(
                sid, lambda r: r.op_primary("mset", writes=shard_writes)
            )
        except Exception as exc:
            raise coord._wrap(sid, exc) from exc
        return {
            "committed": True,
            "txn": None,
            "shards": {str(sid): int(result.get("repl_version", 0))},
            "roots": result.get("roots", {}),
        }
    return coord._two_phase(request, groups)


def scatter(server, session, request):
    coord = server.coordinator
    merge = request.get("merge", "concat")
    if merge not in _MERGES:
        raise RequestError(
            protocol.E_BAD_REQUEST,
            f"unknown merge {merge!r} (one of {', '.join(_MERGES)})",
        )
    module = request.get("module")
    function = request.get("function")
    prefix = request.get("prefix", "")
    _SCATTERS.inc()

    def query_shard(sid: int) -> dict:
        def send(router: ClusterClient) -> dict:
            operands: dict = {"prefix": prefix}
            if module and function:
                operands["module"] = module
                operands["function"] = function
            if request.get("step_limit") is not None:
                operands["step_limit"] = request.get("step_limit")
            if router.last_write_version > 0:
                operands["min_version"] = router.last_write_version
            return router.op_replica("query", **operands)

        return coord._shard_call(sid, send)

    partials = coord._gather(list(range(len(coord.topology.shards))), query_shard)
    shards = {
        str(sid): {
            "count": int(p.get("count", 0)),
            "repl_version": int(p.get("repl_version", 0)),
        }
        for sid, p in partials.items()
    }
    result: dict = {"merge": merge, "shards": shards}
    if module and function:
        values = [(sid, p.get("value")) for sid, p in sorted(partials.items())]
        if merge == "sum":
            total = 0
            for _sid, value in values:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise RequestError(
                        protocol.E_BAD_REQUEST,
                        "merge=sum needs numeric per-shard values, got "
                        f"{type(value).__name__}",
                    )
                total += value
            result["value"] = total
        else:
            result["partials"] = [
                {"shard": sid, "value": value} for sid, value in values
            ]
    else:
        merged: dict[str, object] = {}
        for _sid, partial in sorted(partials.items()):
            merged.update(partial.get("values", {}))
        result["values"] = merged
        result["count"] = len(merged)
    return result


def stats(server, session, request):
    coord = server.coordinator
    report = _local("stats", server, session, request)
    report["coordinator"] = {
        "node": coord.node,
        "recovered": coord._recovered.is_set(),
        "inflight": len(coord._inflight),
        "indoubt_decisions": coord.indoubt_count(),
        "epoch": coord.topology.epoch,
    }
    rows: dict[str, dict] = {}
    for sid in range(len(coord.topology.shards)):
        row: dict = {
            "endpoints": [
                f"{host}:{port}"
                for host, port in coord.topology.endpoints(sid)
            ],
        }
        try:
            shard = coord._shard_call(sid, lambda r: r.op_primary("stats"))
        except (ClientError, ServerError) as exc:
            row["error"] = str(exc)
            rows[str(sid)] = row
            continue
        row["role"] = shard.get("role")
        row["repl_version"] = shard.get("repl_version")
        latency = shard.get("latency_us") or {}
        row["p99_us"] = latency.get("p99")
        replication = shard.get("replication") or {}
        row["term"] = replication.get("term")
        subscribers = replication.get("subscribers") or []
        row["replicas"] = len(subscribers)
        row["lag"] = max((s.get("lag", 0) for s in subscribers), default=0)
        try:
            listed = coord._shard_call(sid, lambda r: r.op_replica("shard.indoubt"))
            row["indoubt"] = len(listed.get("indoubt", []))
        except (ClientError, ServerError):
            row["indoubt"] = None
        rows[str(sid)] = row
    report["shards"] = rows
    return report


#: layered over the base table by a coordinator daemon: it overrides the
#: data plane and augments introspection; everything else (ping, call,
#: begin/commit, repl.*, …) stays the base entry
OPS = {
    "get": Op(get, None),
    "set": Op(set_, None),
    "mset": Op(mset, None),
    "run": Op(run, None),
    "scatter": Op(scatter, None),
    "topology": Op(topology, None),
    "stats": Op(stats, None, "inline"),
}
