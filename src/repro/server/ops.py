"""The daemon's op table: every wire operation, declared once.

``OPS`` maps an op name to an :class:`Op`: a plain ``handler(server,
session, request) -> result`` plus what the daemon needs to know about
it — :meth:`ReproServer._handle` reads ``txn``, :meth:`ReproServer._admit`
reads ``lane``; handlers know neither.  A coordinator overrides entries
with more of the same type (:data:`repro.server.sharding.coordinator.OPS`).
The replication handlers live in :mod:`repro.server.roles`, the 2PC
participant's in :mod:`repro.server.sharding.participant`.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

from repro.lang.errors import TLError
from repro.lang.parser import parse_modules
from repro.machine.runtime import (
    MachineError,
    TmlVector,
    UncaughtTmlException,
    show_value,
)
from repro.machine.vm import VM, StepLimitExceeded
from repro.obs.metrics import METRICS
from repro.obs.profile import ClosureProfile
from repro.obs.trace import TRACER
from repro.server import protocol, roles
from repro.server.pgo import PgoWorker
from repro.server.protocol import RequestError, from_jsonable, number, to_jsonable
from repro.server.sharding import participant
from repro.server.sharding.participant import check_owned, current_topology
from repro.server.sharding.ring import is_system_root
from repro.store.concurrency import LockTimeout
from repro.store.heap import HeapError

__all__ = ["Op", "OPS", "execute"]


class Op(NamedTuple):
    """One row of the op table."""

    handler: Callable  # (server, session, request) -> result
    #: implicit transaction the handler runs under when the session holds
    #: none: ``"read"``, ``"write"`` (auto-commit), or None — the handler
    #: needs no image access, or picks its mode from the request (``call``)
    #: and calls :meth:`ReproServer.run_txn` itself
    txn: str | None
    #: ``"pool"``: through the bounded worker pool; ``"inline"``: on the
    #: session's connection thread (may block on the lock, turns the
    #: connection into a stream, or must answer while the pool is saturated)
    lane: str = "pool"


#: conversion rate for request deadlines → instruction budgets: a request
#: with ``deadline`` seconds remaining gets at most that many TAM steps
STEPS_PER_SECOND = 2_000_000

# ---------------------------------------------------------------- execution


def execute(server, closure, args, request: dict):
    """Run ``closure`` on a fresh VM under the request's step budget."""
    limit = server.config.step_limit
    step_limit = number(request, "step_limit")
    if step_limit is not None:
        limit = max(1, min(step_limit, limit))
    remaining = server.remaining(request)
    if remaining is not None:
        # convert the remaining wall-clock budget to instructions, so a
        # deadlined request cannot overstay inside the VM
        limit = max(1, min(limit, int(remaining * STEPS_PER_SECOND)))
    profile = ClosureProfile() if server.config.profile else None
    vm = VM(
        store=server.heap,
        foreign=server.system.foreign,
        step_limit=limit,
        profiler=profile,
    )
    try:
        result = vm.call(closure, list(args))
    except StepLimitExceeded as exc:
        request["_steps"] = exc.instructions
        raise RequestError(
            protocol.E_STEP_LIMIT,
            str(exc),
            limit=exc.limit,
            instructions=exc.instructions,
            output=list(exc.partial.output) if exc.partial else [],
        ) from exc
    except UncaughtTmlException as exc:
        raise RequestError(
            protocol.E_EXEC, f"uncaught exception: {show_value(exc.value)}"
        ) from exc
    except MachineError as exc:
        raise RequestError(protocol.E_EXEC, str(exc)) from exc
    finally:
        if profile is not None:
            server.merge_profile(profile)  # failed and truncated runs are evidence too
    request["_steps"] = result.instructions
    return result


def call(server, session, request):
    mode = "write" if request.get("mode", "read") == "write" else "read"
    return server.run_txn(mode, session, request, _call)


def _call(server, session, request):
    module = request.get("module")
    function = request.get("function")
    if not module or not function:
        raise RequestError(protocol.E_BAD_REQUEST, "call needs module and function")
    args = [from_jsonable(a) for a in request.get("args", [])]
    closure, hit = server.resolve(module, function)
    result = execute(server, closure, args, request)
    return {
        "value": to_jsonable(result.value),
        "instructions": result.instructions,
        "output": list(result.output),
        "cache": "hit" if hit else "miss",
    }


def run(server, session, request):
    source = request.get("source")
    if not isinstance(source, str):
        raise RequestError(protocol.E_BAD_REQUEST, "run needs TL source text")
    try:
        modules = [server.system.compile_ast(ast) for ast in parse_modules(source)]
    except TLError as exc:
        raise RequestError(protocol.E_BAD_REQUEST, str(exc)) from exc
    names = []
    for module in modules:
        server.system.persist(module.name)
        names.append(module.name)
        for function in module.functions:
            server.invalidate_function(module.name, function)
    return {"modules": names}


def pgo(server, session, request):
    """Run one PGO round now (admin/diagnostic; tests and smoke use it)."""
    worker = server.pgo_worker or PgoWorker(server)
    report = worker.run_round(top=number(request, "top"), min_instructions=0)
    if report is None:
        return {"optimized": []}
    return {
        "optimized": [
            {
                "function": candidate.qualified,
                "invocations": candidate.invocations,
                "instructions": candidate.instructions,
                "cost_before": report.results[candidate.qualified].cost_before,
                "cost_after": report.results[candidate.qualified].cost_after,
            }
            for candidate in report.selected
        ]
    }


# ----------------------------------------------------------------- data ops


def _check_fresh(server, request) -> None:
    """Bounded staleness: refuse to serve a snapshot older than the
    client's ``min_version`` floor (typically its last write's version)."""
    min_version = number(request, "min_version")
    if min_version is not None:
        current = server.repl_version()
        if current < min_version:
            raise RequestError(
                protocol.E_STALE_READ,
                f"replica is at version {current}, read requires {min_version}",
                version=current,
                min_version=min_version,
            )


def get(server, session, request):
    roots = request.get("roots")
    if not isinstance(roots, list) or not roots:
        raise RequestError(protocol.E_BAD_REQUEST, "get needs a list of roots")
    check_owned(server, roots)
    _check_fresh(server, request)
    values = {}
    for name in roots:
        try:
            values[name] = to_jsonable(server.heap.load_root(name))
        except HeapError as exc:
            raise RequestError(protocol.E_NOT_FOUND, str(exc)) from exc
    return {
        "values": values,
        "version": server.txns.version,
        "repl_version": server.repl_version(),
    }


def set_(server, session, request):
    root = request.get("root")
    if not isinstance(root, str):
        raise RequestError(protocol.E_BAD_REQUEST, "set needs a root name")
    value = from_jsonable(request.get("value"))
    check_owned(server, [root])
    return {"root": root, "oid": server.bind_root(root, value)}


def mset(server, session, request):
    """Bind several roots in one atomic commit.

    On a plain daemon every root must be local (owned or system); on a
    coordinator the writes may span shards, in which case the
    coordinator override runs them as a 2PC instead of this handler.
    """
    writes = request.get("writes")
    if not isinstance(writes, dict) or not writes:
        raise RequestError(protocol.E_BAD_REQUEST, "mset needs a writes object")
    check_owned(server, writes.keys())
    oids = {
        str(root): server.bind_root(str(root), from_jsonable(wire))
        for root, wire in writes.items()
    }
    return {"roots": oids, "count": len(oids)}


def roots(server, session, request):
    return {"roots": server.heap.root_names(), "version": server.txns.version}


def query(server, session, request):
    """Prefix-scan this daemon's owned user roots, optionally folding
    them through a stored function — the shard-local half of
    scatter-gather.  The fold function receives one vector of the
    matching values (in root-name order) and its result is the
    shard's partial, merged coordinator-side."""
    prefix = request.get("prefix", "")
    if not isinstance(prefix, str):
        raise RequestError(protocol.E_BAD_REQUEST, "query prefix must be a string")
    module = request.get("module")
    function = request.get("function")
    _check_fresh(server, request)
    topology = current_topology(server)
    shard_id = server.config.shard_id
    heap = server.heap
    names = []
    for name in heap.root_names():
        if not name.startswith(prefix) or is_system_root(name):
            continue
        if (
            topology is not None
            and shard_id is not None
            and topology.shard_for(name) != shard_id
        ):
            continue  # not owned (stale leftovers mid-rebalance)
        names.append(name)
    values = {name: heap.load_root(name) for name in names}
    reply = {
        "count": len(names),
        "version": server.txns.version,
        "repl_version": server.repl_version(),
    }
    if module and function:
        closure, hit = server.resolve(module, function)
        result = execute(
            server, closure, [TmlVector([values[name] for name in names])], request
        )
        reply["value"] = to_jsonable(result.value)
        reply["cache"] = "hit" if hit else "miss"
    else:
        reply["values"] = {name: to_jsonable(value) for name, value in values.items()}
    return reply


def topology(server, session, request):
    """The adopted ring (a coordinator override reports its own)."""
    ring = current_topology(server)
    if ring is None:
        raise RequestError(protocol.E_NOT_FOUND, "this daemon has no shard topology")
    reply = {"topology": ring.as_dict()}
    if server.config.shard_id is not None:
        reply["shard"] = server.config.shard_id
    return reply


# ------------------------------------------------------------- transactions


def begin(server, session, request):
    if session.txn is not None:
        raise RequestError(protocol.E_TXN_STATE, "session already has a transaction")
    mode = request.get("mode", "write")
    if mode not in ("read", "write"):
        raise RequestError(protocol.E_BAD_REQUEST, f"unknown txn mode {mode!r}")
    if mode == "write":
        server.health.check_writable()
    try:
        session.txn = server.txns.begin(mode, number(request, "timeout", float))
    except LockTimeout as exc:
        raise RequestError(protocol.E_BUSY, str(exc)) from exc
    return {"mode": mode, "version": session.txn.version}


def _take_txn(session):
    txn = session.take_txn()
    if txn is None:
        raise RequestError(protocol.E_TXN_STATE, "no open transaction")
    return txn


def commit(server, session, request):
    txn = _take_txn(session)
    try:
        txn.commit()
    except HeapError as exc:
        raise RequestError(protocol.E_EXEC, f"commit failed: {exc}") from exc
    except OSError as exc:
        raise server.health.commit_io_failure("commit", exc) from exc
    result = {"version": server.txns.version, "repl_version": server.repl_version()}
    if txn.mode == "write":
        server.await_replicas(result)
    return result


def abort(server, session, request):
    _take_txn(session).abort()
    return {"version": server.txns.version}


# ------------------------------------------------------------ introspection


def _hit_rate(stats: dict) -> dict:
    hits, misses = stats["hits"], stats["misses"]
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": round(hits / total, 4) if total else None,
    }


def _shard_identity(server) -> dict | None:
    """Shard id, ring position and owned keyspace share (None: unsharded)."""
    ring = current_topology(server)
    if ring is None or server.config.shard_id is None:
        return None
    return ring.describe_shard(server.config.shard_id)


def ping(server, session, request):
    """Liveness + identity: protocol, drain status, image facts, uptime."""
    degraded = server.health.degraded_info()
    reply = {
        "pong": True,
        "protocol": protocol.PROTOCOL_VERSION,
        "session": session.id,
        "status": "draining" if server.stopping.is_set() else "ok",
        "uptime_s": server.uptime_s(),
        "image": server.heap.image_info(),
        "role": server.role,
        "repl_version": server.repl_version(),
        "degraded": degraded["active"],
    }
    if degraded["active"]:
        reply["degraded_reason"] = degraded["reason"]
    node = server.replication or server.follower
    if node is not None:
        reply["term"] = node.term
    if server.coordinator is not None:
        reply["coordinator"] = True
    shard = _shard_identity(server)
    if shard is not None:
        reply["shard"] = shard
    reply["caches"] = {
        "code": _hit_rate(server.code_cache.stats()),
        "facts": _hit_rate(server.fact_store.stats()),
    }
    return reply


def _latency_summary(histogram) -> dict:
    """count/mean plus exact-rank p50/p99/p999 of one latency histogram."""
    summary = {
        "count": histogram.count,
        "mean": round(histogram.mean, 1),
        "min": histogram.min,
        "max": histogram.max,
    }
    summary.update(histogram.percentiles(0.5, 0.99, 0.999))
    return summary


def _count(metric: str) -> int:
    return METRICS.get(metric).value


def stats(server, session, request):
    per_op = {}
    prefix, suffix = "server.op.", ".latency_us"
    for name in METRICS.names():
        if name.startswith(prefix) and name.endswith(suffix):
            per_op[name[len(prefix):-len(suffix)]] = _latency_summary(METRICS.get(name))
    health = server.health
    report = {
        "sessions": server.session_count(),
        "version": server.txns.version,
        "role": server.role,
        "repl_version": server.repl_version(),
        "uptime_s": server.uptime_s(),
        "requests": {
            "total": _count("server.requests"),
            "errors": _count("server.request_errors"),
        },
        "latency_us": _latency_summary(METRICS.get("server.request_latency_us")),
        "ops": per_op,
        "codecache": server.code_cache.stats(),
        "facts": server.fact_store.stats(),
        "roots": len(server.heap.root_names()),
        "slowlog": server.slowlog.stats(),
        "trace": server.trace_status(),
        "history": server.history.stats(),
        "degraded": health.degraded_info(),
        "memory": health.memory_info(),
        "shed": {
            "deadline": _count("server.shed.deadline"),
            "overloaded": _count("server.shed.overloaded"),
            "memory": _count("server.shed.memory"),
            "slow_client_closes": _count("server.slow_client_closes"),
            "io_errors": _count("server.io_errors"),
        },
    }
    scrub = health.scrub_info()
    if server.config.scrub_interval is not None or scrub["cycles"]:
        report["scrub"] = scrub
    if server.archiver is not None:
        try:
            sealed = server.archiver.sealed_version
        except OSError:
            sealed = None
        report["archive"] = {
            "directory": server.archiver.directory,
            "sealed_version": sealed,
        }
    shard = _shard_identity(server)
    if shard is not None:
        shard["staging"] = len(participant.staged_roots(server))
        report["shard"] = shard
    if server.pgo_worker is not None:
        report["pgo"] = server.pgo_worker.stats()
    node = server.replication or server.follower
    if node is not None:
        report["replication"] = node.status()
        apply_lag = METRICS.get("server.repl.apply_latency_us")
        if apply_lag is not None and apply_lag.count:
            report["replication"]["apply_latency_us"] = _latency_summary(apply_lag)
    if request.get("metrics"):
        report["metrics"] = METRICS.snapshot()
    count = request.get("history")
    if count:
        report["history_entries"] = server.history.entries(
            None if count is True else number(request, "history")
        )
    return report


def slowlog(server, session, request):
    """The ring of slowest requests (trace ids are NDJSON join keys)."""
    if request.get("clear"):
        server.slowlog.clear()
    return {
        "entries": server.slowlog.entries(number(request, "n")),
        **server.slowlog.stats(),
    }


def trace(server, session, request):
    """Runtime control of the daemon's NDJSON export.

    ``action``: ``status`` (default) | ``start`` (attach a recorder
    writing to a server-side ``path``) | ``stop`` (detach and close the
    daemon-managed recorder) | ``sample`` (set the root sampling
    ``rate`` in [0, 1]).
    """
    action = request.get("action", "status")
    if action == "start":
        path = request.get("path")
        if not isinstance(path, str) or not path:
            raise RequestError(
                protocol.E_BAD_REQUEST, "trace start needs a server-side path"
            )
        server.start_trace(path)
    elif action == "stop":
        status = server.trace_status()
        if status["recording"] and not status["managed"]:
            raise RequestError(
                protocol.E_BAD_REQUEST,
                "the attached recorder is not managed by the trace op",
            )
        server.stop_trace()
    elif action == "sample":
        rate = number(request, "rate", float)
        if rate is None:
            raise RequestError(
                protocol.E_BAD_REQUEST, "trace sample needs a numeric rate"
            )
        TRACER.sample_rate = min(1.0, max(0.0, rate))
    elif action != "status":
        raise RequestError(protocol.E_BAD_REQUEST, f"unknown trace action {action!r}")
    return server.trace_status()


def sleep(server, session, request):
    if not server.config.enable_debug_ops:
        raise RequestError(protocol.E_BAD_REQUEST, "debug ops are disabled")
    seconds = number(request, "seconds", float, 0.1)
    time.sleep(min(seconds, 30.0))
    return {"slept": seconds}


def shutdown(server, session, request):
    # respond first: the stop runs on its own thread, so the worker
    # executing this request is not asked to join itself
    server.initiate_shutdown()
    return {"stopping": True}


#: name → (handler, txn, lane).  Inline: ``begin`` may block indefinitely
#: on the transaction lock and ``repl.subscribe`` turns the connection
#: into a long-lived stream, so neither may eat a pool worker; ``ping`` /
#: ``stats`` / ``slowlog`` are cheap lock-free reads that must keep
#: answering while an overload saturates the pool.
OPS = {
    "ping": Op(ping, None, "inline"),
    "call": Op(call, None),
    "run": Op(run, "write"),
    "get": Op(get, "read"),
    "set": Op(set_, "write"),
    "mset": Op(mset, "write"),
    "query": Op(query, "read"),
    "topology": Op(topology, "read"),
    "roots": Op(roots, "read"),
    "begin": Op(begin, None, "inline"),
    "commit": Op(commit, None),
    "abort": Op(abort, None),
    "stats": Op(stats, None, "inline"),
    "slowlog": Op(slowlog, None, "inline"),
    "trace": Op(trace, None),
    "pgo": Op(pgo, None),
    "sleep": Op(sleep, None),
    "shutdown": Op(shutdown, None),
    "repl.status": Op(roles.status, None),
    "repl.digest": Op(roles.digest, "read"),
    "repl.fetch": Op(roles.fetch, "read"),
    "repl.subscribe": Op(roles.subscribe, None, "inline"),
    "repl.ack": Op(roles.ack, None),
    "promote": Op(roles.promote, None),
    "follow": Op(roles.follow, None),
    "shard.adopt": Op(participant.adopt, None),
    "shard.prepare": Op(participant.prepare, "write"),
    "shard.decide": Op(participant.decide, "write"),
    "shard.indoubt": Op(participant.indoubt, "read"),
}
