"""The shard-daemon side of sharding: ring adoption, the ownership gate,
and the two-phase-commit participant ops (``shard.*``).

Plain ``(server, session, request)`` handlers for the daemon's op table
(:mod:`repro.server.ops`), plus the topology helpers the data ops share.
The coordinator side is :mod:`repro.server.sharding.coordinator`.
"""

from __future__ import annotations

import json
import sys

from repro.server import protocol
from repro.server.protocol import RequestError, from_jsonable, number
from repro.server.sharding.ring import (
    RingError,
    ShardTopology,
    SHARD_ROOT,
    TOPOLOGY_ROOT,
    is_system_root,
)
from repro.server.sharding.twopc import (
    STAGING_PREFIX,
    TwopcError,
    make_staging,
    parse_staging,
    staging_root,
)
from repro.store.heap import HeapError


def load_topology(server) -> None:
    """Adopt the topology persisted under ``__topology__`` (JSON text).

    The root replicates through ordinary commit-log shipping, so a
    shard replica learns the ring without ever being told directly.
    """
    heap = server.heap
    oid = heap.root(TOPOLOGY_ROOT)
    if oid is None:
        return
    try:
        wire = heap.load(oid)
        if isinstance(wire, str):
            server.topology = ShardTopology.from_dict(json.loads(wire))
    except (HeapError, RingError, json.JSONDecodeError) as exc:
        print(f"repro-server: ignoring bad __topology__: {exc}", file=sys.stderr)
    if server.config.shard_id is None:
        sid_oid = heap.root(SHARD_ROOT)
        if sid_oid is not None:
            try:
                sid = heap.load(sid_oid)
                if isinstance(sid, int):
                    server.config.shard_id = sid
            except HeapError:
                pass


def current_topology(server) -> ShardTopology | None:
    """The active topology, re-reading the image when none is adopted
    yet (a replica that received ``__topology__`` after its boot)."""
    if server.topology is None:
        load_topology(server)
    return server.topology


def check_owned(server, names) -> None:
    """Ownership gate for sharded daemons: every *user* root must hash
    to this shard.  System roots are image-local and always pass; a
    daemon with no topology or no shard id serves everything."""
    shard_id = server.config.shard_id
    if shard_id is None:
        return
    topology = current_topology(server)
    if topology is None:
        return
    for name in names:
        name = str(name)
        if is_system_root(name):
            continue
        owner = topology.shard_for(name)
        if owner != shard_id:
            raise RequestError(
                protocol.E_WRONG_SHARD,
                f"root {name!r} belongs to shard {owner}, "
                f"this daemon is shard {shard_id}",
                shard=owner,
                endpoints=[
                    {"host": host, "port": port}
                    for host, port in topology.endpoints(owner)
                ],
                epoch=topology.epoch,
            )


def staged_roots(server) -> list[str]:
    """The staging roots of prepared-but-undecided transactions."""
    return [n for n in server.heap.root_names() if n.startswith(STAGING_PREFIX)]


def _adopt_operands(request):
    try:
        topology = ShardTopology.from_dict(request.get("topology"))
    except RingError as exc:
        raise RequestError(protocol.E_BAD_REQUEST, str(exc)) from exc
    shard = request.get("shard")
    if shard is not None and not isinstance(shard, int):
        raise RequestError(protocol.E_BAD_REQUEST, "shard must be an int id")
    return topology, shard


def adopt(server, session, request):
    """Persist a topology pushed by a coordinator (and this daemon's
    shard id within it).  The commit replicates the ring to the whole
    shard group; the daemon adopts it only once that commit succeeded."""
    topology, shard = _adopt_operands(request)
    result = server.run_txn("write", session, request, _persist_ring)
    server.topology = topology
    if shard is not None:
        server.config.shard_id = shard
    return result


def _persist_ring(server, session, request):
    topology, shard = _adopt_operands(request)
    text = json.dumps(topology.as_dict(), sort_keys=True, separators=(",", ":"))
    server.bind_root(TOPOLOGY_ROOT, text)
    if shard is not None:
        server.bind_root(SHARD_ROOT, shard)
    return {"epoch": topology.epoch, "shards": len(topology.shards)}


def _txn_id(request, op: str) -> str:
    txn = request.get("txn")
    if not isinstance(txn, str) or not txn:
        raise RequestError(protocol.E_BAD_REQUEST, f"{op} needs a txn id")
    return txn


def prepare(server, session, request):
    """Phase one: durably stage a transaction's writes for this shard.

    The staging commit flows through the fenced commit log and the
    replica quorum like any write — once acknowledged, this shard is
    in doubt for the transaction until a decision (or presumed-abort
    recovery) resolves it.  Idempotent per transaction id.
    """
    txn = _txn_id(request, "prepare")
    writes = request.get("writes")
    if not isinstance(writes, dict) or not writes:
        raise RequestError(protocol.E_BAD_REQUEST, "prepare needs writes")
    replication = server.replication
    expected = number(request, "term")
    if expected is not None and replication is not None:
        if expected != replication.term:
            # fencing: the coordinator prepared against a deposed view
            # of this shard group
            raise RequestError(
                protocol.E_STALE_TERM,
                f"shard primary is at term {replication.term}, "
                f"prepare expected term {expected}",
                term=replication.term,
            )
    participants = request.get("participants", [])
    if not isinstance(participants, list):
        raise RequestError(protocol.E_BAD_REQUEST, "participants must be a list")
    check_owned(server, writes.keys())
    heap = server.heap
    root = staging_root(txn)
    if heap.root(root) is not None:
        return {"txn": txn, "prepared": True, "already": True}
    for wire in writes.values():
        from_jsonable(wire)  # reject undecodable values pre-stage
    record = make_staging(
        txn, str(request.get("coordinator", "")), participants, writes
    )
    heap.set_root(root, heap.store(record))
    reply = {"txn": txn, "prepared": True}
    if replication is not None:
        reply["term"] = replication.term
    return reply


def decide(server, session, request):
    """Phase two: apply (commit) or discard (abort) staged writes and
    retire the staging root, all in one atomic commit.  Replaying a
    decision for an already-retired transaction is a no-op — the
    coordinator's recovery may deliver duplicates."""
    txn = _txn_id(request, "decide")
    decision = request.get("decision")
    if decision not in ("commit", "abort"):
        raise RequestError(
            protocol.E_BAD_REQUEST, f"decision must be commit|abort, got {decision!r}"
        )
    heap = server.heap
    root = staging_root(txn)
    oid = heap.root(root)
    if oid is None:
        return {"txn": txn, "decision": decision, "already": True}
    try:
        staged = parse_staging(heap.load(oid))
    except TwopcError as exc:
        raise RequestError(
            protocol.E_INTERNAL, f"corrupt staging for {txn}: {exc}"
        ) from exc
    if decision == "commit":
        for name, wire in staged["writes"].items():
            server.bind_root(name, from_jsonable(wire))
    heap.remove_root(root)
    return {"txn": txn, "decision": decision, "applied": decision == "commit"}


def indoubt(server, session, request):
    """List prepared-but-undecided transactions on this shard — the
    coordinator's recovery input."""
    listed = []
    for name in staged_roots(server):
        try:
            staged = parse_staging(server.heap.load_root(name))
        except (TwopcError, HeapError):
            continue
        listed.append(
            {
                "txn": staged["txn"],
                "coordinator": staged["coordinator"],
                "participants": staged["participants"],
                "roots": sorted(staged["writes"]),
            }
        )
    return {"indoubt": listed, "count": len(listed)}
