"""A daemon's replication role: the promote/follow transitions and the
``repl.*`` / ``promote`` / ``follow`` handlers of the op table
(:mod:`repro.server.ops`), binding the machinery of
:mod:`repro.server.replication` and :mod:`repro.server.repair` to one
:class:`~repro.server.daemon.ReproServer`.
"""

from __future__ import annotations

from repro.obs.trace import TRACER
from repro.server import protocol
from repro.server.protocol import RequestError, number
from repro.server.repair import (
    OID_BUCKET_BITS,
    bucket_digests,
    bucket_of,
    digest_root,
)
from repro.server.replication import (
    PrimaryReplication,
    ReplicaFollower,
    StaleTermError,
    replication_state,
)
from repro.store.concurrency import LockTimeout
from repro.store.recovery import LogArchiver


def make_primary(server, node: str, term: int | None) -> PrimaryReplication:
    """A primary role attached to the heap's commit path (a configured
    primary attaches before boot, so the boot commit is record #1)."""
    replication = PrimaryReplication(
        server.heap,
        server.txns,
        f"{server.image_path}.commitlog",
        node=server.config.node_id or node,
        term=term,
        fence=server.config.fence,
    )
    replication.attach()
    return replication


def make_follower(server, upstream: tuple[str, int]) -> ReplicaFollower:
    return ReplicaFollower(
        server.heap,
        server.txns,
        server.system,
        upstream,
        f"{server.image_path}.commitlog",
        node=server.config.node_id or "replica",
        fence=server.config.fence,
    )


def attach_archiver(server) -> None:
    """Hook continuous archiving into the commit log's retention point.

    ``CommitLog.reset()`` is the only place history is discarded (a
    snapshot resync, a deposed primary following a new leader) — the
    hook seals every not-yet-archived frame into a checksummed archive
    segment first, so a point-in-time restore can always reach the
    versions the log no longer holds.  Re-run after every role change:
    promote/follow build fresh log objects.
    """
    node = server.replication or server.follower
    if node is None or not server.config.archive:
        return
    if server.archiver is None:
        server.archiver = LogArchiver(
            server.image_path, file_factory=server.config.io_factory
        )
    node.log.retention = server.archiver.seal


def become_primary(server, term: int | None = None) -> int:
    """Promote: stop following, bump the term, commit the promotion.

    The promotion commit stamps the new term into the image (and the
    commit log) so it is durable and every subscriber learns it — a
    deposed primary's records are rejected from that point on.
    """
    with server.role_lock:
        if server.replication is not None:
            return server.replication.term  # already primary
        if server.follower is not None:
            # strictly above every term this node ever accepted
            new_term = server.follower.promote(term)
            server.follower = None
        else:
            base = replication_state(server.heap)["term"]
            new_term = max(base + 1, term if term is not None else 0, 1)
        server.replication = make_primary(server, "promoted", new_term)
        # the promotion commit: forces a record under the new term even
        # with no data change, so the term takes effect durably now
        try:
            with server.txns.write(timeout=server.config.lock_timeout):
                pass
        except OSError as exc:
            raise server.health.commit_io_failure("promotion", exc) from exc
        attach_archiver(server)
        TRACER.event("server.repl.promote", term=new_term)
        return new_term


def become_replica(server, upstream: tuple[str, int]) -> None:
    with server.role_lock:
        if server.replication is not None:
            server.replication.stop()
            server.replication = None
        if server.follower is not None:
            server.follower.stop()
        server.follower = make_follower(server, upstream)
        server.follower.start()
        attach_archiver(server)
        TRACER.event("server.repl.follow", host=upstream[0], port=int(upstream[1]))


def status(server, session, request):
    """Role, coordinates, lag/subscribers — optionally the state digest."""
    node = server.replication or server.follower
    if node is not None:
        report = node.status()
    else:
        report = {
            "role": "standalone",
            "term": replication_state(server.heap)["term"],
            "version": server.repl_version(),
        }
    if request.get("digest"):
        try:
            with server.txns.read(timeout=server.config.lock_timeout):
                report["digest"] = server.heap.logical_digest()
        except LockTimeout as exc:
            raise RequestError(protocol.E_BUSY, str(exc)) from exc
    return report


def digest(server, session, request):
    """Digest tree over OID buckets — the anti-entropy compare step.

    Buckets whose digest differs from the peer's are the only ranges a
    repairing replica re-fetches; ``version`` lets the caller reject a
    comparison taken at a different replication version (skew would
    flag every fresh write as divergence).
    """
    digests = bucket_digests(server.heap)
    return {
        "version": server.repl_version(),
        "term": replication_state(server.heap)["term"],
        "role": server.role,
        "bucket_bits": OID_BUCKET_BITS,
        "buckets": {str(b): d for b, d in digests.items()},
        "root": digest_root(digests),
        "oids": len(server.heap.committed_oids()),
    }


def fetch(server, session, request):
    """Committed payloads of the requested OID buckets (repair fetch)."""
    buckets = request.get("buckets")
    if not isinstance(buckets, list) or not all(
        isinstance(b, int) and b >= 0 for b in buckets
    ):
        raise RequestError(protocol.E_BAD_REQUEST, "fetch needs a list of bucket ids")
    want = set(buckets)
    heap = server.heap
    objects = []
    total = 0
    for oid in heap.committed_oids():
        if bucket_of(oid) not in want:
            continue
        payload = heap.committed_payload(oid)
        objects.append((oid, payload.hex()))
        total += len(payload)
    return {
        "version": server.repl_version(),
        "count": len(objects),
        "bytes": total,
        "objects": objects,
    }


def subscribe(server, session, request):
    """Turn this connection into a change-record stream (replica side
    connects and calls this; records are pushed, acks flow back)."""
    replication = server.replication
    if replication is None:
        raise RequestError(
            protocol.E_NOT_PRIMARY,
            f"this node is a {server.role}, it does not serve the "
            "replication stream",
        )
    try:
        result = replication.subscribe(
            session.id,
            str(request.get("node", f"session-{session.id}")),
            number(request, "from_version", default=0),
            number(request, "last_term", default=0),
            session.send,
        )
    except StaleTermError as exc:
        raise RequestError(protocol.E_STALE_TERM, str(exc), term=exc.term) from exc
    session.subscriber = True
    session.sock.settimeout(None)  # subscribers are quiet between commits
    return result


def ack(server, session, request):
    version = number(request, "version")
    if server.replication is None or not session.subscriber or version is None:
        raise RequestError(
            protocol.E_BAD_REQUEST, "ack needs a subscriber session and a version"
        )
    server.replication.ack(session.id, version)
    return {"acked": version}


def promote(server, session, request):
    """Make this node the primary, fencing the old one out by term."""
    term = become_primary(server, number(request, "term"))
    replication = server.replication
    return {
        "role": "primary",
        "term": term,
        "version": replication.version if replication else 0,
    }


def follow(server, session, request):
    """(Re-)point this node at a primary — demotion or upstream change."""
    host = request.get("host")
    port = request.get("port")
    if not isinstance(host, str) or not isinstance(port, int):
        raise RequestError(protocol.E_BAD_REQUEST, "follow needs host and port")
    become_replica(server, (host, port))
    return {"role": "replica", "upstream": {"host": host, "port": port}}
