"""End-to-end replication tests: commit-log shipping, read replicas,
promotion with fencing, and the failover-aware cluster client.

Everything runs in-process on loopback sockets (like test_server.py), so
these exercise the exact wire path — subscribe handshake, record push,
acks, snapshot resync — without subprocess orchestration.
"""

import time

import pytest

from examples.persistent_database import APP_SRC as LIBRARY
from repro.lang import TycoonSystem
from repro.query import Relation
from repro.server import ReproServer, ServerConfig, connect
from repro.server.client import (
    ClusterClient,
    NotPrimaryError,
    RetryPolicy,
    StaleReadError,
)
from repro.store.heap import ObjectHeap


def wait_until(predicate, timeout=20.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def make_primary(tmp_path, name="primary", **overrides):
    config = ServerConfig(
        workers=2,
        queue_size=32,
        lock_timeout=10.0,
        pgo_interval=None,
        replicate=True,
        node_id=name,
        **overrides,
    )
    server = ReproServer(str(tmp_path / f"{name}.tyc"), config)
    server.start()
    return server


def make_replica(tmp_path, upstream, name, **overrides):
    config = ServerConfig(
        workers=2,
        queue_size=32,
        lock_timeout=10.0,
        pgo_interval=None,
        replica_of=("127.0.0.1", upstream.port),
        node_id=name,
        **overrides,
    )
    server = ReproServer(str(tmp_path / f"{name}.tyc"), config)
    server.start()
    return server


def converged(primary, replica):
    with connect(primary.port) as a, connect(replica.port) as b:
        sa = a.repl_status(digest=True)
        sb = b.repl_status(digest=True)
    return (
        sa["version"] == sb["version"]
        and sa.get("digest") == sb.get("digest")
    )


@pytest.fixture
def cluster(tmp_path):
    primary = make_primary(tmp_path)
    r1 = make_replica(tmp_path, primary, "r1")
    r2 = make_replica(tmp_path, primary, "r2")
    servers = [primary, r1, r2]
    yield primary, r1, r2
    for server in servers:
        try:
            server.stop()
        except Exception:
            pass


class TestShipping:
    def test_writes_reach_replicas_and_digests_match(self, cluster):
        primary, r1, r2 = cluster
        with connect(primary.port) as db:
            for i in range(5):
                db.set(f"k{i}", i * 11)
        wait_until(lambda: converged(primary, r1), message="r1 convergence")
        wait_until(lambda: converged(primary, r2), message="r2 convergence")
        with connect(r1.port) as db:
            values = db.get("k0", "k4")
        assert values == {"k0": 0, "k4": 44}

    def test_a_root_removed_on_the_primary_is_gone_on_the_replicas(self, cluster):
        """Records carry the commit's root delta: a removal has to be in it."""
        primary, r1, r2 = cluster
        with connect(primary.port) as db:
            db.set("kept", 1)
            db.set("doomed", 2)
        wait_until(
            lambda: converged(primary, r1) and converged(primary, r2),
            message="replicas converged",
        )
        with connect(r1.port) as db:
            assert db.get("doomed")["doomed"] == 2
        with primary.txns.write():
            assert primary.heap.remove_root("doomed")
        wait_until(
            lambda: converged(primary, r1) and converged(primary, r2),
            message="removal replicated",
        )
        for replica in (r1, r2):
            assert replica.heap.root("doomed") is None
            assert replica.heap.load_root("kept") == 1

    def test_replica_rejects_writes_with_primary_hint(self, cluster):
        primary, r1, _ = cluster
        with connect(r1.port) as db:
            with pytest.raises(NotPrimaryError) as err:
                db.set("nope", 1)
        assert err.value.details["primary"]["port"] == primary.port

    def test_bounded_staleness_read(self, cluster):
        primary, r1, _ = cluster
        with connect(primary.port) as db:
            result = db.set("fresh", 123)
        version = result["repl_version"]
        with connect(r1.port) as db:
            # far-future floor: must fail no matter how fast the replica is
            with pytest.raises(StaleReadError):
                db.get("fresh", min_version=version + 1000)
            # and once caught up, the same floor succeeds
            wait_until(
                lambda: db.repl_status()["version"] >= version,
                message="replica catch-up",
            )
            assert db.get("fresh", min_version=version) == {"fresh": 123}

    def test_replica_restart_catches_up(self, tmp_path):
        primary = make_primary(tmp_path)
        r1 = make_replica(tmp_path, primary, "r1")
        try:
            with connect(primary.port) as db:
                db.set("before", 1)
            wait_until(lambda: converged(primary, r1), message="initial sync")
            r1.stop()
            with connect(primary.port) as db:
                db.set("while-down", 2)
            r1 = make_replica(tmp_path, primary, "r1")
            wait_until(lambda: converged(primary, r1), message="catch-up")
            with connect(r1.port) as db:
                assert db.get("while-down") == {"while-down": 2}
        finally:
            for server in (primary, r1):
                try:
                    server.stop()
                except Exception:
                    pass

    def test_sync_write_waits_for_ack(self, tmp_path):
        primary = make_primary(tmp_path, sync_replicas=1, replication_timeout=20.0)
        r1 = make_replica(tmp_path, primary, "r1")
        try:
            with connect(primary.port) as db:
                result = db.set("synced", 7)
            assert result["acked_replicas"] >= 1
            with connect(r1.port) as db:
                assert db.get("synced") == {"synced": 7}
        finally:
            for server in (primary, r1):
                try:
                    server.stop()
                except Exception:
                    pass


class TestReplicatedCode:
    """A ``call`` on a replica observes the newest committed definition of
    every function it reaches — what a restart of the replica would run."""

    def test_a_module_defined_after_the_replica_started_is_callable(self, cluster):
        primary, r1, _ = cluster
        with connect(primary.port) as db:
            db.run("module app export step let step(n: Int): Int = n + 1 end")
        wait_until(lambda: converged(primary, r1), message="module replicated")
        with connect(r1.port) as db:
            assert db.call("app", "step", [1]) == 2

    def test_a_library_redefinition_reaches_the_replicas_importer(self, cluster):
        primary, r1, _ = cluster
        lib = "module lib export f let f(n: Int): Int = n + {} end"
        app = "module app export g import lib let g(n: Int): Int = lib.f(n) * 2 end"
        with connect(primary.port) as db:
            db.run(lib.format(1))
            db.run(app)
        wait_until(lambda: converged(primary, r1), message="modules replicated")
        with connect(r1.port) as db:
            assert db.call("app", "g", [10]) == 22
        with connect(primary.port) as db:
            db.run(lib.format(5))
        wait_until(lambda: converged(primary, r1), message="redefinition replicated")
        with connect(r1.port) as db:
            assert db.call("app", "g", [10]) == 30

    def test_a_replica_runs_the_variant_a_pgo_round_committed(self, cluster):
        primary, r1, _ = cluster
        lib = "module lib export f let f(n: Int): Int = n + 1 end"
        app = """module app export g import lib
        let g(n: Int): Int =
          var s := 0 in var i := 0 in
          begin while i < n do begin s := s + lib.f(i); i := i + 1 end end; s end
        end"""
        with connect(primary.port) as db:
            db.run(lib)
            db.run(app)
            static = db.call("app", "g", [50], full=True)
            (optimized,) = db.pgo(top=1)["optimized"]
            assert optimized["function"] == "app.g"
            after = db.call("app", "g", [50], full=True)
        assert after["value"] == static["value"]
        assert after["instructions"] < static["instructions"]
        wait_until(lambda: converged(primary, r1), message="round replicated")
        with connect(r1.port) as db:
            reply = db.call("app", "g", [50], full=True)
        assert (reply["value"], reply["instructions"]) == (after["value"], after["instructions"])

    def test_a_snapshot_resync_drops_every_module_the_replica_ran(self, tmp_path):
        app = "module app export step let step(n: Int): Int = n + {} end"
        p1 = make_primary(tmp_path, "p1")
        p2 = make_primary(tmp_path, "p2")
        r1 = make_replica(tmp_path, p1, "r1")
        try:
            with connect(p2.port) as db:
                db.run(app.format(10))
            with connect(p1.port) as db:
                db.run(app.format(1))
                for i in range(5):  # p1 ends ahead of p2: following p2 resyncs
                    db.set(f"k{i}", i)
            wait_until(lambda: converged(p1, r1), message="r1 follows p1")
            with connect(r1.port) as db:
                assert db.call("app", "step", [1]) == 2
                db.follow("127.0.0.1", p2.port)
            wait_until(lambda: converged(p2, r1), message="r1 resynced from p2")
            with connect(r1.port) as db:
                assert db.call("app", "step", [1]) == 11
        finally:
            for server in (p1, p2, r1):
                try:
                    server.stop()
                except Exception:
                    pass


def prebuild(tmp_path, build, name="primary"):
    """Write the image a daemon named ``name`` will open, in-process and
    before any daemon ran on it: ``build(system)``, then one commit."""
    system = TycoonSystem(heap=ObjectHeap(str(tmp_path / f"{name}.tyc")))
    build(system)
    system.commit()
    system.heap.close()


def stop_all(*servers):
    for server in servers:
        try:
            server.stop()
        except Exception:
            pass


class TestPrebuiltImages:
    """A daemon booted over an image written in-process serves all of it,
    and so does a replica that attaches to it."""

    def test_a_replica_of_a_prebuilt_image_gets_all_of_it(self, tmp_path):
        def build(system):
            system.heap.set_root("k", system.heap.store(7))
            system.compile("module lib export f let f(n: Int): Int = n + 1 end")
            system.compile("module app export g import lib let g(n: Int): Int = lib.f(n) * 2 end")
            system.persist("lib")
            system.persist("app")

        prebuild(tmp_path, build)
        primary = make_primary(tmp_path)
        r1 = make_replica(tmp_path, primary, "r1")
        try:
            wait_until(lambda: converged(primary, r1), message="replica converged")
            with connect(r1.port) as db:
                assert db.get("k") == {"k": 7}
                assert db.call("app", "g", [10]) == 22
            with connect(primary.port) as db:
                db.set("later", 1)
            wait_until(lambda: converged(primary, r1), message="later write replicated")
            with connect(r1.port) as db:
                assert db.get("k", "later") == {"k": 7, "later": 1}
        finally:
            stop_all(primary, r1)

    def test_the_daemon_serves_a_stored_query_at_its_index_plan(self, tmp_path):
        """``db`` is a data module record naming an indexed relation; a
        PGO round commits ``by_member``'s index-select variant, which the
        primary, a replica and the restarted primary all run."""

        def build(system):
            loans = Relation("loans", ["member", "title", "days"])
            loans.insert_many((i % 97, f"book-{i}", (i * 13) % 60) for i in range(2000))
            loans.create_index("member")
            system.heap.set_root("data:loans", system.heap.store(loans))
            system.register_data_module("db", {"loans": loans})
            system.compile(LIBRARY)
            system.persist("library")

        def instructions(server):
            # a relation is display-only on the wire: read the raw reply
            with connect(server.port) as db:
                reply = db.request("call", module="library", function="by_member", args=[42])
            return reply["instructions"]

        prebuild(tmp_path, build)
        primary = make_primary(tmp_path)
        r1 = make_replica(tmp_path, primary, "r1")
        try:
            assert instructions(primary) == 16004
            with connect(primary.port) as db:
                (optimized,) = db.pgo(top=1)["optimized"]
            assert optimized["function"] == "library.by_member"
            assert instructions(primary) <= 10
            wait_until(lambda: converged(primary, r1), message="round replicated")
            assert instructions(r1) <= 10
            primary.stop()
            primary = make_primary(tmp_path)
            assert instructions(primary) <= 10
        finally:
            stop_all(primary, r1)


class TestFailover:
    def test_promote_bumps_term_and_accepts_writes(self, cluster):
        primary, r1, r2 = cluster
        with connect(primary.port) as db:
            db.set("a", 1)
        wait_until(lambda: converged(primary, r1), message="r1 sync")
        old_term = primary.replication.term
        primary.stop()
        with connect(r1.port) as db:
            promoted = db.promote()
        assert promoted["role"] == "primary"
        assert promoted["term"] > old_term
        # re-point the surviving replica at the new primary
        with connect(r2.port) as db:
            db.follow("127.0.0.1", r1.port)
        with connect(r1.port) as db:
            db.set("b", 2)
        wait_until(lambda: converged(r1, r2), message="r2 follows new primary")
        with connect(r2.port) as db:
            assert db.get("a", "b") == {"a": 1, "b": 2}

    def test_deposed_primary_stream_is_fenced(self, tmp_path):
        """A replica that accepted a higher term refuses the old stream."""
        primary = make_primary(tmp_path)
        r1 = make_replica(tmp_path, primary, "r1")
        try:
            with connect(primary.port) as db:
                db.set("x", 1)
            wait_until(lambda: converged(primary, r1), message="sync")
            with connect(r1.port) as db:
                promoted = db.promote()
            new_term = promoted["term"]
            # old primary keeps committing in its stale term
            with connect(primary.port) as db:
                db.set("stale", 99)
            # point the promoted node back at the deposed primary: fencing
            # must reject the stale-term stream, not regress the state
            with connect(r1.port) as db:
                db.follow("127.0.0.1", primary.port)
            time.sleep(1.0)
            with connect(r1.port) as db:
                status = db.repl_status()
                assert status["term"] >= new_term
                assert "stale" not in db.roots()
        finally:
            for server in (primary, r1):
                try:
                    server.stop()
                except Exception:
                    pass


class TestClusterClient:
    def test_writes_route_to_primary_reads_see_them(self, cluster):
        primary, r1, r2 = cluster
        endpoints = [("127.0.0.1", s.port) for s in (primary, r1, r2)]
        with ClusterClient(endpoints, retry=RetryPolicy(base_delay=0.02)) as db:
            db.set("routed", 5)
            # read-your-writes: the floor is the write's repl_version, so
            # this returns 5 whether a replica or the primary answers
            assert db.get("routed") == {"routed": 5}

    def test_failover_rediscovers_new_primary(self, cluster):
        primary, r1, r2 = cluster
        endpoints = [("127.0.0.1", s.port) for s in (primary, r1, r2)]
        with ClusterClient(
            endpoints, retry=RetryPolicy(base_delay=0.02, max_attempts=8)
        ) as db:
            db.set("pre", 1)
            wait_until(lambda: converged(primary, r1), message="sync")
            primary.stop()
            with connect(r1.port) as admin:
                admin.promote()
            with connect(r2.port) as admin:
                admin.follow("127.0.0.1", r1.port)
            db.set("post", 2)  # must reroute to the promoted node
            assert db.get("pre", "post") == {"pre": 1, "post": 2}
