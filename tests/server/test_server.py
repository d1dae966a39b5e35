"""End-to-end tests for the multi-session daemon (repro.server.daemon).

Everything runs the server in-process (real TCP sockets on an ephemeral
loopback port, real worker threads) so the tests exercise exactly the wire
path clients use, without subprocess flakiness.
"""

import threading
import time

import pytest

from repro.lang import TycoonSystem
from repro.machine.vm import StepLimitExceeded
from repro.obs.profile import VMProfiler, profile_call
from repro.server import ReproServer, ServerConfig, connect
from repro.server.client import ServerError
from repro.server.protocol import (
    E_BACKPRESSURE,
    E_BAD_REQUEST,
    E_BUSY,
    E_EXEC,
    E_NOT_FOUND,
    E_STEP_LIMIT,
    E_TXN_STATE,
    PROTOCOL_VERSION,
)

BENCH = """
module bench export work idle
let idle(x: Int): Int = x
let work(n: Int): Int =
  var s := 0 in var i := 0 in
  begin while i < n do begin s := s + i; i := i + 1 end end; s end
end"""


@pytest.fixture
def server(tmp_path):
    instance = ReproServer(
        str(tmp_path / "server.tyc"),
        ServerConfig(workers=4, queue_size=64, lock_timeout=30.0, pgo_interval=None),
    )
    instance.start()
    yield instance
    instance.stop()


@pytest.fixture
def client(server):
    with connect(server.port) as db:
        yield db


class TestBasics:
    def test_ping(self, client):
        result = client.ping()
        assert result["pong"] is True
        assert result["protocol"] == PROTOCOL_VERSION

    def test_run_and_call(self, client):
        assert client.run(BENCH) == ["bench"]
        assert client.call("bench", "work", [10]) == 45

    def test_call_unknown_function(self, client):
        with pytest.raises(ServerError) as err:
            client.call("nowhere", "nothing")
        assert err.value.code == E_NOT_FOUND

    def test_step_limit_is_structured(self, client):
        client.run(BENCH)
        with pytest.raises(ServerError) as err:
            client.call("bench", "work", [100_000], step_limit=50)
        assert err.value.code == E_STEP_LIMIT
        assert err.value.details["limit"] == 50

    def test_set_get_roots(self, client):
        client.set("answer", 42)
        assert client.get("answer") == {"answer": 42}
        assert "answer" in client.roots()

    def test_txn_state_errors(self, client):
        with pytest.raises(ServerError) as err:
            client.commit()
        assert err.value.code == E_TXN_STATE
        client.begin()
        with pytest.raises(ServerError) as err:
            client.begin()
        assert err.value.code == E_TXN_STATE
        client.abort()

    def test_stats_shape(self, client):
        stats = client.stats(metrics=True)
        assert "codecache" in stats and "metrics" in stats
        assert stats["sessions"] >= 1


class TestMalformedOperands:
    """A numeric operand that is not a number is the client's mistake:
    ``bad_request`` naming the operand, never ``internal`` + a traceback."""

    @pytest.mark.parametrize(
        "op, operands, operand",
        [
            ("ping", {"deadline": "abc"}, "deadline"),
            ("get", {"roots": ["k"], "min_version": "x"}, "min_version"),
            ("slowlog", {"n": "q"}, "n"),
            ("sleep", {"seconds": "soon"}, "seconds"),
            ("stats", {"history": "all"}, "history"),
            ("shard.prepare", {"txn": "t1", "writes": {"k": 1}, "term": "x"}, "term"),
            ("promote", {"term": "next"}, "term"),
        ],
    )
    def test_non_numeric_operand_is_bad_request(self, tmp_path, op, operands, operand):
        instance = ReproServer(
            str(tmp_path / "operands.tyc"),
            ServerConfig(pgo_interval=None, enable_debug_ops=True),
        )
        instance.start()
        try:
            with connect(instance.port) as db:
                db.set("k", 1)
                with pytest.raises(ServerError) as err:
                    db.request(op, **operands)
                assert err.value.code == E_BAD_REQUEST
                assert repr(operand) in err.value.message
                assert db.ping()["role"] == "standalone"  # nothing happened
        finally:
            instance.stop()


class TestConcurrentSessions:
    SESSIONS = 8
    INCREMENTS = 5

    def test_no_lost_updates_across_8_sessions(self, server):
        """8 sessions increment one counter transactionally; none is lost."""
        with connect(server.port) as db:
            db.set("counter", 0)
        errors = []

        def worker():
            try:
                with connect(server.port) as db:
                    for _ in range(self.INCREMENTS):
                        with db.transaction():
                            value = db.get("counter")["counter"]
                            db.set("counter", value + 1)
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(self.SESSIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert errors == []
        with connect(server.port) as db:
            assert db.get("counter")["counter"] == self.SESSIONS * self.INCREMENTS

    def test_snapshot_readers_never_see_partial_commits(self, server):
        """Writers keep a=b invariant per commit; readers must never see a!=b."""
        with connect(server.port) as db:
            db.begin()
            db.set("a", 0)
            db.set("b", 0)
            db.commit()
        stop = threading.Event()
        violations = []
        errors = []

        def writer(base):
            try:
                with connect(server.port) as db:
                    for i in range(10):
                        with db.transaction():
                            value = base * 1000 + i
                            db.set("a", value)
                            db.set("b", value)
            except Exception as exc:
                errors.append(exc)

        def reader():
            try:
                with connect(server.port) as db:
                    while not stop.is_set():
                        snap = db.get("a", "b")
                        if snap["a"] != snap["b"]:
                            violations.append(snap)
                            return
            except Exception as exc:
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        writers = [threading.Thread(target=writer, args=(n,)) for n in range(4)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join(timeout=120)
        stop.set()
        for t in readers:
            t.join(timeout=30)
        assert errors == []
        assert violations == []

    def test_explicit_write_txn_blocks_other_writer(self, server):
        with connect(server.port) as holder, connect(server.port) as waiter:
            holder.begin("write")
            holder.set("locked", 1)
            with pytest.raises(ServerError) as err:
                waiter.begin("write", timeout=0.1)
            assert err.value.code == E_BUSY
            holder.commit()
            waiter.begin("write", timeout=5)
            waiter.abort()
            assert waiter.get("locked") == {"locked": 1}

    def test_disconnect_aborts_open_transaction(self, server):
        db = connect(server.port)
        db.begin("write")
        db.set("orphan", 99)
        db.close()  # dies without commit
        deadline = time.monotonic() + 10
        with connect(server.port) as other:
            while time.monotonic() < deadline:
                try:
                    other.begin("write", timeout=1)
                    break
                except ServerError:
                    continue
            other.abort()
            with pytest.raises(ServerError) as err:
                other.get("orphan")
            assert err.value.code == E_NOT_FOUND


class TestBackpressure:
    def test_over_capacity_request_gets_structured_error(self, tmp_path):
        server = ReproServer(
            str(tmp_path / "bp.tyc"),
            ServerConfig(
                workers=1, queue_size=1, pgo_interval=None, enable_debug_ops=True
            ),
        )
        server.start()
        try:
            clients = [connect(server.port) for _ in range(6)]
            try:
                outcomes = []
                lock = threading.Lock()

                def one(db):
                    try:
                        db.request("sleep", seconds=0.5)
                        with lock:
                            outcomes.append("ok")
                    except ServerError as exc:
                        with lock:
                            outcomes.append(exc.code)

                threads = [
                    threading.Thread(target=one, args=(db,)) for db in clients
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert len(outcomes) == 6
                # worker + queue hold 2; with 6 near-simultaneous requests at
                # least one must be rejected at the door, and the rejection
                # is the structured protocol error, not a hang or a close
                assert outcomes.count(E_BACKPRESSURE) >= 1
                assert outcomes.count("ok") >= 2
                assert set(outcomes) <= {"ok", E_BACKPRESSURE}
                # the server stays healthy after shedding load
                assert clients[0].ping()["pong"] is True
            finally:
                for db in clients:
                    db.close()
        finally:
            server.stop()


class TestCodeCacheAndPgo:
    def test_cache_hits_rise_across_sessions(self, server):
        with connect(server.port) as first:
            first.run(BENCH)
            before = first.stats()["codecache"]
            miss = first.call("bench", "work", [50], full=True)
            assert miss["cache"] == "miss"
        with connect(server.port) as second:
            hit = second.call("bench", "work", [50], full=True)
            assert hit["cache"] == "hit"
            with connect(server.port) as third:
                assert third.call("bench", "work", [50], full=True)["cache"] == "hit"
                after = third.stats()["codecache"]
        assert after["hits"] >= before["hits"] + 2

    def test_pgo_replaces_hot_function_while_serving(self, server):
        with connect(server.port) as db:
            db.run(BENCH)
            baseline = db.call("bench", "work", [300], full=True)
            # build profile evidence from several sessions
            for _ in range(3):
                with connect(server.port) as other:
                    other.call("bench", "work", [300])

            invalidations_before = db.stats()["codecache"]["invalidations"]
            report = db.pgo(top=1)
            optimized = {entry["function"] for entry in report["optimized"]}
            assert "bench.work" in optimized
            entry = next(
                e for e in report["optimized"] if e["function"] == "bench.work"
            )
            # measurably smaller TAM cost after reflective reoptimization
            assert entry["cost_after"] < entry["cost_before"]

            # selected by the evidence the interpreter would have collected
            # from the same four calls
            expected = VMProfiler()
            system = TycoonSystem()
            system.compile(BENCH)
            for _ in range(4):
                profile_call(system, "bench", "work", [300], profiler=expected)
            work = expected.closures["bench.work"]
            assert (entry["invocations"], entry["instructions"]) == (
                work.invocations, work.instructions,
            )

            # the server never stopped: same session keeps working and the
            # replacement is live — fewer instructions, same result
            after = db.call("bench", "work", [300], full=True)
            assert after["value"] == baseline["value"]
            assert after["instructions"] < baseline["instructions"]
            assert (
                db.stats()["codecache"]["invalidations"] > invalidations_before
            )
            # other sessions observe the optimized code too
            with connect(server.port) as other:
                again = other.call("bench", "work", [300], full=True)
                assert again["instructions"] == after["instructions"]

    def test_pgo_with_no_evidence_is_empty(self, server):
        with connect(server.port) as db:
            db.pgo()  # drain whatever other tests left
            assert db.pgo() == {"optimized": []}

    def test_a_call_that_raises_is_evidence(self, server):
        with connect(server.port) as db:
            db.run(RAISES)
            with pytest.raises(ServerError) as err:
                db.call("boom", "f", [5])
            assert err.value.code == E_EXEC
            report = db.pgo(top=1)
        assert [e["function"] for e in report["optimized"]] == ["boom.f"]
        assert report["optimized"][0]["invocations"] == 1


RAISES = """
module boom export f
let f(n: Int): Int =
  let a = array(3, 7) in
  var s := 0 in
  begin for i = 0 upto n do begin print(i); s := s + a[i] end end; s end
end"""


class TestServedCallsRunCompiled:
    """The daemon collects PGO evidence without leaving the compiled tier."""

    @pytest.fixture
    def default_server(self, tmp_path):
        instance = ReproServer(str(tmp_path / "tier.tyc"))
        instance.start()
        yield instance
        instance.stop()

    def test_a_call_runs_compiled(self, default_server):
        with connect(default_server.port) as db:
            db.run(BENCH)
            before = db.stats(metrics=True)["metrics"]["vm.tier.compiled"]["value"]
            assert db.call("bench", "work", [10]) == 45
            after = db.stats(metrics=True)["metrics"]["vm.tier.compiled"]["value"]
        assert after > before

    def test_a_step_limit_stops_where_the_interpreter_stops(self, default_server):
        system = TycoonSystem()
        system.compile(RAISES)
        vm = system.vm(step_limit=60)
        vm.profiler = VMProfiler()
        with pytest.raises(StepLimitExceeded) as stopped:
            vm.call(system.closure("boom", "f"), [2])
        with connect(default_server.port) as db:
            db.run(RAISES)
            with pytest.raises(ServerError) as err:
                db.call("boom", "f", [2], step_limit=60)
        assert err.value.code == E_STEP_LIMIT
        details = err.value.details
        assert (details["limit"], details["instructions"], details["output"]) == (
            60, stopped.value.instructions, stopped.value.partial.output,
        )
        assert stopped.value.partial.output  # the limit falls after a print


class TestPersistence:
    def test_image_survives_restart(self, tmp_path):
        path = str(tmp_path / "persist.tyc")
        config = ServerConfig(workers=2, pgo_interval=None)
        server = ReproServer(path, config)
        server.start()
        with connect(server.port) as db:
            db.run(BENCH)
            db.set("mark", 7)
        server.stop()

        reborn = ReproServer(path, config)
        reborn.start()
        try:
            with connect(reborn.port) as db:
                assert db.get("mark") == {"mark": 7}
                assert db.call("bench", "work", [10]) == 45
                # the image-resident code table warmed up from the image
                assert db.stats()["codecache"]["persisted_codes"] >= 1
        finally:
            reborn.stop()

    def test_shutdown_op_stops_server(self, tmp_path):
        server = ReproServer(
            str(tmp_path / "down.tyc"), ServerConfig(pgo_interval=None)
        )
        server.start()
        with connect(server.port) as db:
            assert db.shutdown() == {"stopping": True}
        assert server.wait(timeout=30)
