"""End-to-end observability: trace propagation, introspection ops,
slowlog, runtime trace control and the in-image metrics history.

Most tests run the daemon in-process (like test_server.py); the final
class launches real ``python -m repro serve`` subprocesses to assert that
one client write produces NDJSON events sharing a single trace id in
*both* the primary's and the replica's export files.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.obs.exporters import ListRecorder, read_ndjson
from repro.obs.history import read_history
from repro.obs.trace import TRACER, new_span_id, new_trace_id
from repro.server import ReproServer, ServerConfig, connect
from repro.server.client import ClusterClient, RetryPolicy, ServerError
from repro.server.protocol import E_BAD_REQUEST, E_STEP_LIMIT
from repro.store.heap import ObjectHeap

BENCH = """
module bench export work
let work(n: Int): Int =
  var s := 0 in var i := 0 in
  begin while i < n do begin s := s + i; i := i + 1 end end; s end
end"""


def wait_until(predicate, timeout=20.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture
def server(tmp_path):
    instance = ReproServer(
        str(tmp_path / "obs.tyc"),
        ServerConfig(
            workers=2, queue_size=32, lock_timeout=30.0, pgo_interval=None,
            history_interval=None,  # snapshots driven explicitly by tests
        ),
    )
    instance.start()
    yield instance
    instance.stop()


@pytest.fixture
def client(server):
    with connect(server.port) as db:
        yield db


class TestStatsOp:
    def test_stats_reports_latency_percentiles_and_sections(self, client):
        for i in range(10):
            client.set("k", i)
            client.get("k")
        stats = client.stats()
        assert stats["role"] == "standalone"
        assert stats["uptime_s"] > 0
        assert stats["requests"]["total"] >= 20
        latency = stats["latency_us"]
        assert latency["count"] >= 20
        for key in ("p50", "p99", "p999", "max", "mean"):
            assert latency[key] is not None
        assert latency["p50"] <= latency["p99"] <= latency["p999"]
        # per-op histograms appear for every op that ran
        assert "set" in stats["ops"] and "get" in stats["ops"]
        assert stats["ops"]["set"]["count"] >= 10
        # the new introspection sections ride along
        assert stats["slowlog"]["capacity"] > 0
        assert stats["trace"]["recording"] is False
        assert stats["history"]["capacity"] > 0

    def test_boot_phases_in_stats_and_the_boot_event(self, tmp_path):
        config = ServerConfig(pgo_interval=None, history_interval=None)
        image = str(tmp_path / "boot.tyc")
        ReproServer(image, config).stop()  # the second boot reattaches to an image
        with TRACER.recording(recorder := ListRecorder()):
            instance = ReproServer(image, config)
        instance.start()
        try:
            with connect(instance.port) as db:
                boot = db.stats()["boot"]
        finally:
            instance.stop()
        phases = {"open_s", "stdlib_s", "modules_s", "commit_s"}
        assert set(boot) == phases
        assert all(seconds >= 0 for seconds in boot.values())
        (event,) = recorder.named("server.boot")
        assert all(event.attrs[phase] >= 0 for phase in phases)

    def test_ping_reports_cache_hit_rates(self, client):
        client.run(BENCH)
        for _ in range(3):
            client.call("bench", "work", [50])
        info = client.ping()
        caches = info["caches"]
        assert set(caches) == {"code"}
        for cache in caches.values():
            assert set(cache) == {"hits", "misses", "hit_rate"}
        assert caches["code"]["hits"] >= 2  # repeat calls hit the code cache
        assert caches["code"]["hit_rate"] > 0


class TestSlowlogOp:
    def test_slowlog_captures_requests_with_trace_ids(self, client):
        client.run(BENCH)
        client.call("bench", "work", [5000])
        result = client.slowlog()
        assert result["kept"] >= 1
        assert result["entries"][0]["latency_us"] >= result["entries"][-1]["latency_us"]
        calls = [e for e in result["entries"] if e["op"] == "call"]
        assert calls, "the call must be slow enough to enter the ring"
        entry = calls[0]
        assert entry["latency_us"] > 0
        assert entry["outcome"] == "ok"
        # the default client stamps every request: the trace id is the
        # join key into any NDJSON export
        assert isinstance(entry["trace_id"], str) and len(entry["trace_id"]) == 16
        assert entry["steps"] is not None  # call carried its VM step count

    def test_slowlog_clear(self, client):
        client.set("x", 1)
        assert client.slowlog()["kept"] >= 1
        cleared = client.slowlog(clear=True)
        assert cleared["entries"] == []
        # the clear request itself may repopulate the ring afterwards

    def test_slowlog_n_bounds_entries(self, client):
        for i in range(5):
            client.set("x", i)
        result = client.slowlog(n=2)
        assert len(result["entries"]) <= 2


class TestErrorTraceTagging:
    def test_error_payload_carries_trace_id(self, client):
        with pytest.raises(ServerError) as err:
            client.request("get", trace={"trace_id": "a" * 16, "span_id": "b" * 16})
        assert err.value.code == E_BAD_REQUEST
        assert err.value.details["trace_id"] == "a" * 16

    def test_step_limit_abort_lands_in_slowlog_with_trace(self, client):
        client.run(BENCH)
        client.slowlog(clear=True)
        with pytest.raises(ServerError) as err:
            client.call("bench", "work", [1_000_000], step_limit=500)
        assert err.value.code == E_STEP_LIMIT
        trace_id = err.value.details["trace_id"]
        assert isinstance(trace_id, str) and len(trace_id) == 16
        entries = client.slowlog()["entries"]
        aborted = [e for e in entries if e["outcome"] == E_STEP_LIMIT]
        assert aborted and aborted[0]["trace_id"] == trace_id
        assert aborted[0]["steps"] is not None


class TestTraceOp:
    def test_runtime_trace_export_round_trip(self, server, client, tmp_path):
        path = str(tmp_path / "live.ndjson")
        status = client.trace_ctl("start", path=path)
        assert status["recording"] is True
        assert status["managed"] is True
        assert status["path"] == path
        client.set("traced", 42)
        client.get("traced")
        status = client.trace_ctl("stop")
        assert status["recording"] is False
        events = read_ndjson(path)  # validates every line as schema v2
        spans = [e for e in events if e["name"] == "server.request"]
        assert spans, "server spans must be exported"
        for event in spans:
            assert event["v"] == 2
            assert event["trace_id"] and event["span_id"]
        # the client stamped the requests, so the server spans adopted the
        # client's trace ids rather than rooting their own
        ops = {e["attrs"]["op"] for e in spans}
        assert {"set", "get"} <= ops

    def test_trace_sample_action_clamps_rate(self, client):
        status = client.trace_ctl("sample", rate=0.25)
        assert status["sample_rate"] == 0.25
        status = client.trace_ctl("sample", rate=7.0)
        assert status["sample_rate"] == 1.0
        client.trace_ctl("sample", rate=1.0)  # restore for other tests

    def test_trace_start_refuses_double_attach(self, client, tmp_path):
        client.trace_ctl("start", path=str(tmp_path / "a.ndjson"))
        try:
            with pytest.raises(ServerError) as err:
                client.trace_ctl("start", path=str(tmp_path / "b.ndjson"))
            assert err.value.code == E_BAD_REQUEST
        finally:
            client.trace_ctl("stop")

    def test_trace_unknown_action_rejected(self, client):
        with pytest.raises(ServerError) as err:
            client.trace_ctl("explode")
        assert err.value.code == E_BAD_REQUEST


class TestDistributedTrace:
    def test_one_trace_spans_client_primary_and_replica(self, tmp_path):
        primary = ReproServer(
            str(tmp_path / "p.tyc"),
            ServerConfig(
                workers=2, queue_size=32, pgo_interval=None, replicate=True,
                node_id="p", history_interval=None,
            ),
        )
        primary.start()
        replica = ReproServer(
            str(tmp_path / "r.tyc"),
            ServerConfig(
                workers=2, queue_size=32, pgo_interval=None,
                replica_of=("127.0.0.1", primary.port), node_id="r",
                history_interval=None,
            ),
        )
        replica.start()
        recorder = ListRecorder()
        try:
            wait_until(
                lambda: replica.repl_version() == primary.repl_version(),
                message="replica catch-up",
            )
            with TRACER.recording(recorder):
                cluster = ClusterClient(
                    [("127.0.0.1", primary.port), ("127.0.0.1", replica.port)],
                    retry=RetryPolicy(max_attempts=4),
                )
                with cluster:
                    cluster.set("traced-root", 7)
                    wait_until(
                        lambda: any(
                            e.name == "server.repl.apply" for e in recorder.events
                        ),
                        message="replica apply span",
                    )
        finally:
            replica.stop()
            primary.stop()
        client_spans = recorder.named("client.request")
        assert client_spans, "the cluster client must span its requests"
        set_spans = [e for e in client_spans if e.attrs.get("op") == "set"]
        trace_id = set_spans[0].trace_id
        names = {e.name for e in recorder.traced(trace_id)}
        # one trace id joins all three hops of the write
        assert "client.request" in names
        assert "server.request" in names
        assert "server.repl.apply" in names

    def test_replication_lag_gauges_in_stats(self, tmp_path):
        primary = ReproServer(
            str(tmp_path / "lp.tyc"),
            ServerConfig(
                workers=2, queue_size=32, pgo_interval=None, replicate=True,
                node_id="lp", history_interval=None,
            ),
        )
        primary.start()
        replica = ReproServer(
            str(tmp_path / "lr.tyc"),
            ServerConfig(
                workers=2, queue_size=32, pgo_interval=None,
                replica_of=("127.0.0.1", primary.port), node_id="lr",
                history_interval=None,
            ),
        )
        replica.start()
        try:
            with connect(primary.port) as db:
                for i in range(3):
                    db.set("lag-key", i)
            wait_until(
                lambda: replica.repl_version() == primary.repl_version(),
                message="replica catch-up",
            )
            with connect(primary.port) as db:
                stats = db.stats()
            subscribers = stats["replication"]["subscribers"]
            assert subscribers
            assert subscribers[0]["bytes_behind"] == 0  # caught up
            with connect(replica.port) as db:
                rstats = db.stats()
            assert rstats["role"] == "replica"
            assert rstats["replication"]["lag"] == 0
            apply_lat = rstats["replication"].get("apply_latency_us")
            assert apply_lat and apply_lat["count"] >= 3
            assert apply_lat["p50"] is not None
        finally:
            replica.stop()
            primary.stop()


class TestMetricsHistory:
    def test_history_survives_restart_and_reads_offline(self, tmp_path):
        image = str(tmp_path / "hist.tyc")
        config = ServerConfig(
            workers=2, queue_size=32, pgo_interval=None, history_interval=None,
        )
        first = ReproServer(image, config)
        first.start()
        with connect(first.port) as db:
            db.set("h", 1)
        first.record_history_snapshot(reason="test")
        first.stop()  # flushes the ring into the image

        # offline: no server needed to read the persisted snapshots
        with ObjectHeap(image) as heap:
            stored = read_history(heap)
        assert len(stored) == 1
        assert stored[0]["meta"]["reason"] == "test"
        assert stored[0]["metrics"]["server.requests"]["value"] >= 1

        # restart: the ring attaches and seq continues monotonically
        second = ReproServer(image, config)
        second.start()
        try:
            second.record_history_snapshot(reason="after-restart")
            with connect(second.port) as db:
                stats = db.stats(history=True)
            entries = stats["history_entries"]
            assert [e["seq"] for e in entries] == [0, 1]
            assert entries[1]["meta"]["reason"] == "after-restart"
        finally:
            second.stop()
        with ObjectHeap(image) as heap:
            assert [e["seq"] for e in read_history(heap)] == [0, 1]

    def test_history_cli_reads_image(self, tmp_path, capsys):
        from repro.cli import main

        image = str(tmp_path / "cli-hist.tyc")
        server = ReproServer(
            image,
            ServerConfig(
                workers=2, queue_size=32, pgo_interval=None, history_interval=None,
            ),
        )
        server.start()
        with connect(server.port) as db:
            db.set("k", 1)
        server.record_history_snapshot()
        server.stop()
        assert main(["stats", image, "--history"]) == 0
        out = capsys.readouterr().out
        assert "seq" in out and "standalone" in out

    def test_replica_never_flushes_history_locally(self, tmp_path):
        primary = ReproServer(
            str(tmp_path / "hp.tyc"),
            ServerConfig(
                workers=2, queue_size=32, pgo_interval=None, replicate=True,
                node_id="hp", history_interval=None,
            ),
        )
        primary.start()
        replica_image = str(tmp_path / "hr.tyc")
        replica = ReproServer(
            replica_image,
            ServerConfig(
                workers=2, queue_size=32, pgo_interval=None,
                replica_of=("127.0.0.1", primary.port), node_id="hr",
                history_interval=None,
            ),
        )
        replica.start()
        try:
            with connect(primary.port) as db:
                db.set("k", 1)
            wait_until(
                lambda: replica.repl_version() == primary.repl_version(),
                message="replica catch-up",
            )
            replica.record_history_snapshot()  # in-memory only on a replica
        finally:
            replica.stop()
            primary.stop()
        with ObjectHeap(replica_image) as heap:
            assert read_history(heap) == []  # never flushed: image = primary's


class TestSubprocessExports:
    def test_one_trace_id_in_both_processes_ndjson(self, tmp_path):
        """A ClusterClient write is followable across two real processes."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        p_trace = str(tmp_path / "primary.ndjson")
        r_trace = str(tmp_path / "replica.ndjson")

        def launch(image, trace, *extra):
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", str(tmp_path / image),
                    "--port", "0", "--no-pgo", "--trace", trace,
                    "--history-interval", "0", *extra,
                ],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, env=env,
            )
            line = proc.stdout.readline()
            assert "listening on" in line, line
            port = int(line.rsplit(":", 1)[1])
            return proc, port

        p_proc, p_port = launch("p.tyc", p_trace, "--replicate")
        r_proc = r_port = None
        try:
            r_proc, r_port = launch(
                "r.tyc", r_trace, "--replica-of", f"127.0.0.1:{p_port}"
            )
            trace_id = new_trace_id()
            with TRACER.activate(trace_id, new_span_id()):
                cluster = ClusterClient(
                    [("127.0.0.1", p_port), ("127.0.0.1", r_port)],
                    retry=RetryPolicy(max_attempts=4),
                )
                with cluster:
                    result = cluster.set("shared", 99)
            version = result["repl_version"]

            def replica_caught_up():
                with connect(r_port) as db:
                    return db.repl_status()["version"] >= version

            wait_until(replica_caught_up, message="replica apply")
            # graceful shutdown closes (and flushes) each --trace recorder
            for port in (r_port, p_port):
                with connect(port) as db:
                    db.shutdown()
            p_proc.wait(timeout=30)
            r_proc.wait(timeout=30)
        finally:
            for proc in (p_proc, r_proc):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)

        primary_events = read_ndjson(p_trace)
        replica_events = read_ndjson(r_trace)
        p_mine = [e for e in primary_events if e["trace_id"] == trace_id]
        r_mine = [e for e in replica_events if e["trace_id"] == trace_id]
        assert any(
            e["name"] == "server.request" and e["attrs"].get("op") == "set"
            for e in p_mine
        ), "the primary must span the traced write"
        assert any(
            e["name"] == "server.repl.apply" for e in r_mine
        ), "the replica must span the traced apply"
