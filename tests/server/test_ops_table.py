"""The op table, checked without a socket.

``repro.server.ops.OPS`` is the one declaration of what the daemon serves:
handler, implicit transaction, admission lane.  These tests read the
table directly and drive ``_admit``/``_handle`` with a stub session, so a
wrong column shows up here rather than as a deadlock or a replica
accepting a write in some end-to-end test.
"""

import re
import threading
from pathlib import Path

import pytest

from repro.server import ReproServer, ServerConfig, connect
from repro.server.daemon import Session
from repro.server.ops import OPS, Op
from repro.server.protocol import E_NOT_PRIMARY, E_READ_ONLY
from repro.server.sharding.coordinator import OPS as COORDINATOR_OPS

INLINE = {"begin", "repl.subscribe", "ping", "stats", "slowlog"}
ROUTED = {"get", "set", "mset", "run", "scatter", "topology", "stats"}


class StubSession(Session):
    """A session with no socket: replies are recorded, not sent."""

    def __init__(self):
        super().__init__(1, None, None)
        self.replies = []

    def send(self, message):
        self.replies.append(message)


def _quiet(**overrides):
    return ServerConfig(pgo_interval=None, history_interval=None, **overrides)


@pytest.fixture
def server():
    instance = ReproServer(None, _quiet())  # in-memory image, never started
    yield instance
    instance.heap.close()


def _error_code(server, op):
    session = StubSession()
    server._handle(session, {"id": 1, "op": op})
    (reply,) = session.replies
    return None if reply["ok"] else reply["error"]["code"]


class TestTable:
    def test_every_entry_is_well_formed(self):
        for name, op in {**OPS, **COORDINATOR_OPS}.items():
            assert isinstance(op, Op), name
            assert callable(op.handler), name
            assert op.txn in ("read", "write", None), name
            assert op.lane in ("pool", "inline"), name

    def test_inline_lane_is_exactly_the_blocking_and_introspection_ops(self):
        assert {name for name, op in OPS.items() if op.lane == "inline"} == INLINE

    def test_coordinator_overrides_exactly_the_data_plane(self):
        assert set(COORDINATOR_OPS) == ROUTED
        coordinator = ReproServer(
            None, _quiet(coordinator=True, shards=[[("127.0.0.1", 1)]])
        )
        try:
            assert set(coordinator.ops) == set(OPS) | ROUTED
            for name, op in coordinator.ops.items():
                expected = COORDINATOR_OPS[name] if name in ROUTED else OPS[name]
                assert op is expected, name
            # the override keeps the introspection fast lane
            assert coordinator.ops["stats"].lane == OPS["stats"].lane
        finally:
            coordinator.heap.close()

    def test_plain_daemon_serves_the_base_table(self, server):
        assert server.ops is OPS


class TestAdmissionReadsTheLane:
    @pytest.fixture
    def lanes(self, server, monkeypatch):
        """Route ``_admit`` decisions into two lists instead of running them."""
        taken = {"inline": [], "pool": []}
        monkeypatch.setattr(
            server, "_handle", lambda session, request: taken["inline"].append(request["op"])
        )
        monkeypatch.setattr(
            server.pool, "submit", lambda job: taken["pool"].append(job)
        )
        return taken

    def test_lane_follows_the_table(self, server, lanes):
        for name in OPS:
            server._admit(StubSession(), {"id": 1, "op": name})
        assert set(lanes["inline"]) == INLINE
        assert len(lanes["pool"]) == len(OPS) - len(INLINE)

    def test_a_session_holding_a_transaction_never_takes_a_pool_worker(
        self, server, lanes
    ):
        session = StubSession()
        session.txn = server.txns.begin("read")
        try:
            for name in OPS:
                server._admit(session, {"id": 1, "op": name})
        finally:
            session.take_txn().close()
        assert lanes["pool"] == []
        assert lanes["inline"] == list(OPS)


class TestHandleReadsTheTxn:
    def test_degraded_daemon_refuses_write_ops_and_serves_read_ops(self, server):
        server.health.enter_degraded("test: disk trouble")
        for name, op in OPS.items():
            if op.txn == "write":
                assert _error_code(server, name) == E_READ_ONLY, name
            elif op.txn == "read":
                assert _error_code(server, name) != E_READ_ONLY, name

    def test_replica_refuses_write_ops_and_serves_read_ops(self, tmp_path):
        # never started: the follower exists but has not dialled its upstream
        replica = ReproServer(
            str(tmp_path / "replica.tyc"), _quiet(replica_of=("127.0.0.1", 1))
        )
        try:
            for name, op in OPS.items():
                if op.txn == "write":
                    assert _error_code(replica, name) == E_NOT_PRIMARY, name
                elif op.txn == "read":
                    assert _error_code(replica, name) != E_NOT_PRIMARY, name
        finally:
            replica.heap.close()

    def test_unknown_and_unhashable_ops_are_bad_requests(self, server):
        assert _error_code(server, "no.such.op") == "bad_request"
        assert _error_code(server, ["get"]) == "bad_request"


class TestTeardown:
    def test_stop_joins_every_thread_it_started(self, tmp_path):
        before = set(threading.enumerate())
        instance = ReproServer(
            str(tmp_path / "threads.tyc"),
            ServerConfig(
                pgo_interval=0.05, history_interval=0.05, reaper_interval=0.05,
                degraded_probe_interval=0.05, scrub_interval=0.05,
                mem_budget_bytes=1 << 30, mem_watchdog_interval=0.05,
            ),
        )
        instance.start()
        with connect(instance.port) as db:
            db.set("k", 1)
            running = {t.name for t in threading.enumerate() if t not in before}
            for task in ("reaper", "history", "probe", "scrub", "memwatch"):
                assert f"repro-server-{task}" in running
            assert "repro-pgo" in running
            instance.stop()  # with the client's session still open
        left = [
            t.name for t in threading.enumerate()
            if t not in before and t.name.startswith("repro-")
        ]
        assert left == []


class TestDocs:
    def test_operations_table_lists_exactly_the_served_ops(self):
        text = (Path(__file__).parents[2] / "docs" / "server.md").read_text()
        section = text.split("### Operations", 1)[1].split("\n#", 1)[0]
        documented = set()
        for line in section.splitlines():
            if line.startswith("| `"):
                documented.update(re.findall(r"`([a-z.]+)`", line.split("|")[1]))
        assert documented == set(OPS) | set(COORDINATOR_OPS)
