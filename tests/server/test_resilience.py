"""Daemon graceful shutdown and client self-healing (retry/reconnect).

In-process servers on real loopback sockets, as in test_server.py.  The
headline scenario: a client with a :class:`RetryPolicy` keeps working
across a daemon stop + restart on the same port — idempotent requests
transparently reconnect, mutating requests surface :class:`ConnectionLost`
instead of silently replaying.
"""

import threading
import time

import pytest

from repro.server import ReproServer, ServerConfig, connect
from repro.server.client import (
    BackpressureError,
    BusyError,
    ConnectionLost,
    RetryPolicy,
    ServerError,
    ShuttingDownError,
    connect as connect_client,
)
from repro.server.daemon import _DRAIN_ABORTS


def _config(**overrides):
    defaults = dict(
        workers=2, queue_size=16, lock_timeout=30.0, pgo_interval=None,
        enable_debug_ops=True,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


@pytest.fixture
def server(tmp_path):
    instance = ReproServer(str(tmp_path / "resilience.tyc"), _config())
    instance.start()
    yield instance
    instance.stop()


class TestTypedErrors:
    def test_rejection_errors_are_retryable(self):
        for cls in (BusyError, BackpressureError, ShuttingDownError):
            assert cls.retryable is True
        exc = ShuttingDownError("shutting_down", "draining")
        assert exc.code == "shutting_down"

    def test_retry_policy_delay_is_bounded(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, multiplier=2.0)
        delays = [policy.delay(i) for i in range(1, 10)]
        assert all(0 < d <= 1.0 for d in delays)

    def test_retry_policy_backs_off(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=100.0, jitter=0.0)
        assert policy.delay(3) == pytest.approx(0.4)


class TestPing:
    def test_ping_reports_health_and_image(self, server):
        with connect(server.port) as db:
            result = db.ping()
        assert result["status"] == "ok"
        assert result["uptime_s"] >= 0
        assert result["image"]["format"] == 3
        assert result["image"]["path"].endswith("resilience.tyc")


class TestGracefulShutdown:
    def test_draining_server_refuses_with_typed_error(self, server):
        with connect(server.port) as db:
            assert db.ping()["status"] == "ok"
            server.stopping.set()  # drain begins; socket still open
            with pytest.raises(ShuttingDownError):
                db.ping()

    def test_inflight_request_drains_before_the_socket_dies(self, server):
        """stop() waits (bounded) for admitted requests to answer."""
        with connect(server.port) as db:
            result = {}

            def slow_request():
                result["value"] = db.request("sleep", seconds=0.6)

            worker = threading.Thread(target=slow_request)
            worker.start()
            time.sleep(0.2)  # request is now in flight
            server.stop()
            worker.join(timeout=10)
        assert result["value"] == {"slept": 0.6}

    def test_drain_aborts_open_transactions(self, server):
        before = _DRAIN_ABORTS.value
        db = connect(server.port)
        db.begin()
        db.set("half-done", 1)
        server.stop()
        db.close()
        assert _DRAIN_ABORTS.value == before + 1
        assert server.wait(timeout=5)

    def test_initiate_shutdown_is_nonblocking(self, server):
        started = time.monotonic()
        server.initiate_shutdown()
        assert time.monotonic() - started < 1.0
        assert server.wait(timeout=10)

    def test_stop_is_idempotent(self, server):
        server.stop()
        server.stop()  # second call returns once teardown is done
        assert server.wait(timeout=1)


class TestClientReconnect:
    def test_client_survives_daemon_restart_mid_session(self, tmp_path):
        """The ISSUE's headline: SIGTERM + restart, same port, same client."""
        image = str(tmp_path / "restart.tyc")
        first = ReproServer(image, _config())
        first.start()
        port = first.port
        db = connect_client(port, retry=RetryPolicy(base_delay=0.05))
        try:
            db.set("counter", 41)
            assert db.get("counter") == {"counter": 41}

            first.initiate_shutdown()  # what the SIGTERM handler calls
            assert first.wait(timeout=10)

            second = ReproServer(image, _config(port=port))
            second.start()
            try:
                # idempotent request: reconnects and replays transparently
                assert db.get("counter") == {"counter": 41}
                assert db.ping()["status"] == "ok"
                # the session is fully usable again, writes included
                db.set("counter", 42)
                assert db.get("counter") == {"counter": 42}
            finally:
                second.stop()
        finally:
            db.close()

    def test_mutating_request_is_not_replayed_after_disconnect(self, tmp_path):
        image = str(tmp_path / "no-replay.tyc")
        first = ReproServer(image, _config())
        first.start()
        port = first.port
        db = connect_client(port, retry=RetryPolicy(base_delay=0.05))
        try:
            db.set("x", 1)
            first.stop()
            second = ReproServer(image, _config(port=port))
            second.start()
            try:
                # the stale socket dies mid-request; set() may have executed
                # on the old daemon, so the client must NOT retry it
                with pytest.raises(ConnectionLost):
                    db.set("x", 2)
                # but the session recovers on the next idempotent request
                assert db.get("x") == {"x": 1}
            finally:
                second.stop()
        finally:
            db.close()

    def test_no_retry_without_a_policy(self, tmp_path):
        server = ReproServer(str(tmp_path / "failfast.tyc"), _config())
        server.start()
        port = server.port
        db = connect_client(port)  # retry=None: historical fail-fast
        try:
            db.ping()
            server.stop()
            with pytest.raises(ConnectionLost):
                db.ping()
        finally:
            db.close()

    def test_no_retry_inside_explicit_transaction(self, tmp_path):
        """Replaying mid-transaction would drop earlier effects; never do it."""
        server = ReproServer(str(tmp_path / "txn.tyc"), _config())
        server.start()
        db = connect_client(server.port, retry=RetryPolicy(base_delay=0.05))
        try:
            db.begin()
            db.set("inside", 1)
            server.stop()
            with pytest.raises((ConnectionLost, ShuttingDownError)):
                db.get("inside")  # idempotent, but inside a txn: no retry
        finally:
            db.close()

    def test_connect_retries_until_daemon_is_up(self, tmp_path):
        server = ReproServer(str(tmp_path / "late.tyc"), _config())
        server.start()
        port = server.port
        server.stop()  # port is now free again

        late = ReproServer(str(tmp_path / "late2.tyc"), _config(port=port))

        def start_soon():
            time.sleep(0.3)
            late.start()

        starter = threading.Thread(target=start_soon)
        starter.start()
        try:
            # connects before the daemon listens: retry_connect covers it
            db = connect_client(
                port, retry=RetryPolicy(base_delay=0.2, max_attempts=10)
            )
            try:
                assert db.ping()["pong"] is True
            finally:
                db.close()
        finally:
            starter.join()
            late.stop()


class TestIdleTimeout:
    def test_idle_session_holding_write_lock_is_reaped(self, tmp_path):
        """The fixed daemon bug: accepted connections never got a socket
        timeout, so a silently dead client holding a write transaction
        wedged every writer until lock_timeout.  The reaper frees it."""
        server = ReproServer(
            str(tmp_path / "idle.tyc"),
            _config(idle_timeout=0.4, reaper_interval=0.1, lock_timeout=2.0),
        )
        server.start()
        try:
            zombie = connect(server.port)
            zombie.begin("write")
            zombie.set("stuck", 1)
            # the zombie now goes silent, holding the write lock
            deadline = time.monotonic() + 10
            with connect(server.port) as db:
                while True:
                    try:
                        db.begin("write", timeout=0.3)
                        break
                    except (BusyError, ShuttingDownError):
                        assert time.monotonic() < deadline, "never reaped"
                db.abort()
            zombie.close()
        finally:
            server.stop()

    def test_active_sessions_are_not_reaped(self, tmp_path):
        server = ReproServer(
            str(tmp_path / "active.tyc"),
            _config(idle_timeout=0.4, reaper_interval=0.1),
        )
        server.start()
        try:
            with connect(server.port) as db:
                for _ in range(8):  # keeps traffic well inside the timeout
                    assert db.ping()["pong"] is True
                    time.sleep(0.1)
        finally:
            server.stop()


class TestDeadlines:
    def test_expired_deadline_is_a_structured_error(self, server):
        with connect(server.port) as db:
            with pytest.raises(ServerError) as err:
                db.request("ping", deadline=0.0)
        assert err.value.code == "deadline_exceeded"

    def test_deadline_bounds_the_lock_wait(self, tmp_path):
        """lock_timeout is 30s; a 0.3s deadline must fail in ~0.3s."""
        server = ReproServer(str(tmp_path / "dl.tyc"), _config(lock_timeout=30.0))
        server.start()
        try:
            with connect(server.port) as holder, connect(server.port) as waiter:
                holder.begin("write")
                holder.set("held", 1)
                started = time.monotonic()
                with pytest.raises(ServerError) as err:
                    waiter.set("blocked", 2, deadline=0.3)
                elapsed = time.monotonic() - started
                holder.abort()
            assert err.value.code == "deadline_exceeded"
            assert elapsed < 5.0
        finally:
            server.stop()
