"""Resource-exhaustion robustness: degraded read-only mode, memory
governance, admission shedding, and the client/cluster failover story.

In-process daemons on loopback sockets (as in test_resilience.py).  Disk
faults are injected by sliding a :class:`~repro.store.faults.FaultPlan`
under the pager via ``ServerConfig.io_factory`` — the same machinery the
exhaustion chaos sweep (``make sim-exhaustion``) uses at scale; these
tests pin the individual mechanisms deterministically.
"""

import threading
import time

import pytest

from repro.obs import TRACER, ListRecorder
from repro.server import ReproServer, ServerConfig, connect
from repro.server import protocol
from repro.server.client import (
    BusyError,
    ClusterClient,
    OverloadedError,
    ReadOnlyError,
    RetryPolicy,
    TwopcAbortedError,
    _ERROR_TYPES,
)
from repro.server.health import _IO_ERRORS
from repro.store.faults import FaultPlan


def _config(**overrides):
    defaults = dict(
        workers=2, queue_size=16, lock_timeout=10.0, pgo_interval=None,
        history_interval=None, profile=False, enable_debug_ops=True,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def wait_until(predicate, timeout=10.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture
def server(tmp_path):
    instance = ReproServer(str(tmp_path / "exhaust.tyc"), _config())
    instance.start()
    yield instance
    instance.stop()


def _faulty_server(tmp_path, **overrides):
    """A daemon whose pager I/O flows through a FaultPlan."""
    plan = FaultPlan()
    config = _config(
        io_factory=plan.file_factory,
        degraded_probe_interval=0.05,
        **overrides,
    )
    instance = ReproServer(str(tmp_path / "faulty.tyc"), config)
    instance.start()
    return instance, plan


class TestErrorTaxonomy:
    def test_read_only_is_not_retryable(self):
        assert ReadOnlyError.retryable is False
        assert _ERROR_TYPES[protocol.E_READ_ONLY] is ReadOnlyError

    def test_overloaded_is_retryable(self):
        assert OverloadedError.retryable is True
        assert _ERROR_TYPES[protocol.E_OVERLOADED] is OverloadedError


class TestDegradedMode:
    def test_degraded_rejects_writes_but_serves_reads(self, server):
        with connect(server.port) as db:
            db.set("k", 1)
            server.health.enter_degraded("test: simulated disk failure")
            with pytest.raises(ReadOnlyError) as err:
                db.set("k", 2)
            assert err.value.details["reason"] == "test: simulated disk failure"
            assert err.value.details["since"] is not None
            # reads and introspection keep answering while degraded
            assert db.get("k") == {"k": 1}
            info = db.ping()
            assert info["status"] == "ok"
            assert info["degraded"] is True
            assert "disk failure" in info["degraded_reason"]
            report = db.stats()
            assert report["degraded"]["active"] is True
            assert report["degraded"]["reason"] == "test: simulated disk failure"
            server.health.exit_degraded()
            db.set("k", 3)
            assert db.get("k") == {"k": 3}
            assert db.ping()["degraded"] is False

    def test_degraded_entry_is_idempotent(self, server):
        server.health.enter_degraded("first reason")
        server.health.enter_degraded("second reason")  # no-op: keeps the original
        assert server.health.degraded_info()["reason"] == "first reason"
        server.health.exit_degraded()
        server.health.exit_degraded()  # exit is idempotent too
        assert server.health.degraded_info()["active"] is False

    def test_probe_refuses_a_corrupt_image_and_reports_the_error_count(
        self, tmp_path
    ):
        """The probe fscks before it lets writes resume; its trace event
        carries how many errors the fsck found (it used to say None)."""
        instance = ReproServer(
            str(tmp_path / "rot.tyc"), _config(degraded_probe_interval=None)
        )
        instance.start()
        try:
            with connect(instance.port) as db:
                db.set("k", 1)
            # bit rot inside a committed page: fsck fails, the probe must not
            # clear the mode (writes never resume over a corrupt image)
            heap = instance.heap
            head, length = heap._table[sorted(heap.committed_oids())[-1]]
            page = heap._pager.chain_pages(head, length)[0]
            with open(instance.image_path, "r+b") as f:
                f.seek(page * heap._pager.header.page_size + 16)
                byte = f.read(1)
                f.seek(-1, 1)
                f.write(bytes([byte[0] ^ 0xFF]))
            instance.health.enter_degraded("test: disk trouble")
            with TRACER.recording(ListRecorder()) as recorder:
                instance.health.probe_tick()
            info = instance.health.degraded_info()
            assert info["active"] is True
            assert info["probe_failures"] == 1
            (event,) = recorder.named("server.degraded.probe")
            assert event.attrs["ok"] is False
            assert event.attrs["stage"] == "fsck"
            assert isinstance(event.attrs["errors"], int)
            assert event.attrs["errors"] >= 1
        finally:
            instance.stop()

    def test_manual_read_only_never_auto_recovers(self, tmp_path):
        instance = ReproServer(
            str(tmp_path / "manual.tyc"),
            _config(read_only=True, degraded_probe_interval=0.05),
        )
        instance.start()
        try:
            info = instance.health.degraded_info()
            assert info["active"] is True
            assert info["manual"] is True
            # many probe intervals pass; the manual override must hold
            # (nothing is wrong with the disk — the probe would succeed)
            time.sleep(0.4)
            assert instance.health.degraded_info()["active"] is True
            with connect(instance.port) as db:
                with pytest.raises(ReadOnlyError) as err:
                    db.set("nope", 1)
                assert err.value.details["manual"] is True
                assert db.ping()["degraded"] is True
        finally:
            instance.stop()


class TestCommitIoFailure:
    """Satellite: fsync failure driven through a live daemon commit."""

    def test_fsync_failure_degrades_and_auto_recovers(self, tmp_path):
        instance, plan = _faulty_server(tmp_path)
        try:
            with connect(instance.port) as db:
                db.set("k", 1)
                io_errors_before = _IO_ERRORS.value
                plan.arm_fsync_failure(1)
                with pytest.raises(ReadOnlyError) as err:
                    db.set("k", 2)
                assert "fsync" in err.value.details["reason"]
                assert err.value.details["retry_after"] == pytest.approx(0.05)
                assert db.ping()["degraded"] is True
                assert _IO_ERRORS.value > io_errors_before
                assert db.stats()["shed"]["io_errors"] == _IO_ERRORS.value
                # fault cleared: the probe must recover without a restart
                plan.heal()
                wait_until(
                    lambda: db.ping()["degraded"] is False,
                    message="degraded mode never cleared after heal",
                )
                assert db.stats()["degraded"]["recoveries"] >= 1
                db.set("k", 3)
                assert db.get("k") == {"k": 3}
        finally:
            instance.stop()
            plan.close_all()

    def test_write_failure_rolls_back_to_durable_state(self, tmp_path):
        instance, plan = _faulty_server(tmp_path)
        try:
            with connect(instance.port) as db:
                db.set("k", 1)
                plan.arm_write_failure(1)
                with pytest.raises(ReadOnlyError):
                    db.set("k", 2)
                # rolled back: the failed write is gone, the acked one isn't
                assert db.get("k") == {"k": 1}
                plan.heal()
                wait_until(
                    lambda: db.ping()["degraded"] is False,
                    message="degraded mode never cleared",
                )
                # a later commit must not resurrect the rolled-back value
                db.set("other", 5)
                assert db.get("k") == {"k": 1}
        finally:
            instance.stop()
            plan.close_all()

    def test_torn_header_write_is_not_resurrected(self, tmp_path):
        """Positive-path twin of the sweep's negative control: fail the
        commit-point header write specifically (in-memory table already
        mutated), then prove the next successful commit does NOT publish
        the torn state.  With ``unsafe_no_degraded`` the same arming
        resurrects the value — scripts/sim.py --suite exhaustion --negative-control.
        """
        instance, plan = _faulty_server(tmp_path)
        try:
            with connect(instance.port) as db:
                db.set("ctrl", 100)
                db.set("ctrl", 140)  # warm-up: free list reaches steady state
                writes = self._commit_writes(plan, db, 150)
                assert writes == self._commit_writes(plan, db, 160), \
                    "commit write count did not stabilize"
                # position writes-2 is the pre-commit-point header-slot
                # write (the last two writes are the post-commit free-list
                # resync): the durable image still holds 160 while the
                # in-memory heap table already points at the 200 chain
                plan.arm_write_failure(writes - 2)
                with pytest.raises(ReadOnlyError):
                    db.set("ctrl", 200)
                plan.heal()
                wait_until(
                    lambda: db.ping()["degraded"] is False,
                    message="degraded mode never cleared",
                )
                db.set("other", 1)  # would publish a torn table entry
                assert db.get("ctrl") == {"ctrl": 160}
        finally:
            instance.stop()
            plan.close_all()

    @staticmethod
    def _commit_writes(plan, db, value):
        plan.record_ops = True
        before = len(plan.op_log)
        db.set("ctrl", value)
        writes = plan.op_log[before:].count("write")
        plan.record_ops = False
        return writes


class TestMemoryGovernance:
    def test_budget_exceeded_sheds_busy_style(self, tmp_path):
        instance = ReproServer(
            str(tmp_path / "mem.tyc"),
            _config(mem_budget_bytes=16_384, mem_watchdog_interval=0.05),
        )
        instance.start()
        try:
            with connect(instance.port) as db:
                rejection = None
                for index in range(60):
                    try:
                        # raw single-shot: db.set would absorb the busy
                        # rejection through its retry loop
                        db.request("set", root=f"bulk{index}", value="x" * 1024)
                    except BusyError as exc:
                        rejection = exc
                        break
                assert rejection is not None, "memory budget never rejected"
                assert rejection.details["reason"] == "memory"
                assert rejection.details["retry_after"] > 0
                report = db.stats()
                assert report["memory"]["budget_bytes"] == 16_384
                assert report["shed"]["memory"] >= 1
                # memory pressure is shedding, not degradation
                assert db.ping()["degraded"] is False
                # the watchdog evicts clean objects; writes come back
                deadline = time.monotonic() + 10
                while True:
                    try:
                        db.request("set", root="after-shed", value=1)
                        break
                    except BusyError:
                        assert time.monotonic() < deadline, "never recovered"
                        time.sleep(0.05)
                assert db.get("after-shed") == {"after-shed": 1}
        finally:
            instance.stop()

    def test_per_transaction_object_budget(self, tmp_path):
        instance = ReproServer(
            str(tmp_path / "txncap.tyc"), _config(mem_txn_budget_objects=2)
        )
        instance.start()
        try:
            with connect(instance.port) as db:
                db.begin("write")
                rejection = None
                for index in range(10):
                    try:
                        db.request("set", root=f"t{index}", value=index)
                    except BusyError as exc:
                        rejection = exc
                        break
                assert rejection is not None, "txn budget never enforced"
                assert rejection.details["reason"] == "memory"
                db.abort()
                # outside a transaction the per-txn cap does not apply
                db.set("free", 1)
                assert db.get("free") == {"free": 1}
        finally:
            instance.stop()


class TestOverloadShedding:
    def test_queue_aged_request_sheds_overloaded(self, tmp_path):
        instance = ReproServer(
            str(tmp_path / "load.tyc"),
            _config(workers=1, queue_size=8, queue_wait_limit=0.05),
        )
        instance.start()
        try:
            blocker = connect(instance.port)
            done = threading.Event()

            def occupy():
                try:
                    blocker.request("sleep", seconds=0.6)
                finally:
                    done.set()

            worker = threading.Thread(target=occupy)
            worker.start()
            time.sleep(0.15)  # the sleep now owns the only pool worker
            try:
                with connect(instance.port) as db:
                    # introspection fast lane: answers while the pool is full
                    started = time.monotonic()
                    assert db.ping()["pong"] is True
                    assert time.monotonic() - started < 1.0
                    # a pooled request ages past queue_wait_limit and sheds
                    with pytest.raises(OverloadedError) as err:
                        db.request("roots")
                    assert err.value.details["queued_s"] > 0.05
                    assert err.value.details["retry_after"] > 0
                    assert db.stats()["shed"]["overloaded"] >= 1
            finally:
                done.wait(timeout=10)
                worker.join(timeout=10)
                blocker.close()
        finally:
            instance.stop()


class TestClusterFailover:
    def test_discover_prefers_healthy_over_degraded(self, tmp_path):
        degraded = ReproServer(
            str(tmp_path / "a.tyc"), _config(read_only=True)
        )
        healthy = ReproServer(str(tmp_path / "b.tyc"), _config())
        degraded.start()
        healthy.start()
        cluster = ClusterClient(
            [("127.0.0.1", degraded.port), ("127.0.0.1", healthy.port)],
            retry=RetryPolicy(base_delay=0.05, max_attempts=4),
        )
        try:
            cluster.discover()
            assert cluster._primary == ("127.0.0.1", healthy.port)
            assert cluster.set("k", 1)["root"] == "k"
            assert cluster.get("k") == {"k": 1}
        finally:
            cluster.close()
            degraded.stop()
            healthy.stop()

    def test_write_fails_over_when_primary_degrades(self, tmp_path):
        first = ReproServer(str(tmp_path / "a.tyc"), _config())
        second = ReproServer(str(tmp_path / "b.tyc"), _config())
        first.start()
        second.start()
        servers = {
            ("127.0.0.1", first.port): first,
            ("127.0.0.1", second.port): second,
        }
        cluster = ClusterClient(
            list(servers),
            retry=RetryPolicy(base_delay=0.05, max_attempts=4),
        )
        try:
            cluster.discover()
            elected = cluster._primary
            assert elected is not None
            servers[elected].health.enter_degraded("disk gone")
            # the write must reroute: read_only is never retried against
            # the same endpoint — rediscovery elects the healthy server
            assert cluster.set("k", 2)["root"] == "k"
            assert cluster._primary != elected
        finally:
            cluster.close()
            first.stop()
            second.stop()

    def test_fully_degraded_cluster_still_elects_for_reads(self, tmp_path):
        only = ReproServer(str(tmp_path / "solo.tyc"), _config())
        only.start()
        with connect(only.port) as db:
            db.set("k", 7)
        only.health.enter_degraded("disk gone")
        cluster = ClusterClient(
            [("127.0.0.1", only.port)],
            retry=RetryPolicy(base_delay=0.05, max_attempts=2),
        )
        try:
            cluster.discover()
            # no healthy primary anywhere: the degraded one is elected so
            # reads keep working; writes still fail typed
            assert cluster._primary == ("127.0.0.1", only.port)
            assert cluster.get("k") == {"k": 7}
            with pytest.raises(ReadOnlyError):
                cluster.set("k", 8)
        finally:
            cluster.close()
            only.stop()


class TestTopDashboard:
    def test_render_surfaces_degraded_memory_and_shed(self, server):
        from repro.server.top import render

        server.health.enter_degraded("disk full on /data")
        with connect(server.port) as db:
            frame = render(db.stats())
            assert "DEGRADED read-only: disk full on /data" in frame
            server.health.exit_degraded()
            frame = render(db.stats())
        assert "health   ok" in frame
        assert "recoveries=1" in frame
        assert "memory   " in frame
        assert "shed     " in frame


class TestReplicationDegradedPush:
    def test_follower_surfaces_primary_degraded(self, tmp_path):
        primary = ReproServer(
            str(tmp_path / "p.tyc"),
            _config(replicate=True, node_id="p"),
        )
        primary.start()
        replica = ReproServer(
            str(tmp_path / "r.tyc"),
            _config(replica_of=("127.0.0.1", primary.port), node_id="r"),
        )
        replica.start()
        try:
            with connect(primary.port) as db:
                db.set("seed", 1)
            wait_until(
                lambda: replica.follower is not None
                and replica.follower.version >= 1,
                message="replica never caught up",
            )
            primary.health.enter_degraded("primary disk failed")
            wait_until(
                lambda: replica.follower.primary_degraded,
                message="degraded push never reached the follower",
            )
            status = replica.follower.status()
            assert status["primary_degraded"] is True
            assert status["primary_degraded_reason"] == "primary disk failed"
            # recovery: the next shipped record clears the flag
            primary.health.exit_degraded()
            with connect(primary.port) as db:
                db.set("seed", 2)
            wait_until(
                lambda: not replica.follower.primary_degraded,
                message="follower never cleared primary_degraded",
            )
        finally:
            replica.stop()
            primary.stop()


class TestTwopcDegradedParticipant:
    def test_prepare_on_degraded_shard_aborts_cleanly(self, tmp_path):
        shards, groups = [], []
        for sid in range(2):
            shard = ReproServer(
                str(tmp_path / f"shard{sid}.tyc"),
                _config(replicate=True, node_id=f"shard{sid}"),
            )
            shard.start()
            shards.append(shard)
            groups.append([("127.0.0.1", shard.port)])
        coordinator = ReproServer(
            str(tmp_path / "coordinator.tyc"),
            _config(
                coordinator=True, shards=groups, node_id="coordinator",
                resolver_interval=0.2,
            ),
        )
        coordinator.start()
        try:
            with connect(coordinator.port) as db:
                wait_until(
                    lambda: db.topology()["recovered"],
                    message="coordinator recovery",
                )
                from repro.server.sharding.ring import ShardTopology
                topology = ShardTopology.from_dict(db.topology()["topology"])
                on0 = next(
                    f"k{i}" for i in range(1000)
                    if topology.shard_for(f"k{i}") == 0
                )
                on1 = next(
                    f"k{i}" for i in range(1000)
                    if topology.shard_for(f"k{i}") == 1
                )
                shards[1].health.enter_degraded("participant disk failed")
                with pytest.raises(TwopcAbortedError) as err:
                    db.mset({on0: "a", on1: "b"})
                assert err.value.details["shard"] == 1
                # nothing half-applied on the healthy shard
                with connect(shards[0].port) as s0:
                    assert on0 not in s0.roots()
                shards[1].health.exit_degraded()
                db.mset({on0: "a", on1: "b"})
                assert db.get(on0, on1) == {on0: "a", on1: "b"}
        finally:
            coordinator.stop()
            for shard in shards:
                shard.stop()
