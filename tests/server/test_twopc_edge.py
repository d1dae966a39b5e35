"""2PC edge cases: coordinator crashes inside the commit window (both
sides of the decision point), participant term fencing, and duplicate
decision replay.

The crash tests use the coordinator's failpoints (``twopc_failpoint``)
to die at exact protocol points, then boot a fresh coordinator process
over the same image and node id and let presumed-abort recovery settle
the in-doubt transactions.
"""

import time

import pytest

from repro.server import ReproServer, ServerConfig, connect
from repro.server.client import ClientError, ServerError
from repro.server.protocol import E_STALE_TERM
from repro.server.sharding.ring import ShardTopology
from repro.server.sharding.twopc import DECISION_PREFIX, STAGING_PREFIX


def _config(**overrides):
    defaults = dict(
        workers=2, queue_size=32, lock_timeout=10.0, pgo_interval=None
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


class Deployment:
    """Two single-daemon shard groups plus a crashable coordinator."""

    def __init__(self, tmp_path):
        self.tmp_path = tmp_path
        self.shards = []
        self.groups = []
        for sid in range(2):
            server = ReproServer(
                str(tmp_path / f"shard{sid}.tyc"),
                _config(replicate=True, node_id=f"shard{sid}"),
            )
            server.start()
            self.shards.append(server)
            self.groups.append([("127.0.0.1", server.port)])
        self.coordinator = None
        self.start_coordinator()

    def start_coordinator(self):
        self.coordinator = ReproServer(
            str(self.tmp_path / "coordinator.tyc"),
            _config(
                coordinator=True, shards=self.groups, node_id="coordinator",
                resolver_interval=0.2,
            ),
        )
        self.coordinator.start()
        self.wait_recovered()

    def wait_recovered(self, timeout=20.0):
        deadline = time.monotonic() + timeout
        with connect(self.coordinator.port) as db:
            while not db.topology()["recovered"]:
                assert time.monotonic() < deadline, "coordinator never recovered"
                time.sleep(0.05)

    def wait_coordinator_dead(self, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                with connect(self.coordinator.port, timeout=1.0) as db:
                    db.ping()
            except (ClientError, ServerError, OSError):
                return
            time.sleep(0.05)
        raise AssertionError("coordinator survived its failpoint")

    def crash_restart_and_settle(self, timeout=20.0):
        self.wait_coordinator_dead()
        try:
            self.coordinator.stop()
        except Exception:
            pass
        self.start_coordinator()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.any_staging() and not self.coordinator_decisions():
                return
            time.sleep(0.1)
        raise AssertionError(
            f"2PC residue never drained: staging={self.any_staging()} "
            f"decisions={self.coordinator_decisions()}"
        )

    def staging(self, sid):
        with connect(self.shards[sid].port) as db:
            return [r for r in db.roots() if r.startswith(STAGING_PREFIX)]

    def any_staging(self):
        return [r for sid in (0, 1) for r in self.staging(sid)]

    def coordinator_decisions(self):
        with connect(self.coordinator.port) as db:
            return [r for r in db.roots() if r.startswith(DECISION_PREFIX)]

    def topology(self):
        with connect(self.coordinator.port) as db:
            return ShardTopology.from_dict(db.topology()["topology"])

    def cross_shard_batch(self, tag, n=8):
        topology = self.topology()
        writes = {f"{tag}{i}": i for i in range(n)}
        assert {topology.shard_for(k) for k in writes} == {0, 1}
        return writes

    def applied(self, writes):
        """How many of the batch's roots exist across the shards."""
        topology = self.topology()
        found = 0
        for name in writes:
            sid = topology.shard_for(name)
            with connect(self.shards[sid].port) as db:
                if name in db.roots():
                    found += 1
        return found

    def stop(self):
        for server in (self.coordinator, *self.shards):
            try:
                server.stop()
            except Exception:
                pass


@pytest.fixture
def deployment(tmp_path):
    dep = Deployment(tmp_path)
    yield dep
    dep.stop()


def _mset_expect_crash(deployment, writes):
    with pytest.raises((ClientError, ServerError)):
        with connect(deployment.coordinator.port, timeout=5.0) as db:
            db.mset(writes)


class TestCoordinatorCrashWindows:
    def test_crash_after_prepare_presumed_aborts(self, deployment):
        """Die after staging but before the decision record: no decision
        durably exists, so recovery must abort — no root may appear."""
        writes = deployment.cross_shard_batch("pa")
        deployment.coordinator.config.twopc_failpoint = "after-prepare"
        _mset_expect_crash(deployment, writes)
        # at least one shard holds staged writes while in doubt
        assert deployment.any_staging()
        deployment.crash_restart_and_settle()
        assert deployment.applied(writes) == 0

    def test_crash_after_decision_recovers_commit(self, deployment):
        """Die right after the decision record is durable: the txn passed
        its commit point, so recovery must finish applying everywhere."""
        writes = deployment.cross_shard_batch("ad")
        deployment.coordinator.config.twopc_failpoint = "after-decision"
        _mset_expect_crash(deployment, writes)
        deployment.crash_restart_and_settle()
        assert deployment.applied(writes) == len(writes)

    def test_crash_mid_decide_recovers_commit(self, deployment):
        """Die after phase two reached one participant but not the other:
        recovery replays the decision; the already-decided shard treats
        the replay as a no-op."""
        writes = deployment.cross_shard_batch("md")
        deployment.coordinator.config.twopc_failpoint = "mid-decide"
        _mset_expect_crash(deployment, writes)
        deployment.crash_restart_and_settle()
        assert deployment.applied(writes) == len(writes)

    def test_orphaned_staging_is_presumed_aborted(self, deployment):
        """A staged transaction whose coordinator has no decision record
        (e.g. it died before writing one) is aborted by the resolver."""
        topology = deployment.topology()
        name = next(
            f"or{i}" for i in range(1000) if topology.shard_for(f"or{i}") == 0
        )
        with connect(deployment.shards[0].port) as db:
            result = db._invoke(
                "shard.prepare", txn="orphan-1", coordinator="coordinator",
                participants=[0], writes={name: 1},
            )
            assert result["prepared"] is True
        deadline = time.monotonic() + 10
        while deployment.staging(0):
            assert time.monotonic() < deadline, "orphan never aborted"
            time.sleep(0.1)
        with connect(deployment.shards[0].port) as db:
            assert name not in db.roots()


class TestParticipantFencing:
    def test_prepare_with_stale_term_is_fenced(self, deployment):
        topology = deployment.topology()
        name = next(
            f"f{i}" for i in range(1000) if topology.shard_for(f"f{i}") == 0
        )
        with connect(deployment.shards[0].port) as db:
            current = db.stats()["replication"]["term"]
            with pytest.raises(ServerError) as info:
                db._invoke(
                    "shard.prepare", txn="fence-1", coordinator="nobody",
                    participants=[0], writes={name: 1}, term=current + 7,
                )
        assert info.value.code == E_STALE_TERM
        assert info.value.details["term"] == current
        # nothing was staged by the fenced prepare
        assert deployment.staging(0) == []

    def test_prepare_with_current_term_passes(self, deployment):
        topology = deployment.topology()
        name = next(
            f"g{i}" for i in range(1000) if topology.shard_for(f"g{i}") == 0
        )
        with connect(deployment.shards[0].port) as db:
            current = db.stats()["replication"]["term"]
            result = db._invoke(
                "shard.prepare", txn="fence-2", coordinator="nobody",
                participants=[0], writes={name: 1}, term=current,
            )
            assert result["prepared"] is True
            assert result["term"] == current
            # clean up so the resolver doesn't have to
            db._invoke("shard.decide", txn="fence-2", decision="abort")


class TestDecisionReplay:
    def _prepare(self, deployment, txn, tag):
        topology = deployment.topology()
        name = next(
            f"{tag}{i}" for i in range(1000)
            if topology.shard_for(f"{tag}{i}") == 0
        )
        with connect(deployment.shards[0].port) as db:
            db._invoke(
                "shard.prepare", txn=txn, coordinator="nobody",
                participants=[0], writes={name: 41},
            )
        return name

    def test_duplicate_commit_decision_is_idempotent(self, deployment):
        name = self._prepare(deployment, "replay-1", "r")
        with connect(deployment.shards[0].port) as db:
            first = db._invoke("shard.decide", txn="replay-1", decision="commit")
            assert first["applied"] is True
            second = db._invoke("shard.decide", txn="replay-1", decision="commit")
            assert second["already"] is True
            assert db.get(name) == {name: 41}

    def test_prepare_replay_is_idempotent(self, deployment):
        name = self._prepare(deployment, "replay-2", "s")
        with connect(deployment.shards[0].port) as db:
            again = db._invoke(
                "shard.prepare", txn="replay-2", coordinator="nobody",
                participants=[0], writes={name: 99},
            )
            assert again["already"] is True
            db._invoke("shard.decide", txn="replay-2", decision="commit")
            # the original staging wins; the replay's payload is ignored
            assert db.get(name) == {name: 41}

    def test_decide_unknown_txn_is_a_noop(self, deployment):
        with connect(deployment.shards[0].port) as db:
            result = db._invoke(
                "shard.decide", txn="never-prepared", decision="commit"
            )
            assert result["already"] is True

    def test_abort_discards_staged_writes(self, deployment):
        name = self._prepare(deployment, "replay-3", "t")
        with connect(deployment.shards[0].port) as db:
            result = db._invoke("shard.decide", txn="replay-3", decision="abort")
            assert result["applied"] is False
            assert name not in db.roots()
            assert deployment.staging(0) == []


class TestPhaseStamps:
    """The commit log shows 2PC phases from each commit's own root delta
    (no socket: a heap, a transaction manager, the primary's change sink)."""

    @staticmethod
    def _primary(tmp_path):
        from repro.server.replication import PrimaryReplication
        from repro.store.concurrency import TransactionManager
        from repro.store.heap import ObjectHeap

        heap = ObjectHeap(str(tmp_path / "stamps.tyc"))
        txns = TransactionManager(heap)
        primary = PrimaryReplication(heap, txns, str(tmp_path / "stamps.log"), node="p")
        primary.attach()
        return heap, txns, primary

    def test_prepare_and_decide_are_stamped_and_nothing_else_is(self, tmp_path):
        heap, txns, primary = self._primary(tmp_path)
        t1, t2, t3 = (STAGING_PREFIX + name for name in ("t1", "t2", "t3"))
        with txns.write():
            heap.set_root("plain", heap.store(1))
        with txns.write():
            heap.set_root(t1, heap.store({"writes": 1}))
        with txns.write():  # the staged object changes, the staging root stays
            heap.update(heap.root(t1), {"writes": 2})
        with txns.write():  # rebinding a staging root that exists is no phase
            heap.set_root(t1, heap.store({"writes": 3}))
        with txns.write():
            heap.set_root(t2, heap.store({}))
            heap.set_root(t3, heap.store({}))
        with txns.write():  # decide: apply the writes, retire the staging root
            heap.set_root("applied", heap.store(3))
            heap.remove_root(t1)
        primary.stop()
        heap.close()

        # a restarted primary reads its baseline off the image
        heap, txns, primary = self._primary(tmp_path)
        with txns.write():
            heap.remove_root(t2)
            heap.remove_root(t3)
        metas = [record.meta for record in primary.log.read_from(1)]
        primary.stop()
        heap.close()
        assert metas == [
            {},
            {"twopc": "t1", "phase": "prepare"},
            {},
            {},
            {"twopc": ["t2", "t3"], "phase": "prepare"},
            {"twopc": "t1", "phase": "decide"},
            {"twopc": ["t2", "t3"], "phase": "decide"},
        ]
