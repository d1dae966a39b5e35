"""Suite ``sharding``: proving cross-shard 2PC under failure.

Builds on :mod:`repro.testing.chaos.replication`: each shard group is one
:class:`~repro.testing.chaos.replication.ReplicaGroup` (primary +
replicas with chaos-proxied replication links, sync-replicated so an
acknowledged write is on a replica by definition), and a coordinator
daemon fronts them — reached by the workload client directly, reaching
each shard group through its own
:class:`~repro.testing.chaos.proxy.ChaosProxy` so the coordinator↔shard
links can be partitioned independently of the intra-group replication
links.

The workload is cross-shard ``mset`` batches, each deliberately touching
**every** shard group (root names are picked against the ring until each
group owns at least one).  The harness ledgers which batches were
*acknowledged* (an ``ok`` response with ``committed: true`` — a
``twopc_aborted`` rejection, a timeout or a dead socket is not an ack)
and which were merely *attempted*; after every scenario it settles the
deployment (restart whatever died, heal every link, wait for the
coordinator's resolver to drain all in-doubt state) and asserts:

1. **no acked batch lost** — every root of every acknowledged batch is
   readable, with the acknowledged value, on its owning shard group;
2. **atomicity** — every *attempted* batch is all-or-nothing: either
   every shard applied its slice or none did.  A half-applied batch is
   exactly the torn write 2PC exists to prevent;
3. **no residue** — no shard holds ``__2pc__:*`` staging and the
   coordinator holds no undrained decision record once settled;
4. the per-group replication invariants of the underlying harnesses
   (single primary, convergence, clean fsck).

:func:`negative_control` disables the decision-record fsync
(``durable_decisions=False``) and crashes the coordinator between the
two phase-two deliveries (``mid-decide``): on restart nothing proves the
commit happened, recovery presumes abort, and the shard that already
applied disagrees with the one that rolled back — invariant 2 must
catch the half-applied batch.  CI runs this inverted: a passing negative
control means the detector is blind.
"""

from __future__ import annotations

import os
import time

from repro.server.client import ClientError, RetryPolicy, ServerError, connect
from repro.server.sharding.ring import ShardTopology
from repro.testing.chaos.harness import Cluster, Ledger
from repro.testing.chaos.proxy import ChaosProxy
from repro.testing.chaos.replication import ReplicaGroup
from repro.testing.chaos.runner import InvariantViolation, Scenario, Suite, scenario

__all__ = ["SUITE", "ShardedHarness", "build", "negative_control"]


class ShardedHarness:
    """N shard groups + one coordinator, every link fault-injectable."""

    def __init__(
        self,
        root: str,
        shards: int = 2,
        replicas_per_shard: int = 1,
        durable_decisions: bool = True,
    ):
        #: per-group replication harnesses (they own kill/restart/promote
        #: and the per-group invariants)
        self.groups = [
            ReplicaGroup(
                os.path.join(root, f"g{sid}"),
                replicas=replicas_per_shard,
                sync_replicas=1,
            )
            for sid in range(shards)
        ]
        #: the coordinator's own one-node cluster; its links are the
        #: coordinator → shard-group proxies, one per group node so a whole
        #: group (or just its primary) can be cut off independently
        self.front = Cluster(root)
        self.coord_proxies: list[list[ChaosProxy]] = [
            [
                self.front.link(f"g{sid}/{name}", server.port)
                for name, server in group.servers.items()
            ]
            for sid, group in enumerate(self.groups)
        ]
        shard_endpoints = [
            [("127.0.0.1", proxy.port) for proxy in proxies]
            for proxies in self.coord_proxies
        ]
        self.topology = ShardTopology.build(shard_endpoints)
        self.front.spawn(
            "coordinator",
            coordinator=True,
            shards=shard_endpoints,
            twopc_timeout=10.0,
            resolver_interval=0.2,
            durable_decisions=durable_decisions,
        )
        #: batch index → the ``{root: value}`` batch: every batch
        #: *submitted* is attempted, acked only if acknowledged committed
        self.ledger = Ledger()

    # ------------------------------------------------------------- lifecycle

    @property
    def coordinator(self):
        return self.front.servers["coordinator"]

    def restart_coordinator(self) -> None:
        self.front.restart("coordinator")

    def arm_failpoint(self, name: str | None) -> None:
        """Arm (or clear) the coordinator's 2PC failpoint for the *next*
        cross-shard mset; the coordinator reads it at each protocol point,
        so this is a live switch."""
        self.coordinator.config.twopc_failpoint = name

    def heal_all(self) -> None:
        for cluster in (self.front, *self.groups):
            for proxy in cluster.proxies.values():
                proxy.heal()

    def teardown(self) -> None:
        for cluster in (self.front, *self.groups):
            cluster.teardown()

    # -------------------------------------------------------------- workload

    def batch(self, index: int) -> dict[str, int]:
        """The writes of batch ``index``: one root per shard group, names
        chosen against the ring so every group participates — a pure
        function of the topology, so re-runs are deterministic."""
        writes: dict[str, int] = {}
        owned: set[int] = set()
        attempt = 0
        while len(owned) < len(self.groups):
            name = f"x{index}n{attempt}"
            attempt += 1
            sid = self.topology.shard_for(name)
            if sid in owned:
                continue
            owned.add(sid)
            writes[name] = index * 1000 + sid
        return writes

    def write_batch(self, index: int) -> bool:
        """Submit one cross-shard mset; ledgers the ack truthfully."""
        writes = self.batch(index)
        self.ledger.attempt(index, writes)
        try:
            with connect(
                self.coordinator.port,
                timeout=20.0,
                retry=RetryPolicy(base_delay=0.05, max_attempts=4),
            ) as db:
                result = db.mset(writes)
        except (ClientError, ServerError):
            return False  # not acknowledged: fate decided by recovery
        if not result.get("committed"):
            return False
        self.ledger.ack(index, writes)
        return True

    # --------------------------------------------------------------- settling

    def wait_recovered(self, timeout: float = 20.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                with connect(self.coordinator.port, timeout=5.0) as db:
                    if db.topology().get("recovered"):
                        return
            except (ClientError, ServerError):
                pass
            time.sleep(0.1)
        raise InvariantViolation("coordinator never finished boot recovery")

    def _shard_staging(self, sid: int) -> list[str]:
        with connect(self.groups[sid].primary.port, timeout=10.0) as db:
            return [r for r in db.roots() if r.startswith("__2pc__:")]

    def settle(self, timeout: float = 45.0) -> None:
        """Heal links, resurrect the coordinator if it died, then wait for
        recovery to drain every in-doubt transaction."""
        self.heal_all()
        try:
            with connect(self.coordinator.port, timeout=5.0) as db:
                db.ping()
        except (ClientError, ServerError):
            self.restart_coordinator()
        deadline = time.monotonic() + timeout
        last = "never polled"
        while time.monotonic() < deadline:
            try:
                with connect(self.coordinator.port, timeout=10.0) as db:
                    stats = db.stats()
                coord = stats.get("coordinator", {})
                staging = {
                    sid: self._shard_staging(sid) for sid in range(len(self.groups))
                }
                last = f"coordinator={coord} staging={staging}"
                if (
                    coord.get("recovered")
                    and coord.get("indoubt_decisions") == 0
                    and coord.get("inflight") == 0
                    and not any(staging.values())
                ):
                    return
            except (ClientError, ServerError) as exc:
                last = f"{type(exc).__name__}: {exc}"
            time.sleep(0.1)
        raise InvariantViolation(
            f"in-doubt state did not drain in {timeout}s: {last}"
        )

    # ------------------------------------------------------------ invariants

    def _read_root(self, root: str):
        """Read one root directly from its owning group's primary;
        ``(found, value)``."""
        group = self.groups[self.topology.shard_for(root)]
        with connect(group.primary.port, timeout=10.0) as db:
            try:
                return True, db.get(root)[root]
            except ServerError as exc:
                if exc.code == "not_found":
                    return False, None
                raise

    def check_atomicity(self) -> dict[str, int]:
        """Invariants 1 + 2: acked batches fully applied, every attempted
        batch all-or-nothing."""
        torn: list[str] = []
        applied = 0
        for index, attempts in sorted(self.ledger.attempted.items()):
            writes = attempts[-1]  # a batch is a pure function of its index
            found: dict[str, bool] = {}
            wrong: list[str] = []
            for root, value in writes.items():
                found[root], got = self._read_root(root)
                if found[root] and got != value:
                    wrong.append(f"{root}={got!r} want {value}")
            if wrong:
                torn.append(f"batch {index}: wrong values: {wrong}")
            elif index in self.ledger.acked and not all(found.values()):
                missing = [r for r, p in found.items() if not p]
                raise InvariantViolation(f"acked batch {index} lost roots {missing}")
            elif len(set(found.values())) > 1:
                torn.append(f"batch {index}: half-applied ({found})")
            else:
                applied += all(found.values())
        if torn:
            raise InvariantViolation("atomicity violated: " + "; ".join(torn))
        return {
            "attempted": len(self.ledger.attempted),
            "acked": len(self.ledger.acked),
            "applied": applied,
        }

    def check_no_residue(self) -> None:
        """Invariant 3: staging and decision roots all retired."""
        for sid in range(len(self.groups)):
            staging = self._shard_staging(sid)
            if staging:
                raise InvariantViolation(f"shard {sid} still in doubt: {staging}")
        with connect(self.coordinator.port, timeout=10.0) as db:
            leftover = [r for r in db.roots() if r.startswith("2pc:")]
        if leftover:
            raise InvariantViolation(
                f"coordinator kept decision records: {leftover}"
            )

    def verify(self) -> dict:
        """Settle, then run the full invariant suite (including each
        group's replication invariants and the post-mortem fsck of every
        image, the coordinator's included)."""
        self.settle()
        counts = self.check_atomicity()
        self.check_no_residue()
        self.front.verify()
        groups = {}
        for sid, group in enumerate(self.groups):
            groups[f"g{sid}"] = group.verify()["primary"]
        return {**counts, "groups": groups}


# ---------------------------------------------------------------------------
# scenario families
# ---------------------------------------------------------------------------


def _fault_free(harness: ShardedHarness, indices) -> None:
    for i in indices:
        if not harness.write_batch(i):
            raise InvariantViolation(f"fault-free batch {i} was not acked")


def scenario_baseline(root: str, batches: int = 6) -> dict:
    """No faults: every cross-shard batch must be acked and applied."""
    harness = ShardedHarness(root)
    try:
        harness.wait_recovered()
        _fault_free(harness, range(batches))
        return harness.verify()
    finally:
        harness.teardown()


def scenario_link(root: str, link: str, kind: str, step: int, batches: int = 6) -> dict:
    """Fault shard 0's links mid-workload, heal, settle: ``coord`` cuts
    the coordinator↔shard-0 link; ``repl`` faults the group's
    *replication* link (the group is sync-replicated, so prepares there
    stall or time out)."""
    harness = ShardedHarness(root)
    try:
        harness.wait_recovered()
        proxies = (
            harness.coord_proxies[0]
            if link == "coord"
            else list(harness.groups[0].proxies.values())
        )
        for i in range(batches):
            if i == step:
                for proxy in proxies:
                    proxy.inject(kind)
            if i == step + 2:
                for proxy in proxies:
                    proxy.heal()
            harness.write_batch(i)
        return harness.verify()
    finally:
        harness.teardown()


def scenario_shard_failover(
    root: str, crash: bool, step: int, batches: int = 6
) -> dict:
    """Kill shard 0's primary mid-workload and promote its replica; the
    coordinator must refresh the fencing term and keep committing."""
    harness = ShardedHarness(root)
    try:
        harness.wait_recovered()
        group = harness.groups[0]
        for i in range(batches):
            if i == step:
                group.kill(group.primary_name, crash=crash)
                # no coordinator-side re-pointing: its ClusterClient holds
                # every group node and rediscovers the new primary on
                # not_primary
                group.promote_best_replica()
            harness.write_batch(i)
        return harness.verify()
    finally:
        harness.teardown()


def scenario_coordinator_crash(
    root: str, failpoint: str, step: int, batches: int = 6
) -> dict:
    """Crash the coordinator at a 2PC protocol point, restart, settle.

    ``after-prepare``: no decision record exists — recovery must presume
    abort and no shard may keep the batch.  ``after-decision`` and
    ``mid-decide``: the decision fsync happened — recovery must re-drive
    the commit until every shard applied.  Either way the crashed batch
    was never acked, so only atomicity (all-or-nothing) is at stake.
    """
    harness = ShardedHarness(root)
    try:
        harness.wait_recovered()
        for i in range(batches):
            if i == step:
                harness.arm_failpoint(failpoint)
            acked = harness.write_batch(i)
            if i == step:
                if acked:
                    raise InvariantViolation(
                        f"batch {i} acked through failpoint {failpoint}"
                    )
                harness.restart_coordinator()
                harness.wait_recovered()
        return harness.verify()
    finally:
        harness.teardown()


def scenario_post_ack_crash(root: str, batches: int = 4) -> dict:
    """Ack several batches, then crash the coordinator abruptly (no
    failpoint: mid-workload SIGKILL equivalent) and restart — acked
    batches must survive, resolver must drain whatever was in flight."""
    harness = ShardedHarness(root)
    try:
        harness.wait_recovered()
        _fault_free(harness, range(batches))
        harness.coordinator.crash()
        harness.restart_coordinator()
        harness.wait_recovered()
        for i in range(batches, batches + 2):
            harness.write_batch(i)
        return harness.verify()
    finally:
        harness.teardown()


def negative_control(root: str) -> dict:
    """Decision fsync OFF + crash between phase-two deliveries: the
    atomicity invariant MUST fail.

    Without a durable decision record the post-restart coordinator finds
    staging on the not-yet-delivered shard, presumes abort and rolls it
    back — but the first shard already applied its slice.  The batch is
    half-applied, exactly what invariant 2 detects; a clean pass here
    means the detector can no longer see torn cross-shard writes.
    """
    harness = ShardedHarness(root, durable_decisions=False)
    try:
        harness.wait_recovered()
        if not harness.write_batch(0):
            raise InvariantViolation("negative control warm-up batch was not acked")
        harness.arm_failpoint("mid-decide")
        if harness.write_batch(1):
            raise InvariantViolation("batch acked through the mid-decide failpoint")
        harness.restart_coordinator()
        harness.wait_recovered()
        harness.settle()
        harness.check_atomicity()  # with the fsync off this must raise
        return {"torn": False}  # nothing torn?! durability leaked in somewhere
    finally:
        harness.teardown()


def build(quick: bool = False) -> list[Scenario]:
    kinds = ["blackhole", "drop-connect", "reset"]
    steps = [2] if quick else [1, 2, 3]
    out = [scenario("baseline", scenario_baseline)]
    for link, link_kinds in (("coord", kinds), ("repl", kinds[:1] if quick else kinds)):
        for kind in link_kinds:
            for step in steps:
                out.append(
                    scenario(f"{link}-link/{kind}/s{step}", scenario_link, link, kind, step)
                )
    for mode, crash in (("stop", False), ("crash", True)):
        for step in steps:
            out.append(
                scenario(
                    f"shard-failover/{mode}/s{step}", scenario_shard_failover, crash, step
                )
            )
    for failpoint in ("after-prepare", "after-decision", "mid-decide"):
        for step in steps[:1] if quick else steps:
            out.append(
                scenario(
                    f"coord-crash/{failpoint}/s{step}",
                    scenario_coordinator_crash, failpoint, step,
                )
            )
    out.append(scenario("post-ack-crash", scenario_post_ack_crash))
    return out


SUITE = Suite(
    "sharding",
    build,
    negative_control=("negative-control/no-durable-decision", negative_control),
)
