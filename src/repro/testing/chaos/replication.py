"""Suite ``replication``: proving the replication layer under failure.

:class:`ReplicaGroup` configures the shared
:class:`~repro.testing.chaos.harness.Cluster` as one primary + N replicas
on loopback, every replication link behind its own
:class:`~repro.testing.chaos.proxy.ChaosProxy`, with a scripted write
workload, node kill/restart in both roles (graceful ``stop()`` and
SIGKILL-like ``crash()``), promotion of the most-caught-up replica, and
the three invariant checks the sweep asserts for every scenario:

1. **no acked write lost** — every acknowledged root binding is
   readable, with the acknowledged value, on every live node (and, post
   mortem, in every live node's image);
2. **convergence** — all live nodes reach the primary's replication
   version with an identical logical state digest, and every image
   passes ``fsck`` clean after shutdown;
3. **single primary** — exactly one live node reports the primary
   role, and it holds the highest term any live node has seen.

The scenario families in :func:`build` are link faults at every workload
step, kill/restart of each node in each role at every step, and
sync-replicated failover (kill the primary, promote, re-point, keep
writing).  :func:`negative_control` disables fencing and demonstrates the
acked-write loss the fencing term exists to prevent (the harness must
*detect* that loss; a negative control that passes means the detector is
broken).  Everything runs in-process, so a few hundred scenarios finish
in minutes.
"""

from __future__ import annotations

import time

from repro.server.client import (
    ClientError,
    ClusterClient,
    RetryPolicy,
    ServerError,
    connect,
)
from repro.testing.chaos.harness import Cluster
from repro.testing.chaos.runner import InvariantViolation, Scenario, Suite, scenario

__all__ = ["SUITE", "ReplicaGroup", "build", "negative_control"]


class ReplicaGroup(Cluster):
    """One primary and N replicas with chaos-proxied replication links."""

    def __init__(
        self, root: str, replicas: int = 2, sync_replicas: int = 0, fence: bool = True
    ):
        super().__init__(root)
        self.primary_name = "primary"
        primary = self.spawn(
            "primary",
            fence=fence,
            replicate=True,
            sync_replicas=sync_replicas,
            replication_timeout=8.0,
        )
        for i in range(replicas):
            link = self.link(f"r{i}", primary.port)
            self.spawn(f"r{i}", fence=fence, replica_of=("127.0.0.1", link.port))

    @property
    def primary(self):
        return self.servers[self.primary_name]

    def promote_best_replica(self) -> str:
        """Promote the most-caught-up live replica; re-point the others."""
        versions: dict[str, int] = {}
        for name in sorted(self.live - {self.primary_name}):
            try:
                versions[name] = self.status(name)["version"]
            except (ClientError, ServerError):
                continue
        if not versions:
            raise InvariantViolation("no live replica to promote")
        best = max(versions, key=lambda n: (versions[n], n))
        with connect(self.servers[best].port) as db:
            db.promote()
        self.primary_name = best
        for name in self.live - {best}:
            try:
                with connect(self.servers[name].port) as db:
                    db.follow("127.0.0.1", self.servers[best].port)
            except (ClientError, ServerError):
                pass
        return best

    # -------------------------------------------------------------- workload

    def cluster_client(self) -> ClusterClient:
        endpoints = [("127.0.0.1", s.port) for s in self.servers.values()]
        return ClusterClient(
            endpoints,
            timeout=10.0,
            retry=RetryPolicy(base_delay=0.05, max_attempts=8),
        )

    def write_step(self, index: int, db: ClusterClient | None = None) -> bool:
        """Workload write ``index`` — through ``db``, or straight at the
        current primary; ledgered as acked only on success."""
        key, value = f"w{index}", index * 101
        if db is not None:
            return self.write(db, key, value)
        try:
            with connect(
                self.primary.port, retry=RetryPolicy(base_delay=0.05, max_attempts=4)
            ) as direct:
                return self.write(direct, key, value)
        except (ClientError, ServerError):
            return False  # the primary is down: nothing was submitted

    # ----------------------------------------------------------- invariants

    def status(self, name: str, digest: bool = False) -> dict:
        with connect(self.servers[name].port, timeout=10.0) as db:
            return db.repl_status(digest=digest)

    def wait_converged(self, timeout: float = 40.0) -> dict[str, dict]:
        """Block until every live node matches the primary's version and
        logical digest; raises :class:`InvariantViolation` on timeout."""
        deadline = time.monotonic() + timeout
        last: dict[str, dict] = {}
        while time.monotonic() < deadline:
            try:
                want = self.status(self.primary_name, digest=True)
                last = {self.primary_name: want}
                settled = True
                for name in sorted(self.live - {self.primary_name}):
                    got = self.status(name, digest=True)
                    last[name] = got
                    if (
                        got["version"] != want["version"]
                        or got.get("digest") != want.get("digest")
                    ):
                        settled = False
                if settled:
                    return last
            except (ClientError, ServerError):
                pass
            time.sleep(0.05)
        raise InvariantViolation(f"no convergence within {timeout}s: {last}")

    def check_acked_writes(self) -> int:
        """Every acknowledged write must be readable on every live node."""
        for name in sorted(self.live):
            served = {}
            with connect(self.servers[name].port, timeout=10.0) as db:
                for key in self.ledger.acked:
                    try:
                        served[key] = db.get(key)[key]
                    except ServerError as exc:
                        # not_found leaves the key out of ``served``: the
                        # ledger check reports that as a lost acked write
                        if exc.code != "not_found":
                            raise
            self.ledger.check(served, name)
        return len(self.ledger.acked)

    def check_single_primary(self) -> str:
        primaries: list[tuple[str, int]] = []
        max_term = 0
        for name in sorted(self.live):
            status = self.status(name)
            max_term = max(max_term, status["term"])
            if status["role"] == "primary":
                primaries.append((name, status["term"]))
        if len(primaries) != 1:
            raise InvariantViolation(
                f"want exactly one live primary, have {primaries}"
            )
        name, term = primaries[0]
        if term < max_term:
            raise InvariantViolation(
                f"primary {name} at term {term} but a node has seen {max_term}"
            )
        return name

    def verify(self) -> dict:
        """The full invariant suite; returns the check summary."""
        primary = self.check_single_primary()
        self.wait_converged()
        self.check_acked_writes()
        return {"primary": primary, **super().verify()}


# ---------------------------------------------------------------------------
# scenario families
# ---------------------------------------------------------------------------


def scenario_link_fault(
    root: str,
    kind: str,
    step: int,
    both_links: bool = False,
    sync: bool = False,
    writes: int = 10,
) -> dict:
    """Fault one (or both) replication links mid-workload, heal, converge."""
    group = ReplicaGroup(root, sync_replicas=1 if sync else 0)
    try:
        targets = ["r0", "r1"] if both_links else ["r0"]
        for i in range(writes):
            if i == step:
                for name in targets:
                    group.proxies[name].inject(kind)
            if i == step + 2:
                for name in targets:
                    group.proxies[name].heal()
            group.write_step(i)
        for proxy in group.proxies.values():
            proxy.heal()
        return group.verify()
    finally:
        group.teardown()


def scenario_restart(
    root: str, node: str, crash: bool, step: int, writes: int = 10
) -> dict:
    """Kill one node mid-workload (gracefully or abruptly), restart it."""
    group = ReplicaGroup(root)
    try:
        for i in range(writes):
            if i == step:
                group.kill(node, crash=crash)
            if i == step + 2:
                group.restart(node)
            group.write_step(i)
        if node not in group.live:
            group.restart(node)
        return group.verify()
    finally:
        group.teardown()


def scenario_failover(root: str, crash: bool, step: int, writes: int = 10) -> dict:
    """Kill the primary, promote the most-caught-up replica, keep writing.

    Runs sync-replicated (``sync_replicas=1``) so an acknowledged write is
    by definition on at least one replica — which the promotion rule (the
    max-version replica wins) then guarantees survives the failover.
    """
    group = ReplicaGroup(root, sync_replicas=1)
    db = None
    try:
        db = group.cluster_client()
        for i in range(writes):
            if i == step:
                group.kill("primary", crash=crash)
                group.promote_best_replica()
            group.write_step(i, db=db)
        return group.verify()
    finally:
        if db is not None:
            db.close()
        group.teardown()


def negative_control(root: str) -> dict:
    """Fencing OFF: the acked-write invariant MUST fail.

    The deposed primary keeps its stale term-1 state; the promoted node
    (term 2) takes an acknowledged write, then is pointed back at the
    deposed primary.  Without fencing it accepts the stale snapshot, the
    acked write vanishes, and the standard
    :meth:`ReplicaGroup.check_acked_writes` invariant raises — so the
    sweep reports a failure and the sim exits nonzero.  CI inverts the
    invocation: a zero exit here would mean the detector can no longer
    see lost writes.
    """
    group = ReplicaGroup(root, replicas=1, sync_replicas=1, fence=False)
    try:
        for i in range(3):
            group.write_step(i)
        group.wait_converged()
        old_primary_port = group.servers["primary"].port
        with connect(group.servers["r0"].port) as db:
            db.promote()
        group.primary_name = "r0"
        group.write_step(99)  # acked by the term-2 primary
        if "w99" not in group.ledger.acked:
            raise InvariantViolation("negative control write was not acknowledged")
        # point the new primary back at the deposed one: unfenced, it
        # accepts the stale-term snapshot and silently regresses
        with connect(group.servers["r0"].port) as db:
            db.follow("127.0.0.1", old_primary_port)
        group.live.discard("primary")  # judge the regressed node only
        deadline = time.monotonic() + 20.0
        while True:
            try:
                with connect(group.servers["r0"].port) as db:
                    regressed = "w99" not in set(db.roots())
            except (ClientError, ServerError):
                regressed = False
            if regressed or time.monotonic() >= deadline:
                break
            time.sleep(0.1)
        # the standard invariant check: with fencing off it must raise
        group.check_acked_writes()
        return {"lost": False}  # nothing lost?! fencing leaked in somewhere
    finally:
        group.teardown()


def build(quick: bool = False) -> list[Scenario]:
    """The full sweep: ≥200 scenarios (a reduced step grid under ``quick``)."""
    kinds = ["blackhole", "delay", "truncate", "drop-connect", "reset"]
    steps = [1, 4, 7] if quick else list(range(10))
    modes = {"stop": False, "crash": True}
    out: list[Scenario] = []
    for kind in kinds:
        for step in steps:
            out.append(scenario(f"link/{kind}/s{step}", scenario_link_fault, kind, step))
            out.append(
                scenario(
                    f"link-both/{kind}/s{step}",
                    scenario_link_fault, kind, step, both_links=True,
                )
            )
    for kind in kinds:
        for step in steps[:1] if quick else steps:
            out.append(
                scenario(
                    f"link-sync/{kind}/s{step}",
                    scenario_link_fault, kind, step, sync=True,
                )
            )
    for node in ("primary", "r0", "r1"):
        for mode, crash in modes.items():
            for step in [2] if quick else steps:
                out.append(
                    scenario(
                        f"restart/{node}/{mode}/s{step}",
                        scenario_restart, node, crash, step,
                    )
                )
    for mode, crash in modes.items():
        for step in [2] if quick else range(1, 9):
            out.append(
                scenario(f"failover/{mode}/s{step}", scenario_failover, crash, step)
            )
    return out


SUITE = Suite(
    "replication", build, negative_control=("negative-control/unfenced", negative_control)
)
