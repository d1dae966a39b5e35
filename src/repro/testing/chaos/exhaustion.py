"""Suite ``exhaustion``: proving the daemon under a dying disk.

The ``crash`` suite covers *crashes* (the process dies, the image must
recover) and ``replication`` covers *network* failure.  This suite covers
the third way storage fails in production: the process stays up but the
disk stops cooperating — ``ENOSPC`` on a full volume, ``EDQUOT`` on a
quota, ``EIO`` on a dying device, and the quiet killer, a *failing fsync*
(the kernel may drop the dirty pages after reporting the error: retrying
the fsync is not a recovery strategy).

Every scenario runs one harness daemon with a
:class:`~repro.store.faults.FaultPlan` slid under its pager, drives a
concurrent multi-session write workload while injecting write/fsync
failures (one-shot at the n-th I/O op, or a persistent outage healed
later), and asserts the survival invariants:

1. **the daemon never dies** — ``ping`` answers throughout, including
   while degraded;
2. **reads keep succeeding** — a poller reads a pre-seeded root during
   the outage; degraded mode is *read-only*, not *down*;
3. **degraded entry and exit** — a commit-path I/O failure flips the
   daemon into degraded mode (writes answer ``read_only``), and once the
   fault is healed the background probe recovers it without a restart;
4. **no acked write lost, no torn write resurrected** — after shutdown
   the image passes ``fsck`` clean and every root holds a value the
   workload actually acknowledged (or a later attempted value whose ack
   was lost in flight — never a rolled-back one below the acked floor);
5. under the **memory ceiling** writes shed busy-style and recover, and
   under **open-loop overload** introspection stays responsive while
   excess load sheds with typed errors — never a hung connection.

:func:`negative_control` disables degraded mode (``unsafe_no_degraded``):
a failed commit then leaves the heap's in-memory table pointing at the
half-written state, so once the *next* commit has succeeded the daemon
serves the torn write the client was told had failed (and the next table
compaction makes it durable) — the check must detect the resurrection.  CI inverts the invocation; a passing negative control
means the detector is broken.
"""

from __future__ import annotations

import errno
import threading
import time

from repro.server.client import (
    BusyError,
    ClientError,
    ReadOnlyError,
    ServerError,
    connect,
)
from repro.store.faults import FaultPlan
from repro.testing.chaos.harness import Cluster
from repro.testing.chaos.runner import InvariantViolation, Scenario, Suite, scenario

__all__ = ["SUITE", "ExhaustionHarness", "build", "negative_control"]


class ExhaustionHarness(Cluster):
    """One daemon over a fault-planned image + a recorded write workload."""

    #: concurrent writer sessions (one key each)
    WRITERS = 3

    def __init__(self, root: str, **overrides):
        super().__init__(root)
        self.plan = FaultPlan()
        self.server = self.spawn(
            "node",
            # fast probe so recovery is observable within a scenario
            degraded_probe_interval=0.05,
            io_factory=self.plan.file_factory,
            enable_debug_ops=True,
            **overrides,
        )
        self.read_failures: list[str] = []
        # a stable pre-seeded root the read poller watches during outages
        with connect(self.server.port) as db:
            db.set("sentinel", 41)
        self.ledger.record("sentinel", 41)

    def teardown(self) -> None:
        self.plan.heal()  # let the shutdown flush through
        super().teardown()

    # ------------------------------------------------------------- workload

    def write(self, db, key: str, value: int, retry_window: float = 0.0) -> bool:
        """One ledgered write; with a retry window, read_only/busy answers
        are retried until the window closes (modeling a patient client)."""
        self.ledger.attempt(key, value)
        deadline = time.monotonic() + retry_window
        while True:
            try:
                db.set(key, value)
            except (ReadOnlyError, BusyError) as exc:
                if time.monotonic() >= deadline:
                    return False
                hint = exc.details.get("retry_after") or 0.05
                time.sleep(min(float(hint), 0.2))
            except (ClientError, ServerError):
                return False
            else:
                self.ledger.ack(key, value)
                return True

    def run_writers(self, per_writer: int, inject_at: int, inject) -> None:
        """``WRITERS`` concurrent sessions, each writing an increasing
        sequence to its own key; ``inject()`` fires (once, from writer 0)
        when that writer reaches sequence ``inject_at``."""

        def writer(index: int) -> None:
            with connect(self.server.port) as db:
                for seq in range(1, per_writer + 1):
                    if index == 0 and seq == inject_at:
                        inject()
                    self.write(db, f"k{index}", seq, retry_window=5.0)

        threads = [
            threading.Thread(target=writer, args=(i,), name=f"exhaust-writer-{i}")
            for i in range(self.WRITERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            if thread.is_alive():
                raise InvariantViolation(
                    "writer thread hung — daemon stopped answering"
                )

    def start_read_poller(self, stop: threading.Event) -> None:
        """Continuously read the sentinel root + ping: reads must always
        answer, degraded or not."""

        def poll() -> None:
            with connect(self.server.port) as db:
                while not stop.is_set():
                    try:
                        if db.ping().get("pong") is not True:
                            self.read_failures.append("ping answered oddly")
                        if db.get("sentinel")["sentinel"] != 41:
                            self.read_failures.append("sentinel value wrong")
                    except (ClientError, ServerError) as exc:
                        self.read_failures.append(f"{type(exc).__name__}: {exc}")
                    time.sleep(0.01)

        threading.Thread(target=poll, name="exhaust-reader", daemon=True).start()

    # ------------------------------------------------------------ assertions

    def ping(self) -> dict:
        with connect(self.server.port) as db:
            return db.ping()

    def assert_alive(self) -> None:
        try:
            info = self.ping()
        except (ClientError, ServerError) as exc:
            raise InvariantViolation(f"daemon stopped answering ping: {exc}") from exc
        if info.get("pong") is not True:
            raise InvariantViolation(f"bad ping reply: {info}")

    def assert_degraded(self, expected: bool, timeout: float = 5.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            info = self.ping()
            if bool(info.get("degraded")) == expected:
                return
            if time.monotonic() >= deadline:
                raise InvariantViolation(
                    f"daemon degraded={info.get('degraded')}, expected {expected} "
                    f"(reason={info.get('degraded_reason')!r})"
                )
            time.sleep(0.02)

    def assert_write_rejected_read_only(self) -> None:
        with connect(self.server.port) as db:
            try:
                db.set("rejected", 1)
            except ReadOnlyError as exc:
                if not exc.details.get("reason"):
                    raise InvariantViolation("read_only error carries no reason")
                return
            raise InvariantViolation("write was accepted while degraded")

    def check_no_read_failures(self) -> None:
        if self.read_failures:
            raise InvariantViolation(
                f"{len(self.read_failures)} read failures during the outage; "
                f"first: {self.read_failures[0]}"
            )

    def finish(self) -> dict:
        """Common tail: the recovered daemon takes writes again, and the
        image it leaves behind verifies."""
        self.assert_degraded(False, timeout=10.0)
        with connect(self.server.port) as db:
            db.set("post-recovery", 7)
        self.ledger.record("post-recovery", 7)
        return self.verify()


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def scenario_one_shot(root: str, kind: str, nth: int, fault_errno: int) -> dict:
    """One write/fsync op fails mid-workload; the daemon degrades, rolls
    back cleanly, auto-recovers (the fault is one-shot) and keeps going."""
    harness = ExhaustionHarness(root)
    stop = threading.Event()
    try:
        harness.start_read_poller(stop)
        arm = (
            harness.plan.arm_write_failure
            if kind == "write"
            else harness.plan.arm_fsync_failure
        )
        harness.run_writers(
            per_writer=8,
            inject_at=3,
            inject=lambda: arm(nth, fault_errno=fault_errno),
        )
        harness.assert_alive()
        harness.check_no_read_failures()
        return harness.finish()
    finally:
        stop.set()
        harness.teardown()


def scenario_persistent_outage(root: str, fault_errno: int) -> dict:
    """The disk goes away entirely and comes back: degraded for the whole
    outage (reads fine, writes read_only), auto-recovery after heal()."""
    harness = ExhaustionHarness(root)
    stop = threading.Event()
    try:
        harness.start_read_poller(stop)
        with connect(harness.server.port) as db:
            harness.write(db, "before", 1)
            harness.plan.exhaust(fault_errno)
            # this commit hits the dead disk: rejected, daemon degrades
            harness.write(db, "during", 1)
        harness.assert_degraded(True)
        harness.assert_alive()
        harness.assert_write_rejected_read_only()
        # degraded for a few probe cycles: probes fail, daemon stays up
        time.sleep(0.3)
        harness.assert_degraded(True)
        harness.check_no_read_failures()
        harness.plan.heal()
        return harness.finish()
    finally:
        stop.set()
        harness.teardown()


def scenario_memory_ceiling(root: str) -> dict:
    """A tiny heap budget: oversized load sheds busy-style with a
    retry-after hint, the watchdog squeezes the cache back under budget,
    and writes succeed again without a restart."""
    # the budget must clear the boot working set (a few KB of stdlib and
    # system objects) but be small enough that the bulk load blows it
    harness = ExhaustionHarness(
        root, mem_budget_bytes=16_384, mem_watchdog_interval=0.05,
    )
    stop = threading.Event()
    try:
        harness.start_read_poller(stop)
        saw_memory_busy = False
        with connect(harness.server.port) as db:
            for index in range(60):
                try:
                    # raw request: single-shot, so the typed rejection is
                    # observable instead of absorbed by the retry layer
                    db.request("set", root=f"bulk{index}", value="x" * 1024)
                except BusyError as exc:
                    if exc.details.get("reason") != "memory":
                        raise
                    saw_memory_busy = True
                    if exc.details.get("retry_after") is None:
                        raise InvariantViolation("memory rejection has no retry_after")
                    break
        if not saw_memory_busy:
            raise InvariantViolation("memory budget never rejected a write")
        # the watchdog sheds cache below budget; then writes flow again
        deadline = time.monotonic() + 5.0
        recovered = False
        with connect(harness.server.port) as db:
            while time.monotonic() < deadline:
                try:
                    db.set("after-shed", 1)
                except BusyError:
                    time.sleep(0.05)
                else:
                    recovered = True
                    break
        if not recovered:
            raise InvariantViolation("writes never recovered after memory shedding")
        harness.ledger.record("after-shed", 1)
        harness.check_no_read_failures()
        harness.assert_alive()
        if harness.ping().get("degraded"):
            raise InvariantViolation("memory pressure must not flip degraded mode")
        return harness.verify()
    finally:
        stop.set()
        harness.teardown()


def scenario_open_loop_overload(root: str) -> dict:
    """Open-loop flood of slow requests against a tiny pool: introspection
    (fast lane) keeps answering, excess load sheds with typed errors
    (backpressure/overloaded), nothing hangs, shutdown is clean."""
    harness = ExhaustionHarness(
        root, workers=1, queue_size=4, queue_wait_limit=0.2,
    )
    errors: dict[str, int] = {}
    errors_lock = threading.Lock()
    stop = threading.Event()
    try:
        def flooder() -> None:
            with connect(harness.server.port) as db:
                while not stop.is_set():
                    try:
                        db.request("sleep", seconds=0.15)
                    except ServerError as exc:
                        with errors_lock:
                            errors[exc.code] = errors.get(exc.code, 0) + 1
                    except ClientError:
                        return

        threads = [
            threading.Thread(target=flooder, name=f"flood-{i}", daemon=True)
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        # under full overload, ping and stats must answer promptly
        slow_pings = 0
        with connect(harness.server.port) as db:
            for _ in range(20):
                started = time.monotonic()
                db.ping()
                db.stats()
                if time.monotonic() - started > 1.0:
                    slow_pings += 1
                time.sleep(0.05)
        if slow_pings:
            raise InvariantViolation(
                f"{slow_pings}/20 introspection rounds took >1s under overload"
            )
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
            if thread.is_alive():
                raise InvariantViolation("flooder hung — a connection wedged")
        with errors_lock:
            shed = errors.get("backpressure", 0) + errors.get("overloaded", 0)
        if not shed:
            raise InvariantViolation(
                f"overload never shed a request (errors: {errors})"
            )
        harness.assert_alive()
        harness.verify()
        return {"shed": shed, "errors": dict(errors)}
    finally:
        stop.set()
        harness.teardown()


def _measure_commit_writes(harness: ExhaustionHarness, db, key: str, value) -> int:
    """Count the write ops of one steady-state single-key commit."""
    plan = harness.plan
    plan.record_ops = True
    before = len(plan.op_log)
    db.set(key, value)
    writes = plan.op_log[before:].count("write")
    plan.record_ops = False
    return writes


def negative_control(root: str) -> dict:
    """Degraded mode OFF: the torn-write resurrection MUST be detected.

    A steady-state single-key commit's write sequence is: payload chain,
    table record, free-list record, (data fsync), the header-slot write,
    (the commit-point fsync), then the free-list resync — free-list record
    and a second header-slot write.  Failing the *first header-slot write* (the last
    write before the commit point — position ``W-2`` of a ``W``-write
    commit, measured on an identical steady-state commit; the last two
    writes belong to the post-commit free-list sync) leaves durable
    state untouched but the in-memory table torn.  Without
    ``rollback_to_durable`` the heap keeps that table: after the next
    successful commit reads still resolve the key through the failed
    commit's chain — resurrecting the value the client was told had
    failed — and the first commit to compact the table records it for
    good.  The check must catch exactly that; CI inverts this suite's exit
    code.
    """
    harness = ExhaustionHarness(root, unsafe_no_degraded=True)
    try:
        with connect(harness.server.port) as db:
            db.set("ctrl", 100)   # acked
            db.set("ctrl", 140)   # warm-up: free list reaches steady state
            # identical-size commits in steady state: same write count as
            # the armed one (pages come from the free list, no growth);
            # measure twice and demand agreement so the arming is exact
            writes = _measure_commit_writes(harness, db, "ctrl", 150)
            again = _measure_commit_writes(harness, db, "ctrl", 160)
            if writes != again or writes < 4:
                raise InvariantViolation(
                    f"commit write count unstable ({writes} vs {again}); "
                    "cannot arm the header-write failure deterministically"
                )
            # W-2: the pre-commit-point header-slot write (W-1 and W are
            # the post-commit free-list record + second header write)
            harness.plan.arm_write_failure(writes - 2)
            try:
                db.set("ctrl", 200)  # fails: the client is told "no"
            except (ClientError, ServerError):
                pass
            else:
                raise InvariantViolation("armed write failure did not fail the write")
            db.set("other", 1)  # unrelated commit publishes the torn table
            resurrected = db.get("ctrl")["ctrl"]
        harness.server.stop()
        if resurrected == 200:
            raise InvariantViolation(
                "torn write resurrected: a value the client was told had "
                "failed became visible after an unrelated commit"
            )
        return {"ctrl": resurrected}
    finally:
        harness.teardown()


def build(quick: bool = False) -> list[Scenario]:
    """Write/fsync one-shot faults across op positions and errnos, a
    persistent outage per errno, the memory ceiling and the open-loop
    overload."""
    errnos = {"enospc": errno.ENOSPC, "eio": errno.EIO}
    if not quick:
        errnos["edquot"] = errno.EDQUOT
    out: list[Scenario] = []
    for label, code in errnos.items():
        for kind in ("write", "fsync"):
            for nth in [1, 2] if quick else [1, 2, 3, 5, 8]:
                out.append(
                    scenario(
                        f"one-shot/{kind}/{label}/n{nth}",
                        scenario_one_shot, kind, nth, code,
                    )
                )
        out.append(scenario(f"outage/{label}", scenario_persistent_outage, code))
    out.append(scenario("memory/ceiling", scenario_memory_ceiling))
    out.append(scenario("overload/open-loop", scenario_open_loop_overload))
    return out


SUITE = Suite(
    "exhaustion", build, negative_control=("negative-control/no-degraded", negative_control)
)
