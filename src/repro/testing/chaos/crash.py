"""Suite ``crash``: exhaustive crash points — SQLite-style durability proof.

The suite answers one question: *is there any single I/O operation at
which a crash leaves the image in a third state* — neither the last
committed state nor the next one?  It answers by brute force:

1. build a pristine baseline image fault-free;
2. replay a multi-commit workload once through a counting
   :class:`~repro.store.faults.FaultPlan` to learn the total number of
   I/O operations *N* and capture the expected heap state after every
   commit (:func:`counting_run`);
3. for each failure mode (write-through, torn write, write-back, and
   write-back + torn) and each crash point ``k in 0..N-1`` — one scenario
   each — replay the workload against a fresh copy of the baseline with a
   simulated crash at operation *k*, then **reopen the image with the
   real, fault-free file layer** and assert that
   - recovery succeeds (the image is never bricked),
   - the recovered roots equal the state after commit *c* or commit
     *c+1*, where *c* is the number of commits that completed before the
     crash (no third state), and
   - the recovered image still accepts a fresh commit (a crash must not
     poison the free list or allocator);
4. run :func:`repro.store.fsck.fsck_image` over every recovered image and
   require zero integrity errors (leaked pages are expected after a crash
   and are *not* errors).

The workload is deterministic, so "crash at op *k*" names a unique
machine state; the sweep over *k* is exhaustive by construction (there
is no reduced grid: ``--quick`` runs the same sweep).
"""

from __future__ import annotations

import itertools
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.obs.metrics import METRICS
from repro.store.faults import CrashPoint, FaultPlan
from repro.store.fsck import fsck_image
from repro.store.heap import ObjectHeap
from repro.testing.chaos.runner import InvariantViolation, Scenario, Suite, scenario

__all__ = ["MODES", "SUITE", "counting_run", "default_workload", "scenarios"]

#: the four failure models: every write durable immediately; the crashing
#: write half-persisted; nothing durable but what was fsynced; and both.
MODES = ("writethrough", "torn", "writeback", "writeback-torn")

#: small pages, so the workload's values span multi-page chains
PAGE_SIZE = 256

#: roots whose names alone push the complete table record onto a second
#: page: only then do later commits write *delta* records (a delta is
#: written while the deltas occupy fewer pages than the complete record)
FILLERS = tuple(f"filler-root-{index:02d}" for index in range(16))

#: one workload step: mutate the heap (the harness commits after each).
#: ``state`` carries OIDs between steps.
Step = Callable[[ObjectHeap, dict], None]


def default_workload() -> list[Step]:
    """A five-commit workload covering store/update/rebind/chain-release
    and both kinds of table record.

    Values are codec-native (ints, strs, tuples, dicts); the big string
    spans several pages so commits exercise multi-page chains, and the
    shrinking update forces page releases through the free list.  The
    table records go complete (first commit), delta, delta (copied forward
    in its page), complete (s4's delta alone needs two pages, as many as
    the complete record: the commit compacts and releases the chain), delta
    (with a removed root in it) — :func:`_meta` checks that they still do.
    """

    def s1(heap: ObjectHeap, state: dict) -> None:
        state["a"] = heap.store(("alpha", 1))
        heap.set_root("a", state["a"])
        for name in FILLERS:
            heap.set_root(name, state["a"])

    def s2(heap: ObjectHeap, state: dict) -> None:
        state["blob"] = heap.store("B" * 3000)
        heap.set_root("blob", state["blob"])

    def s3(heap: ObjectHeap, state: dict) -> None:
        heap.update(state["a"], ("alpha", 2, "mutated"))
        heap.set_root("b", heap.store({"k": "v", "n": 7}))

    def s4(heap: ObjectHeap, state: dict) -> None:
        # shrink the blob: its old multi-page chain is released, pushing
        # pages through the shadow-paged free list
        heap.update(state["blob"], "C" * 900)
        state["c"] = heap.store(tuple(range(50)))
        for name in ("c", *FILLERS):
            heap.set_root(name, state["c"])

    def s5(heap: ObjectHeap, state: dict) -> None:
        heap.set_root("a", heap.store("rebound"))
        heap.remove_root(FILLERS[0])

    return [s1, s2, s3, s4, s5]


def _snapshot(heap: ObjectHeap) -> dict[str, Any]:
    """The observable durable state: every root's loaded value."""
    return {
        name: heap.load_root(name)
        for name in heap.root_names()
        if not name.startswith("__")
    }


@dataclass(frozen=True)
class Counted:
    """What the counting run learned about a workload."""

    baseline: bytes  #: the pristine image every scenario starts from
    states: tuple[dict, ...]  #: expected roots before/after each commit
    io_ops: int  #: I/O operations of one fault-free replay
    records: tuple[str, ...]  #: table record each commit wrote: complete | delta


def counting_run(steps: Sequence[Step]) -> Counted:
    with tempfile.TemporaryDirectory(prefix="crash-count-") as workdir:
        image = os.path.join(workdir, "baseline.tyc")
        ObjectHeap(image, PAGE_SIZE).close()
        with open(image, "rb") as fp:
            baseline = fp.read()
        plan = FaultPlan()
        heap = ObjectHeap(image, PAGE_SIZE, io_factory=plan.file_factory)
        states = [_snapshot(heap)]
        state: dict = {}
        complete = METRICS.get("store.heap.table_compactions")
        records = []
        for step in steps:
            step(heap, state)
            before = complete.value
            heap.commit()
            records.append("complete" if complete.value > before else "delta")
            states.append(_snapshot(heap))
        heap.close()
    return Counted(baseline, tuple(states), plan.ops, tuple(records))


def scenarios(
    workload: Sequence[Step] | None = None,
    modes: Sequence[str] = MODES,
    fsck: bool = True,
) -> list[Scenario]:
    """One scenario per ``(mode, crash point)`` of the workload.  Pass
    ``fsck=False`` to skip the per-scenario integrity check (it roughly
    doubles the runtime)."""
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown crash-sim mode {mode!r}")
    steps = list(workload) if workload is not None else default_workload()
    counted = counting_run(steps)
    return [
        scenario(f"{mode}/op{crash_at:03d}", _crash, counted, steps, mode, crash_at, fsck)
        for mode in modes
        for crash_at in range(counted.io_ops)
    ]


def _crash(
    root: str, counted: Counted, steps: Sequence[Step], mode: str, crash_at: int,
    fsck: bool,
) -> dict:
    """One (mode, crash point) replay; raises on any durability breach."""
    os.makedirs(root, exist_ok=True)
    image = os.path.join(root, "scenario.tyc")
    with open(image, "wb") as fp:
        fp.write(counted.baseline)
    plan = FaultPlan(
        crash_at=crash_at, torn="torn" in mode, writeback="writeback" in mode
    )
    commits_done = 0

    def breach(error: str) -> InvariantViolation:
        return InvariantViolation(f"{error} ({commits_done} commits done)")

    try:
        heap = ObjectHeap(image, PAGE_SIZE, io_factory=plan.file_factory)
        state: dict = {}
        try:
            for step in steps:
                step(heap, state)
                heap.commit()
                commits_done += 1
        finally:
            if not plan.crashed:
                heap.close()
    except CrashPoint:
        pass
    except Exception as exc:  # a non-crash error is itself a failure
        raise breach(f"workload error: {exc!r}") from exc
    finally:
        plan.close_all()

    # recovery with the real file layer — the moment of truth
    try:
        recovered = ObjectHeap(image, PAGE_SIZE)
    except Exception as exc:
        raise breach(f"image bricked: {exc!r}") from exc
    try:
        snap = _snapshot(recovered)
        if snap not in counted.states[commits_done : commits_done + 2]:
            raise breach(f"third state: roots {sorted(snap)} match no adjacent commit")
        # the recovered image must still accept new work (a crash must not
        # have poisoned the allocator or free list)
        recovered.set_root("__probe__", recovered.store((mode, crash_at)))
        recovered.commit()
    except InvariantViolation:
        raise
    except Exception as exc:
        raise breach(f"recovery unusable: {exc!r}") from exc
    finally:
        recovered.close()

    if not fsck:
        return {"commits_done": commits_done, "fsck": "skipped"}
    try:
        result = fsck_image(image, page_size=PAGE_SIZE)
    except Exception as exc:
        raise breach(f"fsck crashed: {exc!r}") from exc
    if result.errors:
        raise breach(f"fsck errors: {[f.message for f in result.errors][:3]}")
    return {"commits_done": commits_done, "fsck": "clean"}


def negative_control(root: str) -> dict:
    """The default workload plus one run-varying step: MUST fail.

    The counting run records one value; every scenario replay stores a
    different one, so the reopened state can never match the recorded
    pre- or post-commit expectation and the comparator must flag it —
    proving scenario failures actually propagate to the exit code.  One
    failure model (``torn``) without fsck is enough: the comparator, not
    the fault model, is what this control exercises.
    """
    ticket = itertools.count(1)

    def nondeterministic(heap: ObjectHeap, state: dict) -> None:
        heap.set_root("negative", heap.store(("run", next(ticket))))

    sweep = scenarios([*default_workload(), nondeterministic], ("torn",), fsck=False)
    breaches = []
    for name, thunk in sweep:
        try:
            thunk(root)
        except InvariantViolation as exc:
            breaches.append(f"{name}: {exc}")
    if breaches:
        raise InvariantViolation(
            f"{len(breaches)} of {len(sweep)} crash points broke; first {breaches[0]}"
        )
    return {"crash_points": len(sweep)}


def _meta() -> dict:
    """What the sweep covered — and a check that it covered both record
    kinds: crashing at every I/O op proves nothing about a delta commit, a
    compacting commit or a removed root if the workload stopped making one."""
    steps = default_workload()
    counted = counting_run(steps)
    records = counted.records
    removed = [
        sorted(before.keys() - after.keys())
        for before, after in zip(counted.states, counted.states[1:])
    ]
    compacts = ("delta", "complete") in zip(records, records[1:])
    delta_removes = any(kind == "delta" and names for kind, names in zip(records, removed))
    if not (compacts and delta_removes):
        raise InvariantViolation(
            "crash workload no longer covers a commit that compacts a record "
            f"chain and a delta that removes a root (records {records}, "
            f"removed {removed})"
        )
    return {
        "io_ops_per_run": counted.io_ops,
        "commits": len(steps),
        "page_size": PAGE_SIZE,
        "modes": list(MODES),
        "table_records": list(records),
        "roots_removed": [name for names in removed for name in names],
    }


SUITE = Suite(
    "crash",
    build=lambda quick: scenarios(),
    negative_control=("negative-control/run-varying-workload", negative_control),
    meta=_meta,
)
