"""A stateful model of the object heap and its replication record.

One primary :class:`ObjectHeap` is driven through store / update /
set_root / remove_root / commit / abort / close-and-reopen; its change sink
ships every commit — encoded and decoded as a :class:`ChangeRecord` — into
``apply_changes`` on a replica heap.  A pair of dicts is the model.  After
every commit, abort and reopen: roots and loaded values equal the model on
both heaps *and* on a fresh open of each file (every commit is also a
recovery), primary and replica agree on ``logical_digest()``, and both
images fsck clean.  The pages are small and the image starts with enough
roots that commits write delta records, copy them forward, and compact;
the test asserts that the run really crossed a compaction.

This is the oracle for the two formats a commit writes (the table-record
chain and the delta change record), and the gate ROADMAP item 1 puts in
front of making the commit log the write-ahead log.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule, run_state_machine_as_test

from repro.store.commitlog import ChangeRecord
from repro.store.fsck import fsck_image
from repro.store.heap import ObjectHeap

PAGE_SIZE = 256
#: enough bytes of root names that the complete table record needs several
#: pages, so the commits after it are deltas (see repro.store.heap._publish)
SEED_ROOTS = tuple(f"seeded-root-{index:02d}" for index in range(24))
NAMES = st.sampled_from(("a", "b", "c", "dd", "a-rather-long-root-name") + SEED_ROOTS[:6])
#: untracked scalars (each store is a fresh OID); the long strings span pages
VALUES = st.integers(-(2**40), 2**40) | st.text(max_size=12) | st.text(min_size=300, max_size=700)


class HeapModel(RuleBasedStateMachine):
    #: commits, over the whole run, that replaced a chain holding deltas
    compacted_chains = 0
    delta_commits = 0

    def __init__(self):
        super().__init__()
        self.workdir = tempfile.mkdtemp(prefix="heap-model-")
        self.paths = {
            name: f"{self.workdir}/{name}.tyc" for name in ("primary", "replica")
        }
        self.version = 0
        self._open()
        #: oid -> value and name -> oid, uncommitted edits included
        self.values: dict[int, object] = {}
        self.roots: dict[str, int] = {}
        first = int(self.primary.store(0))
        self.values[first] = 0
        for name in SEED_ROOTS:
            self.primary.set_root(name, first)
            self.roots[name] = first
        self.commit()

    def _open(self) -> None:
        self.primary = ObjectHeap(self.paths["primary"], PAGE_SIZE, cache_limit=8)
        self.replica = ObjectHeap(self.paths["replica"], PAGE_SIZE)
        self.primary.change_sink = self._ship

    def _ship(self, changes) -> None:
        self.version += 1
        record = ChangeRecord(
            version=self.version,
            term=1,
            oid_counter=changes.oid_counter,
            objects=changes.objects,
            roots=changes.roots,
            removed=changes.removed,
        )
        record = ChangeRecord.decode(record.encode())
        self.replica.apply_changes(
            record.objects, record.roots, record.removed, record.oid_counter
        )

    def teardown(self) -> None:
        self.primary.close()
        self.replica.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # ---------------------------------------------------------------- rules

    @rule(value=VALUES)
    def store(self, value):
        self.values[int(self.primary.store(value))] = value

    @rule(data=st.data(), value=VALUES)
    def update(self, data, value):
        oid = data.draw(st.sampled_from(sorted(self.values)))
        self.primary.update(oid, value)
        self.values[oid] = value

    @rule(data=st.data(), name=NAMES)
    def set_root(self, data, name):
        oid = data.draw(st.sampled_from(sorted(self.values)))
        self.primary.set_root(name, oid)
        self.roots[name] = oid

    @rule(name=NAMES)
    def remove_root(self, name):
        assert self.primary.remove_root(name) == (name in self.roots)
        self.roots.pop(name, None)

    @rule(data=st.data())
    def rebind_every_seeded_root(self, data):
        """One commit whose delta alone outgrows a page."""
        oid = data.draw(st.sampled_from(sorted(self.values)))
        for name in SEED_ROOTS:
            self.primary.set_root(name, oid)
            self.roots[name] = oid
        self.commit()

    @rule()
    def commit(self):
        chained = len(self.primary._chain) > 1
        self.primary.commit()
        self.committed = (dict(self.values), dict(self.roots))
        if len(self.primary._chain) > 1:
            HeapModel.delta_commits += 1
        elif chained:
            HeapModel.compacted_chains += 1
        self.check()

    @precondition(lambda self: self.values != self.committed[0] or self.roots != self.committed[1])
    @rule()
    def abort(self):
        self.primary.abort()
        self.values, self.roots = dict(self.committed[0]), dict(self.committed[1])
        self.check()

    @rule()
    def close_and_reopen(self):
        """What was not committed is gone; what was is all there."""
        self.primary.close()
        self.replica.close()
        self._open()
        self.values, self.roots = dict(self.committed[0]), dict(self.committed[1])
        self.check()

    # ----------------------------------------------------------- invariants

    def _matches_model(self, heap: ObjectHeap) -> None:
        assert heap.root_names() == sorted(self.roots)
        assert {name: int(heap.root(name)) for name in self.roots} == self.roots
        assert {oid: heap.load(oid) for oid in self.values} == self.values

    def check(self) -> None:
        """Called where the model holds no uncommitted edit: the live heaps
        match it and each other, and so does what a fresh open recovers
        from each file; each file fscks clean."""
        self._matches_model(self.primary)
        self._matches_model(self.replica)
        digest = self.primary.logical_digest()
        assert digest == self.replica.logical_digest()
        for path in self.paths.values():
            with ObjectHeap(path, PAGE_SIZE) as recovered:
                self._matches_model(recovered)
                assert recovered.logical_digest() == digest
            report = fsck_image(path, page_size=PAGE_SIZE)
            assert report.ok, [f.message for f in report.errors]


def test_heap_and_replica_follow_the_model():
    HeapModel.compacted_chains = HeapModel.delta_commits = 0
    run_state_machine_as_test(
        HeapModel,
        settings=settings(
            max_examples=40, stateful_step_count=30, deadline=None, derandomize=True
        ),
    )
    # the run must have been through both record kinds and the switch back
    assert HeapModel.delta_commits > 20
    assert HeapModel.compacted_chains > 0
