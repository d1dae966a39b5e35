"""A stateful model of code and data in one file image: definitions, calls,
PGO and the relation a query reads.

A :class:`TycoonSystem` over a file image is driven through redefining
``lib`` (a function and a constant ``app`` reads) and ``app`` (each
persisted; one ``app`` is a select over the stored relation ``db.data``),
inserting rows into that relation and indexing it (each a ``heap.update``),
calls of ``app.g``, profile-guided optimization rounds, commit + reopen,
and compiling a new importer of ``lib``, which type-checks against the
interface in ``lib``'s record whether or not the image was reopened.  The
oracle is a fresh ``TycoonSystem`` compiled from the latest sources
over an unindexed relation of the latest rows: every call answers what it
answers, its rows compared as a multiset once a plan may read an index.  A
reopen is a restart, so it keeps what a call runs, to the instruction; and
after a round that gave ``app.g`` a variant, with no redefinition and no
new index it read since, the call runs that variant — in this process and
after a reopen.
"""

import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
    run_state_machine_as_test,
)

from repro.lang import TLCheckError, TycoonSystem
from repro.obs.profile import ClosureProfile, profile_call
from repro.query.relation import Relation
from repro.reflect import optimize_hot
from repro.store.heap import ObjectHeap

LIB = "module lib export f c let c = {c} let f(n: Int): Int = n * {k} + 1 end"
APPS = {
    "loop": """module app export g import lib
        let g(n: Int): Int =
          var s := 0 in var i := 0 in
          begin while i < n do begin s := s + lib.f(i) + lib.c; i := i + 1 end end; s end
        end""",
    "twice": """module app export g import lib
        let g(n: Int): Int = lib.f(n) + lib.f(n + 1)
        end""",
    "sibling": """module app export g h import lib
        let h(n: Int): Int = lib.f(n) * 2 + lib.c
        let g(n: Int): Int = h(n) + h(1)
        end""",
    "query": """module app export g import lib, db
        type Row = tuple id: Int, v: Int end
        let g(n: Int) = select r from db.data as r : Row where r.id == n end
        end""",
}
IMPORTER = "module app2 export h import lib let h(n: Int): Int = lib.f(n) + lib.c end"
ILL_TYPED = "module bad export h import lib let h(n: Int): Int = lib.f(n, 2) end"
ROWS = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 50)), max_size=4)

_ORACLES: dict = {}


def oracle_system(lib: tuple[int, int], app: str, rows: tuple) -> TycoonSystem:
    """A fresh system compiled from these sources, ``db.data`` an unindexed
    relation of these rows."""
    system = _ORACLES.get((lib, app, rows))
    if system is None:
        system = _ORACLES[(lib, app, rows)] = TycoonSystem()
        system.register_data_module("db", {"data": Relation("data", ["id", "v"], rows)})
        system.compile(LIB.format(k=lib[0], c=lib[1]))
        system.compile(APPS[app])
    return system


def oracle(lib: tuple[int, int], app: str, rows: tuple, n: int):
    """``app.g(n)`` in the :func:`oracle_system` of these sources and rows."""
    return oracle_system(lib, app, rows).call("app", "g", [n]).value


def observed(value, ordered: bool):
    """A call's answer: a relation as its rows, sorted unless ``ordered``."""
    if isinstance(value, Relation):
        rows = value.to_tuples()
        return tuple(rows if ordered else sorted(rows))
    return value


class CodeModel(RuleBasedStateMachine):
    #: rounds, over the whole run, that gave app.g a variant, and of those
    #: the ones whose variant reads an index; importers compiled after a reopen
    optimized_rounds = indexed_rounds = reopened_importers = 0

    def __init__(self):
        super().__init__()
        self.workdir = tempfile.mkdtemp(prefix="code-model-")
        self.path = f"{self.workdir}/image.tyc"
        self.system = TycoonSystem(heap=ObjectHeap(self.path))
        self.profile = ClosureProfile()
        #: app.g has a variant from a round, and nothing was redefined since
        self.optimized = False
        self.reopened = False

    @initialize(
        k=st.integers(1, 3), c=st.integers(0, 2), app=st.sampled_from(sorted(APPS)), rows=ROWS
    )
    def define(self, k, c, app, rows):
        heap = self.system.heap
        heap.set_root("data", heap.store(Relation("data", ["id", "v"], rows)))
        self.rows, self.indexes = tuple(rows), set()
        self.bind_data()
        self.define_lib(k, c)
        self.define_app(app)

    def bind_data(self):
        """Bind the data module ``db`` in the image to the stored relation."""
        self.relation = self.system.heap.load_root("data")
        self.system.register_data_module("db", {"data": self.relation})

    def outcome(self, result):
        # an index lookup gives its rows in another order than a scan
        return observed(result.value, not self.indexes), result.instructions

    def teardown(self):
        self.system.heap.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    @rule(k=st.integers(1, 3), c=st.integers(0, 2))
    def define_lib(self, k, c):
        self.system.compile(LIB.format(k=k, c=c))
        self.system.persist("lib")
        self.lib, self.optimized = (k, c), False

    @rule(c=st.integers(0, 2))
    def define_lib_constant(self, c):
        """Redefine ``lib`` with its function's source unchanged."""
        self.define_lib(self.lib[0], c)

    @rule(app=st.sampled_from(sorted(APPS)))
    def define_app(self, app):
        self.system.compile(APPS[app])
        self.system.persist("app")
        self.app, self.optimized = app, False

    @rule(n=st.integers(0, 12))
    def compile_importer(self, n):
        """A new importer of ``lib`` compiles and answers; one calling
        ``lib.f`` with two arguments is refused as in a fresh system."""
        self.system.compile(IMPORTER)
        k, c = self.lib
        assert self.system.call("app2", "h", [n]).value == n * k + 1 + c
        with pytest.raises(TLCheckError) as refused:
            self.system.compile(ILL_TYPED)
        with pytest.raises(TLCheckError) as fresh:
            oracle_system(self.lib, self.app, self.rows).compile(ILL_TYPED)
        assert str(refused.value) == str(fresh.value)
        CodeModel.reopened_importers += self.reopened

    @rule(rows=ROWS.filter(bool))
    def insert_rows(self, rows):
        self.relation.insert_many(rows)
        self.system.heap.update(self.system.heap.root("data"))
        self.rows += tuple(rows)

    @rule(field=st.sampled_from(["id", "v"]), ordered=st.booleans())
    def create_index(self, field, ordered):
        if field in self.indexes:
            return
        self.relation.create_index(field, ordered=ordered)
        self.system.heap.update(self.system.heap.root("data"))
        self.indexes.add(field)
        # a link keeps its variant until the module is forgotten; relinked,
        # a variant that read the relation without this index is passed over
        self.system.forget("app")
        if self.app == "query":
            self.optimized = False
            assert self.system.closure("app", "g").code.name == "app.g"

    @rule(n=st.integers(0, 12))
    def call(self, n):
        result, _ = profile_call(self.system, "app", "g", [n], profiler=self.profile)
        value = self.outcome(result)[0]
        assert value == observed(oracle(self.lib, self.app, self.rows, n), not self.indexes)
        assert value == self.outcome(self.system.call("app", "g", [n]))[0]
        if self.optimized:
            assert self.system.closure("app", "g").code.name == "app.g'"

    @rule(top=st.integers(1, 2), n=st.integers(0, 12))
    def pgo(self, top, n):
        """A round over the profile of the calls since the last round, a
        call of ``app.g(n)`` included."""
        self.call(n)
        report = optimize_hot(self.system, self.profile, top=top)
        self.profile = ClosureProfile()
        assert set(report.refused.values()) <= {"it runs its variant"}
        if "app.g" in {c.qualified for c in report.selected}:
            self.optimized = True
            CodeModel.optimized_rounds += 1
            if report.results["app.g"].query_stats.count("index-select"):
                CodeModel.indexed_rounds += 1

    @rule(n=st.integers(0, 12))
    def commit_and_reopen(self, n):
        self.system.commit()
        before = self.outcome(self.system.call("app", "g", [n]))
        self.system.heap.close()
        self.system = TycoonSystem(heap=ObjectHeap(self.path))
        self.relation, self.reopened = self.system.heap.load_root("data"), True
        after = self.outcome(self.system.call("app", "g", [n]))
        assert after == before
        assert after[0] == observed(oracle(self.lib, self.app, self.rows, n), not self.indexes)
        if self.optimized:
            assert self.system.closure("app", "g").code.name == "app.g'"


def test_code_in_an_image_follows_the_model():
    CodeModel.optimized_rounds = CodeModel.indexed_rounds = CodeModel.reopened_importers = 0
    run_state_machine_as_test(
        CodeModel,
        settings=settings(
            max_examples=50, stateful_step_count=25, deadline=None, derandomize=True
        ),
    )
    assert CodeModel.optimized_rounds > 5
    assert CodeModel.indexed_rounds > 0
    assert CodeModel.reopened_importers > 0
