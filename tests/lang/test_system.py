"""Tests for the TycoonSystem image (repro.lang.system)."""

import pytest

from repro.lang import CompileOptions, TLError, TycoonSystem
from repro.machine.runtime import TmlArray
from repro.machine.vm import StepLimitExceeded
from repro.query.relation import Relation
from repro.store.heap import ObjectHeap


@pytest.fixture
def system():
    return TycoonSystem()


def test_stdlib_prelinked(system):
    for name in ("int", "arraylib", "io", "math", "charlib", "bits"):
        assert name in system.linked


def test_stdlib_modules_cannot_be_user_called_without_compile(system):
    with pytest.raises(TLError, match="library module"):
        system._compiled("int")


def test_closure_rejects_non_functions(system):
    system.compile("module m export k let k = 5 end")
    with pytest.raises(TLError, match="not a function"):
        system.closure("m", "k")


def test_constant_export_value(system):
    system.compile("module m export k let k = 5 end")
    assert system.link("m").member("k") == 5


def test_step_limit_applies(system):
    system.compile(
        """
        module spin export f
        let f(): Int = begin while true do 0 end; 1 end
        end
        """
    )
    with pytest.raises(StepLimitExceeded):
        system.call("spin", "f", [], step_limit=1000)


def test_transitive_import_linking(system):
    system.compile("module a export one let one(): Int = 1 end")
    system.compile(
        "module b export two import a let two(): Int = a.one() + 1 end"
    )
    system.compile(
        "module c export three import b let three(): Int = b.two() + 1 end"
    )
    # linking c must recursively link b and a
    assert system.call("c", "three", []).value == 3


LIB = "module lib export f let f(n: Int): Int = n + {} end"
APP = "module app export g import lib let g(n: Int): Int = lib.f(n) + lib.f(n) end"


def test_importers_see_a_redefined_library(system):
    system.compile(LIB.format(1))
    system.compile(APP)
    assert system.call("app", "g", [1]).value == 4
    system.compile(LIB.format(100))
    assert system.call("app", "g", [1]).value == 202


def test_redefinition_unlinks_importers_transitively(system):
    system.compile(LIB.format(1))
    system.compile(APP)
    system.compile("module top export h import app let h(n: Int): Int = app.g(n) end")
    system.compile("module other export k let k(): Int = 7 end")
    assert system.call("top", "h", [1]).value == 4
    assert system.call("other", "k", []).value == 7
    system.compile(LIB.format(100))
    assert {"lib", "app", "top"}.isdisjoint(system.linked)
    assert "other" in system.linked  # imports nothing that moved
    assert system.call("top", "h", [1]).value == 202


def test_data_module_members(system):
    rel = Relation("r", ["v"])
    system.register_data_module("db", {"r": rel, "limit": 10})
    system.compile(
        """
        module m export f
        import db
        let f(): Int = db.limit * 2
        end
        """
    )
    assert system.call("m", "f", []).value == 20


def test_a_data_module_is_a_record_of_the_image(tmp_path):
    """The record names a stored member by its OID and keeps a literal in
    place; a reopened image links the same objects and compiles against
    the record's interface."""
    path = str(tmp_path / "data.tyc")
    system = TycoonSystem(heap=ObjectHeap(path))
    system.register_data_module("db", {"a": TmlArray([4, 5, 6]), "limit": 10})
    stored = system.heap.load_root("module:db")
    assert stored.constants["limit"] == 10
    assert system.heap.load(stored.constants["a"]).slots == [4, 5, 6]
    system.commit()
    system.heap.close()

    reopened = TycoonSystem(heap=ObjectHeap(path))
    reopened.compile(
        "module m export f import db let f(): Int = db.limit + db.a[1] end"
    )
    assert reopened.call("m", "f", []).value == 15
    reopened.heap.close()


def test_rebinding_a_data_module_relinks_its_importers(system):
    system.register_data_module("db", {"data": Relation("data", ["v"], [(1,)])})
    system.compile(
        """
        module app export rows import db
        type Row = tuple v: Int end
        let rows() = select r from db.data as r : Row where true end
        end
        """
    )
    assert system.call("app", "rows", []).value.to_tuples() == [(1,)]
    system.register_data_module("db", {"data": Relation("data", ["v"], [(2,)])})
    assert system.call("app", "rows", []).value.to_tuples() == [(2,)]


def test_a_member_the_store_cannot_hold_is_refused_at_registration(system):
    with pytest.raises(TLError, match="db.f cannot be stored"):
        system.register_data_module("db", {"f": 1.5})
    assert system.heap.root("module:db") is None


def test_registry_threads_into_options(system):
    # the system's registry (with query prims) is what compile uses
    assert "select" in system.registry
    assert system.options.registry is system.registry


def test_vm_attached_to_heap(system):
    vm = system.vm()
    assert vm.store is system.heap


def test_doctest_example():
    import doctest

    import repro.lang.system as module

    results = doctest.testmod(module)
    assert results.failed == 0


def test_reflect_doctest():
    import doctest

    import repro.reflect as module

    results = doctest.testmod(module)
    assert results.failed == 0
