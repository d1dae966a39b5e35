"""Full Fig. 3 lifecycle test: compile → persist → reload → re-optimize → run.

Exercises the interaction between compilation, optimization and evaluation
the paper's architecture diagram shows: PTML attached at compile time, the
reflective optimizer invoked at runtime in a *fresh* session against the
persistent store, and the regenerated code linked into the running image.
"""

from repro.lang import TycoonSystem
from repro.reflect import (
    cached_optimize,
    load_attributes,
    optimize_closure,
    optimize_result,
    record_attributes,
)
from repro.reflect.optimize import DYNAMIC_CONFIG
from repro.store.heap import ObjectHeap

SRC = """
module geo export area
let area(w: Int, h: Int): Int = w * h + w + h
end
"""


def test_fig3_lifecycle(tmp_path):
    path = str(tmp_path / "image.tyc")

    # session 1: compile, persist, commit
    heap = ObjectHeap(path)
    system = TycoonSystem(heap=heap)
    system.compile(SRC)
    system.persist("geo")
    system.commit()
    assert system.call("geo", "area", [3, 4]).value == 19
    heap.close()

    # session 2: reload from the store, reflect-optimize, execute
    heap2 = ObjectHeap(path)
    system2 = TycoonSystem(heap=heap2)
    system2.load("geo")
    slow = system2.call("geo", "area", [3, 4])
    assert slow.value == 19

    result = optimize_result(system2, "geo", "area")
    fast = system2.vm().call(result.closure, [3, 4])
    assert fast.value == 19
    assert fast.instructions < slow.instructions
    heap2.close()


def test_reoptimization_of_optimized_code(tmp_path):
    """The regenerated code carries PTML, so it can be optimized again."""
    heap = ObjectHeap(str(tmp_path / "i.tyc"))
    system = TycoonSystem(heap=heap)
    system.compile(SRC)
    first = optimize_result(system, "geo", "area")
    second = optimize_closure(
        first.closure, heap=system.heap, registry=system.registry
    )
    assert system.vm().call(second.closure, [3, 4]).value == 19
    heap.close()


class TestDerivedAttributes:
    def test_attributes_persisted(self, tmp_path):
        heap = ObjectHeap(str(tmp_path / "a.tyc"))
        system = TycoonSystem(heap=heap)
        system.compile(SRC)
        result = optimize_result(system, "geo", "area")
        attrs = record_attributes(heap, "geo.area", DYNAMIC_CONFIG, result)
        assert attrs.savings > 0

        loaded = load_attributes(heap, "geo.area", DYNAMIC_CONFIG)
        assert loaded == attrs
        heap.close()

    def test_attributes_survive_commit(self, tmp_path):
        path = str(tmp_path / "b.tyc")
        heap = ObjectHeap(path)
        system = TycoonSystem(heap=heap)
        system.compile(SRC)
        result = optimize_result(system, "geo", "area")
        record_attributes(heap, "geo.area", DYNAMIC_CONFIG, result)
        heap.commit()
        heap.close()

        heap2 = ObjectHeap(path)
        loaded = load_attributes(heap2, "geo.area", DYNAMIC_CONFIG)
        assert loaded is not None
        assert loaded.function == "geo.area"
        heap2.close()

    def test_cached_optimize_reuses_results(self, tmp_path):
        heap = ObjectHeap(str(tmp_path / "c.tyc"))
        system = TycoonSystem(heap=heap)
        system.compile(SRC)
        closure = system.closure("geo", "area")
        first = cached_optimize(heap, closure, registry=system.registry)
        second = cached_optimize(heap, closure, registry=system.registry)
        assert first is second  # session cache hit
        heap.close()

    def test_cached_optimize_ignores_an_entry_for_a_reused_id(self, tmp_path):
        heap = ObjectHeap(str(tmp_path / "e.tyc"))
        system = TycoonSystem(heap=heap)
        system.compile(SRC)
        system.compile(SRC.replace("geo", "box").replace("w + h", "w - h"))
        area, box = system.closure("geo", "area"), system.closure("box", "area")
        cache = {}
        first = cached_optimize(heap, area, registry=system.registry, _cache=cache)
        # CPython hands a dead object's id to a new one: file geo.area's
        # entry under box.area's id, as if box.area had reused it
        ((_, fingerprint), entry), = cache.items()
        cache = {(id(box), fingerprint): entry}
        second = cached_optimize(heap, box, registry=system.registry, _cache=cache)
        assert second is not first
        assert system.vm().call(second.closure, [3, 4]).value == 11
        heap.close()

    def test_missing_attributes_is_none(self, tmp_path):
        heap = ObjectHeap(str(tmp_path / "d.tyc"))
        assert load_attributes(heap, "nope", DYNAMIC_CONFIG) is None
        heap.close()
