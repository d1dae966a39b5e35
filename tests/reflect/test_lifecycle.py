"""Full Fig. 3 lifecycle test: compile → persist → reload → re-optimize → run.

Exercises the interaction between compilation, optimization and evaluation
the paper's architecture diagram shows: PTML attached at compile time, the
reflective optimizer invoked at runtime in a *fresh* session against the
persistent store, and the regenerated code linked into the running image.
"""

from repro.lang import TycoonSystem
from repro.obs.profile import profile_call
from repro.reflect import optimize_closure, optimize_hot, optimize_result
from repro.reflect.optimize import DYNAMIC_CONFIG, config_fingerprint
from repro.store.heap import ObjectHeap

SRC = """
module geo export area
let area(w: Int, h: Int): Int = w * h + w + h
end
"""

FINGERPRINT = config_fingerprint(DYNAMIC_CONFIG)


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
    """§4.1's derived attributes live on the variant they describe, in the
    optimized function's module record."""

    def _optimized(self, heap, source=SRC):
        system = TycoonSystem(heap=heap)
        system.compile(source)
        _, profile = profile_call(system, "geo", "area", [3, 4])
        report = optimize_hot(system, profile, top=1)
        return system, report.results["geo.area"]

    def test_attributes_persisted(self, tmp_path):
        heap = ObjectHeap(str(tmp_path / "a.tyc"))
        system, result = self._optimized(heap)
        variant = system.load("geo").functions["area"].variant
        assert variant.fingerprint == FINGERPRINT
        assert variant.attributes["cost_before"] > variant.attributes["cost_after"]
        assert variant.attributes == result.attributes
        heap.close()

    def test_attributes_survive_commit(self, tmp_path):
        path = str(tmp_path / "b.tyc")
        heap = ObjectHeap(path)
        _, result = self._optimized(heap)
        heap.commit()
        heap.close()

        heap2 = ObjectHeap(path)
        variant = TycoonSystem(heap=heap2).load("geo").functions["area"].variant
        assert variant.attributes == result.attributes
        heap2.close()

    def test_a_redefined_function_does_not_inherit_attributes(self, tmp_path):
        heap = ObjectHeap(str(tmp_path / "e.tyc"))
        system, _ = self._optimized(heap)
        redefined = system.compile(SRC.replace("w + h", "w - h"))
        system.persist("geo")
        assert redefined.functions["area"].variant is None
        assert system.load("geo").functions["area"].variant is None
        heap.close()

    def test_missing_attributes_is_none(self, tmp_path):
        heap = ObjectHeap(str(tmp_path / "d.tyc"))
        system = TycoonSystem(heap=heap)
        system.compile(SRC)
        system.persist("geo")
        assert system.load("geo").functions["area"].variant is None
        heap.close()
