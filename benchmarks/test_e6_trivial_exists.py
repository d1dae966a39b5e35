"""E6 — §4.2's trivial-exists rewrite.

When the range variable does not occur in the predicate,
``∃x∈R: p ≡ p ∧ R≠∅``: O(|R|) predicate evaluations become an O(1)
emptiness test plus one predicate evaluation.  Regenerates: time and
instruction counts across a relation-size sweep — the rewritten query's
cost must be flat in |R| while the original grows linearly.
"""

import pytest

from repro.lang import TycoonSystem
from repro.query import Relation
from repro.reflect import optimize_result
from repro.store.heap import ObjectHeap

SIZES = [100, 1000, 10_000]

SRC = """
module q export anybig
import db
type Row = tuple v: Int end
let anybig(limit: Int): Bool =
  exists r : Row in db.data : limit > 500
end
"""


def _build(n):
    heap = ObjectHeap()
    system = TycoonSystem(heap=heap)
    data = Relation("data", ["v"])
    for i in range(n):
        data.insert((i,))
    heap.store(data)
    system.register_data_module("db", {"data": data})
    system.compile(SRC)
    result = optimize_result(system, "q", "anybig")
    assert result.query_stats.count("trivial-exists") == 1
    return system, result


@pytest.fixture(scope="module")
def systems():
    return {n: _build(n) for n in SIZES}


@pytest.mark.parametrize("n", SIZES)
def test_e6_original(benchmark, systems, n):
    system, _ = systems[n]
    closure = system.closure("q", "anybig")
    vm = system.vm()
    assert benchmark(lambda: vm.call(closure, [100]).value) is False


@pytest.mark.parametrize("n", SIZES)
def test_e6_rewritten(benchmark, systems, n):
    system, result = systems[n]
    vm = system.vm()
    assert benchmark(lambda: vm.call(result.closure, [100]).value) is False


def test_e6_report(once, systems):
    once(lambda: None)
    print("\nE6 — trivial-exists: predicate evaluations per query")
    originals = {}
    rewrittens = {}
    for n in SIZES:
        system, result = systems[n]
        slow = system.vm().call(system.closure("q", "anybig"), [100])
        fast = system.vm().call(result.closure, [100])
        assert slow.value is fast.value is False
        originals[n] = slow.instructions
        rewrittens[n] = fast.instructions
        print(
            f"  |R|={n:>6}: original {slow.instructions:>8} instr, "
            f"rewritten {fast.instructions:>4} instr"
        )
    # original grows linearly with |R|
    assert originals[10_000] > originals[100] * 20
    # rewritten is O(1): flat across two orders of magnitude
    assert rewrittens[10_000] == rewrittens[100]
    # crossover: even at the smallest size the rewrite already wins
    assert rewrittens[100] < originals[100]
