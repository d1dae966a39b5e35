"""E9 — §4.2: query optimization must be delayed until runtime.

"Since the optimization of query expressions depends on runtime bindings
(for example, knowledge about index structures), we have to delay query
optimizations until runtime."

Regenerates: point-query cost on an indexed vs unindexed relation, across a
size sweep.  The statically compiled plan must scan regardless of the index
(the compiler cannot see it); the runtime-optimized plan uses the index and
becomes O(log n / 1), with the win growing with |R|.
"""

import pytest

from repro.lang import TycoonSystem
from repro.query import Relation
from repro.reflect import optimize_result
from repro.store.heap import ObjectHeap

SIZES = [200, 2000, 20_000]

SRC = """
module q export byid
import db
type Row = tuple id: Int, v: Int end
let byid(k: Int) =
  select r from db.data as r : Row where r.id == k end
end
"""


def _build(n, indexed):
    heap = ObjectHeap()
    system = TycoonSystem(heap=heap)
    data = Relation("data", ["id", "v"])
    for i in range(n):
        data.insert((i, i * 3))
    if indexed:
        data.create_index("id")
    heap.store(data)
    system.register_data_module("db", {"data": data})
    system.compile(SRC)
    return system, data


@pytest.fixture(scope="module")
def systems():
    return {
        (n, indexed): _build(n, indexed)
        for n in SIZES
        for indexed in (False, True)
    }


@pytest.mark.parametrize("n", SIZES)
def test_e9_static_plan_scans(benchmark, systems, n):
    system, _ = systems[(n, True)]
    closure = system.closure("q", "byid")
    vm = system.vm()
    out = benchmark(lambda: vm.call(closure, [n // 2]).value)
    assert out.to_tuples() == [(n // 2, (n // 2) * 3)]


@pytest.mark.parametrize("n", SIZES)
def test_e9_runtime_plan_uses_index(benchmark, systems, n):
    system, _ = systems[(n, True)]
    result = optimize_result(system, "q", "byid")
    assert result.query_stats.count("index-select") == 1
    vm = system.vm()
    out = benchmark(lambda: vm.call(result.closure, [n // 2]).value)
    assert out.to_tuples() == [(n // 2, (n // 2) * 3)]


def test_e9_report(once, systems):
    once(lambda: None)
    print("\nE9 — point query: static plan vs runtime-optimized plan (instr)")
    gains = {}
    for n in SIZES:
        system, data = systems[(n, True)]
        slow = system.vm().call(system.closure("q", "byid"), [n // 2])
        result = optimize_result(system, "q", "byid")
        fast = system.vm().call(result.closure, [n // 2])
        assert slow.value.to_tuples() == fast.value.to_tuples()
        gains[n] = slow.instructions / fast.instructions
        print(
            f"  |R|={n:>6}: static {slow.instructions:>8}, "
            f"runtime-optimized {fast.instructions:>4} "
            f"({gains[n]:.0f}x)"
        )
    # the win grows with relation size (O(n) vs O(1))
    assert gains[20_000] > gains[200] * 10


def test_e9_no_index_no_rewrite(once, systems):
    once(lambda: None)
    system, _ = systems[(2000, False)]
    result = optimize_result(system, "q", "byid")
    # runtime binding says: no index — the rewrite correctly does not fire
    assert result.query_stats.count("index-select") == 0
    out = system.vm().call(result.closure, [7])
    assert out.value.to_tuples() == [(7, 21)]
