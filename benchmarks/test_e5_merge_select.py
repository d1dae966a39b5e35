"""E5 — §4.2's merge-select rewrite: σp(σq(R)) → σp∧q(R).

One scan instead of two and no temporary relation.  Regenerates: wall time,
scan counts and temporary-row counts across a relation-size sweep, before
and after the rewrite.
"""

import pytest

from repro.lang import TycoonSystem
from repro.query import Relation
from repro.reflect import optimize_result
from repro.store.heap import ObjectHeap

SIZES = [300, 3000]

SRC = """
module q export stacked
import db
type Row = tuple id: Int, v: Int end
let stacked() =
  select b from
    (select a from db.data as a : Row where a.v % 2 == 0 end)
    as b : Row
  where b.v % 3 == 0 end
end
"""


def _build(n):
    heap = ObjectHeap()
    system = TycoonSystem(heap=heap)
    data = Relation("data", ["id", "v"])
    for i in range(n):
        data.insert((i, i % 97))
    heap.store(data)
    system.register_data_module("db", {"data": data})
    system.compile(SRC)
    return system, data


@pytest.fixture(scope="module", params=SIZES)
def setup(request):
    system, data = _build(request.param)
    result = optimize_result(system, "q", "stacked")
    assert result.query_stats.count("merge-select") == 1
    return request.param, system, data, result


def test_e5_nested(benchmark, setup):
    n, system, data, _ = setup
    original = system.closure("q", "stacked")
    vm = system.vm()
    out = benchmark(lambda: vm.call(original, []).value)
    assert all(t[1] % 6 == 0 for t in out.to_tuples())


def test_e5_merged(benchmark, setup):
    n, system, data, result = setup
    vm = system.vm()
    out = benchmark(lambda: vm.call(result.closure, []).value)
    assert all(t[1] % 6 == 0 for t in out.to_tuples())


def test_e5_report(once, setup):
    once(lambda: None)
    n, system, data, result = setup

    data.scans = 0
    slow = system.vm().call(system.closure("q", "stacked"), [])
    scans_nested = data.scans

    data.scans = 0
    fast = system.vm().call(result.closure, [])
    scans_merged = data.scans

    # temporary rows: the nested plan materializes the inner selection
    inner_rows = sum(1 for t in data.to_tuples() if t[1] % 2 == 0)
    print(
        f"\nE5 (n={n}) — nested: base scans {scans_nested}, temp rows "
        f"{inner_rows}; merged: base scans {scans_merged}, temp rows 0"
    )
    assert slow.value.to_tuples() == fast.value.to_tuples()
    assert scans_merged == 1
    assert scans_nested == 1  # nested also scans the base once; its second
    # scan hits the *temporary* relation, which the merged plan never builds
