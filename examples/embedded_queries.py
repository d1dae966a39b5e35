"""Integrated program and query optimization (paper section 4.2).

Run:  python examples/embedded_queries.py

Builds a small employee database in the persistent store, compiles TL code
with *embedded declarative queries* (programming-language expressions in the
where-clause, correlation variables, nested queries), and shows the three
§4.2 rewrites firing against runtime bindings:

* merge-select  — σp(σq(R)) → σp∧q(R): one scan, no temporary relation;
* index-select  — equality predicate + runtime index → indexscan;
* trivial-exists — range-variable-free predicate → O(1) emptiness test.
"""

from repro import TycoonSystem, pretty
from repro.query import Relation
from repro.reflect import optimize_result
from repro.store.heap import ObjectHeap

SOURCE = """
module payroll export wellpaid_seniors by_badge any_budget
import db
type Emp = tuple badge: Int, name: String, age: Int, salary: Int end

-- nested queries: the classic merge-select shape
let wellpaid_seniors() =
  select e from
    (select p from db.emps as p : Emp where p.salary >= 5000 end)
    as e : Emp
  where e.age >= 60 end

-- equality on an indexed field: becomes an index scan at runtime
let by_badge(k: Int) =
  select e from db.emps as e : Emp where e.badge == k end

-- the quantified predicate never mentions e: trivial-exists
let any_budget(budget: Int): Bool =
  exists e : Emp in db.emps : budget > 100000
end
"""


def main() -> None:
    heap = ObjectHeap()
    system = TycoonSystem(heap=heap)

    emps = Relation("emps", ["badge", "name", "age", "salary"])
    for i in range(5000):
        emps.insert((i, f"emp{i}", 20 + (i * 13) % 50, 3000 + (i * 7) % 4000))
    emps.create_index("badge")
    heap.store(emps)
    system.register_data_module("db", {"emps": emps})
    system.compile(SOURCE)

    print(f"database: {len(emps)} employees, index on 'badge'\n")

    # --- merge-select -----------------------------------------------------
    slow = system.call("payroll", "wellpaid_seniors", [])
    merged = optimize_result(system, "payroll", "wellpaid_seniors")
    fast = system.vm().call(merged.closure, [])
    assert slow.value.to_tuples() == fast.value.to_tuples()
    print(
        f"merge-select fired {merged.query_stats.count('merge-select')}x: "
        f"{len(fast.value)} wellpaid seniors, one scan, no temporary relation"
    )

    # --- index-select ------------------------------------------------------
    point = optimize_result(system, "payroll", "by_badge")
    print(
        f"index-select fired {point.query_stats.count('index-select')}x; "
        "optimized plan:"
    )
    print("  " + pretty(point.term).replace("\n", "\n  "))
    slow_point = system.call("payroll", "by_badge", [4321])
    fast_point = system.vm().call(point.closure, [4321])
    assert slow_point.value.to_tuples() == fast_point.value.to_tuples()
    print(
        f"  by_badge(4321): {slow_point.instructions} -> "
        f"{fast_point.instructions} instructions\n"
    )

    # --- trivial-exists -----------------------------------------------------
    exists_q = optimize_result(system, "payroll", "any_budget")
    slow_e = system.call("payroll", "any_budget", [50_000])
    fast_e = system.vm().call(exists_q.closure, [50_000])
    assert slow_e.value is fast_e.value is False
    print(
        f"trivial-exists fired {exists_q.query_stats.count('trivial-exists')}x: "
        f"any_budget scans 0 rows instead of {len(emps)} "
        f"({slow_e.instructions} -> {fast_e.instructions} instructions)"
    )


if __name__ == "__main__":
    main()
