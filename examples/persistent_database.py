"""A persistent database application across sessions.

Run:  python examples/persistent_database.py [store-file]

Shows the full open-database-environment story on one store file:

* session 1 creates relations and indexes, binds them in the data module
  ``db``, compiles and persists the application module (code, PTML, data
  and the modules that name it live in the same store);
* session 2 reopens the image cold: loads the module, runs queries,
  reflectively re-optimizes one against the store's indexes, and lets
  profile-guided optimization commit a variant of the hot function — the
  same index-select plan, as optimized PTML with the optimizer's derived
  attributes — into the module's record;
* session 3 demonstrates durability of all three kinds of state — data,
  code, and optimized code with its metadata.
"""

import os
import sys
import tempfile

from repro import TycoonSystem
from repro.obs.profile import profile_call
from repro.query import Relation
from repro.reflect import optimize_hot, optimize_result
from repro.store.heap import ObjectHeap, Transaction

APP_SRC = """
module library export overdue by_member
import db
type Loan = tuple member: Int, title: String, days: Int end
let overdue(limit: Int) =
  select l from db.loans as l : Loan where l.days > limit end
let by_member(m: Int) =
  select l from db.loans as l : Loan where l.member == m end
end
"""


def session_one(path: str) -> None:
    print("— session 1: create data, compile and persist the application")
    heap = ObjectHeap(path)
    system = TycoonSystem(heap=heap)

    loans = Relation("loans", ["member", "title", "days"])
    for i in range(2000):
        loans.insert((i % 97, f"book-{i}", (i * 13) % 60))
    loans.create_index("member")
    with Transaction(heap):
        oid = heap.store(loans)
        heap.set_root("data:loans", oid)
        system.register_data_module("db", {"loans": loans})
        system.compile(APP_SRC)
        system.persist("library")
    print(f"  stored {len(loans)} loans (indexed on member) and module 'library'")
    heap.close()


def session_two(path: str) -> None:
    print("— session 2: cold start, query, re-optimize against the live index")
    heap = ObjectHeap(path)
    system = TycoonSystem(heap=heap)
    system.load("library")

    slow, profile = profile_call(system, "library", "by_member", [42])
    print(f"  by_member(42): {len(slow.value)} loans, "
          f"{slow.instructions} instructions (full scan)")

    result = optimize_result(system, "library", "by_member")
    fast = system.vm().call(result.closure, [42])
    assert fast.value.to_tuples() == slow.value.to_tuples()
    print(f"  after runtime optimization: {fast.instructions} instructions "
          f"(index-select fired {result.query_stats.count('index-select')}x)")

    with Transaction(heap):
        report = optimize_hot(system, profile, top=1)
    pgo = report.results["library.by_member"]
    print(f"  committed a variant of library.by_member: savings "
          f"{pgo.cost_before - pgo.cost_after}")
    heap.close()


def session_three(path: str) -> None:
    print("— session 3: everything survived")
    heap = ObjectHeap(path)
    system = TycoonSystem(heap=heap)
    system.load("library")

    overdue = system.call("library", "overdue", [55])
    print(f"  overdue(55): {len(overdue.value)} loans")

    attrs = system.compiled["library"].functions["by_member"].variant.attributes
    fast = system.call("library", "by_member", [42])
    print(f"  by_member(42) runs session 2's variant: {fast.instructions} "
          f"instructions, cost {attrs['cost_before']} -> {attrs['cost_after']}")
    heap.close()


def main() -> None:
    if len(sys.argv) > 1:
        path = sys.argv[1]
        cleanup = False
    else:
        path = os.path.join(tempfile.mkdtemp(), "library.tyc")
        cleanup = True
    print(f"store image: {path}\n")
    session_one(path)
    session_two(path)
    session_three(path)
    if cleanup:
        os.remove(path)
    print("\nOK")


if __name__ == "__main__":
    main()
