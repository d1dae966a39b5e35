"""A persistent database application across sessions.

Run:  python examples/persistent_database.py [store-file]

Shows the full open-database-environment story on one store file:

* session 1 creates relations and indexes, compiles and persists the
  application module (code, PTML and data live in the same store);
* session 2 reopens the image cold: loads the module, runs queries,
  reflectively re-optimizes them against the store's indexes, and persists
  the optimizer's derived attributes on the record of the optimized code's
  PTML hash;
* session 3 demonstrates durability of all three kinds of state — data,
  code, and optimization metadata.
"""

import os
import sys
import tempfile

from repro import TycoonSystem
from repro.analysis.facts import FactStore
from repro.query import Relation, optimize_query_function
from repro.reflect import DYNAMIC_CONFIG, config_fingerprint
from repro.store.heap import ObjectHeap, Transaction
from repro.store.ptml import ptml_key

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
    loans = heap.load_root("data:loans")
    system.register_data_module("db", {"loans": loans})
    system.load("library")

    slow = system.call("library", "by_member", [42])
    print(f"  by_member(42): {len(slow.value)} loans, "
          f"{slow.instructions} instructions (full scan)")

    result = optimize_query_function(system, "library", "by_member")
    fast = system.vm().call(result.closure, [42])
    assert fast.value.to_tuples() == slow.value.to_tuples()
    print(f"  after runtime optimization: {fast.instructions} instructions "
          f"(index-select fired {result.query_stats.count('index-select')}x)")

    facts = FactStore()
    facts.attach(heap)
    key = ptml_key(system.closure("library", "by_member").code, heap)
    with Transaction(heap):
        facts.annotate(key, "library.by_member", config_fingerprint(DYNAMIC_CONFIG),
                       result.attributes)
        facts.flush(heap)
    print(f"  persisted derived attributes for PTML {key[:12]}: savings "
          f"{result.cost_before - result.cost_after}")
    heap.close()


def session_three(path: str) -> None:
    print("— session 3: everything survived")
    heap = ObjectHeap(path)
    system = TycoonSystem(heap=heap)
    loans = heap.load_root("data:loans")
    system.register_data_module("db", {"loans": loans})
    system.load("library")

    overdue = system.call("library", "overdue", [55])
    print(f"  overdue(55): {len(overdue.value)} loans")

    facts = FactStore()
    facts.attach(heap)
    record = facts.lookup(ptml_key(system.closure("library", "by_member").code, heap))
    attrs = record.attributes[config_fingerprint(DYNAMIC_CONFIG)]
    print(f"  optimizer metadata from session 2: cost {attrs['cost_before']} -> "
          f"{attrs['cost_after']}")
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
