"""Code shipping between store images (paper section 6 outlook).

Run:  python examples/code_shipping.py

The paper closes by pointing at "code shipping in distributed systems
[Mathiske et al. 1995]" as another application of uniform persistent code.
This example plays it out: a procedure compiled in image A is shipped — as
its PTML, the mobile representation — to image B, which re-optimizes it
against *its own* runtime bindings (a different, indexed relation) before
executing it.  The same code runs with a full scan in A and an index scan
in B.
"""

from repro import TycoonSystem, pretty
from repro.query import Relation
from repro.reflect import optimize_result
from repro.reflect.reach import term_of_closure
from repro.store.heap import ObjectHeap
from repro.store.ptml import decode_ptml, encode_ptml

SOURCE = """
module finder export by_key
import db
type Row = tuple key: Int, payload: Int end
let by_key(k: Int) =
  select r from db.data as r : Row where r.key == k end
end
"""


def build_image(name: str, n: int, indexed: bool):
    heap = ObjectHeap()
    system = TycoonSystem(heap=heap)
    data = Relation("data", ["key", "payload"])
    for i in range(n):
        data.insert((i, i * 11))
    if indexed:
        data.create_index("key")
    heap.store(data)
    system.register_data_module("db", {"data": data})
    print(f"image {name}: {n} rows, index={'yes' if indexed else 'no'}")
    return system, data


def main() -> None:
    # image A: small, unindexed; the code's birthplace
    system_a, _ = build_image("A", 500, indexed=False)
    system_a.compile(SOURCE)
    result_a = system_a.call("finder", "by_key", [42])
    print(f"  A runs by_key(42) with a scan: {result_a.instructions} instructions")

    # ship: PTML is the wire format for code
    closure = system_a.closure("finder", "by_key")
    term = term_of_closure(closure, system_a.heap)
    wire = encode_ptml(term)
    print(f"\nshipping finder.by_key as PTML: {len(wire.data)} bytes\n")

    # image B: large, indexed; receives and re-optimizes against local bindings
    system_b, data_b = build_image("B", 50_000, indexed=True)
    received = decode_ptml(wire)
    assert received.term == term  # byte-exact code mobility

    system_b.compile(SOURCE)  # (re-link the shipped term against B's bindings)
    optimized = optimize_result(system_b, "finder", "by_key")
    print(
        f"  B re-optimizes against its own store: index-select fired "
        f"{optimized.query_stats.count('index-select')}x"
    )
    print("  B's plan: " + pretty(optimized.term).split("\n")[1].strip())

    result_b = system_b.vm().call(optimized.closure, [42])
    print(
        f"  B runs by_key(42) via the index: {result_b.instructions} instructions "
        f"(A needed {result_a.instructions} on a store 100x smaller)"
    )
    assert result_b.value.to_tuples() == [(42, 462)]


if __name__ == "__main__":
    main()
