"""Tests for transitive reachability collection (repro.reflect.reach)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.syntax import Abs, Oid
from repro.lang import TycoonSystem
from repro.machine.runtime import TmlArray
from repro.reflect.reach import (
    ReflectError,
    collect_entities,
    strongly_connected_components,
    term_of_closure,
)
from repro.store.heap import ObjectHeap


@pytest.fixture
def system():
    return TycoonSystem()


def test_term_of_closure_roundtrips(system):
    system.compile("module m export f let f(x: Int): Int = x + 1 end")
    closure = system.closure("m", "f")
    term = term_of_closure(closure, system.heap)
    assert isinstance(term, Abs)
    assert len(term.params) == 3  # x, ce, cc


def test_missing_ptml_rejected(system):
    system.compile("module m export f let f(x: Int): Int = x end")
    closure = system.closure("m", "f")
    closure.code.ptml_ref = None  # code built outside the compiler
    with pytest.raises(ReflectError, match="no PTML"):
        term_of_closure(closure, system.heap)


def test_collects_library_entities(system):
    system.compile("module m export f let f(x: Int): Int = x * 2 + 1 end")
    graph = collect_entities(system.closure("m", "f"), system.heap)
    names = {e.closure.code.name for e in graph.entities.values()}
    assert "m.f" in names
    assert "int.mul" in names and "int.add" in names


def test_collects_sibling_recursion(system):
    system.compile(
        """
        module m export f
        let f(n: Int): Int = if n == 0 then 0 else g(n - 1) end
        let g(n: Int): Int = if n == 0 then 1 else f(n - 1) end
        end
        """
    )
    graph = collect_entities(system.closure("m", "f"), system.heap)
    names = {e.closure.code.name for e in graph.entities.values()}
    assert {"m.f", "m.g"} <= names

    # the dependency graph has the f <-> g cycle
    dep = graph.dependency_graph()
    cycles = [scc for scc in strongly_connected_components(dep) if len(scc) > 1]
    assert cycles


def test_simple_values_become_literals(system):
    # a link-time binding to a simple value (module-local constants are
    # already inlined by the front end; imported ones bind at link time)
    system.register_data_module("cfg", {"k": 7})
    system.compile(
        """
        module m export f
        import cfg
        let f(x: Int): Int = x + cfg.k
        end
        """
    )
    graph = collect_entities(system.closure("m", "f"), system.heap)
    target = graph.entities[graph.target_key]
    lit_bindings = [b for b in target.bindings.values() if b.kind == "lit"]
    assert any(b.value == 7 for b in lit_bindings)


def test_store_objects_become_oid_literals(tmp_path):
    heap = ObjectHeap(str(tmp_path / "h.tyc"))
    system = TycoonSystem(heap=heap)
    data = TmlArray([1, 2, 3])
    heap.store(data)
    system.register_data_module("db", {"data": data})
    system.compile(
        """
        module m export f
        import db
        let f(i: Int): Int = db.data[i]
        end
        """
    )
    graph = collect_entities(system.closure("m", "f"), system.heap)
    target = graph.entities[graph.target_key]
    lit_values = [
        b.value for b in target.bindings.values() if b.kind == "lit"
    ]
    assert any(isinstance(v, Oid) for v in lit_values)
    heap.close()


def test_unstored_objects_become_holes(system):
    data = TmlArray([1, 2, 3])  # never stored in the heap
    system.register_data_module("db", {"data": data})
    system.compile(
        """
        module m export f
        import db
        let f(i: Int): Int = db.data[i]
        end
        """
    )
    graph = collect_entities(system.closure("m", "f"), system.heap)
    # the in-memory heap interns objects on store() only; register_data_module
    # does not store, so the relation value stays a hole
    assert graph.holes or any(
        b.kind == "lit" for e in graph.entities.values() for b in e.bindings.values()
    )


def test_entity_limit_bounds_collection(system):
    system.compile("module m export f let f(x: Int): Int = x * 2 + 1 - 3 end")
    graph = collect_entities(system.closure("m", "f"), system.heap, max_entities=2)
    assert len(graph.entities) <= 2
    assert graph.holes  # uncollected procedures degrade to holes


def test_supply_above_all_uids(system):
    system.compile("module m export f let f(x: Int): Int = x + 1 end")
    graph = collect_entities(system.closure("m", "f"), system.heap)
    from repro.core.syntax import max_uid

    top = max(max_uid(e.term) for e in graph.entities.values())
    assert graph.supply.peek() > top


# ---------------------------------------------------------------------------
# Tarjan against the definition: mutual reachability, dependencies first
# ---------------------------------------------------------------------------


@st.composite
def digraphs(draw):
    """node -> successors over a shuffled set of labels (self-loops and
    repeated edges included)."""
    labels = draw(st.permutations(range(draw(st.integers(0, 12)))))
    graph = {node: [] for node in labels}
    if labels:
        edge = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
        for source, target in draw(st.lists(edge, max_size=3 * len(labels))):
            graph[source].append(target)
    return graph


def _reachable(graph, start):
    seen, todo = {start}, [start]
    while todo:
        for successor in graph[todo.pop()]:
            if successor not in seen:
                seen.add(successor)
                todo.append(successor)
    return seen


@given(digraphs())
@settings(max_examples=300, deadline=None)
def test_tarjan_matches_mutual_reachability(graph):
    components = strongly_connected_components(graph)
    reach = {node: _reachable(graph, node) for node in graph}
    # a partition of the nodes ...
    members = [node for component in components for node in component]
    assert sorted(members) == sorted(graph)
    # ... into the classes of mutual reachability
    for component in components:
        for node in component:
            assert set(component) == {other for other in reach[node] if node in reach[other]}
    # every edge points at its own component or at one listed earlier
    position = {node: i for i, component in enumerate(components) for node in component}
    for node, successors in graph.items():
        for successor in successors:
            assert position[successor] <= position[node]
