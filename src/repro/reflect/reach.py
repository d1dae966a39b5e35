"""Transitive reachability over persistent code (paper section 4.1).

"It is rather straightforward to collect (via transitive reachability) all
declarations which contribute to a given TML term (for example an embedded
query) into a single scope (represented again as a TML term) and to invoke
the TML optimizer to generate a globally optimized TML term."

:func:`collect_entities` walks the closure graph from a target procedure:
every reachable procedure with attached PTML becomes an *entity* (its TML
term will be spliced into the combined scope); simple values become
literals; store objects become OID literals; anything else stays a *hole*
bound at instantiation time.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Any

from repro.core.names import Name, NameSupply
from repro.core.syntax import Char, Oid, Term, Unit, max_uid
from repro.machine.isa import VMClosure
from repro.store.ptml import decode_ptml
from repro.store.serialize import Blob

__all__ = [
    "ReflectError",
    "Entity",
    "EntityGraph",
    "collect_entities",
    "strongly_connected_components",
    "term_of_closure",
]


class ReflectError(Exception):
    """Reflection failed (no PTML, depth exhausted, malformed closure)."""


def term_of_closure(closure: VMClosure, heap=None, allow_decompile: bool = False) -> Term:
    """Recover the TML term of a compiled procedure from its PTML reference.

    With ``allow_decompile=True`` a procedure *without* PTML is reconstructed
    from its executable code instead (the §6 future-work technique,
    :mod:`repro.reflect.decompile`) — not isomorphic to the original term,
    but semantically equivalent and fully optimizable.
    """
    ref = closure.code.ptml_ref
    if ref is None:
        if allow_decompile:
            from repro.reflect.decompile import decompile_code

            return decompile_code(closure.code)
        raise ReflectError(f"procedure {closure.code.name!r} carries no PTML")
    if isinstance(ref, Oid):
        if heap is None:
            raise ReflectError("PTML reference is an OID but no heap was supplied")
        ref = heap.load(ref)
    if not isinstance(ref, Blob):
        raise ReflectError(f"unexpected PTML reference {ref!r}")
    return decode_ptml(ref).term


@dataclass
class Entity:
    """One procedure spliced into the combined optimization scope."""

    name: Name
    closure: VMClosure
    term: Term
    #: free Name of `term` -> how it binds (see _Binding kinds below)
    bindings: dict[Name, "Binding"] = field(default_factory=dict)


@dataclass(frozen=True)
class Binding:
    """How one free variable of an entity term is satisfied.

    kinds: ``lit`` (substituted literal), ``entity`` (reference to another
    spliced procedure), ``hole`` (left free; bound at instantiation).
    """

    kind: str
    value: Any = None  # Lit payload for lit; Entity key for entity; runtime value for hole
    name: Name | None = None  # the shared hole / entity name


@dataclass
class EntityGraph:
    """The result of reachability collection."""

    target_key: int
    entities: dict[int, Entity]  # keyed by id(closure)
    #: hole Name -> runtime value to bind at instantiation
    holes: dict[Name, Any]
    supply: NameSupply

    def dependency_graph(self) -> dict[int, list[int]]:
        """Entity key -> the keys of the entities it references (u depends
        on v), every entity a node, in collection order."""
        return {
            key: [b.value for b in entity.bindings.values() if b.kind == "entity"]
            for key, entity in self.entities.items()
        }


def strongly_connected_components(
    graph: dict[Hashable, list[Hashable]],
) -> list[list[Hashable]]:
    """Tarjan's algorithm over ``graph`` (node -> successors, each a node).

    Returns the strongly connected components, each listed after every
    component it has an edge into: dependencies first.  Iterative, so the
    depth of the graph is not bounded by Python's recursion limit.
    """
    index: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    stack: list[Hashable] = []
    on_stack: set[Hashable] = set()
    components: list[list[Hashable]] = []
    # the DFS path: (node, its successors not yet looked at)
    work: list = []

    def visit(node: Hashable) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(graph[node])))

    for root in graph:
        if root in index:
            continue
        visit(root)
        while work:
            node, successors = work[-1]
            for successor in successors:
                if successor not in index:
                    visit(successor)
                    break
                if successor in on_stack:
                    low[node] = min(low[node], index[successor])
            else:  # every successor done: node is finished
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while not component or component[-1] != node:
                        component.append(stack.pop())
                        on_stack.discard(component[-1])
                    components.append(component)
    return components


_SIMPLE_TYPES = (bool, int, str, Char, Unit)


def collect_entities(
    target: VMClosure,
    heap=None,
    max_entities: int = 400,
    max_depth: int = 16,
) -> EntityGraph:
    """Collect the target and everything reachable through closure records.

    Depth and entity-count limits keep pathological graphs bounded; anything
    beyond the limits degrades to a hole (still correct, just not inlined).
    """
    terms: dict[int, Term] = {}
    closures: dict[int, VMClosure] = {}
    pending: list[tuple[VMClosure, int]] = [(target, 0)]
    order: list[int] = []

    while pending:
        closure, depth = pending.pop(0)
        key = id(closure)
        if key in terms:
            continue
        terms[key] = term_of_closure(closure, heap)
        closures[key] = closure
        order.append(key)
        if depth >= max_depth:
            continue
        for value in closure.free:
            if (
                isinstance(value, VMClosure)
                and id(value) not in terms
                and value.code.ptml_ref is not None
                and len(terms) + len(pending) < max_entities
            ):
                pending.append((value, depth + 1))

    # One shared supply above every uid in every collected term keeps the
    # unique binding rule intact across splices.
    top = max((max_uid(term) for term in terms.values()), default=-1)
    supply = NameSupply(start=top + 1)

    entity_names: dict[int, Name] = {
        key: supply.fresh_val(closures[key].code.name.replace(".", "_") or "f")
        for key in order
    }
    holes: dict[Name, Any] = {}
    hole_by_value: dict[int, Name] = {}
    entities: dict[int, Entity] = {}

    for key in order:
        closure = closures[key]
        term = terms[key]
        bindings: dict[Name, Binding] = {}
        for free_name, value in zip(closure.code.free_names, closure.free):
            bindings[free_name] = _bind_value(
                value, heap, terms, entity_names, holes, hole_by_value, supply, free_name
            )
        entities[key] = Entity(
            name=entity_names[key],
            closure=closure,
            term=term,
            bindings=bindings,
        )

    return EntityGraph(
        target_key=id(target), entities=entities, holes=holes, supply=supply
    )


def _bind_value(
    value: Any,
    heap,
    terms: dict[int, Term],
    entity_names: dict[int, Name],
    holes: dict[Name, Any],
    hole_by_value: dict[int, Name],
    supply: NameSupply,
    free_name: Name,
) -> Binding:
    if isinstance(value, _SIMPLE_TYPES):
        return Binding("lit", value=value)
    if isinstance(value, VMClosure) and id(value) in terms:
        return Binding("entity", value=id(value), name=entity_names[id(value)])
    if heap is not None:
        oid = heap.oid_of(value)
        if oid is not None:
            # known persistent object: substitutable as an OID literal —
            # this is what lets the query optimizer see index structures
            return Binding("lit", value=oid)
    existing = hole_by_value.get(id(value))
    if existing is not None:
        return Binding("hole", value=value, name=existing)
    hole = supply.fresh_like(free_name)
    holes[hole] = value
    hole_by_value[id(value)] = hole
    return Binding("hole", value=value, name=hole)
