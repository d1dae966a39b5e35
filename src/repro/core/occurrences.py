"""Occurrence counting — the |E|_v function of paper section 3.

Control and data dependencies in CPS are captured uniformly by bound
variables, so most rewrite preconditions are phrased as occurrence counts:
``subst`` requires ``|app|_v = 1`` for abstractions, ``remove`` requires
``|app|_v = 0``, ``Y-remove`` requires the recursive binding to be globally
unreferenced, and so on.

The paper defines |E|_v inductively::

    |v|_v               = 1
    |lit|_v             = 0
    |prim|_v            = 0
    |v'|_v              = 0                    (v' != v)
    |λ(v1..vn) app|_v   = |app|_v
    |(val0 val1..valn)|_v = Σ |vali|_v

Note the abstraction case does *not* stop at shadowing binders — it does not
need to, because the unique binding rule guarantees ``v`` is never rebound.

Besides the single-variable count we provide :func:`count_all`, a one-pass
census of every variable in a term, which the reduction pass uses to avoid
quadratic re-counting.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.core.names import Name
from repro.core.syntax import Abs, App, PrimApp, Term, Var

__all__ = ["count", "count_all", "count_many", "OccurrenceCensus"]


def count(term: Term, name: Name) -> int:
    """Return |term|_name, the number of occurrences of ``name`` in ``term``."""
    return count_all(term).get(name, 0)


def count_many(term: Term, names: Iterable[Name]) -> dict[Name, int]:
    """Count several variables in one traversal."""
    counts = count_all(term)
    return {name: counts.get(name, 0) for name in set(names)}


def count_all(term: Term) -> Counter[Name]:
    """Census of every variable occurrence in ``term``: one explicit stack,
    exact-type dispatch, the tally left to ``Counter``'s C loop."""
    names: list[Name] = []
    stack: list[Term] = [term]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Var:
            names.append(node.name)
        elif kind is Abs:
            stack.append(node.body)
        elif kind is App:
            stack.append(node.fn)
            stack.extend(node.args)
        elif kind is PrimApp:
            stack.extend(node.args)
    return Counter(names)


class OccurrenceCensus:
    """An incrementally-maintained occurrence census.

    The reduction pass repeatedly asks "how often is v referenced *now*?"
    while it rewrites the tree.  Recounting from the root after each rewrite
    is O(n) per query; the census instead starts from :func:`count_all` and is
    patched by the driver as subtrees are removed or substituted in.
    """

    def __init__(self, term: Term) -> None:
        self._counts = count_all(term)

    def occurrences(self, name: Name) -> int:
        return self._counts.get(name, 0)

    def forget_subtree(self, term: Term) -> None:
        """Subtract every occurrence inside a subtree being deleted."""
        for name, hits in count_all(term).items():
            self.add(name, -hits)

    def add_subtree(self, term: Term) -> None:
        """Add every occurrence inside a subtree being inserted."""
        self._counts.update(count_all(term))

    def snapshot(self) -> Counter[Name]:
        return Counter(self._counts)

    def zero(self, name: Name) -> None:
        """Forget all occurrences of ``name`` (its binding was eliminated)."""
        self._counts.pop(name, None)

    def add(self, name: Name, amount: int) -> None:
        """Adjust the count of ``name`` by ``amount`` (may be negative)."""
        new_value = self._counts.get(name, 0) + amount
        if new_value <= 0:
            self._counts.pop(name, None)
        else:
            self._counts[name] = new_value
