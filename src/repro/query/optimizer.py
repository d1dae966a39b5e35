"""Integrated program and query optimization (paper section 4.2, Fig. 4).

"Whenever the program optimizer encounters an embedded query construct ...
it invokes the query optimizer on the respective TML subtree ...  Similarly,
the query optimizer invokes the program optimizer to analyze and optimize
nested programming language expressions which appear in query constructs."

Both optimizers work on the *same* representation, so here they are one:
:func:`repro.rewrite.pipeline.optimize` given a heap.  Its expansion pass
runs the query rules at every relational primitive it rebuilds (the
primitives' ``expand`` hooks, :mod:`repro.query.rules`), and its
reduce/expand alternation is the interaction: reduction and inlining
dissolve abstraction barriers, which exposes algebraic patterns to the
query rules (e.g. an inlined library ``int.eq`` call becomes the bare
equality shape the index-select rule matches); a query rewrite in turn
creates new β-redexes, and the pass that made it counts as a change, so
another reduction follows.  One fixpoint, one set of rule counters, one
``RuleConfig``, one checked mode.

The heap is what makes the query rules fire: they read the relations and
indexes behind OID literals, the reason the paper delays query
optimization until runtime.  The reflective optimizer always passes the
running store's heap, so every reflectively optimized function, a PGO
variant included, is optimized against the live indexes.
"""

from __future__ import annotations

from repro.core.syntax import Term
from repro.primitives.registry import PrimitiveRegistry
from repro.query.algebra import query_registry
from repro.query.rules import QueryRewriter
from repro.rewrite.pipeline import OptimizeResult, OptimizerConfig, optimize

__all__ = ["QueryRewriter", "integrated_optimize"]


def integrated_optimize(
    term: Term,
    registry: PrimitiveRegistry | None = None,
    heap=None,
    config: OptimizerConfig | None = None,
    check: bool = False,
) -> OptimizeResult:
    """:func:`repro.rewrite.pipeline.optimize` with the query registry as the
    default: the program and query rules against ``heap``, none of the
    latter without one."""
    return optimize(term, registry or query_registry(), config, check=check, heap=heap)
