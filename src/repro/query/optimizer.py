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
optimization until runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.syntax import Term, term_size
from repro.primitives.registry import PrimitiveRegistry
from repro.query.algebra import query_registry
from repro.query.rules import QueryRewriter
from repro.rewrite.pipeline import OptimizerConfig, optimize
from repro.rewrite.stats import QUERY_RULES, RewriteStats

__all__ = ["IntegratedResult", "QueryRewriteStats", "QueryRewriter", "integrated_optimize"]


@dataclass(frozen=True, slots=True)
class QueryRewriteStats:
    """The query rules' counts in one optimization's :class:`RewriteStats`."""

    stats: RewriteStats

    def count(self, rule: str) -> int:
        return self.stats.count(rule) if rule in QUERY_RULES else 0

    @property
    def total(self) -> int:
        return self.stats.query_rewrites


@dataclass(frozen=True, slots=True)
class IntegratedResult:
    """Outcome of the integrated program/query optimization."""

    term: Term
    stats: RewriteStats

    @property
    def size(self) -> int:
        return term_size(self.term)

    @property
    def query_stats(self) -> QueryRewriteStats:
        return QueryRewriteStats(self.stats)


def integrated_optimize(
    term: Term,
    registry: PrimitiveRegistry | None = None,
    heap=None,
    config: OptimizerConfig | None = None,
    check: bool = False,
) -> IntegratedResult:
    """Optimize ``term`` with the program and query rules against ``heap``.

    Without a heap only the program rules run.  ``check=True`` is the
    optimizer's checked mode, which re-verifies the tree after every pass,
    including each expansion pass a query rule fired in.
    """
    result = optimize(term, registry or query_registry(), config, check=check, heap=heap)
    return IntegratedResult(result.term, result.stats)
