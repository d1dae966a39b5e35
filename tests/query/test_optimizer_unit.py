"""Unit tests for the integrated optimizer driver and rewrite statistics."""

from dataclasses import replace

import pytest

from repro.core.parser import parse_term
from repro.core.syntax import PrimApp, iter_subterms, term_size
from repro.primitives.registry import PrimitiveRegistry
from repro.query.algebra import query_registry
from repro.query.optimizer import integrated_optimize
from repro.rewrite import OptimizerConfig, RuleConfig, optimize
from repro.rewrite.rules import ALL_RULES
from repro.rewrite.stats import QUERY_RULES, QueryRewriteStats, RewriteStats
from repro.store.heap import ObjectHeap

STACKED = """
proc(rel ce cc)
  (select proc(x ce1 cc1) (cc1 true)
          rel ce
          cont(t) (select proc(y ce2 cc2) (cc2 true) t ce cc))
"""


@pytest.fixture
def registry():
    return query_registry()


@pytest.fixture
def heap():
    return ObjectHeap()


def test_plain_program_converges_in_one_round(registry, heap):
    term = parse_term("proc(x ce cc) (+ x 1 ce cc)", prims=registry.names())
    result = integrated_optimize(term, registry, heap=heap)
    assert result.stats.rounds == 1  # nothing to inline, no query rule: stop
    assert result.query_stats.total == 0


def test_query_rewrite_triggers_another_program_round(registry, heap):
    term = parse_term(STACKED, prims=registry.names())
    result = integrated_optimize(term, registry, heap=heap)
    assert result.query_stats.count("merge-select") == 1
    # the expansion pass that merged counts as a change: the alternation
    # reduces the merged predicate in a second round
    assert result.stats.rounds >= 2
    assert result.stats.count("reduce") > 0


def test_stats_alias(registry):
    term = parse_term("proc(x ce cc) (cc x)", prims=registry.names())
    result = integrated_optimize(term, registry)
    assert result.query_stats.stats is result.stats
    assert term_size(result.term) > 0


def test_enabled_rule_subset(registry, heap):
    term = parse_term(STACKED, prims=registry.names())
    config = OptimizerConfig(rules=RuleConfig.without("merge-select"))
    result = integrated_optimize(term, registry, heap=heap, config=config)
    assert result.query_stats.count("merge-select") == 0
    prims = [n.prim for n in iter_subterms(result.term) if isinstance(n, PrimApp)]
    assert prims == ["select", "select"]


def test_the_query_rules_are_rewrite_rules():
    assert QUERY_RULES <= ALL_RULES
    assert "merge-select" not in RuleConfig.without("merge-select").enabled


def test_no_heap_no_hook(registry):
    """Static optimization never runs an expansion hook."""

    def boom(call, state):
        raise AssertionError(f"hook ran on {call.prim}")

    hooked = PrimitiveRegistry(replace(p, expand=boom) if p.expand else p for p in registry)
    term = parse_term(STACKED, prims=registry.names())
    assert optimize(term, hooked).stats.query_rewrites == 0
    with pytest.raises(AssertionError, match="hook ran on select"):
        optimize(term, hooked, heap=ObjectHeap())


class TestQueryRewriteStats:
    def test_counts(self):
        stats = RewriteStats()
        stats.fired("merge-select")
        stats.fired("merge-select")
        stats.fired("index-select")
        stats.fired("subst", 4)
        view = QueryRewriteStats(stats)
        assert view.count("merge-select") == 2
        assert view.total == 3
        assert view.count("subst") == 0
        assert view.count("never") == 0
        # the program total leaves the query rules out
        assert stats.total_rewrites == 4


class TestRewriteStats:
    def test_merge(self):
        a, b = RewriteStats(), RewriteStats()
        a.fired("subst", 2)
        b.fired("subst")
        b.fired("fold", 3)
        b.inlined_sites = 4
        a.merge(b)
        assert a.count("subst") == 3
        assert a.count("fold") == 3
        assert a.inlined_sites == 4
        assert a.total_rewrites == 6

    def test_summary_mentions_sizes(self):
        stats = RewriteStats()
        stats.size_before, stats.size_after = 10, 5
        assert "10 -> 5" in stats.summary()
