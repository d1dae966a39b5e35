"""Tests for the two-pass optimizer pipeline and cost model (section 3)."""

import pytest

from repro.core.parser import parse_term
from repro.core.pretty import pretty_compact
from repro.core.syntax import Lit, term_size
from repro.primitives.registry import default_registry
from repro.rewrite import OptimizerConfig, RuleConfig, optimize, reduce_only
from repro.rewrite.reduction import reduce_to_fixpoint
from repro.rewrite.stats import RewriteStats
from repro.rewrite.cost import (
    CALL_COST,
    CLOSURE_COST,
    DEFAULT_PRIM_COST,
    site_decision,
    term_cost,
)


@pytest.fixture
def registry():
    return default_registry()


class TestTermCost:
    def test_prim_costs_summed(self, registry):
        term = parse_term("(+ a b ^ce ^cc)")
        assert term_cost(term, registry) == registry.lookup("+").cost

    def test_call_and_closure_costs(self, registry):
        term = parse_term("(f cont(t) (k t))")
        # one App + one Abs + the inner App
        assert term_cost(term, registry) == 2 * CALL_COST + CLOSURE_COST

    def test_unknown_prim_gets_worst_case(self, registry):
        term = parse_term("(frobnicate a ^k)", prims={"frobnicate"})
        assert term_cost(term, registry) == DEFAULT_PRIM_COST


class TestSiteDecision:
    def test_small_body_inlined(self, registry):
        body = parse_term("proc(x ce cc) (+ x 1 ce cc)")
        decision = site_decision(body, (Lit(1),), registry, growth_budget=24)
        assert decision.inline

    def test_literal_args_increase_savings(self, registry):
        body = parse_term("proc(x ce cc) (+ x 1 ce cc)")
        with_lit = site_decision(body, (Lit(1),), registry, 0)
        var = parse_term("v")
        without = site_decision(body, (var,), registry, 0)
        assert with_lit.savings > without.savings

    def test_budget_zero_rejects_large_bodies(self, registry):
        big = parse_term(
            "proc(x ce cc) (f x ce cont(a) (g a ce cont(b) (h b ce cont(d) "
            "(i d ce cont(e2) (j e2 ce cc)))))"
        )
        decision = site_decision(big, (), registry, growth_budget=0)
        assert not decision.inline
        assert decision.growth > 0


class TestOptimizeDriver:
    def test_reduction_only_config(self, registry):
        term = parse_term(
            "(λ(g) (g 1 ^e1 cont(t) (g t ^e2 ^cc))  proc(v ce cc) (+ v 1 ce cc))"
        )
        result = optimize(term, registry, OptimizerConfig.reduction_only())
        assert result.stats.inlined_sites == 0

    def test_alternation_beats_single_pass(self, registry):
        """Expansion exposes folds reduction alone cannot reach (section 3)."""
        source = """
        (λ(inc) (inc 1 ^e1 cont(a) (inc a ^e2 cont(b) (halt b)))
         proc(v ce cc) (+ v 1 ce cc))
        """
        reduced = reduce_only(parse_term(source), registry)
        both = optimize(parse_term(source), registry)
        assert term_size(both.term) < term_size(reduced.term)
        assert pretty_compact(both.term) == "(halt 3)"

    def test_size_accounting(self, registry):
        term = parse_term("(+ 1 2 ^ce ^cc)")
        result = optimize(term, registry)
        assert result.stats.size_before == term_size(term)
        assert result.stats.size_after == term_size(result.term)
        assert result.stats.size_after < result.stats.size_before

    def test_rounds_bounded(self, registry):
        term = parse_term("(halt 1)")
        result = optimize(term, registry, OptimizerConfig(max_rounds=3))
        assert result.stats.rounds <= 3

    def test_idempotent_on_optimized_term(self, registry):
        term = parse_term(
            "(λ(g) (g 1 ^e1 cont(t) (g t ^e2 ^cc))  proc(v ce cc) (+ v 1 ce cc))"
        )
        once = optimize(term, registry).term
        twice = optimize(once, registry).term
        assert once == twice

    def test_rule_config_threads_through(self, registry):
        term = parse_term("(+ 1 2 ^ce ^cc)")
        config = OptimizerConfig(rules=RuleConfig.without("fold"))
        result = optimize(term, registry, config)
        assert result.stats.count("fold") == 0

    def test_stats_summary_is_readable(self, registry):
        result = optimize(parse_term("(+ 1 2 ^ce ^cc)"), registry)
        summary = result.stats.summary()
        assert "fold" in summary and "->" in summary


class TestRuleConfig:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            RuleConfig(frozenset({"definitely-not-a-rule"}))

    def test_without(self):
        config = RuleConfig.without("fold", "subst")
        assert not config.allows("fold")
        assert not config.allows("subst")
        assert config.allows("remove")


# ---------------------------------------------------------------------------
# a fixpoint is not confirmed twice, and skipping the pass loses nothing
# ---------------------------------------------------------------------------

#: four query functions over an indexed ``db.data`` (id, v)
QUERY_MODULE = """
module q export byid byrem stacked anybig
import db
type Row = tuple id: Int, v: Int end
let byid(k: Int) =
  select r from db.data as r : Row where r.id == k end
let byrem(k: Int) =
  select r from db.data as r : Row where r.v % 89 == k end
let stacked() =
  select b from
    (select a from db.data as a : Row where a.v % 2 == 0 end)
    as b : Row
  where b.v % 3 == 0 end
let anybig(limit: Int): Bool =
  exists r : Row in db.data : limit > 500
end
"""


class _CorpusRun:
    """Every Stanford program and module ``q``, compiled (static scope) and
    reflectively optimized entry point by entry point (``optimize_result``
    scope), with spies on `optimize` and on `reduce_to_fixpoint`."""

    def __init__(self, tmp_path):
        from repro.bench.stanford import PROGRAMS
        from repro.lang.system import TycoonSystem
        from repro.query.relation import Relation
        from repro.reflect import optimize_result
        from repro.store.heap import ObjectHeap

        import repro.lang.modules as lang_modules
        import repro.reflect.optimize as reflect_optimize
        import repro.rewrite.pipeline as pipeline

        self.returned = []  # every term reduce_to_fixpoint returned, kept alive
        self.refixed = []  # a term reduce_to_fixpoint was handed a second time
        self.confirmed = []  # (scope, term, passes, fired, same object)
        real_fixpoint, real_optimize = pipeline.reduce_to_fixpoint, pipeline.optimize

        def fixpoint_spy(term, *args, **kwargs):
            if any(term is seen for seen in self.returned):
                self.refixed.append(term)
            out = real_fixpoint(term, *args, **kwargs)
            self.returned.append(out)
            return out

        def optimize_spy(scope):
            def spy(term, registry=None, config=None, check=False, heap=None):
                result = real_optimize(term, registry, config, check, heap)
                stats = RewriteStats()
                again = real_fixpoint(
                    result.term,
                    registry or default_registry(),
                    (config or OptimizerConfig()).rules,
                    stats,
                )
                self.confirmed.append(
                    (scope, result.term, stats.reduction_passes,
                     stats.total_rewrites, again is result.term)
                )
                return result

            return spy

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "reduce_to_fixpoint", fixpoint_spy)
            patch.setattr(lang_modules, "optimize", optimize_spy("static"))
            patch.setattr(reflect_optimize, "optimize", optimize_spy("reflect"))
            heap = ObjectHeap(str(tmp_path / "corpus.tyc"))
            try:
                system = TycoonSystem(heap=heap)
                data = Relation("data", ["id", "v"], [(i, i * 37 % 1000) for i in range(200)])
                data.create_index("id")
                heap.store(data)
                system.register_data_module("db", {"data": data})
                sources = [PROGRAMS[name].source for name in sorted(PROGRAMS)]
                modules = [system.compile(source) for source in sources + [QUERY_MODULE]]
                for module in modules:
                    system.persist(module.name)
                self.entries = 0
                for module in modules:
                    for export in module.exports:
                        if export in module.functions:
                            optimize_result(system, module.name, export)
                            self.entries += 1
            finally:
                heap.close()


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory):
    return _CorpusRun(tmp_path_factory.mktemp("corpus"))


class TestFixpointIsNotConfirmedTwice:
    def test_optimize_never_reduces_a_fixpoint_again(self, corpus_run):
        # some optimizations go round more than once (an expansion fired)
        assert len(corpus_run.returned) > len(corpus_run.confirmed) > 0
        assert corpus_run.refixed == []

    def test_one_more_pass_over_every_optimized_term_fires_nothing(self, corpus_run):
        scopes = {scope for scope, *_ in corpus_run.confirmed}
        assert scopes == {"static", "reflect"}
        reflected = [row for row in corpus_run.confirmed if row[0] == "reflect"]
        assert len(reflected) == corpus_run.entries
        for scope, term, passes, fired, same in corpus_run.confirmed:
            assert (passes, fired, same) == (1, 0, True), (scope, pretty_compact(term))

    def test_rounds_running_out_after_an_expansion_still_end_on_a_fixpoint(self, registry):
        """The case the last fixpoint call is for: the expansion pass changed
        the term and no round is left to reduce it."""
        term = parse_term(
            "(λ(g) (g 1 ^e1 cont(t) (g t ^e2 ^cc))  proc(v ce cc) (+ v 1 ce cc))"
        )
        result = optimize(term, registry, OptimizerConfig(max_rounds=1))
        assert result.stats.inlined_sites == 2
        stats = RewriteStats()
        assert reduce_to_fixpoint(result.term, registry, RuleConfig(), stats) is result.term
        assert (stats.reduction_passes, stats.total_rewrites) == (1, 0)

    def test_a_single_round_is_reduced_once(self, registry):
        """No inline site: the round's fixpoint is the answer, reduced by
        exactly one fixpoint call."""
        calls = []
        import repro.rewrite.pipeline as pipeline

        real = pipeline.reduce_to_fixpoint
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                pipeline, "reduce_to_fixpoint", lambda *a, **k: calls.append(a[0]) or real(*a, **k)
            )
            result = optimize(parse_term("(+ 1 2 ^ce ^cc)"), registry)
        assert len(calls) == 1
        assert result.stats.reduction_passes == 2  # the fold, then the one that confirms it
