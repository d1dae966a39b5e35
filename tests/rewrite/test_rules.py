"""Tests for the eight core rewrite rules of paper section 3.

Each test exercises one rule through the reduction pass and checks both the
resulting term shape and that the rule counter fired — so the optimization
demonstrably happened through the intended rule.
"""

import pytest

from repro.core.parser import parse_term
from repro.core.pretty import pretty_compact
from repro.core.syntax import Abs, App, Lit, PrimApp, Var, term_size
from repro.core.wellformed import check
from repro.primitives.registry import default_registry
from repro.rewrite import RuleConfig, reduce_only


@pytest.fixture
def registry():
    return default_registry()


def reduce_term(source, registry, rules=None):
    term = parse_term(source)
    result = reduce_only(term, registry, rules)
    check(result.term, registry)
    return result


class TestSubst:
    def test_literal_substitution(self, registry):
        result = reduce_term("(λ(x) (f x x)  5)", registry)
        assert result.stats.count("subst") >= 1
        # both occurrences replaced, binding gone
        assert pretty_compact(result.term).count("5") == 2

    def test_variable_copy_propagation(self, registry):
        result = reduce_term("(λ(x) (f x x)  y)", registry)
        assert result.stats.count("subst") >= 1
        assert "y" in pretty_compact(result.term)

    def test_once_used_abstraction_moved(self, registry):
        result = reduce_term(
            "(λ(g) (g 7 ^ce ^cc)  proc(v ce2 cc2) (cc2 v))", registry
        )
        # after subst the direct application reduces to (cc 7)
        assert isinstance(result.term, App)
        assert result.term.args == (Lit(7),)

    def test_multiply_used_abstraction_not_substituted(self, registry):
        """The |app|_v = 1 precondition prevents code growth."""
        result = reduce_term(
            "(λ(g) (g 1 ^e1 cont(t) (g t ^e2 ^cc))  proc(v ce cc2) (cc2 v))",
            registry,
        )
        # the binding must survive (an Abs bound to a twice-used variable)
        assert isinstance(result.term, App)
        assert isinstance(result.term.fn, Abs)

    def test_subst_disabled(self, registry):
        result = reduce_term(
            "(λ(x) (f x)  5)", registry, RuleConfig.without("subst")
        )
        assert result.stats.count("subst") == 0
        assert isinstance(result.term.fn, Abs)


class TestRemove:
    def test_dead_binding_struck(self, registry):
        result = reduce_term("(λ(x y) (f x)  1 2)", registry)
        assert result.stats.count("remove") == 1

    def test_dead_abstraction_value_removed(self, registry):
        result = reduce_term(
            "(λ(g) (f 1)  proc(v ce cc) (cc v))", registry
        )
        assert result.stats.count("remove") == 1
        assert "proc" not in pretty_compact(result.term)

    def test_remove_is_safe_for_values_only(self, registry):
        # arguments are values by construction; removal loses no effects —
        # the removed value here contains no primitive calls at all
        result = reduce_term("(λ(x) (f 1)  y)", registry)
        assert result.stats.count("remove") == 1


class TestReduce:
    def test_nullary_application_collapses(self, registry):
        result = reduce_term("(λ() (f 1))", registry)
        assert result.stats.count("reduce") == 1
        assert isinstance(result.term, App)
        assert isinstance(result.term.fn, Var)

    def test_reduce_after_all_bindings_consumed(self, registry):
        result = reduce_term("(λ(x) (f x)  2)", registry)
        assert result.stats.count("reduce") == 1


class TestEtaReduce:
    def test_forwarding_wrapper_removed(self, registry):
        result = reduce_term(
            "(f cont(t) (k t))", registry
        )
        assert result.stats.count("eta-reduce") == 1
        assert pretty_compact(result.term) == "(f_0 k_2)" or "cont" not in pretty_compact(result.term)

    def test_eta_blocked_when_target_uses_param(self, registry):
        # λ(t)(t t) is not an eta-redex
        result = reduce_term("(f cont(t) (t t))", registry)
        assert result.stats.count("eta-reduce") == 0

    def test_eta_blocked_on_arg_mismatch(self, registry):
        result = reduce_term("(f cont(t u) (k u t))", registry)
        assert result.stats.count("eta-reduce") == 0

    def test_eta_skipped_in_cont_var_applications(self, registry):
        """Arguments of a continuation-variable application may be Y-group
        members; eta-reducing one to its own recursive name would create the
        ill-defined binding v := v (regression: `while true do ... end`)."""
        result = reduce_term("(^c cont() (halt 0) cont() (^loop))", registry)
        assert result.stats.count("eta-reduce") == 0

    def test_while_true_compiles_and_bounds(self, registry):
        """End-to-end regression: an infinite loop must compile and spin."""
        from repro.lang import TycoonSystem
        from repro.machine.vm import StepLimitExceeded

        system = TycoonSystem()
        system.compile(
            """
            module spin export f
            let f(): Int = begin while true do 0 end; 1 end
            end
            """
        )
        with pytest.raises(StepLimitExceeded):
            system.call("spin", "f", [], step_limit=2000)

    def test_eta_never_fires_on_y_fixfun(self, registry):
        # the Y argument must stay an abstraction even when eta-shaped
        result = reduce_term("(Y λ(^c0 ^c) (k c0 c))", registry)
        assert result.stats.count("eta-reduce") == 0
        assert isinstance(result.term, PrimApp) and result.term.prim == "Y"


class TestFold:
    def test_constant_folding_cascades(self, registry):
        # (+ 1 2) -> 3, then (* 3 3) -> 9 after substitution
        result = reduce_term(
            "(+ 1 2 ^ce cont(t) (* t 3 ^ce2 cont(u) (halt u)))", registry
        )
        assert result.stats.count("fold") == 2
        assert pretty_compact(result.term) == "(halt 9)"

    def test_fold_disabled(self, registry):
        result = reduce_term(
            "(+ 1 2 ^ce ^cc)", registry, RuleConfig.without("fold")
        )
        assert result.stats.count("fold") == 0
        assert isinstance(result.term, PrimApp)


class TestCaseSubst:
    def test_scrutinee_refined_in_branch(self, registry):
        """(== v 1 c1) with v used in the branch: v becomes 1 there."""
        result = reduce_term(
            "(== v 1 cont() (halt v) cont() (halt 0))", registry
        )
        assert result.stats.count("case-subst") == 1
        # the taken branch now halts with the literal
        text = pretty_compact(result.term)
        assert "(halt 1)" in text

    def test_no_substitution_into_else(self, registry):
        result = reduce_term(
            "(== v 1 cont() (halt 7) cont() (halt v))", registry
        )
        # v only occurs in the else branch: nothing to substitute
        assert result.stats.count("case-subst") == 0

    def test_case_subst_disabled(self, registry):
        result = reduce_term(
            "(== v 1 cont() (halt v) cont() (halt 0))",
            registry,
            RuleConfig.without("case-subst"),
        )
        assert result.stats.count("case-subst") == 0


class TestYRules:
    def test_y_remove_dead_binding(self, registry):
        src = """
        (Y λ(^c0 dead ^c)
           (c cont() (halt 1)
              cont(i) (dead i)))
        """
        result = reduce_term(src, registry)
        assert result.stats.count("Y-remove") == 1

    def test_y_remove_keeps_live_bindings(self, registry):
        src = """
        (Y λ(^c0 ^loop ^c)
           (c cont() (loop)
              cont() (loop)))
        """
        result = reduce_term(src, registry)
        assert result.stats.count("Y-remove") == 0

    def test_y_reduce_empty_group(self, registry):
        result = reduce_term("(Y λ(^c0 ^c) (c cont() (halt 5)))", registry)
        assert result.stats.count("Y-reduce") == 1
        assert pretty_compact(result.term) == "(halt 5)"

    def test_y_reduce_blocked_when_c0_used(self, registry):
        result = reduce_term("(Y λ(^c0 ^c) (c cont() (c0)))", registry)
        assert result.stats.count("Y-reduce") == 0

    def test_y_cascade_remove_then_reduce(self, registry):
        """Removing the last dead binding enables Y-reduce."""
        src = """
        (Y λ(^c0 dead ^c)
           (c cont() (halt 3)
              cont(i) (halt i)))
        """
        result = reduce_term(src, registry)
        assert result.stats.count("Y-remove") == 1
        assert result.stats.count("Y-reduce") == 1
        assert pretty_compact(result.term) == "(halt 3)"


class TestTermination:
    def test_every_rule_shrinks_the_tree(self, registry):
        sources = [
            "(λ(x) (f x)  5)",
            "(λ(x) (f 1)  2)",
            "(λ() (f 1))",
            "(f cont(t) (k t))",
            "(+ 1 2 ^ce ^cc)",
            "(Y λ(^c0 ^c) (c cont() (halt 5)))",
        ]
        for source in sources:
            term = parse_term(source)
            result = reduce_only(term, registry)
            assert term_size(result.term) < term_size(term), source

    def test_reduction_reaches_fixpoint(self, registry):
        term = parse_term("(+ 1 2 ^ce cont(t) (* t t ^ce2 cont(u) (halt u)))")
        once = reduce_only(term, registry).term
        twice = reduce_only(once, registry).term
        assert once == twice


class TestCaseSubstConsultsTheCensus:
    """case-subst walks the branches only when the scrutinee may occur in
    one: a clean census count is never low (the dirty-set protocol)."""

    SOURCE = "(== v 1 cont() (halt {}) cont() (halt 0))"

    def _case(self, registry, branch_value):
        from repro.core.occurrences import OccurrenceCensus
        from repro.rewrite.rules import ReductionState

        term = parse_term(self.SOURCE.format(branch_value))
        return term, term.args[0].name, ReductionState(OccurrenceCensus(term), registry)

    def _counting(self, monkeypatch):
        import repro.rewrite.rules as rules

        counted = []
        real = rules.count_occurrences
        monkeypatch.setattr(
            rules, "count_occurrences", lambda term, name: counted.append(name) or real(term, name)
        )
        return counted

    def test_fires_when_the_scrutinee_occurs_in_a_branch(self, registry, monkeypatch):
        from repro.rewrite.rules import _try_case_subst

        term, v, state = self._case(registry, "v")
        counted = self._counting(monkeypatch)
        out = _try_case_subst(term, state)
        assert counted == [v]
        assert state.stats.count("case-subst") == 1
        assert pretty_compact(out.args[2]) == "cont() (halt 1)"
        assert state.occurrences(v) == 1

    def test_walks_the_branches_when_the_scrutinee_is_dirty(self, registry, monkeypatch):
        from repro.rewrite.rules import _try_case_subst

        term, v, state = self._case(registry, "v")
        # stale-low, as after a substitution this pass added occurrences of v
        state.census.add(v, -1)
        state.dirty.add(v)
        assert state.occurrences(v) == 1
        counted = self._counting(monkeypatch)
        out = _try_case_subst(term, state)
        assert counted == [v]
        assert out is not term and state.stats.count("case-subst") == 1

    def test_a_scrutinee_occurring_once_returns_the_node_uncounted(self, registry, monkeypatch):
        from repro.rewrite.rules import _try_case_subst

        term, v, state = self._case(registry, "7")
        assert state.occurrences(v) == 1 and state.is_clean(v)
        counted = self._counting(monkeypatch)
        assert _try_case_subst(term, state) is term
        assert counted == [] and not state.changed
