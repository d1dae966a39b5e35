"""Tests for the expansion (inlining) pass of paper section 3."""

import pytest

from repro.core.parser import parse_term
from repro.core.pretty import pretty_compact
from repro.core.wellformed import check
from repro.machine.cps_interp import Interpreter
from repro.primitives.registry import default_registry
from repro.rewrite import ExpansionConfig, OptimizerConfig, expand_pass, optimize
from repro.rewrite.stats import RewriteStats


@pytest.fixture
def registry():
    return default_registry()


#: g is bound once but called twice: subst cannot move it, expansion copies it
TWICE_CALLED = """
(λ(g) (g 1 ^e1 cont(t) (g t ^e2 cont(u) (halt u)))
 proc(v ce cc) (+ v 10 ce cc))
"""


def test_expansion_copies_into_call_sites(registry):
    term = parse_term(TWICE_CALLED)
    stats = RewriteStats()
    out = expand_pass(term, registry, ExpansionConfig(), stats)
    assert stats.inlined_sites == 2
    check(out, registry)


def test_expansion_preserves_unique_binding(registry):
    """Copies must be alpha-renamed (the subst-variant with renaming)."""
    term = parse_term(TWICE_CALLED)
    out = expand_pass(term, registry, ExpansionConfig(), RewriteStats())
    check(out, registry)  # unique-binding violations would be reported


def test_full_optimize_folds_through_inlined_copies(registry):
    result = optimize(parse_term(TWICE_CALLED), registry)
    # (1+10)+10 = 21 fully computed at compile time
    assert pretty_compact(result.term) == "(halt 21)"


def test_expansion_respects_growth_budget(registry):
    term = parse_term(TWICE_CALLED)
    config = OptimizerConfig(
        expansion=ExpansionConfig(growth_budget=-1000)  # nothing fits
    )
    result = optimize(parse_term(TWICE_CALLED), registry, config)
    assert result.stats.inlined_sites == 0


def test_recursive_unrolling_disabled_by_default(registry):
    src = """
    (Y λ(^c0 fact ^c)
       (c cont() (fact 5 1 ^ce ^cc)
          proc(n acc ce cc)
            (> n 1 cont() (* acc n ce cont(a) (- n 1 ce cont(m) (fact m a ce cc)))
                   cont() (cc acc))))
    """
    term = parse_term(src)
    result = optimize(term, registry)
    assert result.stats.count("expand-inline") == 0


def test_recursive_unrolling_when_enabled(registry):
    src = """
    (Y λ(^c0 fact ^c)
       (c cont() (fact 5 1 ^ce cont(r) (halt r))
          proc(n acc ce cc)
            (> n 1 cont() (* acc n ce cont(a) (- n 1 ce cont(m) (fact m a ce cc)))
                   cont() (cc acc))))
    """
    config = OptimizerConfig(
        expansion=ExpansionConfig(
            unroll_recursive=True, recursive_growth_budget=100
        ),
        penalty_limit=40,
    )
    term = parse_term(src)
    result = optimize(term, registry, config)
    assert result.stats.inlined_sites > 0
    check(result.term, registry)
    # unrolled program still computes 5! = 120
    assert Interpreter().run(result.term).value == 120


def test_penalty_bounds_the_alternation(registry):
    """Section 3: accumulated penalty stops reduce/expand in obscure cases."""
    src = """
    (Y λ(^c0 spin ^c)
       (c cont() (spin 3 ^ce cont(r) (halt r))
          proc(n ce cc) (spin n ce cc)))
    """
    config = OptimizerConfig(
        expansion=ExpansionConfig(unroll_recursive=True, recursive_growth_budget=100),
        penalty_limit=5,
        max_rounds=50,
    )
    result = optimize(parse_term(src), registry, config)
    # must terminate; penalty mechanism capped the unrolling
    assert result.stats.penalty <= 5 + 10  # one round may overshoot slightly


def test_escaping_function_keeps_binding(registry):
    # g escapes (passed as a value); call sites are inlined but the binding stays
    src = """
    (λ(g) (g 1 ^e1 cont(t) (h g t))
     proc(v ce cc) (+ v 10 ce cc))
    """
    result = optimize(parse_term(src), registry)
    assert "proc" in pretty_compact(result.term)


def test_nonrecursive_y_member_inlined(registry):
    """A Y-bound member that references no group name is plain inlining."""
    src = """
    (Y λ(^c0 helper ^c)
       (c cont() (helper 4 ^ce cont(r) (halt r))
          proc(v ce cc) (* v v ce cc)))
    """
    result = optimize(parse_term(src), registry)
    assert pretty_compact(result.term) == "(halt 16)"


def test_semantics_preserved_under_expansion(registry):
    closed = """
    (λ(g) (g 1 cont(e) (halt -1) cont(t) (g t cont(e2) (halt -2) cont(u) (halt u)))
     proc(v ce cc) (+ v 10 ce cc))
    """
    term = parse_term(closed)
    before = Interpreter().run(term).value
    after = Interpreter().run(optimize(term, registry).term).value
    assert before == after == 21


# ---------------------------------------------------------------------------
# each candidate is costed once per pass
# ---------------------------------------------------------------------------

#: ``int.add`` called at five sites, ``int.mul`` at six
LEAF_CALLS = """
module m export f
let f(x: Int): Int = x * 3 + x * 5 + x * 7 + x * 9 + x * 11 + x * 13
end
"""


def test_a_library_leaf_is_costed_once_per_expansion_pass(monkeypatch):
    """The reflective optimization of ``f`` inlines the library's ``+`` at
    five sites: its definition is costed once in that pass, and each site's
    decision is the one the uncached ``site_decision`` makes."""
    from collections import Counter

    import repro.rewrite.cost as cost
    import repro.rewrite.expansion as expansion
    import repro.rewrite.pipeline as pipeline
    from repro.lang.system import TycoonSystem
    import repro.reflect.optimize  # noqa: F401  (binds its own term_cost before the spy)
    from repro.reflect import optimize_result
    from repro.rewrite.cost import site_decision

    passes = []  # per expansion pass, the bodies ``term_cost`` costed
    costed_by = {}  # id of a definition_cost result -> (it, definition, registry)
    decisions = []  # (id of the costing, call args, budget, decision)
    real = (pipeline.expand_pass, cost.term_cost, expansion.definition_cost,
            expansion.costed_decision)

    def expand_spy(*args, **kwargs):
        passes.append([])
        return real[0](*args, **kwargs)

    def term_cost_spy(term, registry):
        passes[-1].append(term)
        return real[1](term, registry)

    def definition_cost_spy(definition, registry):
        out = real[2](definition, registry)
        costed_by[id(out)] = (out, definition, registry)
        return out

    def decision_spy(costed, call_args, budget):
        out = real[3](costed, call_args, budget)
        decisions.append((id(costed), call_args, budget, out))
        return out

    system = TycoonSystem()
    system.compile(LEAF_CALLS)
    monkeypatch.setattr(pipeline, "expand_pass", expand_spy)
    monkeypatch.setattr(cost, "term_cost", term_cost_spy)
    monkeypatch.setattr(expansion, "definition_cost", definition_cost_spy)
    monkeypatch.setattr(expansion, "costed_decision", decision_spy)
    result = optimize_result(system, "m", "f")

    assert system.vm().call(result.closure, [2]).value == 96
    for bodies in passes:
        assert len({id(body) for body in bodies}) == len(bodies)
    sites = Counter(costing for costing, *_ in decisions)
    assert max(sites.values()) >= 5
    assert result.stats.inlined_sites >= 5
    for costing, call_args, budget, decision in decisions:
        _, definition, registry = costed_by[costing]
        assert decision == site_decision(definition, call_args, registry, budget)
