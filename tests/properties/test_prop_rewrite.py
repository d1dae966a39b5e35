"""Property-based soundness tests for the rewrite engine."""

from hypothesis import given, settings

from repro.core.syntax import term_size
from repro.core.wellformed import violations
from repro.machine.cps_interp import Interpreter
from repro.machine.codegen import compile_function
from repro.machine.runtime import UncaughtTmlException
from repro.machine.vm import VM, instantiate
from repro.primitives.registry import default_registry
from repro.rewrite import OptimizerConfig, RuleConfig, optimize, reduce_only
from repro.rewrite.reduction import reduce_to_fixpoint
from repro.rewrite.rules import ALL_RULES
from repro.rewrite.stats import RewriteStats

from tests.properties.test_prop_core import straightline_terms

_REGISTRY = default_registry()


def _observe(term):
    try:
        return ("value", Interpreter(registry=_REGISTRY).run(term).value)
    except UncaughtTmlException as exc:
        return ("raise", exc.value)


@given(straightline_terms())
@settings(max_examples=100)
def test_reduction_preserves_semantics(term):
    before = _observe(term)
    reduced = reduce_only(term, _REGISTRY).term
    assert _observe(reduced) == before


@given(straightline_terms())
@settings(max_examples=100)
def test_full_optimizer_preserves_semantics(term):
    before = _observe(term)
    optimized = optimize(term, _REGISTRY).term
    assert _observe(optimized) == before


@given(straightline_terms())
@settings(max_examples=100)
def test_rewrites_preserve_well_formedness(term):
    optimized = optimize(term, _REGISTRY).term
    assert violations(optimized, _REGISTRY) == []


@given(straightline_terms())
@settings(max_examples=100)
def test_reduction_never_grows(term):
    reduced = reduce_only(term, _REGISTRY).term
    assert term_size(reduced) <= term_size(term)


@given(straightline_terms())
@settings(max_examples=60)
def test_optimizer_idempotent(term):
    once = optimize(term, _REGISTRY).term
    twice = optimize(once, _REGISTRY).term
    assert once == twice


@given(straightline_terms())
@settings(max_examples=40, deadline=None)
def test_one_more_pass_over_an_optimized_term_fires_nothing(term):
    """``optimize`` skips its last fixpoint call when the term is already the
    last fixpoint: that pass would have returned the same object, firing
    nothing, under every rule ablation and without expansion."""
    configs = [OptimizerConfig(rules=RuleConfig.without(rule)) for rule in sorted(ALL_RULES)]
    for config in configs + [OptimizerConfig.reduction_only()]:
        optimized = optimize(term, _REGISTRY, config).term
        stats = RewriteStats()
        assert reduce_to_fixpoint(optimized, _REGISTRY, config.rules, stats) is optimized
        assert (stats.reduction_passes, stats.total_rewrites) == (1, 0)


@given(straightline_terms())
@settings(max_examples=60)
def test_each_single_rule_ablation_stays_sound(term):
    before = _observe(term)
    for rule in ("subst", "fold", "remove", "eta-reduce"):
        config = OptimizerConfig(rules=RuleConfig.without(rule))
        out = optimize(term, _REGISTRY, config).term
        assert _observe(out) == before, rule


@given(straightline_terms())
@settings(max_examples=60, deadline=None)
def test_optimized_code_agrees_on_vm(term):
    """Closed straight-line programs run identically on the VM pre/post opt."""
    from repro.core.freevars import free_names
    from repro.core.names import NameSupply
    from repro.core.syntax import Abs

    if free_names(term):
        return
    before = _observe(term)
    supply = NameSupply(start=10_000_000)
    wrapped = Abs((supply.fresh_cont("ce"), supply.fresh_cont("cc")), term)
    code = compile_function(wrapped, _REGISTRY)

    def vm_observe(code_obj):
        try:
            return ("value", VM().call(instantiate(code_obj), []).value)
        except UncaughtTmlException as exc:
            return ("raise", exc.value)

    assert vm_observe(code) == before
    optimized = optimize(wrapped, _REGISTRY).term
    if isinstance(optimized, Abs):
        assert vm_observe(compile_function(optimized, _REGISTRY)) == before
