"""Tests for the checked rewrite pipeline (optimize(..., check=True))."""

from collections import Counter

import pytest

from repro.analysis.checked import PassChecker, RewriteCheckError, checked_registry
from repro.core.parser import parse_term
from repro.core.syntax import App, Lit, PrimApp
from repro.lang.modules import CompileOptions, compile_module
from repro.rewrite import optimize, reduce_only


class TestCheckedModeAcceptsSoundRewrites:
    def test_checked_optimize_matches_unchecked(self, registry):
        compiled = compile_module(
            """
            module t export f g
            let f(x: Int): Int = x + 1
            let g(n: Int): Int = if n <= 1 then 1 else n * g(n - 1) end
            end
            """,
            options=CompileOptions(optimizer=None),
        )
        for fn in compiled.functions.values():
            plain = optimize(fn.term, registry).term
            checked = optimize(fn.term, registry, check=True).term
            assert checked == plain

    def test_checked_reduce_only(self, registry):
        term = parse_term("(λ(x) (+ x 1 ^ce ^cc) 41)")
        result = reduce_only(term, registry, check=True)
        assert result.stats.size_after < result.stats.size_before


class TestInjectedUnsoundFold:
    """Acceptance scenario: a fold on an effectful primitive, caught by name."""

    def test_fold_on_print_caught(self, registry):
        registry.get("print").fold = lambda call: App(call.args[-1], ())
        term = parse_term("proc(x ce cc) (print x cont() (cc 0))")
        with pytest.raises(RewriteCheckError) as err:
            optimize(term, registry, check=True)
        assert err.value.rule == "fold"
        [d] = err.value.diagnostics
        assert d.code == "TML043"
        assert d.data["prim"] == "print"
        assert "print" in d.message
        # before/after pretty-printed terms ride along
        assert "print" in d.data["before"]

    def test_same_fold_is_silent_without_check(self, registry):
        registry.get("print").fold = lambda call: App(call.args[-1], ())
        term = parse_term("proc(x ce cc) (print x cont() (cc 0))")
        optimized = optimize(term, registry).term  # no error: the bug ships
        assert "print" not in repr(optimized)

    def test_growing_fold_caught(self, registry):
        plus = registry.get("+")

        def growing(call):
            # "fold" that duplicates the call instead of shrinking it
            return PrimApp("+", (Lit(0), Lit(0)) + call.args)

        plus.fold = growing
        term = parse_term("proc(ce cc) (+ 1 2 ce cc)")
        with pytest.raises(RewriteCheckError) as err:
            optimize(term, registry, check=True)
        assert err.value.diagnostics[0].code == "TML044"


class TestPassChecker:
    def test_wellformedness_break_tml040(self, registry):
        checker = PassChecker(registry)
        before = parse_term("proc(x ce cc) (+ x 1 ce cc)")
        after = parse_term("(+ 1 2 ^cc)")  # bad prim arity
        with pytest.raises(RewriteCheckError) as err:
            checker.reduction_pass_hook(before, after, Counter({"subst": 1}))
        codes = {d.code for d in err.value.diagnostics}
        assert "TML040" in codes
        assert err.value.rules == ("subst",)
        assert "subst" in err.value.diagnostics[0].message

    def test_no_shrink_tml041(self, registry):
        checker = PassChecker(registry)
        term = parse_term("proc(x ce cc) (+ x 1 ce cc)")
        with pytest.raises(RewriteCheckError) as err:
            checker.reduction_pass_hook(term, term, Counter({"eta": 1}))
        assert {d.code for d in err.value.diagnostics} == {"TML041"}

    def test_effect_increase_tml042(self, registry):
        checker = PassChecker(registry)
        before = parse_term("proc(x ce cc) (+ x 1 ce cc)")
        after = parse_term("proc(x ce cc) (print x cont() (cc 0))")
        with pytest.raises(RewriteCheckError) as err:
            checker.reduction_pass_hook(before, after, Counter({"fold": 1}))
        codes = {d.code for d in err.value.diagnostics}
        assert "TML042" in codes
        [d] = [d for d in err.value.diagnostics if d.code == "TML042"]
        assert d.data["effect_before"] == "pure"
        assert d.data["effect_after"] == "io"

    def test_expansion_check_allows_growth(self, registry):
        checker = PassChecker(registry)
        before = parse_term("proc(x ce cc) (+ x 1 ce cc)")
        after = parse_term("proc(x ce cc) (+ x 1 ce cont(t) (cc t))")
        checker.expansion_check(before, after, Counter({"expand-inline": 1}))  # WF holds

    def test_expansion_check_names_the_rules_that_fired(self, registry):
        checker = PassChecker(registry)
        before = parse_term("proc(x ce cc) (+ x 1 ce cc)")
        after = parse_term("proc(x ce cc) (+ x 1 ce)")
        with pytest.raises(RewriteCheckError) as info:
            checker.expansion_check(before, after, Counter({"merge-select": 1}))
        assert info.value.rules == ("merge-select",)
        assert "merge-selectx1" in str(info.value)


class TestCheckedRegistry:
    def test_sound_folds_pass_through(self, registry):
        guarded = checked_registry(registry)
        call = parse_term("(+ 1 2 ^ce ^cc)")
        result = guarded.get("+").fold(call)
        assert result is not None  # the constant fold still fires

    def test_none_folds_stay_none(self, registry):
        guarded = checked_registry(registry)
        assert guarded.get("print").fold is None

    def test_query_round_check(self, registry):
        from repro.query.optimizer import integrated_optimize

        term = parse_term("proc(x ce cc) (+ x 1 ce cc)")
        result = integrated_optimize(term, check=True)
        assert result.term is not None

    def test_clones_keep_every_field(self):
        from dataclasses import fields

        from repro.query.algebra import query_registry

        registry = query_registry()
        for clone, changed in (
            (checked_registry(registry), "fold"),
            (registry.with_disabled_fold(registry.names()), "attrs"),
        ):
            for prim in registry:
                copy = clone.get(prim.name)
                for field in fields(prim):
                    if field.name != changed:
                        assert getattr(copy, field.name) is getattr(prim, field.name), (
                            prim.name,
                            field.name,
                        )
        assert registry.get("select").expand is not None

    def test_checked_runtime_optimization_fires_the_query_rules(self):
        from repro.query.algebra import query_registry
        from repro.query.optimizer import integrated_optimize
        from repro.store.heap import ObjectHeap

        registry = query_registry()
        term = parse_term(
            """
            proc(rel ce cc)
              (select proc(x ce1 cc1) (cc1 true) rel ce
                      cont(t) (select proc(y ce2 cc2) (cc2 true) t ce cc))
            """,
            prims=registry.names(),
        )
        result = integrated_optimize(term, registry, heap=ObjectHeap(), check=True)
        assert result.query_stats.count("merge-select") == 1
        assert result.term == integrated_optimize(term, registry, heap=ObjectHeap()).term

    def test_checked_reflective_optimization_fires_the_query_rules(self):
        """The reflective optimizer optimizes against the heap under checked
        mode too: a stored query function's scan becomes an index scan."""
        from repro.lang.system import TycoonSystem
        from repro.query.relation import Relation
        from repro.reflect.optimize import optimize_closure

        system = TycoonSystem()
        people = Relation("people", ["id", "age"], [(i, i % 90) for i in range(50)])
        people.create_index("id")
        system.heap.store(people)
        system.register_data_module("db", {"people": people})
        system.compile(
            "module q export byid import db "
            "type P = tuple id: Int, age: Int end "
            "let byid(k: Int) = select p from db.people as p : P where p.id == k end end"
        )
        system.persist("q")
        closure = system.closure("q", "byid")
        result = optimize_closure(closure, system.heap, system.registry, check=True)
        assert result.query_stats.count("index-select") == 1
        assert system.vm().call(result.closure, [7]).value.to_tuples() == [(7, 7)]

    def test_an_unsound_query_rule_is_caught_by_name(self):
        from dataclasses import replace

        from repro.primitives.registry import PrimitiveRegistry
        from repro.query.algebra import query_registry
        from repro.store.heap import ObjectHeap

        def drop_cc(call, state):  # an "optimization" that loses the continuation
            state.stats.fired("merge-select")
            return PrimApp("select", call.args[:3])

        registry = PrimitiveRegistry(
            replace(p, expand=drop_cc) if p.name == "select" else p for p in query_registry()
        )
        term = parse_term(
            "proc(rel ce cc) (select proc(x ce1 cc1) (cc1 true) rel ce cc)",
            prims=registry.names(),
        )
        optimize(term, registry, heap=ObjectHeap())  # unchecked: goes through
        with pytest.raises(RewriteCheckError) as info:
            optimize(term, registry, check=True, heap=ObjectHeap())
        assert info.value.rules == ("merge-select",)
