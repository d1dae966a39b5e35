"""Tests for the continuation-linearity/arity analysis (constraints 1-5)."""

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.linearity import CONSTRAINT_OF_CODE, analyze
from repro.core.names import NameSupply
from repro.core.parser import parse_term
from repro.core.syntax import Abs, App, Lit, PrimApp, Var
from repro.core.wellformed import check, violations
from repro.primitives.registry import default_registry


@pytest.fixture
def registry():
    return default_registry()


def codes(found):
    return {d.code for d in found}


class TestCleanTerms:
    def test_good_proc(self, registry):
        term = parse_term("proc(x ce cc) (+ x 1 ce cc)")
        assert analyze(term, registry) == []

    def test_y_fixpoint_shape(self, registry):
        term = parse_term("(Y λ(^c0 ^loop ^c) (c cont() (loop) cont() (halt 0)))")
        assert analyze(term, registry) == []

    def test_y_binding_procedures_after_the_entry(self, registry):
        """``(c entry abs1..absn)`` puts the entry continuation before the
        bindings by the definition of ``Y``: procedure bindings follow it."""
        term = parse_term(
            "proc(ce cc) (Y λ(^c0 f ^c) (c cont() (f 1 ce cc) proc(x ce1 cc1) (cc1 x)))"
        )
        assert analyze(term, registry) == []


class TestConstraintDiagnostics:
    def test_duplicate_binding_tml001(self):
        supply = NameSupply()
        x = supply.fresh_val("x")
        inner = Abs((x,), App(Var(x), ()))
        outer = Abs((x,), App(inner, (Lit(1),)))
        found = analyze(outer)
        assert codes(found) == {"TML001"}
        d = found[0]
        assert d.severity is Severity.ERROR
        assert d.data["constraint"] == 4
        assert "bound more than once" in d.message
        # the path points at the duplicate's binder, the data at the first
        assert "fn" in d.path

    def test_direct_arity_tml002(self):
        found = analyze(parse_term("(λ(x y) (f x) 1)"))
        assert "TML002" in codes(found)
        assert all(d.data["constraint"] == 1 for d in found if d.code == "TML002")

    def test_unknown_prim_tml005(self, registry):
        found = analyze(PrimApp("no-such-prim", ()), registry)
        assert codes(found) == {"TML005"}
        assert found[0].data["prim"] == "no-such-prim"

    def test_prim_arity_tml006(self, registry):
        found = analyze(parse_term("(+ 1 2 ^cc)"), registry)
        assert "TML006" in codes(found)

    def test_escaping_continuation_tml003(self, registry):
        found = analyze(parse_term("proc(x ce cc) ([]:= arr 0 ce cc)"), registry)
        assert "TML003" in codes(found)
        [d] = [d for d in found if d.code == "TML003"]
        assert d.data["constraint"] == 3
        assert d.path.startswith("body.args")

    def test_proc_needs_two_conts_tml007(self):
        supply = NameSupply()
        x, k = supply.fresh_val("x"), supply.fresh_cont("k")
        one_cont = Abs((x, k), App(Var(k), (Var(x),)))
        f = supply.fresh_val("f")
        term = Abs((f,), App(Var(f), (one_cont,)))
        found = analyze(term)
        assert "TML007" in codes(found)

    def test_cont_suffix_tml008(self):
        supply = NameSupply()
        ce, x, cc = supply.fresh_cont("ce"), supply.fresh_val("x"), supply.fresh_cont("cc")
        g = supply.fresh_val("g")
        # continuation parameter ce before value parameter x, used as a value
        bad = Abs((ce, x, cc), App(Var(cc), (Var(x),)))
        term = Abs((g,), App(Var(g), (bad,)))
        found = analyze(term)
        assert "TML008" in codes(found)

    def test_y_bad_shape_tml009(self, registry):
        supply = NameSupply()
        v, c = supply.fresh_val("v"), supply.fresh_cont("c")
        # leading parameter is value-sorted: not λ(c0 v1..vn c)
        fixfun = Abs((v, c), App(Var(c), (Lit(0),)))
        found = analyze(PrimApp("Y", (fixfun,)), registry)
        assert "TML009" in codes(found)

    def test_literal_after_continuation_tml004(self):
        supply = NameSupply()
        f, cc = supply.fresh_val("f"), supply.fresh_cont("cc")
        term = Abs((f, cc), App(Var(f), (Var(cc), Lit(1))))
        found = analyze(term)
        assert "TML004" in codes(found)
        [d] = [d for d in found if d.code == "TML004"]
        assert d.path.endswith("args[1]")

    def test_the_y_body_shape_elsewhere_tml004(self, registry):
        """Only the body of the ``Y`` abstraction is exempt: the same shape
        as an ordinary application is a mangled call."""
        found = analyze(
            parse_term("proc(g ce cc) (g cont() (halt 0) proc(x ce1 cc1) (cc1 x))"), registry
        )
        assert [(d.code, d.path) for d in found] == [("TML004", "body.args[1]")]

    def test_inside_a_y_binding_tml004(self, registry):
        """The suffix rule still holds in the bodies the bindings hold."""
        found = analyze(
            parse_term(
                "proc(ce cc) (Y λ(^c0 f ^c) (c cont() (f 1 ce cc) proc(x ce1 cc1) (g cc1 1)))"
            ),
            registry,
        )
        assert [(d.code, d.path) for d in found] == [
            ("TML004", "body.args[0].body.args[1].body.args[1]")
        ]


class TestWellformedBridge:
    """repro.core.wellformed must see exactly the same findings."""

    def test_constraint_mapping_is_total(self):
        assert set(CONSTRAINT_OF_CODE.values()) == {1, 2, 3, 4, 5}

    def test_violations_match_diagnostics(self, registry):
        term = parse_term("(λ(x y) (f x) 1)")
        found = analyze(term, registry)
        vs = violations(term, registry)
        assert len(vs) == len(found)
        assert [v.constraint for v in vs] == [d.data["constraint"] for d in found]
        assert [v.message for v in vs] == [d.message for d in found]

    def test_check_raises_with_constraint_text(self):
        supply = NameSupply()
        x = supply.fresh_val("x")
        dup = Abs((x,), App(Abs((x,), App(Var(x), ())), (Lit(1),)))
        with pytest.raises(Exception) as err:
            check(dup)
        assert "constraint 4" in str(err.value)
