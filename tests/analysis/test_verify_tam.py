"""Tests for the TAM bytecode verifier (abstract interpretation over machine.isa)."""

import dataclasses

import pytest

from repro.analysis.lint import lint_code
from repro.analysis.verify_tam import (
    TamVerificationError,
    assert_verified,
    code_errors,
    verify_code,
)
from repro.lang.modules import CompileOptions, compile_module, compile_stdlib
from repro.machine.codegen import compile_function
from repro.primitives.registry import default_registry

SRC = """
module t export inc branchy looper
let inc(x: Int): Int = x + 1
let branchy(x: Int): Int = if x < 0 then 0 - x else x end
let looper(n: Int): Int =
  var acc := 0 in
  begin
    for i = 1 upto n do acc := acc + i end;
    acc
  end
end
"""


@pytest.fixture(scope="module")
def codes():
    compiled = compile_module(SRC)
    return {name: fn.code for name, fn in compiled.functions.items()}


def errors(found):
    return [d for d in found if d.is_error]


def mutate(code, pc, instr, **meta):
    instrs = list(code.instrs)
    instrs[pc] = instr
    return dataclasses.replace(code, instrs=instrs, **meta)


class TestAcceptsCodegenOutput:
    def test_compiled_module(self, codes):
        for name, code in codes.items():
            assert verify_code(code, name=name) == [], name

    def test_whole_stdlib(self):
        for module in compile_stdlib(CompileOptions()).values():
            for fn in module.functions.values():
                assert verify_code(fn.code, name=fn.name) == []

    def test_assert_verified_returns_code(self, codes):
        assert assert_verified(codes["inc"]) is codes["inc"]


class TestStructuralPhase:
    def test_unknown_opcode_tam001(self, codes):
        bad = mutate(codes["inc"], 0, ("frobnicate", 0))
        assert {d.code for d in errors(verify_code(bad))} == {"TAM001"}

    def test_wrong_operand_count_tam002(self, codes):
        code = codes["inc"]
        # find a const and drop its operand
        pc = next(i for i, ins in enumerate(code.instrs) if ins[0] == "const")
        bad = mutate(code, pc, ("const", code.instrs[pc][1]))
        assert {d.code for d in errors(verify_code(bad))} == {"TAM002"}

    def test_register_out_of_range_tam004(self, codes):
        code = codes["inc"]
        bad = mutate(code, 0, ("bnot", code.nregs + 5, 0))
        found = errors(verify_code(bad))
        assert {d.code for d in found} == {"TAM004"}
        assert "out of range" in found[0].message

    def test_const_index_out_of_range_tam005(self, codes):
        code = codes["inc"]
        pc = next(i for i, ins in enumerate(code.instrs) if ins[0] == "const")
        bad = mutate(code, pc, ("const", code.instrs[pc][1], len(code.consts) + 9))
        assert {d.code for d in errors(verify_code(bad))} == {"TAM005"}

    def test_jump_target_out_of_range_tam007(self, codes):
        code = codes["inc"]
        bad = mutate(code, 0, ("lt", 0, 0, len(code.instrs) + 3))
        found = errors(verify_code(bad))
        assert "TAM007" in {d.code for d in found}

    def test_operand_kind_tam003(self, codes):
        bad = mutate(codes["inc"], 0, ("bnot", "zero", 0))
        assert {d.code for d in errors(verify_code(bad))} == {"TAM003"}

    def test_metadata_tam011(self, codes):
        code = codes["inc"]
        bad = dataclasses.replace(code, nregs=len(code.params) - 1)
        assert "TAM011" in {d.code for d in verify_code(bad)}

    @staticmethod
    def _proc(*instrs):
        from repro.core.names import NameSupply
        from repro.machine.isa import CodeObject

        supply = NameSupply()
        params = (supply.fresh_val("x"), supply.fresh_cont("ce"), supply.fresh_cont("cc"))
        return CodeObject("p", params, nregs=4, instrs=list(instrs), is_proc=True)

    def test_case_with_unpaired_tag_tam002(self):
        """One branch target per tag register: the VM pairs them with
        ``zip`` and would silently never match the extra tag."""
        ret = ("tailcall", 2, (0,))
        assert verify_code(self._proc(("case", 0, (0,), (1,), None), ret)) == []
        found = verify_code(self._proc(("case", 0, (0, 0), (1,), None), ret))
        assert [d.code for d in found] == ["TAM002"]
        assert "2 tag register(s) but 1 branch target(s)" in found[0].message

    def test_extcall_error_edge_without_register_tam003(self):
        """An ``extcall`` with an error edge writes the raised value through
        its ``ew?`` operand: ``None`` there used to pass the structural phase
        and crash the abstract interpreter (and the VM) with a TypeError."""
        ret, fail = ("tailcall", 2, (3,)), ("tailcall", 1, (0,))
        for epc, ed in ((2, 3), (None, None), (None, 3)):  # the last: what
            # the query emitters produce for a primitive without a ``ce``
            good = self._proc(("extcall", "count", 3, (0,), epc, ed), ret, fail)
            assert verify_code(good) == []
        bad = self._proc(("extcall", "count", 3, (0,), 2, None), ret, fail)
        assert [d.code for d in verify_code(bad)] == ["TAM003"]


class TestDataflowPhase:
    def test_read_before_definition_tam010(self, codes):
        code = codes["inc"]
        fresh = code.nregs  # a register nothing ever writes
        bad = mutate(code, 0, ("bnot", 0, fresh), nregs=code.nregs + 1)
        found = errors(verify_code(bad))
        assert "TAM010" in {d.code for d in found}
        assert any(str(fresh) in d.message for d in found)

    def test_exception_dst_not_counted_on_fallthrough(self):
        """arith writes its error register only on the exception edge."""
        from repro.core.parser import parse_term

        term = parse_term("proc(x ce cc) (+ x 1 ce cc)")
        code = compile_function(term, default_registry(), name="direct")
        pc, instr = next(
            (i, ins) for i, ins in enumerate(code.instrs) if ins[0] == "add"
        )
        ed = instr[5]
        # reading ed right after the add (fallthrough path) must be flagged
        instrs = list(code.instrs)
        instrs.insert(pc + 1, ("bnot", instr[1], ed))
        bad = dataclasses.replace(code, instrs=instrs)
        found = verify_code(bad)
        assert "TAM010" in {d.code for d in found}

    def test_fall_off_end_tam009(self, codes):
        code = codes["inc"]
        # replace the terminal tailcall with a non-terminal bnot
        pc = len(code.instrs) - 1
        bad = mutate(code, pc, ("bnot", 0, 0))
        assert "TAM009" in {d.code for d in errors(verify_code(bad))}


class TestTreeShape:
    """TAM012: the control flow of a code object is a tree — what lets the
    compiled tier run it as one Python function with static counts."""

    @staticmethod
    def _proc(*instrs):
        return TestStructuralPhase._proc(*instrs)

    def test_a_join_tam012(self):
        # pc 2 is entered by the jump at 0 and by falling out of 1
        code = self._proc(("lt", 0, 0, 2), ("bnot", 3, 0), ("tailcall", 2, (0,)))
        found = errors(verify_code(code))
        assert [(d.code, d.data["pc"]) for d in found] == [("TAM012", 2)]
        assert "2 edges enter pc 2" in found[0].message
        assert [d.code for d in code_errors(code)] == ["TAM012"]

    def test_a_backward_jump_tam012(self):
        code = self._proc(("tailcall", 2, (0,)), ("lt", 0, 0, 0), ("tailcall", 2, (0,)))
        found = errors(verify_code(code))
        assert [(d.code, d.data["target"]) for d in found] == [("TAM012", 0)]
        assert [d.code for d in code_errors(code)] == ["TAM012"]

    def test_lint_reports_it_as_an_error(self, codes):
        bad = mutate(codes["branchy"], 0, ("lt", 0, 0, 0))
        assert "TAM012" in {d.code for d in lint_code(bad) if d.is_error}
        assert lint_code(codes["branchy"]) == []

    def test_structural_errors_come_first(self, codes):
        bad = mutate(codes["inc"], 0, ("frobnicate", 0))
        assert [d.code for d in code_errors(bad)] == ["TAM001"]


def _buggy_add_emitter(c, app):
    """The real ``+`` emitter with one register effect wrong.

    The result lands in ``err`` instead of ``dst``; the continuation then
    reads ``dst``, which no path defines — exactly the class of codegen bug
    the verifier's definite-assignment phase exists to catch.
    """
    a, b, ce, cc = app.args
    ra, rb = c.value_reg(a), c.value_reg(b)
    dst, err = c.fresh_reg(), c.fresh_reg()
    exc = c.block(ce, [err])
    c.emit("add", err, ra, rb, exc, err)
    c.continue_with(cc, [dst])


class TestInjectedCodegenBug:
    """Acceptance scenario: a buggy emitter whose register effect is wrong."""

    def test_wrong_destination_register_caught(self, monkeypatch):
        from repro.core.parser import parse_term
        from repro.machine import codegen

        monkeypatch.setitem(codegen._EMITTERS, "+", _buggy_add_emitter)
        term = parse_term("proc(x ce cc) (+ x 1 ce cc)")
        code = compile_function(term, default_registry(), name="buggy")
        found = verify_code(code, name="buggy")
        assert "TAM010" in {d.code for d in found}
        with pytest.raises(TamVerificationError):
            assert_verified(code, name="buggy")

    def test_compile_module_refuses_buggy_code(self, monkeypatch):
        from repro.machine import codegen

        monkeypatch.setitem(codegen._EMITTERS, "+", _buggy_add_emitter)
        with pytest.raises(TamVerificationError):
            compile_module(
                "module m export f let f(x: Int): Int = x + 1 end",
                options=CompileOptions(library_ops=False, optimizer=None),
            )


class TestNestedCodes:
    def test_bug_in_nested_code_reported_with_path(self, codes):
        code = codes["branchy"]
        assert code.codes, "expected nested continuation codes"
        child = code.codes[0]
        bad_child = mutate(child, 0, ("frobnicate",))
        nested = list(code.codes)
        nested[0] = bad_child
        bad = dataclasses.replace(code, codes=nested)
        found = errors(verify_code(bad, name="branchy"))
        assert found and all("codes[0]" in d.path for d in found)


class TestHandlerDepthPrecision:
    """TAM020 is a per-path proof over the whole code family.

    Regression suite for the materialized-continuation pattern: a nested
    closure that pops a handler its *parent* pushed is balanced — the old
    per-code heuristic could not see across the family boundary.  The
    abstract interpreter reports it, through ``lint_code``; the verifier
    gate does not.
    """

    @staticmethod
    def _family(pops_in_child):
        from repro.core.names import NameSupply
        from repro.machine.isa import CodeObject

        supply = NameSupply()
        cc_free = supply.fresh_cont("cc")
        child_instrs = [("poph",)] * pops_in_child
        child_instrs += [("free", 1, 0), ("tailcall", 1, (0,))]
        child = CodeObject(
            name="k",
            params=(supply.fresh_val("v"),),
            nregs=4,
            instrs=child_instrs,
            free_names=(cc_free,),
        )
        f = supply.fresh_val("f")
        return CodeObject(
            name="with_handler",
            params=(
                supply.fresh_val("x"),
                supply.fresh_cont("ce"),
                supply.fresh_cont("cc"),
            ),
            nregs=8,
            instrs=[
                ("pushh", 0),
                ("closure", 3, 0, (("r", 2),)),  # k captures cc
                ("free", 4, 0),
                ("tailcall", 4, (0, 1, 3)),  # f(x, ce, k): k pops later
            ],
            codes=[child],
            free_names=(f,),
            is_proc=True,
        )

    def test_materialized_continuation_pop_is_balanced(self):
        # the child pops the handler the parent pushed before calling out:
        # depth at the child's poph is provably 1, so no finding
        code = self._family(pops_in_child=1)
        assert lint_code(code, name="with_handler") == []

    def test_double_pop_through_continuation_fires(self):
        # a second poph in the child provably reaches depth 0: it would pop
        # a handler installed by with_handler's own caller
        code = self._family(pops_in_child=2)
        found = lint_code(code, name="with_handler")
        assert [d.code for d in found] == ["TAM020"]
        assert not any(d.is_error for d in found)  # warning severity
        # a warning is not the gate's business: the code verifies
        assert verify_code(code, name="with_handler") == []

    def test_pop_without_any_push_fires_at_root(self):
        import dataclasses as dc

        code = self._family(pops_in_child=1)
        bare = dc.replace(code, instrs=[("poph",)] + list(code.instrs[1:]))
        found = lint_code(bare, name="with_handler")
        assert "TAM020" in {d.code for d in found}
