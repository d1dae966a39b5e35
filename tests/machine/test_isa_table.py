"""The instruction table cannot drift, and every opcode meets the oracle.

``repro.machine.isa.OPS`` declares each TAM opcode once.  The first half
holds everything hand-written equal to it (no execution): the opcodes the
reference loop (``tests/machine/reference_vm.py``) dispatches on, the ones
the compiled tier has an emitter for, the ones the code generator and the
registered extension emitters can emit, the arms of the abstract
interpreter and the decompiler, the binary numbering, and — row by row, operand kind by operand kind — what the
verifier accepts and which ``TAM00x`` it answers a violation with.  A row
without a producer or an executor fails here.

The second half runs every row that implements a primitive, on a succeeding
input and on every way it traps, through the reference interpreter, the
reference loop, the compiled tier's plain and counted texts, the VM on
optimized code and the VM on decompiled-and-recompiled code, and requires one
answer — and of the three that run the same code, one count; a profiler over
the whole sweep, in the reference loop and in the counted text, must have
seen every opcode of the table execute, and the same number of times.
"""

import ast
import copy
import dataclasses
import inspect
import textwrap
from pathlib import Path

import pytest

from repro.analysis import absint
from repro.analysis.verify_tam import _KINDS, verify_code
from repro.core.names import NameSupply
from repro.core.parser import parse_term
from repro.core.syntax import UNIT, Char
from repro.machine import codegen
from repro.machine.binfmt import decode_code, encode_code
from repro.machine.cps_interp import Interpreter
from repro.machine.isa import OPS, CodeObject, Op
from repro.machine.runtime import (
    ForeignTable,
    MachineError,
    TmlArray,
    TmlByteArray,
    TmlVector,
    UncaughtTmlException,
)
from repro.machine.tier import EMITTERS
from repro.machine.vm import VM, instantiate
from repro.obs.profile import VMProfiler
from repro.primitives._util import INT_MAX, INT_MIN
from repro.primitives.registry import default_registry
from repro.query.algebra import query_registry
from repro.reflect import decompile
from repro.rewrite import optimize
from repro.store.serialize import SerializeError

from tests.machine.reference_vm import ReferenceVM

# ---------------------------------------------------------------------------
# static half: the table against the hand-written code
# ---------------------------------------------------------------------------

#: today's numbering, literally: stored images carry these bytes
NUMBERS = {
    "const": 0, "free": 2, "closure": 3, "fix": 4,
    "add": 6, "sub": 7, "mul": 8, "div": 9, "rem": 10,
    "lt": 11, "gt": 12, "le": 13, "ge": 14,
    "band": 15, "bor": 16, "bxor": 17, "shl": 18, "shr": 19, "bnot": 20,
    "c2i": 21, "i2c": 22,
    "arr": 23, "vec": 24, "anew": 25, "bnew": 26,
    "aget": 27, "aset": 28, "bget": 29, "bset": 30, "asize": 31,
    "amove": 32, "bmove": 33,
    "case": 34, "tailcall": 35, "pushh": 36, "poph": 37, "raise": 38,
    "ccall": 39, "print": 40, "halt": 41, "extcall": 43,
}
#: bytes that once meant ``move``, ``jump`` and ``trapc``; never reused
RESERVED = (1, 5, 42)

#: the operand kinds :meth:`Op.parts` takes apart
REGULAR_KINDS = {"w", "r", "rs", "pc", "ew"}


def _dispatched(function) -> set[str]:
    """The opcode literals ``function`` compares its ``op`` variable with."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(function)))):
        if (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Name)
            and node.left.id == "op"
        ):
            for literal in ast.walk(node.comparators[0]):
                if isinstance(literal, ast.Constant) and isinstance(literal.value, str):
                    found.add(literal.value)
    return found


def _emitted(module) -> set[str]:
    """The opcode literals ``module``'s emitters pass to ``emit`` — directly,
    or as the argument of an ``_emit_*`` emitter factory."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        callee = node.func
        name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
        first = node.args[0]
        if (name == "emit" or name.startswith("_emit_")) and isinstance(first, ast.Constant):
            found.add(first.value)
    return found


class TestOneDeclarationPerOpcode:
    def test_the_vm_executes_exactly_the_table(self):
        assert _dispatched(ReferenceVM._execute) == set(OPS)

    def test_the_tier_compiles_exactly_the_table(self):
        # no opcode is left to the interpreter
        assert set(EMITTERS) == set(OPS)

    def test_the_compilers_emit_exactly_the_table(self):
        modules = {codegen}
        for prim in query_registry():
            if prim.emit is not None:
                modules.add(inspect.getmodule(prim.emit))
        emitted = set().union(*(_emitted(module) for module in modules))
        assert emitted == set(OPS)

    def test_every_fig2_primitive_has_one_row_and_one_emitter(self):
        implemented = [row.prim for row in OPS.values() if row.prim is not None]
        assert len(implemented) == len(set(implemented))
        assert set(implemented) == set(default_registry().names())
        assert set(implemented) == set(codegen._EMITTERS)

    @pytest.mark.parametrize(
        "consumer", [absint._Family._step, decompile._Decompiler._block]
    )
    def test_every_row_has_an_arm_or_is_regular(self, consumer):
        by_hand = _dispatched(consumer)
        assert by_hand <= set(OPS), "an arm for an opcode the table does not have"
        for name, row in OPS.items():
            if name not in by_hand:
                assert set(row.operands) <= REGULAR_KINDS, name
                assert row.prim is not None, name

    def test_needs_and_gives_describe_the_operands(self):
        for name, row in OPS.items():
            assert len(row.needs) <= row.operands.count("r"), name
            if row.gives is not None:
                assert "w" in row.operands, name
                assert absint.kind_from_token(row.gives).token == row.gives, name
            for token in row.needs:
                assert absint.kind_from_token(token).token == token, name
        # a row the abstract interpreter leaves to its generic arm says what
        # that arm needs to know
        for name in set(OPS) - _dispatched(absint._Family._step):
            row = OPS[name]
            assert ("w" in row.operands) == (row.gives is not None), name
            assert len(row.needs) == row.operands.count("r"), name

    def test_numbering_is_todays_and_append_only(self):
        assert {name: row.number for name, row in OPS.items()} == NUMBERS
        assert len(OPS) == 41
        assert not set(RESERVED) & set(NUMBERS.values())

    @pytest.mark.parametrize("number", RESERVED)
    def test_a_reserved_byte_does_not_decode(self, number, monkeypatch):
        code = _host(("retired", 3, 0), ("halt", 0))
        with monkeypatch.context() as patch:
            patch.setitem(OPS, "retired", Op(number, ("w", "r"), "once an opcode"))
            image = encode_code(code)
        with pytest.raises(SerializeError, match=f"bad opcode {number}"):
            decode_code(image)

    def test_derived_traits_agree_with_the_registry(self):
        registry = default_registry()
        for name, row in OPS.items():
            if row.prim is None:
                continue
            prim = registry.lookup(row.prim)
            assert row.effect is prim.attrs.effect, name
            signature = prim.signature
            # (``pushHandler`` stores its first continuation, it does not
            # enter it)
            entered = signature.cont_args - (row.handler_delta > 0)
            assert row.branches == (signature.layout == "case" or entered >= 2), name
            returns = signature.layout == "fixpoint" or signature.cont_args >= 1
            assert row.terminal == (not returns or signature.layout == "case"), name
        # ... and with the trait table they replaced
        assert {n for n, r in OPS.items() if r.writes_memory} == {
            "aset", "bset", "amove", "bmove",
        }
        assert {n for n, r in OPS.items() if r.observable} == {
            "print", "ccall", "extcall",
        }
        assert {n for n, r in OPS.items() if r.handler_delta} == {"pushh", "poph"}


# ---------------------------------------------------------------------------
# the verifier, row by row and kind by kind
# ---------------------------------------------------------------------------

#: a well-formed operand of each kind, inside :func:`_host` followed by
#: :data:`EXITS`: a jump lands on a ``halt`` of its own (pc 2; a ``case``'s
#: tag on pc 1), not on the one the instruction falls through to, so the
#: control flow stays a tree
SAMPLE = {
    "w": 3, "r": 0, "rs": (0,), "c": 0, "k": 0, "f": 0,
    "plan": (("r", 0),), "group": ((3, 0, (("r", 0),)),),
    "pc": 2, "pcs": (1,), "pc?": 2, "ew": 4, "ew?": 4, "name": "count",
}
EXITS = (("halt", 0), ("halt", 0))

#: operand kind -> (malformed operand, the diagnostic it earns)
VIOLATIONS = {
    "w": [("x", "TAM003"), (True, "TAM003"), (99, "TAM004"), (-1, "TAM004")],
    "r": [("x", "TAM003"), (None, "TAM003"), (99, "TAM004")],
    "rs": [(0, "TAM003"), (("x",), "TAM003"), ((99,), "TAM004")],
    "c": [(99, "TAM005"), ("x", "TAM005")],
    "k": [(99, "TAM006"), (None, "TAM006")],
    "f": [(99, "TAM004"), ("x", "TAM004")],
    "plan": [
        (0, "TAM003"), ((), "TAM008"), ((("q", 0),), "TAM008"),
        ((("f", 99),), "TAM008"), ((("r", 99),), "TAM004"),
    ],
    "group": [
        ((), "TAM003"), ((3,), "TAM003"), ((("x", 0, (("r", 0),)),), "TAM003"),
        (((3, 99, ()),), "TAM006"), (((3, 0, ()),), "TAM008"),
    ],
    "pc": [("x", "TAM003"), (99, "TAM007"), (-1, "TAM007")],
    "pcs": [(1, "TAM003"), ((99,), "TAM007"), ((1, 1), "TAM002"), ((), "TAM002")],
    "pc?": [("x", "TAM003"), (99, "TAM007")],
    "ew": [("x", "TAM003"), (99, "TAM004")],
    "ew?": [("x", "TAM003"), (99, "TAM004"), (None, "TAM003")],
    "name": [("", "TAM003"), (7, "TAM003")],
}


def _host(*instrs) -> CodeObject:
    """A procedure with something of everything an operand can refer to."""
    supply = NameSupply()
    child = CodeObject(
        "k", (supply.fresh_val("v"),), nregs=2,
        instrs=[("halt", 0)], free_names=(supply.fresh_val("y"),),
    )
    params = (supply.fresh_val("x"), supply.fresh_cont("ce"), supply.fresh_cont("cc"))
    return CodeObject(
        "host", params, nregs=6, instrs=list(instrs), consts=[0], codes=[child],
        free_names=(supply.fresh_val("z"),), is_proc=True,
    )


def _instance(name: str) -> tuple:
    return (name,) + tuple(SAMPLE[kind] for kind in OPS[name].operands)


def _error_codes(code: CodeObject) -> list[str]:
    return [d.code for d in verify_code(code) if d.is_error]


class TestVerifierReadsTheTable:
    def test_every_kind_has_a_checker_a_sample_and_violations(self):
        used = {kind for row in OPS.values() for kind in row.operands}
        assert used == set(_KINDS) == set(SAMPLE) == set(VIOLATIONS)

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_an_instance_of_the_row_verifies(self, name):
        assert _error_codes(_host(_instance(name), *EXITS)) == []

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_each_operand_violation_is_its_diagnostic(self, name):
        good = _instance(name)
        for position, kind in enumerate(OPS[name].operands, start=1):
            for operand, diagnostic in VIOLATIONS[kind]:
                bad = good[:position] + (operand,) + good[position + 1:]
                found = set(_error_codes(_host(bad, *EXITS)))
                assert found == {diagnostic}, (bad, found)

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_the_operand_count_is_the_rows(self, name):
        good = _instance(name)
        for bad in (good + (0,), good[:-1]):
            if bad:  # ``poph`` has no operand to drop
                assert _error_codes(_host(bad, *EXITS)) == ["TAM002"], bad

    def test_terminal_rows_end_a_block_and_only_they(self):
        for name, row in OPS.items():
            # with every pc operand pointing back at the instruction itself
            # the only way on is pc + 1, which does not exist
            alone = tuple(
                {2: 0, (1,): (0,)}.get(operand, operand) for operand in _instance(name)
            )
            falls_off = "TAM009" in _error_codes(_host(alone))
            assert falls_off == (not row.terminal), name


# ---------------------------------------------------------------------------
# dynamic half: every row against the reference interpreter
# ---------------------------------------------------------------------------

REGISTRY = query_registry()
PRIMS = set(REGISTRY.names())


def A(*slots):
    return TmlArray(slots)


def V(*slots):
    return TmlVector(slots)


def B(data: bytes):
    return TmlByteArray(data)


#: a value of every kind but the one named
WRONG = {
    "int": (True, "s", Char("c"), 1.5, UNIT),
    "char": (65, "A"),
    "array": (5, UNIT),
}


@dataclasses.dataclass
class Case:
    """One program applying a primitive to its parameters.

    ``good`` argument lists succeed; ``traps`` maps a trap value to the
    argument lists that must raise it.  For a row that declares ``needs``
    the typeError cases are generated from the declaration."""

    prim: str | None
    source: str
    good: list = dataclasses.field(default_factory=list)
    traps: dict = dataclasses.field(default_factory=dict)


def _foreign() -> ForeignTable:
    def boom():
        raise ValueError("no")

    return ForeignTable({"twice": lambda x: 2 * x, "boom": boom, "n": lambda: None})


_COMPARE = "proc(a b ce cc) ({} a b cont() (cc 1) cont() (cc 0))"

CASES = [
    Case("+", "proc(a b ce cc) (+ a b ce cc)", [(7, 3), (INT_MAX, 0)],
         {"overflow": [(INT_MAX, 1)]}),
    Case("-", "proc(a b ce cc) (- a b ce cc)", [(7, 3), (INT_MIN, 0)],
         {"overflow": [(INT_MIN, 1)]}),
    Case("*", "proc(a b ce cc) (* a b ce cc)", [(7, -3)],
         {"overflow": [(INT_MAX, 2)]}),
    Case("/", "proc(a b ce cc) (/ a b ce cc)", [(7, 2), (-7, 2)],
         {"zeroDivide": [(1, 0)], "overflow": [(INT_MIN, -1)]}),
    Case("%", "proc(a b ce cc) (% a b ce cc)", [(7, 2), (-7, 2), (7, -2)],
         {"zeroDivide": [(1, 0)]}),
    Case("<", _COMPARE.format("<"), [(1, 2), (2, 1), (2, 2)]),
    Case(">", _COMPARE.format(">"), [(1, 2), (2, 1), (2, 2)]),
    Case("<=", _COMPARE.format("<="), [(1, 2), (2, 1), (2, 2)]),
    Case(">=", _COMPARE.format(">="), [(1, 2), (2, 1), (2, 2)]),
    Case("band", "proc(a b ce cc) (band a b cc)", [(12, 10), (-1, 7)]),
    Case("bor", "proc(a b ce cc) (bor a b cc)", [(12, 10)]),
    Case("bxor", "proc(a b ce cc) (bxor a b cc)", [(12, 10), (-1, 1)]),
    Case("shl", "proc(a b ce cc) (shl a b cc)", [(1, 3), (1, 70), (INT_MAX, 1)]),
    Case("shr", "proc(a b ce cc) (shr a b cc)", [(-8, 1), (8, 65)]),
    Case("bnot", "proc(a ce cc) (bnot a cc)", [(5,), (-1,)]),
    Case("char2int", "proc(a ce cc) (char2int a cc)", [(Char("A"),)]),
    Case("int2char", "proc(a ce cc) (int2char a cc)", [(65,), (321,)]),
    Case("array", "proc(a b ce cc) (array a b cc)", [(1, "x"), (UNIT, True)]),
    Case("vector", "proc(a b ce cc) (vector a b cc)", [(1, "x")]),
    Case("new", "proc(a b ce cc) (new a b cc)", [(3, 7), (0, UNIT)],
         {"boundsError": [(-1, 0)]}),
    Case("$new", "proc(a b ce cc) ($new a b cc)", [(3, 65), (2, 300)],
         {"boundsError": [(-1, 0)]}),
    Case("[]", "proc(a b ce cc) ([] a b cc)", [(A(1, 2, 3), 1), (V(4, 5), 0)],
         {"boundsError": [(A(1, 2, 3), 3), (A(1), -1), (V(), 0)]}),
    Case("[]:=", "proc(a b c ce cc) ([]:= a b c cc)", [(A(1, 2, 3), 1, "v")],
         {"boundsError": [(A(1), 1, 0), (A(1), -1, 0)],
          "typeError": [(V(1), 0, 0)]}),  # vectors are immutable
    Case("$[]", "proc(a b ce cc) ($[] a b cc)", [(B(b"abc"), 2)],
         {"boundsError": [(B(b"abc"), 3), (B(b""), -1)],
          "typeError": [(A(1), 0)]}),
    Case("$[]:=", "proc(a b c ce cc) ($[]:= a b c cc)", [(B(b"abc"), 0, 300)],
         {"boundsError": [(B(b"a"), 1, 0)], "typeError": [(A(1), 0, 0)]}),
    Case("size", "proc(a ce cc) (size a cc)", [(A(1, 2),), (V(1),), (B(b"abcd"),)]),
    Case("move", "proc(a b c d e ce cc) (move a b c d e cc)",
         [(A(0, 0, 0, 0), 1, A(1, 2, 3), 0, 2), (A(0, 0), 0, V(7, 8), 0, 2)],
         {"boundsError": [(A(0), 0, A(1, 2), 0, 2), (A(0, 0), 0, A(1), 0, -1),
                          (A(0, 0), -1, A(1), 0, 1)],
          "typeError": [(V(0), 0, A(1), 0, 1), (B(b"a"), 0, B(b"b"), 0, 1)]}),
    Case("$move", "proc(a b c d e ce cc) ($move a b c d e cc)",
         [(B(b"....."), 1, B(b"abc"), 0, 3)],
         {"boundsError": [(B(b"."), 0, B(b"ab"), 0, 2), (B(b".."), 0, B(b"a"), 1, 1)],
          "typeError": [(A(0), 0, A(1), 0, 1)]}),
    Case("==", "proc(a ce cc) (== a 1 2 cont() (cc 10) cont() (cc 20) cont() (cc 30))",
         [(1,), (2,), (3,), ("s",)]),
    Case("==", "proc(a ce cc) (== a 1 cont() (cc 10))", [(1,)],
         {"caseError": [(2,), (True,)]}),
    Case("Y", """
         proc(n ce cc)
           (Y λ(^c0 loop ^c)
              (c cont() (loop 0 0)
                 cont(i acc)
                   (>= i n cont() (cc acc)
                           cont() (+ acc i ce cont(s)
                                     (+ i 1 ce cont(j) (loop j s))))))
         """, [(0,), (10,)]),
    Case("pushHandler", """
         proc(a ce cc)
           (λ(^h) (pushHandler h cont() (popHandler cont() (cc a)))
            cont(e) (cc 0))
         """, [(5,)]),
    Case("raise", """
         proc(a ce cc)
           (λ(^h) (pushHandler h cont() (raise a))
            cont(e) (array e 1 cc))
         """, [(5,), ("oops",)]),
    Case("raise", "proc(a ce cc) (raise a)", [], {"boom": [("boom",)], 7: [(7,)]}),
    Case("popHandler", "proc(a ce cc) (popHandler cont() (cc a))", [],
         {MachineError: [(1,)]}),
    # a trap inside the handled region reaches the handler, which sees it
    Case("popHandler", """
         proc(a b ce cc)
           (λ(^h) (pushHandler h cont() ([] a b cont(v) (popHandler cont() (cc v))))
            cont(e) (vector "handled" e cc))
         """, [(A(1, 2), 1), (A(1, 2), 2), (A(), 0)]),
    Case("ccall", 'proc(a b ce cc) (ccall a b ce cc)',
         [("twice", V(4)), (Char("n"), V()), ("n", A())],
         {"foreignError: no": [("boom", V())],
          "typeError": [(5, V()), ("twice", 4)],
          MachineError: [("missing", V())]}),
    Case("print", "proc(a ce cc) (print a cont(u) (print u cont(w) (cc a)))",
         [(5,), ("s",), (Char("c"),), (A(1, V(2)),), (True,)]),
    Case("halt", "proc(a ce cc) (halt a)", [(4,), ("s",)]),
    # rows that implement no primitive of their own
    Case(None, "proc(a ce cc) (cc 5)", [(1,)]),
    Case(None, """
         proc(a ce cc)
           (λ(addx) (addx 1 ce cont(t) (addx t ce cc))
            proc(v ce2 cc2) (+ v a ce2 cc2))
         """, [(4,)], {"typeError": [("s",)], "overflow": [(INT_MAX,)]}),
    Case(None, "proc(a ce cc) (a 1 ce cc)", [], {"typeError": [(5,), (A(),)]}),
    Case(None, "proc(a b ce cc) (and a b cc)", [(True, False), (True, True)],
         {"queryTypeError: predicate did not return a boolean": [(True, 5)]}),
    Case(None, "proc(a b ce cc) (select a b ce cc)", [],
         {"queryTypeError: not a relation": [(5, 5)]}),
]


def _outcome(run, args):
    """What a caller can observe: the value or trap, the output, and what
    became of the (mutable) arguments."""
    try:
        result = run(args)
    except UncaughtTmlException as trap:
        return ("trap", trap.value, repr(args))
    except MachineError:
        return ("trap", MachineError, repr(args))
    return ("value", repr(result.value), result.output, repr(args))


class _Program:
    """One :class:`Case` compiled for every engine."""

    def __init__(self, case: Case, profilers: dict[str, VMProfiler]):
        term = parse_term(case.source, prims=PRIMS)
        self.code = codegen.compile_function(term, REGISTRY)
        optimized = codegen.compile_function(optimize(term, REGISTRY).term, REGISTRY)
        rebuilt = codegen.compile_function(decompile.decompile_code(self.code), REGISTRY)

        def interpret(args):
            interpreter = Interpreter(registry=REGISTRY, foreign=_foreign())
            return interpreter.call(interpreter.make_closure(term), args)

        def on(vm_class, code, profiler=None):
            def run(args):
                run.vm = vm = vm_class(foreign=_foreign(), profiler=profiler)
                return vm.call(instantiate(code), args)

            return run

        self.engines = {
            "interpreter": interpret,
            "reference": on(ReferenceVM, self.code, profilers["reference"]),
            "vm": on(VM, self.code),
            # a VMProfiler makes the VM run the counted text
            "vm-counted": on(VM, self.code, profilers["counted"]),
            "vm-optimized": on(VM, optimized),
            "vm-decompiled": on(VM, rebuilt),
        }

    def run(self, args) -> tuple:
        """The one outcome all engines agree on."""
        outcomes = {
            name: _outcome(engine, copy.deepcopy(list(args)))
            for name, engine in self.engines.items()
        }
        oracle = outcomes["interpreter"]
        assert all(o == oracle for o in outcomes.values()), (args, outcomes)
        # value, output or trap — and the count, also when the run trapped
        counts = {self.engines[name].vm.instructions for name in ("reference", "vm", "vm-counted")}
        assert len(counts) == 1, (args, counts)
        assert callable(self.code.tier) and callable(self.code.tier_counted)
        return oracle

    def kinds_report(self, args) -> set[str]:
        """What the abstract interpreter says of a call with these kinds."""
        kinds = tuple(absint.kind_of_value(value) for value in args)
        analysis = absint.analyze_code(self.code, registry=REGISTRY, arg_kinds=kinds)
        return {d.code for d in analysis.diagnostics}


@pytest.fixture(scope="module")
def sweep():
    """Run every case once: ``{row name: [(case, args, expected trap or None,
    outcome, TAM codes)]}`` plus the profilers that watched the reference
    loop and the counted text run all of it."""
    profilers = {"reference": VMProfiler(), "counted": VMProfiler()}
    by_prim = {row.prim: name for name, row in OPS.items() if row.prim is not None}
    runs: dict[str | None, list] = {}
    for case in CASES:
        program = _Program(case, profilers)
        row = OPS[by_prim[case.prim]] if case.prim is not None else None
        planned = [(args, None, False) for args in case.good]
        planned += [
            (args, trap, False) for trap, lists in case.traps.items() for args in lists
        ]
        if row is not None and case.good:
            for position, need in enumerate(row.needs):
                for wrong in WRONG.get(need, ()):
                    args = list(case.good[0])
                    args[position] = wrong
                    planned.append((tuple(args), "typeError", True))
        for args, trap, derived in planned:
            runs.setdefault(by_prim.get(case.prim), []).append(
                (args, trap, derived, program.run(args), program.kinds_report(args))
            )
    return runs, profilers


class TestEveryOpcodeAgainstTheOracle:
    def test_every_primitive_row_has_cases(self):
        covered = {case.prim for case in CASES}
        assert covered >= {row.prim for row in OPS.values() if row.prim is not None}

    @pytest.mark.parametrize("name", sorted(n for n, r in OPS.items() if r.prim))
    def test_engines_agree_on_the_row(self, sweep, name):
        runs, _ = sweep
        row = OPS[name]
        trapped = False
        for args, trap, derived, outcome, reported in runs[name]:
            if trap is None:
                assert outcome[0] == "value", (args, outcome)
                assert "TAM101" not in reported, args
            else:
                assert outcome[:2] == ("trap", trap), (args, outcome)
                trapped = True
            if derived:
                # the declared ``needs`` are what the VM enforces: the
                # abstract interpreter's "guaranteed trap" is a true claim
                assert "TAM101" in reported, args
        # ``can_trap`` is an observation, not an opinion
        if name not in ("fix", "pushh"):  # their cases trap in *other* rows
            assert trapped == row.can_trap, name

    def test_rows_without_a_primitive_agree_too(self, sweep):
        runs, _ = sweep
        outcomes = [(trap, outcome) for _a, trap, _d, outcome, _r in runs[None]]
        assert len(outcomes) >= 8
        for trap, outcome in outcomes:
            expected = ("value",) if trap is None else ("trap", trap)
            assert outcome[: len(expected)] == expected

    def test_the_sweep_executed_every_opcode(self, sweep):
        _, profilers = sweep
        assert set(profilers["reference"].opcodes) == set(OPS)
        assert profilers["counted"].as_dict() == profilers["reference"].as_dict()
