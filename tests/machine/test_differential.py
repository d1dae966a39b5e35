"""Differential tests: the TAM VM must agree with the CPS interpreter.

The interpreter is the semantics oracle (call-by-value λ-calculus with
store); these tests run the same terms on both engines — and through the
optimizer, and on the per-instruction reference loop
(``tests/machine/reference_vm.py``), which must also count what the VM
counts — and require identical observable behaviour.
"""

import pytest

from repro.core.parser import parse_term
from repro.core.syntax import Abs
from repro.machine.codegen import compile_function
from repro.machine.cps_interp import Interpreter
from repro.machine.runtime import UncaughtTmlException
from repro.machine.vm import VM, instantiate
from repro.primitives.registry import default_registry
from repro.rewrite import optimize

from tests.machine.reference_vm import ReferenceVM

#: proc sources exercising every corner of the execution model,
#: paired with (args, expected) cases.
CASES = [
    ("proc(x ce cc) (cc x)", [(7,), 7]),
    ("proc(x ce cc) (+ x 1 ce cont(t) (* t t ce cc))", [(6,), 49]),
    ("proc(x ce cc) (< x 0 cont() (cc -1) cont() (cc 1))", [(5,), 1]),
    (
        """
        proc(n ce cc)
          (Y λ(^c0 fact ^c)
             (c cont() (fact n ce cc)
                proc(k ce2 cc2)
                  (<= k 1 cont() (cc2 1)
                          cont() (- k 1 ce2 cont(m)
                                    (fact m ce2 cont(r) (* k r ce2 cc2))))))
        """,
        [(10,), 3628800],
    ),
    (
        """
        proc(n ce cc)
          (new n 1 cont(a)
            (Y λ(^c0 loop ^c)
               (c cont() (loop 0 0)
                  cont(i acc)
                    (>= i n cont() (cc acc)
                            cont() ([] a i cont(v)
                                     (+ acc v ce cont(s)
                                        (+ i 1 ce cont(j) (loop j s))))))))
        """,
        [(25,), 25],
    ),
    (
        """
        proc(x ce cc)
          (λ(^h) (pushHandler h cont() (raise x))
           cont(e) (+ e 100 ce cc))
        """,
        [(11,), 111],
    ),
    (
        "proc(x ce cc) (== x 0 1 cont() (cc 100) cont() (cc 200) cont() (cc 300))",
        [(0,), 100],
    ),
    (
        "proc(c ce cc) (char2int c cont(i) (shl i 1 cont(j) (cc j)))",
        None,  # filled below with a Char argument
    ),
]


def _engines(source, registry):
    term = parse_term(source)
    assert isinstance(term, Abs)

    def run_interp(args):
        interp = Interpreter(registry=registry)
        return interp.call(interp.make_closure(term), list(args))

    code = compile_function(term, registry)

    def run_vm(args):
        result = VM().call(instantiate(code), list(args))
        reference = ReferenceVM().call(instantiate(code), list(args))
        assert (reference.value, reference.output, reference.instructions) == (
            result.value, result.output, result.instructions)
        return result

    optimized = optimize(term, registry).term
    assert isinstance(optimized, Abs)
    opt_code = compile_function(optimized, registry)

    def run_vm_optimized(args):
        return VM().call(instantiate(opt_code), list(args))

    def run_interp_optimized(args):
        interp = Interpreter(registry=registry)
        return interp.call(interp.make_closure(optimized), list(args))

    return run_interp, run_vm, run_vm_optimized, run_interp_optimized


@pytest.mark.parametrize("source,case", [(s, c) for s, c in CASES if c is not None])
def test_all_engines_agree(source, case):
    registry = default_registry()
    args, expected = case
    runs = _engines(source, registry)
    values = [run(args).value for run in runs]
    assert values == [expected] * 4, values


def test_char_case_agrees():
    from repro.core.syntax import Char

    registry = default_registry()
    runs = _engines("proc(c ce cc) (char2int c cont(i) (shl i 1 cont(j) (cc j)))", registry)
    values = [run((Char("A"),)).value for run in runs]
    assert values == [130] * 4


def test_exceptions_agree():
    registry = default_registry()
    source = "proc(a b ce cc) (/ a b ce cc)"
    run_interp, run_vm, run_vm_opt, run_interp_opt = _engines(source, registry)
    for run in (run_interp, run_vm, run_vm_opt, run_interp_opt):
        with pytest.raises(UncaughtTmlException):
            run((1, 0))
        assert run((7, 2)).value == 3


def test_output_order_agrees():
    registry = default_registry()
    source = """
    proc(x ce cc)
      (print 1 cont(a) (print 2 cont(b) (print x cont(d) (cc 0))))
    """
    run_interp, run_vm, run_vm_opt, _ = _engines(source, registry)
    outputs = [run((3,)).output for run in (run_interp, run_vm, run_vm_opt)]
    assert outputs == [["1", "2", "3"]] * 3


def test_instruction_counts_drop_after_optimization():
    registry = default_registry()
    source = """
    proc(x ce cc)
      (λ(inc) (inc x ce cont(a) (inc a ce cc))
       proc(v ce2 cc2) (+ v 1 ce2 cc2))
    """
    _, run_vm, run_vm_opt, _ = _engines(source, registry)
    plain = run_vm((5,))
    fast = run_vm_opt((5,))
    assert plain.value == fast.value == 7
    assert fast.instructions < plain.instructions


@pytest.mark.parametrize(
    "access",
    [
        "(new 3 5 cont(x) ([] x i cc))",
        "(new 3 5 cont(x) ([]:= x i 0 cc))",
        "($new 3 5 cont(x) ($[] x i cc))",
        "($new 3 5 cont(x) ($[]:= x i 0 cc))",
    ],
)
@pytest.mark.parametrize("index", [True, "1", 1.0])
def test_non_integer_index_is_a_type_error_everywhere(access, index):
    """The VM used to fold the index's type test into its range test and
    answer boundsError where the interpreter says typeError."""
    for run in _engines(f"proc(i ce cc) {access}", default_registry()):
        with pytest.raises(UncaughtTmlException) as trapped:
            run((index,))
        assert trapped.value.value == "typeError"
        with pytest.raises(UncaughtTmlException) as trapped:
            run((3,))
        assert trapped.value.value == "boundsError"
