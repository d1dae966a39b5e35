"""Differential property: the compiled tier ≡ the per-instruction reference.

On random TL programs — integer expressions from the generator the pipeline
property uses, loops over arrays that trap into handlers, and ``if``s in
value position that the reflective optimizer turns into join continuations
the plain text enters in place — the VM running
the tier's plain text (no profiler), the VM running its counted text (a
``VMProfiler``, which is how ``VM._loop`` selects) and the reference loop
(``tests/machine/reference_vm.py``) must agree on the value, the output, the
payload of an uncaught exception and the number of instructions executed —
and, under a sampled step limit, on every field of ``StepLimitExceeded`` —
while the two profilers agree on every count.
"""

from hypothesis import given, settings, strategies as st

from repro.lang import CompileOptions, TycoonSystem
from repro.machine.runtime import UncaughtTmlException
from repro.machine.vm import VM, StepLimitExceeded
from repro.obs.metrics import METRICS
from repro.obs.profile import VMProfiler
from repro.primitives._util import INT_MAX, INT_MIN
from repro.reflect import optimize_function
from repro.rewrite import OptimizerConfig

from tests.conftest import tl_int_expression
from tests.machine.reference_vm import ReferenceVM

_SYSTEMS = (
    TycoonSystem(options=CompileOptions(optimizer=None)),
    TycoonSystem(options=CompileOptions(optimizer=OptimizerConfig())),
)
_counter = [0]
#: examples whose reflectively optimized code compiled a join entry, a loop
#: site; examples of ``if``s in value position whose arms nest an ``if``
_entered, _looped, _nested = [0], [0], [0]


def _observe(system, closure, args, vm_class, profiled: bool, limit):
    vm = vm_class(store=system.heap, foreign=system.foreign, step_limit=limit)
    if profiled:
        vm.profiler = VMProfiler()
    try:
        result = vm.call(closure, list(args))
        outcome = ("value", result.value, result.output, result.instructions)
    except UncaughtTmlException as exc:
        outcome = ("raise", exc.value, vm.output, vm.instructions)
    except StepLimitExceeded as exc:
        outcome = ("limit", exc.limit, exc.instructions, str(exc), exc.partial.output,
                   vm.instructions)
    return outcome, vm.profiler.as_dict() if profiled else None


def _agree(body: str, params: str, args, fraction: float, reflect: bool = False) -> None:
    _counter[0] += 1
    module = f"tier{_counter[0]}"
    source = f"module {module} export f\nlet f({params}): Int = {body}\nend"
    joined, looped = METRICS.get("vm.tier.joined").value, METRICS.get("vm.tier.looped").value
    for system in _SYSTEMS:
        system.compile(source)
        closure = (optimize_function(system, module, "f") if reflect
                   else system.closure(module, "f"))
        reference, expected = _observe(system, closure, args, ReferenceVM, True, None)
        # a limit somewhere inside the run, or just past its end
        limit = max(1, round(fraction * (reference[-1] + 1)))
        # the plain text first: a profiled run would compile the joins' own
        for bound in (None, limit):
            reference, expected = _observe(system, closure, args, ReferenceVM, True, bound)
            plain, _ = _observe(system, closure, args, VM, False, bound)
            counted, profile = _observe(system, closure, args, VM, True, bound)
            assert plain == counted == reference, (source, bound)
            assert profile == expected, (source, bound)
        assert callable(closure.code.tier)
    _entered[0] += METRICS.get("vm.tier.joined").value > joined
    _looped[0] += METRICS.get("vm.tier.looped").value > looped


@given(tl_int_expression(max_depth=3), st.integers(-50, 50), st.floats(0, 1))
@settings(max_examples=60, deadline=None)
def test_integer_expressions(case, arg, fraction):
    expression, _ = case
    _agree(f"p0 + ({expression})", "p0: Int", [arg], fraction)


_ARRAYS = dict(
    size=st.integers(-1, 4),
    last=st.integers(-2, 6),
    step=tl_int_expression(max_depth=2),
    fallback=st.integers(-9, 9),
    fraction=st.floats(0, 1),
)


def _arrays(size, last, step, fallback, fraction, reflect=False):
    """Allocate (a negative size traps), fill and sum an array by index
    (indices outside it trap), with a handler around each access that prints
    what it caught; the random expression may itself raise inside the loop."""
    expression, _ = step
    body = f"""
  let a = array(n, 1) in
  var s := 0 in
  begin
    for i = 0 - 1 upto last do
      s := s + (try begin a[i] := i + ({expression}); a[i] * 2 end
                catch(x) begin print(x); {fallback} end end)
    end;
    s + size(a)
  end"""
    _agree(body, "n: Int, last: Int", [size, last], fraction, reflect=reflect)


@given(**_ARRAYS)
@settings(max_examples=60, deadline=None)
def test_arrays_and_handlers(size, last, step, fallback, fraction):
    _arrays(size, last, step, fallback, fraction)


@given(**_ARRAYS)
@settings(max_examples=30, deadline=None)
def _reflected_arrays(size, last, step, fallback, fraction):
    _arrays(size, last, step, fallback, fraction, reflect=True)


def test_reflectively_optimized_loops_go_round_in_place():
    """The optimizer inlines the loop body's library calls: the ``for``
    closure's body ends in a call of itself, which the plain text runs as
    the next iteration of its loop."""
    before = _looped[0]
    _reflected_arrays()
    assert _looped[0] > before, "no example compiled a loop site"


def _literal(value: int) -> str:
    return f"(0 - {-value})" if value < 0 else str(value)


#: ``int`` literals: as divisors, 0 and -1 keep both edges and the others
#: none; added or subtracted, each but 0 leaves one overflow bound to test
_LITERALS = st.sampled_from([0, 1, -1, 2, -2, 89, 2**62, INT_MAX]).map(_literal)
_OPERATORS = st.sampled_from(["+", "-", "*", "/", "%"])
_LITERAL_BODIES = st.one_of(
    st.tuples(_OPERATORS, _LITERALS).map(lambda parts: "p0 {} {}".format(*parts)),
    st.tuples(_LITERALS, _OPERATORS).map(lambda parts: "{} {} p0".format(*parts)),
    _LITERALS.map(lambda index: f"let a = array(p1, p0) in a[{index}]"),
    _LITERALS.map(lambda divisor: f"if p0 % {divisor} == p1 then 1 else 0 end"),
)


@given(
    body=_LITERAL_BODIES,
    p0=st.one_of(st.sampled_from([INT_MIN, INT_MIN + 1, INT_MAX, -89, -7]), st.integers(-9, 9)),
    p1=st.integers(-1, 3), fraction=st.floats(0, 1),
)
@settings(max_examples=80, deadline=None)
def test_literal_operands(body, p0, p1, fraction):
    """An ``int`` literal operand of arithmetic, an index or an ``==``,
    against the edges of ``int``: whatever tests the literal lets the plain
    text leave out, nothing a caller sees changes."""
    for reflect in (False, True):
        _agree(body, "p0: Int, p1: Int", [p0, p1], fraction, reflect=reflect)


_CONDITIONS = st.sampled_from(["p0 < 3", "p1 == 2", "p0 > p1", "s < p1"])


def _block(value: str) -> str:
    """An arm too big for the optimizer to copy into each branch: the
    continuation stays one closure both branches tail-call."""
    return f"begin print({value}); print({value} + p1); {value} * 2 + p0 end"


_ARMS = st.recursive(
    st.one_of(
        st.integers(-3, 3).map(str),  # a literal
        st.sampled_from(["p0 + 1", "p1 * s", "s - p0", "7 / p1"]),  # computed
        st.sampled_from(["p0", "s", "p1 - 1"]).map(_block),
    ),
    lambda arms: st.tuples(_CONDITIONS, arms, arms).map(
        lambda parts: "if {} then {} else {} end".format(*parts)),
    max_leaves=5,
)


@given(
    first=_ARMS, second=_ARMS, third=_ARMS,
    p0=st.integers(-2, 5), p1=st.integers(-1, 4), fraction=st.floats(0, 1),
)
@settings(max_examples=50, deadline=None)
def _value_ifs(first, second, third, p0, p1, fraction):
    """``if``s in value position, nested, with literal and computed arms;
    the ``var`` ``s`` is reassigned after the continuations captured it."""
    _nested[0] += any(arm.startswith("if ") for arm in (first, second, third))
    body = f"""
  var s := p0 in
  begin
    s := (if p1 < s then {first} else s end);
    let t = (if p0 < 2 then {second} else p1 end) in
    begin s := s + t; print(s); (if s > t then {third} else t end) + s end
  end"""
    _agree(body, "p0: Int, p1: Int", [p0, p1], fraction, reflect=True)


def test_ifs_in_value_position_become_joins_entered_in_place():
    before, nested = _entered[0], _nested[0]
    _value_ifs()
    assert _entered[0] > before, "no example entered a join"
    assert _nested[0] > nested, "no example nested an if in an arm"
