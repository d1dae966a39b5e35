"""Differential property: the compiled tier ≡ the interpreter loop.

On random TL programs — integer expressions from the generator the pipeline
property uses, and loops over arrays that trap into handlers — a VM running
compiled (no profiler) and one interpreting (profiler attached, which is how
``VM._loop`` selects) must agree on the value, the output, the payload of an
uncaught exception, and the number of instructions executed.
"""

from hypothesis import given, settings, strategies as st

from repro.lang import CompileOptions, TycoonSystem
from repro.machine.isa import flatten_codes
from repro.machine.runtime import UncaughtTmlException
from repro.obs.profile import VMProfiler
from repro.rewrite import OptimizerConfig

from tests.conftest import tl_int_expression

_SYSTEMS = (
    TycoonSystem(options=CompileOptions(optimizer=None)),
    TycoonSystem(options=CompileOptions(optimizer=OptimizerConfig())),
)
_counter = [0]


def _observe(system, closure, args, interpreted: bool):
    vm = system.vm()
    if interpreted:
        vm.profiler = VMProfiler()
    try:
        result = vm.call(closure, list(args))
    except UncaughtTmlException as exc:
        return ("raise", exc.value, vm.output, vm.instructions)
    return ("value", result.value, result.output, result.instructions)


def _agree(body: str, params: str, args) -> None:
    _counter[0] += 1
    module = f"tier{_counter[0]}"
    source = f"module {module} export f\nlet f({params}): Int = {body}\nend"
    for system in _SYSTEMS:
        system.compile(source)
        closure = system.closure(module, "f")
        compiled = _observe(system, closure, args, interpreted=False)
        assert compiled == _observe(system, closure, args, interpreted=True), source
        assert not any(code.tier is False for code in flatten_codes(closure.code)), "declined"


@given(tl_int_expression(max_depth=3), st.integers(-50, 50))
@settings(max_examples=60, deadline=None)
def test_integer_expressions(case, arg):
    expression, _ = case
    _agree(f"p0 + ({expression})", "p0: Int", [arg])


@given(
    size=st.integers(-1, 4),
    last=st.integers(-2, 6),
    step=tl_int_expression(max_depth=2),
    fallback=st.integers(-9, 9),
)
@settings(max_examples=60, deadline=None)
def test_arrays_and_handlers(size, last, step, fallback):
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
    _agree(body, "n: Int, last: Int", [size, last])
