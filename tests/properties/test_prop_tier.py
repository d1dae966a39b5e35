"""Differential property: the compiled tier ≡ the per-instruction reference.

On random TL programs — integer expressions from the generator the pipeline
property uses, and loops over arrays that trap into handlers — the VM running
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
from repro.obs.profile import VMProfiler
from repro.rewrite import OptimizerConfig

from tests.conftest import tl_int_expression
from tests.machine.reference_vm import ReferenceVM

_SYSTEMS = (
    TycoonSystem(options=CompileOptions(optimizer=None)),
    TycoonSystem(options=CompileOptions(optimizer=OptimizerConfig())),
)
_counter = [0]


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


def _agree(body: str, params: str, args, fraction: float) -> None:
    _counter[0] += 1
    module = f"tier{_counter[0]}"
    source = f"module {module} export f\nlet f({params}): Int = {body}\nend"
    for system in _SYSTEMS:
        system.compile(source)
        closure = system.closure(module, "f")
        reference, expected = _observe(system, closure, args, ReferenceVM, True, None)
        # a limit somewhere inside the run, or just past its end
        limit = max(1, round(fraction * (reference[-1] + 1)))
        for bound in (None, limit):
            reference, expected = _observe(system, closure, args, ReferenceVM, True, bound)
            plain, _ = _observe(system, closure, args, VM, False, bound)
            counted, profile = _observe(system, closure, args, VM, True, bound)
            assert plain == counted == reference, (source, bound)
            assert profile == expected, (source, bound)
        assert callable(closure.code.tier)


@given(tl_int_expression(max_depth=3), st.integers(-50, 50), st.floats(0, 1))
@settings(max_examples=60, deadline=None)
def test_integer_expressions(case, arg, fraction):
    expression, _ = case
    _agree(f"p0 + ({expression})", "p0: Int", [arg], fraction)


@given(
    size=st.integers(-1, 4),
    last=st.integers(-2, 6),
    step=tl_int_expression(max_depth=2),
    fallback=st.integers(-9, 9),
    fraction=st.floats(0, 1),
)
@settings(max_examples=60, deadline=None)
def test_arrays_and_handlers(size, last, step, fallback, fraction):
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
    _agree(body, "n: Int, last: Int", [size, last], fraction)
