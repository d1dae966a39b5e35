"""Structured StepLimitExceeded: limit, executed count, partial result —
the same from the VM and from the per-instruction reference loop."""

import pytest

from repro.lang import TycoonSystem
from repro.machine.vm import VM, StepLimitExceeded

from tests.machine.reference_vm import ReferenceVM

LOOP = """
module m export spin
import io
let spin(n: Int): Int =
  var i := 0 in
  begin
    while true do begin io.print(i); i := i + 1 end
  end; i end
end"""


def _run_to_limit(limit, vm_class=VM):
    system = TycoonSystem()
    system.compile(LOOP)
    vm = vm_class(store=system.heap, foreign=system.foreign, step_limit=limit)
    with pytest.raises(StepLimitExceeded) as excinfo:
        vm.call(system.closure("m", "spin"), [0])
    return excinfo.value


def _fields(exc):
    return exc.limit, exc.instructions, str(exc), exc.partial.instructions, exc.partial.output


def test_exception_carries_structured_fields():
    exc = _run_to_limit(400)
    assert exc.limit == 400
    assert exc.instructions == 400
    assert exc.partial is not None
    assert exc.partial.instructions == 400
    assert exc.partial.value is None  # never reached the final continuation
    assert _fields(exc) == _fields(_run_to_limit(400, ReferenceVM))


def test_partial_result_preserves_output_so_far():
    small = _run_to_limit(300)
    large = _run_to_limit(900)
    # the io.print output produced before the limit hit is retained, and a
    # longer leash yields strictly more of the same prefix
    assert len(large.partial.output) > len(small.partial.output) > 0
    assert large.partial.output[: len(small.partial.output)] == small.partial.output


def test_partial_runs_can_be_profiled():
    from repro.obs.profile import VMProfiler

    system = TycoonSystem()
    system.compile(LOOP)
    profiles = []
    for vm_class in (VM, ReferenceVM):
        profiler = VMProfiler()
        vm = vm_class(store=system.heap, foreign=system.foreign, step_limit=500)
        vm.profiler = profiler
        with pytest.raises(StepLimitExceeded) as excinfo:
            vm.call(system.closure("m", "spin"), [0])
        # the profile covers exactly the instructions the truncated run executed
        assert profiler.total_instructions == excinfo.value.instructions == 500
        profiles.append(profiler.as_dict())
    assert profiles[0] == profiles[1]


def test_message_still_readable():
    exc = _run_to_limit(250)
    assert "exceeded 250 instructions" in str(exc)
