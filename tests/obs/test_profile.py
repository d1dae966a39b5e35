"""VM profiler: determinism, per-closure attribution, merge, report."""

import pytest

from repro.lang import TycoonSystem
from repro.obs.profile import profile_call

LOOP_MODULE = """
module loops export run helper
let helper(x: Int): Int = x * 2
let run(n: Int): Int =
  var s := 0 in var i := 0 in
  begin
    while i < n do begin s := s + helper(i); i := i + 1 end
  end; s end
end"""


def _fresh_system():
    system = TycoonSystem()
    system.compile(LOOP_MODULE)
    return system


def test_profile_counts_match_vm_instruction_count():
    system = _fresh_system()
    result, profiler = profile_call(system, "loops", "run", [10])
    assert result.value == sum(2 * i for i in range(10))
    # every executed instruction is attributed exactly once, both to its
    # opcode and to its enclosing closure
    assert profiler.total_instructions == result.instructions
    assert (
        sum(stats.instructions for stats in profiler.closures.values())
        == result.instructions
    )


def test_profile_is_deterministic_across_runs():
    _, first = profile_call(_fresh_system(), "loops", "run", [12])
    _, second = profile_call(_fresh_system(), "loops", "run", [12])
    assert first.as_dict() == second.as_dict()


def test_profile_dict_is_sorted_and_versioned():
    _, profiler = profile_call(_fresh_system(), "loops", "run", [5])
    data = profiler.as_dict()
    assert data["schema"] == "repro.profile/v3"
    assert list(data["opcodes"]) == sorted(data["opcodes"])
    assert list(data["closures"]) == sorted(data["closures"])
    assert data["total_instructions"] == profiler.total_instructions


def test_entry_closure_and_invocations_recorded():
    _, profiler = profile_call(_fresh_system(), "loops", "run", [8])
    assert profiler.closures["loops.run"].invocations == 1
    # helper is a separate top-level function: one invocation per loop trip
    assert profiler.closures["loops.helper"].invocations == 8
    assert profiler.closures["loops.helper"].instructions > 0


def test_hot_closures_ranked_by_requested_key():
    _, profiler = profile_call(_fresh_system(), "loops", "run", [8])
    by_instr = profiler.hot_closures(key="instructions")
    assert [s.instructions for _, s in by_instr] == sorted(
        (s.instructions for s in profiler.closures.values()), reverse=True
    )
    by_calls = profiler.hot_closures(top=1, key="invocations")
    assert len(by_calls) == 1
    assert by_calls[0][1].invocations == max(
        s.invocations for s in profiler.closures.values()
    )
    with pytest.raises(ValueError):
        profiler.hot_closures(key="wallclock")


def test_profiler_accumulates_and_merges():
    system = _fresh_system()
    _, profiler = profile_call(system, "loops", "run", [4])
    once = profiler.as_dict()
    # accumulate a second run into the same profiler
    _, profiler = profile_call(system, "loops", "run", [4], profiler=profiler)
    assert profiler.closures["loops.run"].invocations == 2
    assert profiler.total_instructions == 2 * once["total_instructions"]

    # merging two single-run profilers gives the same totals
    _, a = profile_call(_fresh_system(), "loops", "run", [4])
    _, b = profile_call(_fresh_system(), "loops", "run", [4])
    a.merge(b)
    assert a.as_dict() == profiler.as_dict()


def test_primitive_calls_are_counted():
    system = TycoonSystem()
    system.compile(
        """
module m export f
import math
let f(n: Int): Int = math.sqrt(n * n)
end"""
    )
    _, profiler = profile_call(system, "m", "f", [9])
    assert profiler.primitives["ccall:isqrt"] == 1


def test_format_report_lists_closures_and_opcodes():
    _, profiler = profile_call(_fresh_system(), "loops", "run", [3])
    report = profiler.format_report()
    assert "loops.run" in report
    assert "opcode" in report
    assert str(profiler.total_instructions) in report
