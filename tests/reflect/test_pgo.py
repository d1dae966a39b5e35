"""Profile-guided reflective optimization (repro.reflect.pgo).

Closes the paper's §4.1 loop: the VM profile supplies the evidence, and
``reflect.optimize`` is applied to the procedures that measurably ran hot.
"""

import pytest

from repro.bench.harness import CONFIG_NONE
from repro.bench.stanford import PROGRAMS
from repro.lang import TycoonSystem
from repro.obs.profile import VMProfiler, profile_call
from repro.reflect import optimize_hot, rank_hot

TWO_FUNCTIONS = """
module m export work idle
let idle(x: Int): Int = x
let work(n: Int): Int =
  var s := 0 in var i := 0 in
  begin while i < n do begin s := s + i * i; i := i + 1 end end; s end
end"""


def test_rank_hot_selects_measured_functions_only():
    system = TycoonSystem()
    system.compile(TWO_FUNCTIONS)
    _, profiler = profile_call(system, "m", "work", [30])
    ranking = rank_hot(system, profiler)
    names = [c.qualified for c in ranking]
    # idle never ran: no profile entry, so it is not a candidate
    assert "m.work" in names
    assert "m.idle" not in names
    assert ranking[0].invocations >= 1


def test_rank_hot_orders_by_measured_instructions():
    system = TycoonSystem()
    system.compile(TWO_FUNCTIONS)
    profiler = VMProfiler()
    _, profiler = profile_call(system, "m", "work", [30], profiler=profiler)
    _, profiler = profile_call(system, "m", "idle", [1], profiler=profiler)
    work = profiler.closures["m.work"]
    idle = profiler.closures["m.idle"]
    assert work.instructions > idle.instructions
    ranking = rank_hot(system, profiler)
    assert [c.qualified for c in ranking[:2]] == ["m.work", "m.idle"]
    # by invocation count the order may differ; the key is honored
    by_calls = rank_hot(system, profiler, key="invocations")
    assert by_calls[0].invocations == max(c.invocations for c in by_calls)
    with pytest.raises(ValueError):
        rank_hot(system, profiler, key="wallclock")


def test_optimize_hot_reoptimizes_only_the_hot_function():
    system = TycoonSystem()
    system.compile(TWO_FUNCTIONS)
    profiler = VMProfiler()
    _, profiler = profile_call(system, "m", "work", [30], profiler=profiler)
    _, profiler = profile_call(system, "m", "idle", [1], profiler=profiler)
    report = optimize_hot(system, profiler, top=1)
    assert [c.qualified for c in report.selected] == ["m.work"]
    result = report.results["m.work"]
    assert result.cost_after <= result.cost_before
    # the relinked closure is the optimized one and still computes work(n)
    relinked = system.closure("m", "work")
    assert relinked is result.closure
    assert system.vm().call(relinked, [10]).value == sum(i * i for i in range(10))


def test_optimize_hot_min_instructions_threshold():
    system = TycoonSystem()
    system.compile(TWO_FUNCTIONS)
    _, profiler = profile_call(system, "m", "work", [5])
    measured = profiler.closures["m.work"].instructions
    report = optimize_hot(system, profiler, top=1, min_instructions=measured + 1)
    assert report.selected == []
    assert report.ranking  # evidence was there, threshold filtered it


def test_optimize_hot_without_relink_keeps_binding():
    system = TycoonSystem()
    system.compile(TWO_FUNCTIONS)
    before = system.closure("m", "work")
    _, profiler = profile_call(system, "m", "work", [10])
    report = optimize_hot(system, profiler, top=1, relink=False)
    assert system.closure("m", "work") is before
    assert report.closure("m", "work") is not before


def test_pgo_beats_unoptimized_default_on_stanford_benchmark():
    """The acceptance scenario: compile a Stanford program with optimization
    off, profile it, let the profile pick the hot procedure, reflectively
    reoptimize, and measure fewer executed TAM instructions for the same
    answer."""
    program = PROGRAMS["towers"]
    n = max(1, program.bench_n // 4)
    system = TycoonSystem(options=CONFIG_NONE)
    system.compile(program.source)

    baseline, profiler = profile_call(system, "towers", "run", [n])

    report = optimize_hot(system, profiler, top=1)
    assert [c.qualified for c in report.selected] == ["towers.run"]
    assert report.selected[0].instructions > 0  # selection was evidence-based

    optimized = system.vm().call(system.closure("towers", "run"), [n])
    assert optimized.value == baseline.value
    assert optimized.instructions < baseline.instructions, (
        f"profile-guided reoptimization did not help: "
        f"{optimized.instructions} >= {baseline.instructions}"
    )


def test_pgo_emits_trace_events_when_recording():
    from repro.obs import ListRecorder, TRACER

    system = TycoonSystem()
    system.compile(TWO_FUNCTIONS)
    _, profiler = profile_call(system, "m", "work", [10])
    recorder = ListRecorder()
    with TRACER.recording(recorder):
        optimize_hot(system, profiler, top=1)
    (event,) = recorder.named("reflect.pgo")
    assert event.attrs["function"] == "m.work"
    assert event.attrs["relinked"] is True
    assert recorder.named("reflect.optimize")  # the span from optimize_closure


def test_a_library_redefined_under_an_inlined_copy_is_seen():
    """An importer whose PGO variant inlined a library sees the library's
    redefinition: the variant lives in the importer's link, which the
    redefinition drops."""
    system = TycoonSystem()
    system.compile("module lib export f let f(n: Int): Int = n + 1 end")
    system.compile("module app export g import lib let g(n: Int): Int = lib.f(n) + lib.f(n) end")
    assert system.call("app", "g", [1]).value == 4

    _, profiler = profile_call(system, "app", "g", [1])
    report = optimize_hot(system, profiler, top=1, modules=["app"])
    assert [c.qualified for c in report.selected] == ["app.g"]
    assert report.results["app.g"].entities == 3  # app.g, lib.f and int.add merged
    assert system.closure("app", "g") is report.closure("app", "g")
    assert system.call("app", "g", [1]).value == 4

    system.compile("module lib export f let f(n: Int): Int = n + 100 end")
    assert system.call("app", "g", [1]).value == 202
