"""Profile-guided reflective optimization (repro.reflect.pgo).

Closes the paper's §4.1 loop: the VM profile supplies the evidence, and
``reflect.optimize`` is applied to the procedures that measurably ran hot.
"""

import pytest

from repro.bench.harness import CONFIG_NONE
from repro.bench.stanford import PROGRAMS
from repro.core.syntax import Oid
from repro.lang import TycoonSystem
from repro.lang.modules import ModuleValue
from repro.machine.runtime import TmlArray
from repro.obs.profile import VMProfiler, profile_call
from repro.query.relation import Relation
from repro.reflect import optimize_hot, rank_hot
from repro.store.fsck import fsck_image
from repro.store.heap import ObjectHeap
from repro.store.ptml import ptml_key
from repro.store.serialize import Blob

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
    # the next link runs the variant regenerated from the optimized PTML,
    # and it still computes work(n); idle keeps its static code
    linked = system.closure("m", "work")
    assert ptml_key(linked.code, system.heap) == ptml_key(result.closure.code, system.heap)
    assert system.vm().call(linked, [10]).value == sum(i * i for i in range(10))
    assert system.closure("m", "idle").code.name == "m.idle"


def test_optimize_hot_min_instructions_threshold():
    system = TycoonSystem()
    system.compile(TWO_FUNCTIONS)
    _, profiler = profile_call(system, "m", "work", [5])
    (measured,) = [c.instructions for c in rank_hot(system, profiler)]
    report = optimize_hot(system, profiler, top=1, min_instructions=measured + 1)
    assert report.selected == []
    assert report.ranking  # evidence was there, threshold filtered it


def test_optimize_hot_refuses_a_candidate_with_a_hole():
    """A runtime value the image cannot name (an array never stored, linked
    in place of the stored one) stays a hole in the combined scope: the
    result is reported, not installed."""
    system = TycoonSystem()
    system.register_data_module("db", {"data": TmlArray([1, 2, 3])})
    system.linked["db"] = ModuleValue("db", {"data": TmlArray([1, 2, 3])})
    system.compile("module m export f import db let f(i: Int): Int = db.data[i] end")
    before = system.closure("m", "f")
    _, profiler = profile_call(system, "m", "f", [1])
    report = optimize_hot(system, profiler, top=1)
    assert report.selected == []
    assert report.results["m.f"].holes == 1
    assert "hole" in report.refused["m.f"]
    assert system.closure("m", "f") is before
    assert system.compiled["m"].functions["f"].variant is None


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
    assert event.attrs["installed"] is True
    assert recorder.named("reflect.optimize")  # the span from optimize_closure


def test_a_library_redefined_under_an_inlined_copy_is_seen():
    """An importer whose PGO variant inlined a library sees the library's
    redefinition: the variant depends on ``lib.f``'s PTML hash, which the
    redefinition moves, so the next link uses the static code."""
    system = TycoonSystem()
    system.compile("module lib export f let f(n: Int): Int = n + 1 end")
    system.compile("module app export g import lib let g(n: Int): Int = lib.f(n) + lib.f(n) end")
    assert system.call("app", "g", [1]).value == 4

    _, profiler = profile_call(system, "app", "g", [1])
    report = optimize_hot(system, profiler, top=1, modules=["app"])
    assert [c.qualified for c in report.selected] == ["app.g"]
    assert report.results["app.g"].entities == 3  # app.g, lib.f and int.add merged
    variant = system.load("app").functions["g"].variant
    assert [name for name, _ in variant.deps] == ["app.g", "int.add", "lib.f"]
    assert system.closure("app", "g").code is variant.code
    assert system.call("app", "g", [1]).value == 4

    system.compile("module lib export f let f(n: Int): Int = n + 100 end")
    assert system.call("app", "g", [1]).value == 202
    assert system.closure("app", "g").code.name == "app.g"


LIB = "module lib export f let f(n: Int): Int = n + {} end"
LOOP_APP = """
module app export g import lib
let g(n: Int): Int =
  var s := 0 in var i := 0 in
  begin while i < n do begin s := s + lib.f(i); i := i + 1 end end; s end
end"""


def _image(path, app=LOOP_APP):
    """``lib`` and ``app`` compiled, persisted and committed in a file image."""
    system = TycoonSystem(heap=ObjectHeap(path))
    system.compile(LIB.format(1))
    system.compile(app)
    system.persist("lib")
    system.persist("app")
    system.commit()
    return system


def test_rank_hot_credits_a_function_with_its_nested_code():
    """The loop of ``app.g`` is a code object nested in it: its instructions
    are ``app.g``'s, so ``app.g`` outranks the library it calls."""
    system = TycoonSystem()
    system.compile(LIB.format(1))
    system.compile(LOOP_APP)
    _, profiler = profile_call(system, "app", "g", [50])
    assert profiler.closures["app.g"].instructions < profiler.closures["lib.f"].instructions
    ranking = rank_hot(system, profiler)
    assert [c.qualified for c in ranking] == ["app.g", "lib.f"]
    family = [
        stats.instructions for name, stats in profiler.closures.items()
        if name == "app.g" or name.startswith("app.g/")
    ]
    assert len(family) > 1
    assert ranking[0].instructions == sum(family)
    assert ranking[0].invocations == profiler.closures["app.g"].invocations == 1


def test_a_committed_round_survives_a_reopen(tmp_path):
    path = str(tmp_path / "pgo.tyc")
    system = _image(path)
    static, profiler = profile_call(system, "app", "g", [50])
    report = optimize_hot(system, profiler, top=1)
    assert [c.qualified for c in report.selected] == ["app.g"]
    system.commit()
    optimized = system.call("app", "g", [50])
    assert optimized.value == static.value
    assert optimized.instructions < static.instructions
    system.heap.close()

    reopened = TycoonSystem(heap=ObjectHeap(path))
    again = reopened.call("app", "g", [50])
    assert (again.value, again.instructions) == (static.value, optimized.instructions)
    reopened.heap.close()


def test_a_library_redefined_under_a_committed_variant_is_seen_after_a_reopen(tmp_path):
    path = str(tmp_path / "redefine.tyc")
    system = _image(path, "module app export g import lib "
                          "let g(n: Int): Int = lib.f(n) + lib.f(n) end")
    _, profiler = profile_call(system, "app", "g", [1])
    optimize_hot(system, profiler, top=1, modules=["app"])
    system.commit()
    assert system.call("app", "g", [1]).value == 4

    system.compile(LIB.format(100))
    system.persist("lib")
    system.commit()
    assert system.call("app", "g", [1]).value == 202
    system.heap.close()

    reopened = TycoonSystem(heap=ObjectHeap(path))
    assert reopened.call("app", "g", [1]).value == 202
    # the variant is still in the record; the link passes it over
    assert reopened.compiled["app"].functions["g"].variant is not None
    assert reopened.closure("app", "g").code.name == "app.g"
    reopened.heap.close()


def test_an_imported_constant_redefined_under_a_variant_is_seen(tmp_path):
    """The variant bakes ``lib.k`` in as a literal; it depends on the
    constant's value, so a ``lib`` with a new ``k`` and the same functions
    makes the link pass the variant over."""
    path = str(tmp_path / "constant.tyc")
    system = TycoonSystem(heap=ObjectHeap(path))
    system.compile("module lib export f k let k = 1 let f(n: Int): Int = n + 1 end")
    system.compile("module app export g import lib let g(n: Int): Int = n + lib.k end")
    system.persist("lib")
    system.persist("app")
    _, profiler = profile_call(system, "app", "g", [1])
    report = optimize_hot(system, profiler, top=1, modules=["app"])
    assert [c.qualified for c in report.selected] == ["app.g"]
    system.commit()
    assert ("lib.k", "int:1") in system.load("app").functions["g"].variant.deps
    assert system.call("app", "g", [1]).value == 2

    system.compile("module lib export f k let k = 2 let f(n: Int): Int = n + 1 end")
    assert system.call("app", "g", [1]).value == 3
    system.persist("lib")
    system.commit()
    system.heap.close()

    reopened = TycoonSystem(heap=ObjectHeap(path))
    assert reopened.call("app", "g", [1]).value == 3
    assert reopened.closure("app", "g").code.name == "app.g"
    reopened.heap.close()


def test_a_variant_depends_on_the_stored_object_it_reads(tmp_path):
    """A stored object read through a data module is an OID literal in the
    variant: a data module binding another object makes it stale."""
    path = str(tmp_path / "oid.tyc")
    system = TycoonSystem(heap=ObjectHeap(path))
    for root, values in (("a", [1, 2, 3]), ("b", [10, 20, 30])):
        system.heap.set_root(root, system.heap.store(TmlArray(values)))
    system.register_data_module("db", {"data": system.heap.load(system.heap.root("a"))})
    system.compile("module m export f import db let f(i: Int): Int = db.data[i] end")
    system.persist("m")
    _, profiler = profile_call(system, "m", "f", [1])
    assert [c.qualified for c in optimize_hot(system, profiler, top=1).selected] == ["m.f"]
    system.commit()
    system.heap.close()

    reopened = TycoonSystem(heap=ObjectHeap(path))
    assert reopened.call("m", "f", [1]).value == 2
    assert reopened.closure("m", "f").code.name == "m.f'"
    reopened.register_data_module("db", {"data": reopened.heap.load_root("b")})
    assert reopened.call("m", "f", [1]).value == 20
    assert reopened.closure("m", "f").code.name == "m.f"
    reopened.heap.close()


LOANS_APP = """
module library export by_member
import db
type Loan = tuple member: Int, title: String end
let by_member(m: Int) = select l from db.loans as l : Loan where l.member == m end
end"""


def test_a_variant_depends_on_the_index_set_of_the_relation_it_reads(tmp_path):
    """The query rules choose a plan by the relation's indexes, so its key
    names them, ``oid:N[member]``: a variant optimized before
    ``create_index`` is passed over once the index is committed and the
    module linked again, and the next round installs index-select."""
    path = str(tmp_path / "index.tyc")
    system = TycoonSystem(heap=ObjectHeap(path))
    loans = Relation("loans", ["member", "title"], [(i % 7, f"b{i}") for i in range(140)])
    oid = system.heap.store(loans)
    system.heap.set_root("loans", oid)
    system.register_data_module("db", {"loans": loans})
    system.compile(LOANS_APP)
    system.persist("library")
    static, profiler = profile_call(system, "library", "by_member", [3])
    scan = optimize_hot(system, profiler, top=1).results["library.by_member"]
    assert scan.query_stats.count("index-select") == 0
    deps = system.load("library").functions["by_member"].variant.deps
    assert ("db.loans", f"oid:{int(oid)}[]") in deps
    assert system.closure("library", "by_member").code.name == "library.by_member'"
    loans.create_index("member")
    system.heap.update(oid)
    system.commit()
    # a link made before the index keeps its variant until the module is
    # forgotten
    assert system.closure("library", "by_member").code.name == "library.by_member'"
    system.forget("library")
    assert system.closure("library", "by_member").code.name == "library.by_member"
    system.heap.close()

    reopened = TycoonSystem(heap=ObjectHeap(path))
    again, profiler = profile_call(reopened, "library", "by_member", [3])
    assert reopened.closure("library", "by_member").code.name == "library.by_member"
    assert again.instructions == static.instructions
    report = optimize_hot(reopened, profiler, top=1)
    assert [c.qualified for c in report.selected] == ["library.by_member"]
    assert report.results["library.by_member"].query_stats.count("index-select") == 1
    reopened.commit()
    fast = reopened.call("library", "by_member", [3])
    assert sorted(fast.value.to_tuples()) == sorted(static.value.to_tuples())
    assert fast.instructions <= 10 < static.instructions
    reopened.heap.close()


def test_rounds_leave_no_ptml_unreachable(tmp_path):
    """Five profile + PGO + commit rounds.  The first installs the variant;
    the profiles of the next four credit the run to the variant's code,
    ``app.g'``, which is not a candidate, so they write nothing.  A profile
    taken before the install still names ``app.g``: that round is refused.
    No round leaves a PTML blob that nothing references."""
    path = str(tmp_path / "rounds.tyc")
    system = _image(path)
    _, first = profile_call(system, "app", "g", [50])
    outcomes = []
    for round_ in range(5):
        profiler = first
        if round_:
            _, profiler = profile_call(system, "app", "g", [50])
            assert "app.g'" in profiler.closures and "app.g" not in profiler.closures
        report = optimize_hot(system, profiler, top=1, modules=["app"])
        outcomes.append((
            [c.qualified for c in report.ranking],
            [c.qualified for c in report.selected],
            report.refused,
        ))
        system.commit()
    assert outcomes == [(["app.g"], ["app.g"], {})] + [([], [], {})] * 4
    stale = optimize_hot(system, first, top=1, modules=["app"])
    assert (stale.selected, stale.refused) == ([], {"app.g": "it runs its variant"})
    system.commit()
    system.heap.close()

    unreachable = [f.oid for f in fsck_image(path).findings if f.code == "unreachable"]
    heap = ObjectHeap(path)
    try:
        assert not [oid for oid in unreachable if isinstance(heap.load(Oid(oid)), Blob)]
    finally:
        heap.close()
