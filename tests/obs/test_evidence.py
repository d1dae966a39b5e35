"""PGO evidence from the compiled tier ≡ the reference loop's.

A ``ClosureProfile`` (per-closure invocations and instructions, what
``rank_hot`` reads) leaves the VM on each code object's plain text; a
``VMProfiler`` makes it run the counted text.  Both are credited by the
trampoline, once per activation, so on every program below the two runs —
and a ``VMProfiler`` run of the per-instruction reference loop
(``tests/machine/reference_vm.py``) — must report the same ``closures``, and
each must account for every instruction the VM executed exactly once, which
for a ``VMProfiler`` is also its per-opcode total.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from perf.corpus import QUERY_SOURCE
from repro.bench.stanford import PROGRAMS
from repro.lang import TycoonSystem
from repro.machine.runtime import UncaughtTmlException
from repro.machine.vm import VM, StepLimitExceeded
from repro.obs.metrics import METRICS
from repro.obs.profile import ClosureProfile, VMProfiler
from repro.query import Relation

from tests.conftest import tl_int_expression
from tests.machine.reference_vm import ReferenceVM
from tests.machine.test_tier import LOOPING, REENTERING, TRAPPING, _rows, compiled_codes

UNCAUGHT = """
module m export run
let run(n: Int): Int =
  let a = array(3, 7) in
  var s := 0 in
  begin for i = 0 upto n do begin print(i); s := s + a[i] end end; s end
end"""


def _shown(value):
    return value.to_tuples() if isinstance(value, Relation) else repr(value)


def run_under(profile_class, system, closure, args, limit=None, vm_class=VM):
    """The outcome of one call and the ``closures`` its profile collected."""
    profile = profile_class()
    vm = vm_class(store=system.heap, foreign=system.foreign, step_limit=limit)
    vm.profiler = profile
    try:
        result = vm.call(closure, copy.deepcopy(list(args)))
        outcome = ("value", _shown(result.value), result.output, result.instructions)
    except UncaughtTmlException as exc:
        outcome = ("raise", repr(exc.value), vm.output, vm.instructions)
    except StepLimitExceeded as exc:
        outcome = ("limit", exc.instructions, exc.partial.output, vm.instructions)
    assert profile.total_instructions == vm.instructions
    if isinstance(profile, VMProfiler):
        assert sum(s.instructions for s in profile.closures.values()) == vm.instructions
    closures = {name: (s.invocations, s.instructions) for name, s in profile.closures.items()}
    return outcome, closures


def agree(system, closure, args, limit=None):
    evidence = run_under(ClosureProfile, system, closure, args, limit)
    assert evidence == run_under(VMProfiler, system, closure, args, limit)
    assert evidence == run_under(VMProfiler, system, closure, args, limit, ReferenceVM)
    return evidence


def compiled(text: str):
    system = TycoonSystem()
    system.compile(text)
    return system, system.closure("m", "run")


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_stanford_program(name):
    """Profiled from the first activation on, and after an unprofiled run
    compiled the plain texts with the library calls inline: an inline site
    is taken only when no profile is attached, so the evidence is the same."""
    program = PROGRAMS[name]
    for unprofiled_first in (False, True):
        system = TycoonSystem()
        system.compile(program.source)
        closure = system.closure(program.name, "run")
        if unprofiled_first:
            inlined = METRICS.get("vm.tier.inlined").value
            system.vm().call(closure, [program.test_n])
            assert METRICS.get("vm.tier.inlined").value > inlined
        outcome, closures = agree(system, closure, [program.test_n])
        assert outcome[:2] == ("value", repr(program.reference(program.test_n)))
        assert closures[f"{program.name}.run"][0] == 1
        assert compiled_codes(closure), "the evidence run did not run compiled"


def _query_system() -> TycoonSystem:
    system = TycoonSystem()
    data = Relation("data", ["id", "v"])
    data.insert_many([(i, i * 37 % 1000) for i in range(60)])
    data.create_index("id")
    data.create_index("v", ordered=True)
    system.register_data_module("db", {"data": data})
    system.compile(QUERY_SOURCE)
    return system


@pytest.mark.parametrize(
    "function, args",
    [("byid", [17]), ("byrem", [14]), ("stacked", []), ("anybig", [600])],
)
def test_query_function_that_re_enters_the_vm(function, args):
    system = _query_system()
    closure = system.closure("q", function)
    outcome, closures = agree(system, closure, args)
    assert outcome[0] == "value"
    # the predicate's runs, nested in the primitive's extcall, are credited
    # to the predicate, not to the function that made the extcall
    invocations, instructions = closures[f"q.{function}"]
    assert invocations == 1 and instructions < outcome[3]


@pytest.mark.parametrize(
    "text, args, kind",
    [(TRAPPING, [5], "value"), (UNCAUGHT, [5], "raise")],
    ids=["trap-into-a-handler", "uncaught-exception"],
)
def test_runs_that_trap(text, args, kind):
    system, closure = compiled(text)
    outcome, closures = agree(system, closure, args)
    assert outcome[0] == kind
    assert closures["m.run"][0] == 1


@pytest.mark.parametrize(
    "text, args",
    [(LOOPING, [6]), (REENTERING, [_rows(7)])],
    ids=["looping", "extcall-that-re-enters"],
)
def test_every_step_limit(text, args):
    system, closure = compiled(text)
    (_, _, _, total), _ = agree(system, closure, args)
    for limit in range(1, total + 2):
        outcome, closures = agree(system, closure, args, limit)
        assert outcome[0] == ("limit" if limit < total else "value")
        assert sum(instructions for _, instructions in closures.values()) == min(limit, total)


_SYSTEM = TycoonSystem()
_counter = [0]


@given(tl_int_expression(max_depth=3), st.integers(-50, 50))
@settings(max_examples=40, deadline=None)
def test_integer_expressions(case, arg):
    expression, _ = case
    _counter[0] += 1
    module = f"evidence{_counter[0]}"
    _SYSTEM.compile(f"module {module} export f\nlet f(p0: Int): Int = p0 + ({expression})\nend")
    agree(_SYSTEM, _SYSTEM.closure(module, "f"), [arg])
