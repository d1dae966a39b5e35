"""The compiled tier against the interpreter loop it stands in for.

``VM._loop`` enters the Python function ``repro.machine.tier`` made of a code
object unless it can see a reason not to: a profiler is attached, the step
limit could run out inside the activation, or the code was declined.  There
is no switch, so the tests select the same way — a VM with a profiler runs
``VM._execute``, the reference; one without runs compiled — and require the
two to be indistinguishable: value, output, trap, instruction count, and
every field of ``StepLimitExceeded`` at every limit.
"""

import copy
import sys
import threading

import pytest

from repro.core.names import NameSupply
from repro.core.parser import parse_term
from repro.core.syntax import Oid
from repro.lang import TycoonSystem
from repro.machine.binfmt import encode_code
from repro.machine.codegen import compile_function
from repro.machine.isa import CodeObject, VMClosure, flatten_codes
from repro.machine.runtime import EXT_OPS, UncaughtTmlException
from repro.machine.tier import source
from repro.machine.vm import VM, StepLimitExceeded, instantiate
from repro.obs.metrics import METRICS
from repro.obs.profile import VMProfiler
from repro.query import Relation
from repro.query.algebra import query_registry
from repro.store.serialize import encode_value


def observe(closure, args, *, interpreted, limit=None, store=None):
    """Everything a caller can see of one call, as a comparable value."""
    vm = VM(store=store, step_limit=limit, profiler=VMProfiler() if interpreted else None)
    try:
        result = vm.call(closure, copy.deepcopy(list(args)))
    except UncaughtTmlException as trap:
        return ("raise", repr(trap.value), vm.output, vm.instructions)
    except StepLimitExceeded as stopped:
        assert stopped.partial.value is None
        return (
            "limit", stopped.limit, stopped.instructions, str(stopped),
            stopped.partial.instructions, stopped.partial.output, vm.instructions,
        )
    return ("value", repr(result.value), result.output, result.instructions)


def both(closure, args, **how):
    compiled = observe(closure, args, interpreted=False, **how)
    assert compiled == observe(closure, args, interpreted=True, **how)
    return compiled


def compiled_codes(closure) -> list[CodeObject]:
    return [code for code in flatten_codes(closure.code) if callable(code.tier)]


def proc(text: str, registry=None) -> VMClosure:
    term = parse_term(text, prims=registry.names() if registry else None)
    return instantiate(compile_function(term, registry))


def counter(name: str) -> int:
    return METRICS.get(name).value


# ---------------------------------------------------------------------------
# the step limit, at every value
# ---------------------------------------------------------------------------

LOOPING = """
module m export run
let run(n: Int): Int =
  var s := 0 in
  begin for i = 1 upto n do begin print(i); s := s + i * i end end; s end
end"""

TRAPPING = """
module m export run
let run(n: Int): Int =
  let a = array(3, 7) in
  var s := 0 in
  begin
    for i = 0 upto n do s := s + (try a[i] catch(x) begin print(x); 0 - 1 end end) end;
    s
  end
end"""

REENTERING = """
module m export run
type Row = tuple id: Int, v: Int end
let run(rows) = size(array(1, select r from rows as r : Row where r.v % 3 == 1 end))
end"""


def _rows(n: int) -> Relation:
    rows = Relation("rows", ["id", "v"])
    rows.insert_many([(i, i * 5) for i in range(n)])
    return rows


@pytest.mark.parametrize(
    "text, args",
    [(LOOPING, [6]), (TRAPPING, [5]), (REENTERING, [_rows(7)])],
    ids=["looping", "trapping-into-a-handler", "extcall-that-re-enters"],
)
def test_every_step_limit_stops_where_the_interpreter_stops(text, args):
    system = TycoonSystem()
    system.compile(text)
    closure = system.closure("m", "run")
    unbounded = both(closure, args)
    assert unbounded[0] == "value"
    total = unbounded[3]
    assert 100 < total < 2000
    for limit in range(1, total + 2):
        outcome = both(closure, args, limit=limit)
        if limit < total:
            assert outcome[:3] == ("limit", limit, limit)
            assert outcome[5] == unbounded[2][: len(outcome[5])]
        else:
            assert outcome == unbounded
    assert compiled_codes(closure), "the limited runs never entered the tier"


def test_an_activation_that_could_cross_the_limit_is_interpreted():
    closure = proc("proc(x ce cc) (+ x 1 ce cont(t) (+ t 1 ce cc))")
    assert both(closure, [1], limit=4)[:3] == ("limit", 4, 4)  # five instructions
    assert both(closure, [1], limit=5) == ("value", "3", [], 5)


# ---------------------------------------------------------------------------
# a profiler sees what it always saw, and compiles nothing
# ---------------------------------------------------------------------------


def test_a_profile_is_the_interpreters_whether_or_not_the_code_has_run_compiled():
    def profile(warm: bool) -> dict:
        system = TycoonSystem()
        system.compile(LOOPING)
        closure = system.closure("m", "run")
        if warm:
            system.vm().call(closure, [5])
            assert compiled_codes(closure)
        profiler = VMProfiler()
        vm = system.vm()
        vm.profiler = profiler  # attached after construction, as the benchmark does
        result = vm.call(closure, [5])
        assert profiler.total_instructions == result.instructions
        if not warm:
            assert not compiled_codes(closure), "a profiled run compiled code it cannot use"
        return profiler.as_dict()

    cold = profile(warm=False)
    assert cold == profile(warm=True)
    assert set(cold) == {"schema", "total_instructions", "opcodes", "closures", "primitives"}
    assert cold["closures"]["m.run"]["invocations"] == 1


# ---------------------------------------------------------------------------
# what the tier declines stays interpreted and answers as before
# ---------------------------------------------------------------------------


def hand_built(instrs, consts=()) -> VMClosure:
    """``proc(a b ce cc)`` in registers 0 to 3, with 4 to 7 to work in."""
    supply = NameSupply()
    params = (
        supply.fresh_val("a"), supply.fresh_val("b"),
        supply.fresh_cont("ce"), supply.fresh_cont("cc"),
    )
    code = CodeObject("hand", params, 8, list(instrs), list(consts), is_proc=True)
    return VMClosure(code, [])


def nest(depth: int) -> list[tuple]:
    """``if not a < b: if not a < b: ...``, ``depth`` deep."""
    branches = [i for pc in range(0, 2 * depth, 2) for i in (("lt", 0, 1, pc + 2), ("halt", 0))]
    return branches + [("halt", 1)]


DECLINED = {
    # pc 2 is entered from the jump at 0 and by falling out of 1
    "a-join": ("shape", [("lt", 0, 1, 2), ("const", 4, 0), ("halt", 0)], [9], (1, 2), 1),
    # count r0 down to zero: the ``lt`` at 4 never holds, so it jumps back
    "a-backward-jump": (
        "shape",
        [("const", 4, 0), ("const", 5, 1), ("gt", 0, 5, 6), ("sub", 0, 0, 4, 7, 6),
         ("lt", 4, 5, 2), ("halt", 1), ("halt", 0), ("halt", 6)],
        [1, 0], (3, 5), 0,
    ),
    # the interpreter's registers start as None; a local would be unbound
    "an-unwritten-register": ("undefined_read", [("halt", 5)], [], (1, 2), None),
    "nesting-python-will-not-indent": ("depth", nest(80), [], (2, 1), 1),
}


@pytest.mark.parametrize("name", DECLINED)
def test_declined_code_stays_interpreted(name):
    reason, instrs, consts, args, value = DECLINED[name]
    closure = hand_built(instrs, consts)
    before = counter(f"vm.tier.fallback.{reason}"), counter("vm.tier.compiled")
    outcome = both(closure, args)
    assert outcome[:2] == ("value", repr(value))
    assert closure.code.tier is False
    assert source(closure.code) == f"# stays interpreted: {reason}\n"
    both(closure, args)  # declined once, not once per run
    after = counter(f"vm.tier.fallback.{reason}"), counter("vm.tier.compiled")
    assert after == (before[0] + 1, before[1])


def test_nesting_python_does_indent_compiles():
    closure = hand_built(nest(79))
    assert both(closure, (2, 1)) == ("value", "1", [], 80)
    assert compiled_codes(closure)


def test_compilation_is_counted_once_per_code_object():
    closure = proc("proc(x ce cc) (+ x 1 ce cc)")
    before = counter("vm.tier.compiled"), METRICS.get("vm.tier.compile_s").count
    for _ in range(3):
        assert VM().call(closure, [1]).value == 2
    assert counter("vm.tier.compiled") == before[0] + 1
    assert METRICS.get("vm.tier.compile_s").count == before[1] + 1
    text = source(closure.code)
    assert text.startswith("def run(vm, free, args")
    assert "vm.instructions += 2" in text


# ---------------------------------------------------------------------------
# the cache cannot go stale
# ---------------------------------------------------------------------------


def test_a_copy_of_executed_code_is_code_that_has_not_run():
    closure = proc("proc(x ce cc) (+ x 1 ce cc)")
    code = closure.code
    image, stored, shown = encode_code(code), encode_value(code), repr(code)
    assert VM().call(closure, [1]).value == 2
    assert callable(code.tier)
    # the cache is no part of the value: not persisted, printed or compared
    assert (encode_code(code), encode_value(code), repr(code)) == (image, stored, shown)
    clone = copy.deepcopy(code)
    assert clone == code and clone.tier is None
    assert copy.copy(code).tier is None
    clone.consts[clone.instrs[0][2]] = 41  # the ``const`` that loads the 1
    assert VM().call(VMClosure(clone, []), [1]).value == 42
    assert VM().call(closure, [1]).value == 2


def test_an_extension_handler_swapped_after_the_first_run_is_called(monkeypatch):
    registry = query_registry()
    closure = proc("proc(rel ce cc) (count rel cc)", registry)
    assert both(closure, [_rows(4)])[1] == "4"
    assert compiled_codes(closure)
    monkeypatch.setitem(EXT_OPS, "count", lambda machine, args: 99)
    assert both(closure, [_rows(4)])[1] == "99"


def test_an_oid_constant_is_loaded_from_the_store_the_vm_has():
    class Store:
        def load(self, oid):
            return f"object {oid.value}"

    closure = hand_built([("const", 4, 0), ("halt", 4)], [Oid(7)])
    assert both(closure, (1, 2))[1] == repr(Oid(7))
    assert compiled_codes(closure)
    assert both(closure, (1, 2), store=Store())[1] == repr("object 7")


def test_threads_racing_the_first_activation_all_get_the_answer():
    system = TycoonSystem()
    system.compile(LOOPING)
    closure = system.closure("m", "run")
    workers = 8
    barrier = threading.Barrier(workers)
    answers = []

    def first_call():
        barrier.wait(timeout=10)
        answers.append(system.vm().call(closure, [20]).value)

    threads = [threading.Thread(target=first_call) for _ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [sum(i * i for i in range(1, 21))] * workers
    assert callable(closure.code.tier)
