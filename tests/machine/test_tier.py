"""The compiled tier against the interpreter loop it stands in for.

``VM._loop`` runs every activation as a Python function ``repro.machine.tier``
made of the code object: its plain text, or — under a ``VMProfiler``, or
when the step limit could run out inside the activation — its counted text.
There is no switch, so the tests select the same way — a VM without a
profiler runs the plain text, one with a ``VMProfiler`` the counted one — and
require both to be indistinguishable from the per-instruction reference loop
(``tests/machine/reference_vm.py``): value, output, trap, instruction count,
every field of ``StepLimitExceeded`` at every limit, and the profile.
"""

import contextlib
import copy
import sys
import threading

import pytest

from repro.analysis.verify_tam import verify_code
from repro.bench.stanford import PROGRAMS
from repro.core.names import NameSupply
from repro.core.parser import parse_term
from repro.core.syntax import UNIT, Char, Oid
from repro.lang import TycoonSystem
from repro.machine.binfmt import encode_code
from repro.machine.codegen import compile_function
from repro.machine.cps_interp import Interpreter
from repro.machine.isa import CodeObject, VMClosure, flatten_codes
from repro.machine.runtime import (
    ARITY_ERROR,
    EXT_OPS,
    TYPE_ERROR,
    MachineError,
    TmlArray,
    TmlVector,
    UncaughtTmlException,
)
from repro.machine.tier import source
from repro.machine.vm import VM, StepLimitExceeded, instantiate
from repro.obs.metrics import METRICS
from repro.obs.profile import ClosureProfile, VMProfiler
from repro.primitives._util import INT_MAX, INT_MIN
from repro.primitives.arith import OVERFLOW
from repro.query import Relation
from repro.query.algebra import query_registry
from repro.reflect import optimize_function

from tests.machine.reference_vm import ReferenceVM

#: the three ways to run a call: the tier's plain text (its counted one for
#: an activation the step limit could end), its counted text, the reference
ENGINES = {
    "plain": lambda **how: VM(**how),
    "counted": lambda **how: VM(profiler=VMProfiler(), **how),
    "reference": lambda **how: ReferenceVM(profiler=VMProfiler(), **how),
}


def observe(closure, args, engine, *, limit=None, store=None):
    """Everything a caller can see of one call, as a comparable value, and
    the profile when the engine keeps one."""
    vm = ENGINES[engine](store=store, step_limit=limit)
    try:
        result = vm.call(closure, copy.deepcopy(list(args)))
    except UncaughtTmlException as trap:
        outcome = ("raise", repr(trap.value), vm.output, vm.instructions)
    except StepLimitExceeded as stopped:
        assert stopped.partial.value is None
        outcome = (
            "limit", stopped.limit, stopped.instructions, str(stopped),
            stopped.partial.instructions, stopped.partial.output, vm.instructions,
        )
    else:
        outcome = ("value", repr(result.value), result.output, result.instructions)
    return outcome, vm.profiler.as_dict() if vm.profiler else None


def both(closure, args, **how):
    """Run the call on every engine: one outcome, and one profile."""
    plain, _ = observe(closure, args, "plain", **how)
    counted, profile = observe(closure, args, "counted", **how)
    reference, expected = observe(closure, args, "reference", **how)
    assert plain == counted == reference
    assert profile == expected
    return plain


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
    """The library calls (``int.add``, ``arraylib.get``, ...) run inline in
    the plain text, whose ``max_path`` then counts their bodies: which text
    a limit selects moves, where it stops does not."""
    system = TycoonSystem()
    system.compile(text)
    closure = system.closure("m", "run")
    inlined = counter("vm.tier.inlined")
    unbounded = both(closure, args)
    assert counter("vm.tier.inlined") > inlined, "no library call was compiled inline"
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


def test_an_activation_that_could_cross_the_limit_runs_counted():
    closure = proc("proc(x ce cc) (+ x 1 ce cont(t) (+ t 1 ce cc))")
    assert both(closure, [1], limit=4)[:3] == ("limit", 4, 4)  # five instructions
    assert closure.code.tier_counted is not None
    assert both(closure, [1], limit=5) == ("value", "3", [], 5)


def test_profiled_and_budgeted_runs_run_compiled():
    for how in ({"profiler": VMProfiler()}, {"step_limit": 100}):
        system = TycoonSystem()
        system.compile(LOOPING)
        closure = system.closure("m", "run")
        before = counter("vm.tier.compiled")
        vm = system.vm(step_limit=how.get("step_limit"))
        vm.profiler = how.get("profiler")
        with pytest.raises(StepLimitExceeded) if vm.step_limit else contextlib.nullcontext():
            vm.call(closure, [6])
        assert callable(closure.code.tier), how
        # the activation the limit lands in runs the counted text
        assert any(callable(code.tier_counted) for code in flatten_codes(closure.code)), how
        assert counter("vm.tier.compiled") > before


# ---------------------------------------------------------------------------
# a profiler sees what it always saw
# ---------------------------------------------------------------------------


def test_a_profile_is_the_interpreters_whether_or_not_the_code_has_run_compiled():
    def profile(warm: bool, vm_class=VM) -> dict:
        system = TycoonSystem()
        system.compile(LOOPING)
        closure = system.closure("m", "run")
        if warm:
            system.vm().call(closure, [5])
            assert compiled_codes(closure)
        profiler = VMProfiler()
        vm = vm_class(store=system.heap, foreign=system.foreign)
        vm.profiler = profiler  # attached after construction, as the benchmark does
        result = vm.call(closure, [5])
        assert profiler.total_instructions == result.instructions
        return profiler.as_dict()

    cold = profile(warm=False)
    assert cold == profile(warm=True) == profile(warm=False, vm_class=ReferenceVM)
    assert set(cold) == {"schema", "total_instructions", "opcodes", "closures", "primitives"}
    assert cold["closures"]["m.run"]["invocations"] == 1


# ---------------------------------------------------------------------------
# a run sees only the handlers it pushed
# ---------------------------------------------------------------------------

PREDICATE_TRAPS = """
module m export run
type Row = tuple id: Int, v: Int end
let run(rows) =
  let a = array(3, 0) in
  try size(array(1, select r from rows as r : Row where a[r.v] == 0 end))
  catch(x) begin print(x); 0 - 7 end end
end"""


@pytest.mark.parametrize("engine", ENGINES)
def test_a_trap_in_a_query_predicate_reaches_the_handler_around_the_query(engine):
    """The predicate's run re-enters the VM inside ``select``'s extcall; its
    boundsError must not take the handler of the run around it (whose catch
    would then run inside the predicate), but fail the predicate, which
    hands the trap to ``select``'s exception continuation."""
    system = TycoonSystem()
    system.compile(PREDICATE_TRAPS)
    vm = ENGINES[engine](store=system.heap, foreign=system.foreign)
    result = vm.call(system.closure("m", "run"), [_rows(4)])
    assert (result.value, result.output, vm.handlers) == (-7, ["boundsError"], [])


# ---------------------------------------------------------------------------
# malformed code is refused, whatever runs it; deep code compiles
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


MALFORMED = {
    # pc 2 is entered from the jump at 0 and by falling out of 1
    "a-join": ("TAM012", [("lt", 0, 1, 2), ("const", 4, 0), ("halt", 0)], [9], (1, 2)),
    # count r0 down to zero: the ``lt`` at 4 never holds, so it jumps back
    "a-backward-jump": (
        "TAM012",
        [("const", 4, 0), ("const", 5, 1), ("gt", 0, 5, 6), ("sub", 0, 0, 4, 7, 6),
         ("lt", 4, 5, 2), ("halt", 1), ("halt", 0), ("halt", 6)],
        [1, 0], (3, 5),
    ),
    # the reference loop's registers start as None; a local would be unbound
    "an-unwritten-register": ("TAM010", [("halt", 5)], [], (1, 2)),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_code_is_refused(name):
    """What ``verify_tam`` rejects the tier will not run: it raises
    ``MachineError`` naming the diagnostic, with or without a profiler."""
    diagnostic, instrs, consts, args = MALFORMED[name]
    closure = hand_built(instrs, consts)
    assert diagnostic in {d.code for d in verify_code(closure.code)}
    before = counter("vm.tier.compiled")
    for engine in ("plain", "counted"):
        with pytest.raises(MachineError, match=diagnostic):
            ENGINES[engine]().call(closure, list(args))
        with pytest.raises(MachineError, match=diagnostic):
            source(closure.code, counted=engine == "counted")
    assert closure.code.tier is None and counter("vm.tier.compiled") == before


def test_nesting_python_does_indent_compiles():
    closure = hand_built(nest(79))
    assert both(closure, (2, 1)) == ("value", "1", [], 80)
    assert compiled_codes(closure)


@pytest.mark.parametrize("depth", [80, 200])
def test_nesting_deeper_than_python_indents_compiles(depth):
    """Past 80 levels, a subtree continues in a function of its own."""
    closure = hand_built(nest(depth))
    assert verify_code(closure.code) == []
    assert both(closure, (2, 1)) == ("value", "1", [], depth + 1)  # every jump taken
    assert both(closure, (1, 2)) == ("value", "1", [], 2)
    for limit in (1, 80, depth, depth + 1):
        both(closure, (2, 1), limit=limit)
    assert callable(closure.code.tier) and closure.code.tier.max_path == depth + 1
    for counted in (False, True):
        assert source(closure.code, counted).count("\ndef ") == depth // 80


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
    image, shown = encode_code(code), repr(code)
    assert VM().call(closure, [1]).value == 2
    assert callable(code.tier)
    # the cache is no part of the value: not encoded, printed or compared
    assert (encode_code(code), repr(code)) == (image, shown)
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
    """The racers' first activations of one caller bind its slot to
    ``int.add`` or to a closure that prints, so each compiles a text of its
    own; under a step limit one short of the run in every other thread,
    each text must come with its own ``max_path``."""
    system = TycoonSystem()
    system.compile(LOOPING)
    closure = system.closure("m", "run")
    code = calling(system.closure("int", "add")).code
    bindings = [system.closure("int", "add"), PRINTING]
    # the reference loop compiles nothing: ``code`` is still to be raced for
    totals = [observe(VMClosure(code, [slot]), (1, 2), "reference")[0][3] for slot in bindings]
    expected = {
        (kind, short): observe(VMClosure(code, [bindings[kind]]), (1, 2), "reference",
                               limit=totals[kind] - short)[0]
        for kind in (0, 1) for short in (0, 1)
    }
    assert code.tier is None
    workers = 8
    barrier = threading.Barrier(workers)
    answers, outcomes = [], []

    def first_call(i: int):
        kind, short = i % 2, i // 2 % 2
        barrier.wait(timeout=10)
        caller = VMClosure(code, [bindings[kind]])
        outcome = observe(caller, (1, 2), "plain", limit=totals[kind] - short)[0]
        outcomes.append(outcome == expected[kind, short])
        answers.append(system.vm().call(closure, [20]).value)

    threads = [threading.Thread(target=first_call, args=(i,)) for i in range(workers)]
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
    assert outcomes == [True] * workers
    assert answers == [sum(i * i for i in range(1, 21))] * workers
    assert callable(closure.code.tier) and callable(code.tier)


# ---------------------------------------------------------------------------
# library calls run inline
# ---------------------------------------------------------------------------


def calling(callee: VMClosure) -> VMClosure:
    """``proc(v.. ce cc) (f v.. ce cc)``, its free slot ``f`` bound to
    ``callee``: a library call, as compiled TL code makes it."""
    supply = NameSupply()
    n = callee.arity
    params = (*(supply.fresh_val(f"v{i}") for i in range(n - 2)),
              supply.fresh_cont("ce"), supply.fresh_cont("cc"))
    code = CodeObject("caller", params, n + 1, [("free", n, 0), ("tailcall", n, tuple(range(n)))],
                      free_names=(supply.fresh_val("f"),), is_proc=True)
    return VMClosure(code, [callee])


#: the library the calls below are made to
_LIBRARY = TycoonSystem()
#: a leaf too, with code of its own: it prints, then adds
PRINTING = proc("proc(a b ce cc) (print a cont(u) (+ a b ce cc))")

_ARRAY, _VECTOR = TmlArray([4, 5, 6]), TmlVector([4, 5])
_BINARY = [(6, 3), (-7, 2), ("x", 1), (1, Char("a"))]

#: every leaf wrapper of the library, with arguments that succeed, take the
#: ``ce`` edge (overflow, zero divide), trap with a type or a bounds error
LIBRARY_CALLS = {
    "int.add": [(1, 2), (INT_MAX, 1), ("x", 1)],
    "int.sub": [(1, 2), (INT_MIN, 1), (1, "x")],
    "int.mul": [(6, 7), (INT_MAX, 2), (_ARRAY, 2)],
    "int.div": [(7, 2), (-7, 2), (1, 0), (INT_MIN, -1), ("x", 1)],
    "int.mod": [(7, 2), (-7, 2), (1, 0), (1, "x")],
    **{f"int.{name}": [(1, 2), (2, 1), (2, 2), (1, "x")]
       for name in ("lt", "gt", "le", "ge", "min", "max")},
    "int.eq": [(1, 1), (1, 2), ("x", "x"), (_ARRAY, 1)],
    "int.ne": [(1, 1), (1, 2), (Char("a"), Char("a"))],
    "int.neg": [(5,), (INT_MIN,), ("x",)],
    "arraylib.new": [(2, 7), (0, 1), (-1, 0), ("x", 0)],
    "arraylib.get": [(_ARRAY, 1), (_VECTOR, 0), (_ARRAY, 3), (_ARRAY, -1), (_ARRAY, "x"), (5, 0)],
    "arraylib.set": [(_ARRAY, 1, 9), (_ARRAY, 3, 9), (_VECTOR, 0, 9), (_ARRAY, "x", 9)],
    "arraylib.size": [(_ARRAY,), (_VECTOR,), (5,)],
    "arraylib.copy": [(_ARRAY, 0, TmlArray([0] * 4), 1, 3), (_ARRAY, 2, _ARRAY, 0, 5),
                      (5, 0, _ARRAY, 0, 1)],
    "io.print": [(7,), ("s",), (_ARRAY,), (Char("c"),)],
    "charlib.ord": [(Char("a"),), (65,)],
    "charlib.chr": [(65,), (321,), (Char("a"),)],
    **{f"bits.{name}": _BINARY + [(1, 64), (-1, 63)]
       for name in ("band", "bor", "bxor", "shl", "shr")},
    "bits.bnot": [(5,), (INT_MIN,), ("x",)],
}


@pytest.mark.parametrize("name", sorted(LIBRARY_CALLS))
def test_a_library_call_runs_inline_as_the_interpreter_runs_the_call(name):
    library = _LIBRARY.closure(*name.split("."))
    kinds = set()
    for args in LIBRARY_CALLS[name]:
        callee = VMClosure(copy.deepcopy(library.code), [])
        caller = calling(callee)
        inlined = counter("vm.tier.inlined")
        first, _ = observe(caller, args, "plain")
        assert counter("vm.tier.inlined") == inlined + 1, "the call was not compiled inline"
        assert callee.code.tier is None, "the inline site was not taken"
        assert both(caller, args) == first
        kinds.add(first[0])
    total = name in ("int.eq", "int.ne", "io.print")  # they take any value
    assert kinds == ({"value"} if total else {"value", "raise"})


def test_math_sqrt_and_a_closure_with_free_variables_are_not_leaves():
    for callee in (_LIBRARY.closure("math", "sqrt"), calling(_LIBRARY.closure("int", "add"))):
        caller = calling(callee)
        assert source(caller.code, free=caller.free) == source(caller.code)


def test_a_binding_the_guard_does_not_accept_goes_through_the_trampoline():
    """The caller's text is compiled at its first activation, with ``int.add``
    in its slot; later closures of the same code bind the slot to a closure
    that prints, to another leaf, to a leaf of another arity and to no
    closure at all."""
    caller = calling(_LIBRARY.closure("int", "add"))
    inlined = counter("vm.tier.inlined")
    assert both(caller, (1, 2)) == ("value", "3", [], 4)
    assert counter("vm.tier.inlined") == inlined + 1
    for slot, seen in [
        (PRINTING, ("value", "3", ["1"])),
        (_LIBRARY.closure("int", "sub"), ("value", "-1", [])),
        (_LIBRARY.closure("int", "neg"), ("raise", repr(ARITY_ERROR), [])),
        (5, ("raise", repr(TYPE_ERROR), [])),
    ]:
        assert both(VMClosure(caller.code, [slot]), (1, 2))[:3] == seen
    assert both(caller, (1, 2)) == ("value", "3", [], 4)


def test_the_plain_text_has_inline_sites_only_given_the_bindings():
    caller = calling(_LIBRARY.closure("int", "add"))
    assert source(caller.code) == (
        "def run(vm, free, args, K=K, C=C):\n"
        "    r0, r1, r2, r3, = args\n"
        "    r4 = free[0]\n"
        "    vm.instructions += 2\n"
        "    return r4, [r0, r1, r2, r3]\n"
    )
    inlined = source(caller.code, free=caller.free)
    assert inlined.startswith("def run(vm, free, args, K=K, C=C, G0=G0):")
    assert "if vm.profiler is None and type(r4) is VMClosure and r4.code is G0:" in inlined
    assert source(caller.code, counted=True, free=caller.free) == source(caller.code, True)


# ---------------------------------------------------------------------------
# join continuations run in place
# ---------------------------------------------------------------------------


#: ``proc`` texts whose code makes a closure ``k`` and tail-calls it on the
#: same path: (text, argument tuples, ``C`` index -> whether the plain text
#: enters that code wherever it is reached, or calls it through the
#: trampoline at least once).  The argument tuples reach each of them.
JOINS = {
    # both arms pass a literal and the join begins with a ``case`` on it
    "two-literal-arms": (
        "proc(a b ce cc) (λ(k) (< a b cont() (k true) cont() (k false))"
        " cont(x) (== x true cont() (cc a) cont() (cc b)))",
        [(1, 2), (2, 1)], {0: True}),
    # literals, but the join begins with no ``case``: not entered
    "two-literal-arms-no-case": (
        "proc(a b ce cc) (λ(k) (< a b cont() (k 1) cont() (k 2)) cont(x) (print x cont(u) (cc x)))",
        [(1, 2), (2, 1)], {0: False}),
    # two computed arguments: entered from neither, never duplicated
    "two-computed-arms": (
        "proc(a b ce cc) (λ(k) (< a b cont() (k a) cont() (k b)) cont(x) (+ x 1 ce cc))",
        [(1, 2), (2, 1), (INT_MAX, INT_MAX)], {0: False}),
    "entered-once": (
        "proc(a b ce cc) (λ(k) (+ a b ce cont(s) (k s)) cont(x) (* x 2 ce cc))",
        [(1, 2), (INT_MAX, 0), (INT_MAX - 1, 1)], {0: True}),
    "body-traps": (
        "proc(a b ce cc) (λ(k) (+ b 1 ce cont(s) (k s)) cont(x) ([] a x cc))",
        [(TmlArray([4, 5, 6]), 1), (TmlArray([4]), 1), (TmlVector([4, 5]), 0)], {0: True}),
    "body-halts": (
        "proc(a b ce cc) (λ(k) (< a b cont() (k true) cont() (k false))"
        " cont(x) (== x true cont() (halt a) cont() (cc b)))",
        [(1, 2), (2, 1)], {0: True}),
    "body-pushes-and-pops-a-handler": (
        "proc(a b ce cc) (λ(k) (+ a 1 ce cont(s) (k s)) cont(x)"
        " (λ(^h) (pushHandler h cont() (== x 1 cont() (raise b)"
        " cont() (popHandler cont() (cc x)))) cont(e) (+ e 100 ce cc)))",
        [(0, 5), (1, 5), (0, "b")], {0: True}),
    "body-has-a-fix": (
        "proc(a b ce cc) (λ(k) (+ a 1 ce cont(s) (k s))"
        " cont(x) (Y λ(^c0 f ^c) (c cont() (f x) cont(y) (+ y b ce cc))))",
        [(1, 2), (1, INT_MAX)], {0: True}),
    # a literal on each arm, but the join calls out of the VM
    "body-has-an-extcall": (
        "proc(rel a ce cc) (λ(k) (< a 0 cont() (k true) cont() (k false))"
        " cont(x) (== x true cont() (count rel cc) cont() (cc a)))",
        [(_rows(4), -1), (_rows(4), 1)], {0: False}),
    # ``k`` is entered on one path; on the other it is the argument of the
    # join ``g``, entered there, which calls it through the trampoline: a
    # closure is entered only in the frame that made it
    "pending-passed-as-an-argument": (
        "proc(a b ce cc) (λ(k) (< a b cont() (k 1) cont() (λ(g) (g k) cont(q) (q 5)))"
        " cont(x) (+ x a ce cc))",
        [(1, 2), (2, 1)], {0: False, 1: True}),
    "pending-stored-in-a-vector": (
        "proc(a b ce cc) (λ(k) (vector k a cont(v) ([] v 0 cont(q) (q 7)))"
        " cont(x) (+ x b ce cc))",
        [(1, 2)], {0: False}),
    # ``m`` captures ``k`` before either is allocated; entered, ``m`` reads
    # ``k`` through its free slot
    "pending-read-through-an-entered-free-slot": (
        "proc(a b ce cc) (λ(k) (λ(m) (< a b cont() (m a) cont() (k b))"
        " cont(y) (+ y 1 ce k)) cont(x) (* x 3 ce cc))",
        [(1, 2), (2, 1), (INT_MAX, INT_MAX)], {0: False, 1: True}),
    # ``m`` captures ``k`` and is stored: ``k`` is allocated first
    "pending-captured-by-a-pending-one": (
        "proc(a b ce cc) (λ(k) (λ(m) (vector m cont(v) ([] v 0 cont(q) (q a)))"
        " cont(y) (k y)) cont(x) (* x 3 ce cc))",
        [(2, 0)], {0: False}),
    "pending-captured-by-a-fix-plan": (
        "proc(a b ce cc) (λ(k) (Y λ(^c0 f ^c) (c cont() (f a)"
        " cont(y) (< y b cont() (k y) cont() (k b)))) cont(x) (* x 3 ce cc))",
        [(1, 2), (3, 2)], {0: False}),
}


def interpret(term, registry, args):
    """What ``cps_interp`` sees of a call: value or uncaught payload, and output."""
    interpreter = Interpreter(registry=registry)
    try:
        result = interpreter.call(interpreter.make_closure(term), copy.deepcopy(list(args)))
    except UncaughtTmlException as trap:
        return "raise", repr(trap.value), interpreter.output
    return "value", repr(result.value), result.output


def closure_profiled(closure, args, vm_class=VM):
    """A call under a ``ClosureProfile``: the outcome, and what it credited."""
    vm = vm_class(profiler=ClosureProfile())
    try:
        result = vm.call(closure, copy.deepcopy(list(args)))
        outcome = ("value", repr(result.value), result.output, result.instructions)
    except UncaughtTmlException as trap:
        outcome = ("raise", repr(trap.value), vm.output, vm.instructions)
    credited = {name: (s.invocations, s.instructions) for name, s in vm.profiler.closures.items()}
    return outcome, credited


def sweep(closure, args) -> None:
    """Every step limit from 1 to one past the run stops where the
    reference stops."""
    total = both(closure, args)[3]
    for limit in range(1, total + 2):
        both(closure, args, limit=limit)


@pytest.mark.parametrize("name", JOINS)
def test_a_join_runs_in_place_as_the_interpreter_runs_it(name):
    text, cases, entered = JOINS[name]
    registry = query_registry() if "extcall" in name else None
    term = parse_term(text, prims=registry.names() if registry else None)
    closure = instantiate(compile_function(term, registry))
    joined = counter("vm.tier.joined")
    seen = [observe(closure, args, "plain")[0] for args in cases]
    # before a profiled run, which compiles the plain text of every code
    # object it enters
    assert {index: closure.code.codes[index].tier is None for index in entered} == entered
    assert (counter("vm.tier.joined") > joined) == any(entered.values())
    for args, plain in zip(cases, seen):
        assert plain[:3] == interpret(term, registry, args), args
        assert both(closure, args) == plain
        assert closure_profiled(closure, args) == closure_profiled(closure, args, ReferenceVM)
    if not any(entered.values()):  # not even a copy of the join's body
        assert "vm.profiler is None" not in source(closure.code)
    sweep(closure, cases[0])


def with_join(instrs, consts=()) -> VMClosure:
    """``hand_built``, its ``C[0]`` the join ``cont(x)`` over ``v`` and ``k``:
    ``k(x + v)``, or ``k`` of the overflow."""
    closure = hand_built(instrs, consts)
    supply = NameSupply()
    join = [("free", 1, 0), ("add", 2, 0, 1, 4, 3), ("free", 4, 1), ("tailcall", 4, (2,)),
            ("free", 5, 1), ("tailcall", 5, (3,))]
    closure.code.codes.append(CodeObject(
        "join", (supply.fresh_val("x"),), 6, join,
        free_names=(supply.fresh_val("v"), supply.fresh_cont("k"))))
    return closure


#: hand-built code the codegen does not make, each a join ``C[0]`` made in
#: register 4 over register 5 or 6: (instructions, constants, arguments ->
#: the value, whether the plain text enters the join)
HAND_BUILT_JOINS = {
    # register 5 is written after the closure captured it: the closure
    # holds 10, and is allocated before the write
    "captured-register-rewritten": (
        [("const", 5, 0), ("closure", 4, 0, (("r", 5), ("r", 3))), ("const", 5, 1),
         ("tailcall", 4, (5,))],
        [10, 20], {(0, 0): 30}, False),
    # the same, written on an overflow edge: the join adds 10, not the error
    "captured-register-rewritten-on-an-error-edge": (
        [("const", 6, 0), ("closure", 4, 0, (("r", 6), ("r", 3))),
         ("add", 7, 0, 1, 4, 6), ("tailcall", 3, (7,)), ("tailcall", 4, (1,))],
        [10], {(1, 2): 3, (INT_MAX, 1): 11}, False),
    # not written: the closure is entered and never allocated
    "captured-register-kept": (
        [("const", 5, 0), ("closure", 4, 0, (("r", 5), ("r", 3))), ("const", 6, 1),
         ("tailcall", 4, (6,))],
        [10, 20], {(0, 0): 30}, True),
}


@pytest.mark.parametrize("name", HAND_BUILT_JOINS)
def test_a_join_captures_what_the_register_held_when_it_was_made(name):
    instrs, consts, cases, entered = HAND_BUILT_JOINS[name]
    closure = with_join(instrs, consts)
    seen = {args: observe(closure, args, "plain")[0] for args in cases}
    assert (closure.code.codes[0].tier is None) == entered
    for args, plain in seen.items():
        assert plain[:2] == ("value", repr(cases[args]))
        assert both(closure, args) == plain
        assert closure_profiled(closure, args) == closure_profiled(closure, args, ReferenceVM)
        sweep(closure, args)


@pytest.mark.parametrize("depth", [79, 100, 200])
def test_a_pending_closure_crosses_into_a_split_subtree(depth):
    """``if not a < b: if not a < b: ... k(b)``: the closure made before the
    branches is allocated where the code continues in a function of its
    own, and entered there; at 79, the entered body is what splits."""
    branches = [i for pc in range(1, 2 * depth, 2) for i in (("lt", 0, 1, pc + 2), ("halt", 0))]
    closure = with_join([("closure", 4, 0, (("r", 0), ("r", 3))), *branches,
                         ("tailcall", 4, (1,))])
    assert observe(closure, (2, 1), "plain")[0] == ("value", "3", [], depth + 6)
    assert closure.code.codes[0].tier is None
    text = source(closure.code)
    assert "\ndef run(" in text  # split, at the latest inside the join's body
    # allocated once: in ``run``, before the split, or on the miss path
    assert text.count("VMClosure(C[0]") == 1
    assert "VMClosure(C[0]" in text[text.index("def run("):]
    assert both(closure, (2, 1)) == ("value", "3", [], depth + 6)
    assert both(closure, (1, 2)) == ("value", "1", [], 3)
    # the join's overflow edge is the subtree split off at 79
    assert both(closure, (INT_MAX, INT_MAX)) == ("value", repr(OVERFLOW), [], depth + 6)
    for limit in (1, depth, depth + 5, depth + 6):
        both(closure, (2, 1), limit=limit)
    assert closure_profiled(closure, (2, 1)) == closure_profiled(closure, (2, 1), ReferenceVM)


def test_a_reflectively_optimized_stanford_call_enters_joins():
    """The optimizer inlines ``int.lt``'s body: ``fib``'s ``if`` becomes a
    join both arms of the comparison tail-call with a literal."""
    program = PROGRAMS["fib"]
    system = TycoonSystem()
    system.compile(program.source)
    closure = optimize_function(system, program.name, "run")
    joined = counter("vm.tier.joined")
    assert system.vm().call(closure, [program.test_n]).value == program.reference(program.test_n)
    assert counter("vm.tier.joined") > joined


# ---------------------------------------------------------------------------
# a self tail call goes round ``run`` again
# ---------------------------------------------------------------------------


def _loop_over(body: str) -> str:
    """``proc(a n ce cc)`` whose ``Y``-bound ``loop(i acc)`` runs ``body``
    for ``i`` from 0 while ``i < n``, then answers ``acc``."""
    return ("proc(a n ce cc) (Y λ(^c0 loop ^c) (c cont() (loop 0 0)"
            f" cont(i acc) (>= i n cont() (cc acc) cont() {body})))")


#: ``(loop j s)`` with ``j = i + 1``
_NEXT = "(+ i 1 ce cont(j) (loop j s))"
_SUM = _loop_over(f"([] a i cont(v) (+ acc v ce cont(s) {_NEXT}))")

#: ``proc`` texts whose ``loop`` tail-calls itself: (text, argument tuples)
LOOPS = {
    "sums-an-array": (_SUM, [(TmlArray([1, 2, 3, 4, 5]), 5), (TmlArray([]), 0)]),
    # a typeError in the third iteration, a boundsError in the fourth
    "traps-in-iteration-k": (_SUM, [(TmlArray([1, 2, "x", 4]), 4), (TmlArray([1, 2, 3]), 5)]),
    # the second iteration's ``+`` overflows: its ``ce`` edge answers the error
    "takes-an-overflow-edge-in-iteration-k": (
        _loop_over(f"([] a i cont(v) (+ acc v cont(e) (cc e) cont(s) {_NEXT}))"),
        [(TmlArray([1, INT_MAX, 1]), 3), (TmlArray([1, 2, 1]), 3)]),
    # each iteration pushes a handler around ``a[i]`` and pops it; past the
    # end of ``a`` the handler answers ``acc + 1000``
    "pushes-and-pops-a-handler-in-the-body": (
        _loop_over("(λ(^h) (pushHandler h cont() ([] a i cont(v) (popHandler cont()"
                   f" (+ acc v ce cont(s) {_NEXT})))) cont(e) (+ acc 1000 ce cc))"),
        [(TmlArray([1, 2, 3]), 3), (TmlArray([1, 2, 3]), 5), (TmlArray([1, "x"]), 2)]),
    # the handlers pile up: the last one pushed catches the trap
    "pushes-a-handler-it-never-pops": (
        _loop_over("(λ(^h) (pushHandler h cont() ([] a i cont(v)"
                   f" (+ acc v ce cont(s) {_NEXT}))) cont(e) (+ acc i ce cc))"),
        [(TmlArray([1, 2, 3]), 3), (TmlArray([1, 2, "x", 4]), 4)]),
    # each iteration prints: the output is in order
    "prints-in-the-body": (
        _loop_over(f"([] a i cont(v) (print v cont(u) (+ acc v ce cont(s) {_NEXT})))"),
        [(TmlArray([4, 5, 6]), 3)]),
}


def loop_code(closure: VMClosure) -> CodeObject:
    return closure.code.codes[0]


def counting_activations(code: CodeObject) -> list:
    """Wrap ``code``'s plain text: the list grows by each activation's
    ``free``."""
    run, activations = code.tier, []

    def counting(vm, free, args):
        activations.append(free)
        return run(vm, free, args)

    counting.max_path = run.max_path
    code.tier = counting
    return activations


@pytest.mark.parametrize("name", LOOPS)
def test_a_self_tail_call_loops_as_the_interpreter_runs_it(name):
    """Value, output, trap and count are the reference's, and so are a
    ``ClosureProfile``'s credits and where every step limit stops; an
    unprofiled, unlimited run enters the loop's text once per trampoline
    trip — a trap a handler catches is one — not once per iteration."""
    text, cases = LOOPS[name]
    term = parse_term(text)
    closure = instantiate(compile_function(term))
    looped = counter("vm.tier.looped")
    seen = [observe(closure, args, "plain")[0] for args in cases]
    assert counter("vm.tier.looped") == looped + 1, "no loop site was compiled"
    activations = counting_activations(loop_code(closure))
    for args, plain in zip(cases, seen):
        assert plain[:3] == interpret(term, None, args), args
        del activations[:]
        assert observe(closure, args, "plain")[0] == plain
        assert len(activations) == 1, args
        assert "while True:" in source(loop_code(closure), free=activations[0])
        profiled, credited = closure_profiled(closure, args, ReferenceVM)
        assert closure_profiled(closure, args) == (profiled, credited)
        assert credited[loop_code(closure).name][0] > 1 or args[1] == 0
        assert both(closure, args) == plain
        sweep(closure, args)
    assert counter("vm.tier.looped") == looped + 1


def self_bound(text: str, **values) -> VMClosure:
    """The ``loop`` a ``_loop_over`` text makes, as a closure of its own:
    its ``loop`` slot holds it, its others ``values``."""
    code = copy.deepcopy(loop_code(proc(text)))
    closure = VMClosure(code, [])
    closure.free = [closure if name.base == "loop" else values[name.base]
                    for name in code.free_names]
    return closure


def test_a_loop_site_is_compiled_for_the_slot_that_held_the_activations_own_closure():
    """``loop`` takes ``i acc``; wrapped in ``calling``'s shape it is a
    procedure: ``proc(i acc ce cc)`` whose slot ``loop`` holds itself."""
    text = ("proc(n ce cc) (Y λ(^c0 loop ^c) (c cont() (loop 0 0 ce cc)"
            " proc(i acc ce1 cc1) (>= i n cont() (cc1 acc) cont()"
            " (+ acc i ce1 cont(s) (+ i 1 ce1 cont(j) (loop j s ce1 cc1))))))")
    first = self_bound(text, n=10)
    code = first.code
    plain = observe(first, (0, 0), "plain")[0]
    assert plain == ("value", "45", [], observe(first, (0, 0), "reference")[0][3])
    assert "while True:" in source(code, free=first.free)
    activations = counting_activations(code)
    # another closure of the same code, its own in its slot: the guard holds
    second = VMClosure(code, [])
    second.free = [second if value is first else 4 for value in first.free]
    assert observe(second, (0, 0), "plain")[0] == observe(second, (0, 0), "reference")[0]
    assert len(activations) == 1
    # ``third``'s slot holds ``first``: same code, another ``free``, so the
    # guard misses and the trampoline enters ``first``, which counts to 10
    third = VMClosure(code, [first if value is first else 4 for value in first.free])
    del activations[:]
    missed = observe(third, (0, 0), "plain")[0]
    assert missed == observe(third, (0, 0), "reference")[0]
    assert missed[:2] == ("value", "45") and len(activations) == 2
    assert both(third, (0, 0)) == missed
    assert closure_profiled(third, (0, 0)) == closure_profiled(third, (0, 0), ReferenceVM)
    # no closure in the slot at all: the call traps, as the trampoline's
    fourth = VMClosure(code, [5 if value is first else 4 for value in first.free])
    assert both(fourth, (0, 0))[:2] == ("raise", repr(TYPE_ERROR))
    # with no self slot, the text is the one compiled without bindings
    assert source(code, free=third.free) == source(code)
    assert "while True:" not in source(code)


def test_a_self_call_from_a_split_subtree_takes_the_trampoline():
    """``if not a < b: ... a - 1``, 100 levels deep: the self call sits in a
    function of its own, which cannot go round ``run``; at 78, it can."""
    for depth, loops in ((78, True), (100, False)):
        branches = [i for pc in range(0, 2 * depth, 2)
                    for i in (("lt", 0, 1, pc + 2), ("halt", 0))]
        end = len(branches)
        tail = [("const", 4, 0), ("sub", 5, 0, 4, end + 4, 7), ("free", 6, 0),
                ("tailcall", 6, (5, 1, 2, 3)), ("halt", 7)]
        params = hand_built([]).code.params
        closure = VMClosure(CodeObject("hand", params, 8, branches + tail, [1],
                                       free_names=(NameSupply().fresh_val("self"),),
                                       is_proc=True), [])
        closure.free.append(closure)
        assert verify_code(closure.code) == []
        looped = counter("vm.tier.looped")
        outcome = observe(closure, (5, 2), "plain")[0]
        assert outcome[:2] == ("value", "1")
        assert counter("vm.tier.looped") == looped + loops
        text = source(closure.code, free=closure.free)
        assert ("while True:" in text) == loops and ("\ndef run(" in text) != loops
        activations = counting_activations(closure.code)
        assert both(closure, (5, 2)) == outcome
        assert len(activations) == (1 if loops else 5)
        assert both(closure, (INT_MIN, INT_MIN))[:2] == ("value", repr(OVERFLOW))
        for limit in (1, depth, outcome[3] - 1, outcome[3]):
            both(closure, (5, 2), limit=limit)


def test_a_looping_predicate_runs_in_place_through_procedure():
    """``VM.procedure`` calls a predicate's plain text directly: the
    predicate's loop goes round inside that one call."""
    text = ("proc(n ce cc) (Y λ(^c0 loop ^c) (c cont() (loop n 0 ce cc)"
            " proc(i acc ce1 cc1) (<= i 0 cont() (cc1 acc) cont()"
            " (+ acc i ce1 cont(s) (- i 1 ce1 cont(j) (loop j s ce1 cc1))))))")
    predicate = self_bound(text, n=0)
    expected = [ReferenceVM().procedure(predicate, 2)(i, 0) for i in range(6)]
    assert expected == [0, 1, 3, 6, 10, 15]
    looped = counter("vm.tier.looped")
    call = VM().procedure(predicate, 2)
    assert counter("vm.tier.looped") == looped + 1
    assert [call(i, 0) for i in range(6)] == expected
    activations = counting_activations(predicate.code)
    call = VM().procedure(predicate, 2)
    assert [call(i, 0) for i in range(6)] == expected and len(activations) == 6
    for args, payload in (("x", 0), TYPE_ERROR), ((3, INT_MAX), OVERFLOW):
        for vm_class in (VM, ReferenceVM):
            with pytest.raises(UncaughtTmlException) as raised:
                vm_class().procedure(predicate, 2)(*args)
            assert raised.value.value == payload


# ---------------------------------------------------------------------------
# what a served call runs
# ---------------------------------------------------------------------------


def test_a_looping_text_keeps_the_bound_of_one_iteration():
    """Under a step limit no iteration goes round in place, so ``max_path``
    bounds one activation; the daemon's ``ClosureProfile`` with a limit far
    above it keeps the plain text."""
    closure = instantiate(compile_function(parse_term(_SUM)))
    args = (TmlArray(list(range(50))), 50)
    total = observe(closure, args, "plain")[0][3]
    run = loop_code(closure).tier
    activations = counting_activations(loop_code(closure))
    observe(closure, args, "plain")
    assert "while True:" in source(loop_code(closure), free=activations[0])
    loop_code(closure).tier = run
    assert 0 < run.max_path < 20 < total
    vm = VM(profiler=ClosureProfile(), step_limit=5_000_000)
    result = vm.call(closure, copy.deepcopy(list(args)))
    assert (result.value, result.instructions) == (sum(range(50)), total)
    assert loop_code(closure).tier is run and loop_code(closure).tier_counted is None
    assert vm.profiler.closures[loop_code(closure).name].invocations == 51


def test_a_reflectively_optimized_stanford_call_loops_in_place():
    """``sieve``'s ``for`` and ``while`` bodies end in a call of their own
    closure, through a slot of the join their ``if`` made."""
    program = PROGRAMS["sieve"]
    system = TycoonSystem()
    system.compile(program.source)
    closure = optimize_function(system, program.name, "run")
    looped = counter("vm.tier.looped")
    assert system.vm().call(closure, [program.test_n]).value == program.reference(program.test_n)
    assert counter("vm.tier.looped") > looped


# ---------------------------------------------------------------------------
# a literal ``case`` tag is tested inline
# ---------------------------------------------------------------------------

#: ``case`` texts: (text, arguments, whether the text still calls ``identical``)
LITERAL_CASES = {
    "int-tag": ("proc(x ce cc) (== x 1 2 cont() (cc 10) cont() (cc 20) cont() (cc 30))",
                [(1,), (2,), (3,), (True,), (Char("a"),), ("1",)], False),
    "bool-tag": ("proc(x ce cc) (== x true cont() (cc 10) cont() (cc 20))",
                 [(True,), (False,), (1,), (0,), (TmlArray([]),)], False),
    "negative-int-tag": ("proc(x ce cc) (== x -3 cont() (cc 10) cont() (cc 20))",
                         [(-3,), (3,), (False,)], False),
    "char-tag": ("proc(x ce cc) (== x 'a' cont() (cc 10) cont() (cc 20))",
                 [(Char("a"),), (Char("b"),), ("a",), (97,)], True),
    "string-tag": ('proc(x ce cc) (== x "ab" cont() (cc 10) cont() (cc 20))',
                   [("ab",), ("b",), (Char("a"),)], True),
    "unit-tag": ("proc(x ce cc) (== x unit cont() (cc 10) cont() (cc 20))",
                 [(UNIT,), (0,), (False,)], True),
    "oid-tag": ("proc(x ce cc) (== x #oid:7 cont() (cc 10) cont() (cc 20))",
                [(Oid(7),), (Oid(8),), (7,)], True),
}


@pytest.mark.parametrize("name", LITERAL_CASES)
def test_a_literal_tag_is_tested_as_identical_tests_it(name):
    text, cases, calls = LITERAL_CASES[name]
    term = parse_term(text)
    closure = instantiate(compile_function(term))
    plain = source(closure.code)
    assert ("identical(" in plain) == calls
    assert ("identical(" in source(closure.code, counted=True))
    for args in cases:
        outcome = both(closure, args)
        assert outcome[:3] == interpret(term, None, args), args


# ---------------------------------------------------------------------------
# a local the path knows holds an ``int`` is not tested again
# ---------------------------------------------------------------------------

#: code whose ``int`` tests the plain text may or may not drop: (code,
#: arguments, how many ``int`` tests the plain text keeps)
INT_TESTS = {
    # ``true`` is no ``int``: ``+`` must test it
    "a-bool-literal": (lambda: proc("proc(x ce cc) (+ x true ce cc)"), [(1,), ("x",)], 2),
    # ``a < b`` tested both: the ``+`` on either arm tests neither
    "tested-by-a-comparison": (
        lambda: proc("proc(a b ce cc) (< a b cont() (+ a b ce cc) cont() (- b 1 ce cc))"),
        [(1, 2), (2, 1), ("x", 1), (INT_MAX, INT_MAX)], 2),
    # ``aget`` tests its index ``b``, then writes the element over it: the
    # ``add`` must test ``b`` again
    "tested-then-overwritten": (
        lambda: hand_built([("aget", 1, 0, 1), ("add", 4, 1, 1, 3, 5),
                            ("tailcall", 3, (4,)), ("tailcall", 2, (5,))]),
        [(TmlArray(["x"]), 0), (TmlArray([3]), 0), (TmlArray([INT_MAX]), 0)], 3),
}


@pytest.mark.parametrize("name", INT_TESTS)
def test_an_int_test_is_dropped_only_where_it_cannot_fail(name):
    make, cases, kept = INT_TESTS[name]
    closure = make()
    assert source(closure.code).count("is not int") == kept
    for args in cases:
        assert both(closure, args) == observe(closure, args, "reference")[0]


# ---------------------------------------------------------------------------
# an ``int`` literal operand decides its instruction's tests
# ---------------------------------------------------------------------------

_DIVIDENDS = [(-7,), (7,), (-90,), (0,), (INT_MIN,), (INT_MAX,), ("x",)]

#: code with an ``int`` literal operand: (text, arguments, what the plain
#: text contains -> whether it does)
LITERAL_OPERANDS = {
    # -1 and 0 keep the divisor's tests: INT_MIN / -1 overflows
    "div-by-minus-one": ("proc(x ce cc) (/ x -1 ce cc)", _DIVIDENDS, {"int_div(": True}),
    "rem-by-minus-one": ("proc(x ce cc) (% x -1 ce cc)", _DIVIDENDS, {"int_rem(": True}),
    "rem-by-zero": ("proc(x ce cc) (% x 0 ce cc)", _DIVIDENDS, {"int_rem(": True}),
    # any other divisor: C's truncation inline, no zero or overflow test
    "div-by-a-positive": ("proc(x ce cc) (/ x 2 ce cc)", _DIVIDENDS,
                          {"int_div(": False, str(INT_MAX): False}),
    "div-by-a-negative": ("proc(x ce cc) (/ x -2 ce cc)", _DIVIDENDS,
                          {"int_div(": False, str(INT_MAX): False}),
    "rem-by-a-positive": ("proc(x ce cc) (% x 89 ce cc)", _DIVIDENDS,
                          {"int_rem(": False, str(INT_MAX): False}),
    "rem-by-a-negative": ("proc(x ce cc) (% x -89 ce cc)", _DIVIDENDS,
                          {"int_rem(": False, str(INT_MAX): False}),
    # a literal dividend decides nothing
    "a-literal-dividend": ("proc(x ce cc) (% -7 x ce cc)", [(2,), (-2,), (0,), (-1,), (True,)],
                           {"int_rem(": True}),
    # a literal added or subtracted: one bound only
    "add-a-positive": ("proc(x ce cc) (+ x 1 ce cc)", _DIVIDENDS,
                       {f"t > {INT_MAX}": True, str(INT_MIN): False}),
    "add-to-a-negative": ("proc(x ce cc) (+ -1 x ce cc)", _DIVIDENDS,
                          {f"t < {INT_MIN}": True, str(INT_MAX): False}),
    "sub-a-positive": ("proc(x ce cc) (- x 1 ce cc)", _DIVIDENDS,
                       {f"t < {INT_MIN}": True, str(INT_MAX): False}),
    "sub-a-negative": ("proc(x ce cc) (- x -1 ce cc)", _DIVIDENDS,
                       {f"t > {INT_MAX}": True, str(INT_MIN): False}),
    "add-zero": ("proc(x ce cc) (+ x 0 ce cc)", _DIVIDENDS, {"t <": False, "t >": False}),
    # a literal minus a value, and a product, test both bounds
    "sub-from-a-literal": ("proc(x ce cc) (- -2 x ce cc)", _DIVIDENDS,
                           {f"t < {INT_MIN} or t > {INT_MAX}": True}),
    "mul-by-a-literal": ("proc(x ce cc) (* x 2 ce cc)", _DIVIDENDS,
                         {f"t < {INT_MIN} or t > {INT_MAX}": True}),
    # index 2: at ``len - 1`` of three slots, at ``len`` of two
    "a-literal-index": (
        "proc(a ce cc) ([] a 2 cc)",
        [(TmlArray([1, 2, 3]),), (TmlArray([1, 2]),), (TmlVector([4, 5, 6]),), (TmlVector([]),),
         ("x",)],
        {"0 <=": False, "len(r0.slots) <= 2": True}),
    "a-literal-index-written": (
        "proc(a ce cc) ([]:= a 1 9 cont(u) ([] a 1 cc))",
        [(TmlArray([1, 2]),), (TmlArray([1]),), (TmlVector([1, 2]),)],
        {"0 <=": False}),
    "a-literal-byte-index": (
        "proc(n ce cc) ($new n 7 cont(b) ($[]:= b 1 300 cont(u) ($[] b 1 cc)))",
        [(2,), (1,), (0,)],
        {"0 <=": False}),
    "a-negative-literal-index": ("proc(a ce cc) ([] a -1 cc)", [(TmlArray([1]),), ("x",)],
                                 {"0 <=": False, "len(": False}),
    "a-literal-size": ("proc(x ce cc) (new 2 x cont(a) ([] a 1 cc))", [(5,), ("x",)],
                       {"< 0": False}),
    "a-negative-literal-size": ("proc(x ce cc) (new -1 x cc)", [(5,)], {"< 0": False}),
    "a-negative-literal-byte-size": ("proc(x ce cc) ($new -1 x cc)", [(5,), ("x",)],
                                     {"< 0": False}),
    # a known ``int`` is identical only to an equal ``int``
    "a-known-int-equals": (
        "proc(x y ce cc) (% x 89 ce cont(r) (== r y cont() (cc 1) cont() (cc 0)))",
        [(90, 1), (90, 2), (-90, -1), (1, True), (0, False), (1, Char("\x01")), (0, UNIT),
         (7, Oid(7)), (7, "7")],
        {"identical(": False, "int_rem(": False}),
    "an-int-literal-equals": (
        "proc(y ce cc) (== 3 y cont() (cc 1) cont() (cc 0))",
        [(3,), (4,), (True,), (Char("\x03"),), (UNIT,), (Oid(3),)],
        {"identical(": False}),
}


@pytest.mark.parametrize("name", LITERAL_OPERANDS)
def test_a_literal_operand_decides_the_tests_it_can(name):
    text, cases, contains = LITERAL_OPERANDS[name]
    term = parse_term(text)
    closure = instantiate(compile_function(term))
    plain = source(closure.code)
    assert {part: part in plain for part in contains} == contains
    for args in cases:
        outcome = both(closure, args)
        assert outcome[:3] == interpret(term, None, args), args
        sweep(closure, args)


def test_an_optimized_remainder_test_calls_neither_int_rem_nor_identical():
    """``x % 89 == k``, the predicate of an unindexed select, runs as two
    Python comparisons once the optimizer has inlined the library's ``%``
    and ``==``."""
    system = TycoonSystem()
    system.compile("module m export f\nlet f(x: Int, k: Int): Bool = x % 89 == k\nend")
    closure = optimize_function(system, "m", "f")
    text = source(closure.code, free=closure.free)
    assert "int_rem(" not in text and "identical(" not in text
    for x, k in [(179, 1), (-179, -1), (-179, 1), (INT_MIN, -8), (INT_MAX, 8), (5, True)]:
        expected = system.vm().call(system.closure("m", "f"), [x, k]).value
        assert system.vm().call(closure, [x, k]).value is expected, (x, k)
