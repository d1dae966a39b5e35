"""The compiled tier: one TAM code object becomes one Python function.

The code generator gives every jump its own forward label and emits a
deferred block after the code that jumps to it, so inside one code object
every jump is forward and every pc is entered by at most one edge: **the
control flow is a tree** (``verify_tam`` rejects anything else as
``TAM012``).  A tree needs no loop and no dispatch — a branching instruction
becomes ``if <taken>: <the target's subtree>``, which always ends in an exit,
followed by the fall-through at the same indentation — and the number of
instructions executed on the way to any exit is a constant of the path.  So
registers are locals, ``int``/``bool`` constants are literals, and nothing is
counted per instruction: every exit (``tailcall``, ``halt``, ``raise``, each
trap site) adds its path's length to ``vm.instructions``.  A subtree nested
deeper than Python indents continues in a function of its own.  An
``extcall`` handler may re-enter the VM, so the count is brought up to date
before the call and the path counts on from zero after it; such code has no
static bound on one activation's instructions (the text's ``max_path`` is
infinite).

The plain text is compiled at the code object's first activation and sees
that activation's bindings: a ``tailcall`` through a register a ``free``
loaded from a slot holding a *leaf* closure — no free variables or nested
codes, no ``free``, ``closure``, ``fix``, ``extcall``, ``ccall``, ``pushh``
or ``poph``, no constants but ``int``, ``bool`` and unit: every library
wrapper but ``math.sqrt`` — runs the callee's body inline when
``vm.profiler is None`` and the closure called has that code object.  A leaf
reads nothing but its arguments, so its code object fixes what it does and
the guard needs no dependency hash; on a miss the call goes through the
trampoline as before.  The inlined path's length counts towards the
caller's, so counts, traps and ``max_path`` are those of the two
activations; the counted text has no inline sites.

This is the VM's only executor: code ``verify_tam`` rejects — not a tree, or
reading a register no instruction on the path wrote (``TAM010``) — is
malformed, and :func:`compile_code` raises :class:`MachineError` naming the
diagnostic; an inlined callee passes the same gate.
Each code object has two texts from one generator.  The *plain* one counts
only ``vm.instructions``.  The *counted* one, which the trampoline runs under
a ``VMProfiler`` or when the step limit could run out inside the activation,
also credits each run of instructions between two updates of the count — a
segment, whose opcodes are static — to the profiler's ``segments`` in one
dictionary update, and tests ``vm.instructions + <segment so far> > limit``
before each instruction whose effect could be seen past the limit (an exit
or trap, an update of the count, a memory write, a print, a handler-stack
move, an ``Oid`` load): where it holds, the run stops exactly where a check
before every instruction would have stopped it.

Nothing is compiled before a code object's first activation, the counted
text not before the first that needs it; nothing is persisted, and the
generated source is not kept — :func:`source` regenerates it for a look.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro.core.syntax import UNIT, Char, Oid
from repro.machine.isa import OPS, CodeObject, VMClosure
from repro.machine.runtime import (
    BOUNDS_ERROR,
    EXT_OPS,
    TYPE_ERROR,
    ExtRaise,
    Halted,
    MachineError,
    StepLimitExceeded,
    TmlArray,
    TmlByteArray,
    TmlVector,
    Trap,
    block_move,
    identical,
    show_value,
)
from repro.obs.metrics import METRICS
from repro.obs.profile import segment
from repro.primitives._util import INT_MAX, INT_MIN, wrap_int
from repro.primitives.arith import OVERFLOW, ZERO_DIVIDE, int_div, int_rem

__all__ = ["EMITTERS", "compile_code", "counters", "source"]

_COMPILED = METRICS.counter(
    "vm.tier.compiled", "code-object texts compiled to Python (plain or counted)"
)
_COMPILE_S = METRICS.histogram("vm.tier.compile_s", "seconds compiling one code-object text")
_INLINED = METRICS.counter(
    "vm.tier.inlined", "library-call sites compiled inline behind a code-identity guard"
)

#: Python's tokenizer stops at 100 levels of indentation
_MAX_DEPTH = 80
_NO_RAISE = object()
#: the budget of a run without a step limit: no run gets that far, and an
#: ``int`` compares faster than ``float("inf")``
_UNLIMITED = sys.maxsize

#: instructions the counted text tests the step budget before: past the
#: limit, their effect could be seen
_OBSERVED = frozenset(
    op for op, row in OPS.items() if row.writes_memory or row.observable or row.handler_delta
)

#: the :func:`counters` every function of the counted text works with
_SHARED = ("o", "p", "L")

#: what a leaf does not do: read free variables, make closures, call out of
#: the VM, move the handler stack
_NOT_IN_A_LEAF = frozenset({"free", "closure", "fix", "extcall", "ccall", "pushh", "poph"})


def counters(vm) -> tuple[dict, Counter, int]:
    """The counted text's last argument: where it credits segments and
    primitives — the ``VMProfiler``'s, or throwaway ones — and the step
    limit."""
    profile = vm.profiler
    limit = _UNLIMITED if vm.step_limit is None else vm.step_limit
    if profile is not None and profile.per_instruction:
        return profile.segments, profile.primitives, limit
    return {}, Counter(), limit


def _exceeded(vm, limit: int, segments: dict, opcodes: tuple) -> StepLimitExceeded:
    """The budget ran out inside the segment of ``opcodes``: credit those
    that fit, as the limit check before each instruction would have."""
    ran = segment(opcodes[: limit - vm.instructions])
    if ran:
        segments[ran] = segments.get(ran, 0) + 1
    vm.instructions = limit
    return StepLimitExceeded(f"exceeded {limit} instructions", limit=limit)


#: what generated code can name besides its own locals
_ENV = dict(
    BOUNDS_ERROR=BOUNDS_ERROR, EXT_OPS=EXT_OPS, OVERFLOW=OVERFLOW, TYPE_ERROR=TYPE_ERROR,
    UNIT=UNIT, ZERO_DIVIDE=ZERO_DIVIDE, _NO_RAISE=_NO_RAISE, _exceeded=_exceeded, Char=Char,
    ExtRaise=ExtRaise, Halted=Halted, MachineError=MachineError, TmlArray=TmlArray,
    TmlByteArray=TmlByteArray, TmlVector=TmlVector, Trap=Trap, VMClosure=VMClosure,
    block_move=block_move, identical=identical, int_div=int_div, int_rem=int_rem,
    show_value=show_value, wrap_int=wrap_int,
)


@dataclass
class _Path:
    """Where the generator stands on one root-to-exit path."""

    pc: int | None  #: the next instruction; None once the path has left
    depth: int  #: indentation of the statements being emitted
    total: float  #: instructions executed since the activation began
    unpublished: int  #: ... since ``vm.instructions`` was brought up to date
    defined: set[str]  #: registers written on the way here: a split's arguments
    segment: list[str]  #: the opcodes of the ``unpublished`` instructions
    checked: bool = False  #: the budget is known to cover ``unpublished``

    def fork(self, pc: int | None, depth: int) -> "_Path":
        return _Path(pc, depth, self.total, self.unpublished, set(self.defined),
                     list(self.segment), self.checked)


def _writes(kinds: tuple[str, ...], operands: list) -> list[int]:
    """The registers an instruction writes on fall-through."""
    writes = []
    for kind, operand in zip(kinds, operands):
        if kind == "w":
            writes.append(operand)
        elif kind == "group":
            writes += [dst for dst, _, _ in operand]
    return writes


def _captures(plan) -> str:
    return "[" + ", ".join(f"r{i}" if source == "r" else f"free[{i}]" for source, i in plan) + "]"


class _Registers(tuple):
    """Names of locals; in generated code, the list of their values."""

    def __format__(self, spec: str) -> str:
        return "[" + ", ".join(self) + "]"


def _errors(code: CodeObject) -> list:
    # imported here: the analysis package imports the VM
    from repro.analysis.verify_tam import code_errors

    return code_errors(code)


def _leaf(code: CodeObject) -> bool:
    """``code`` can run inside its caller's text: it passes the tier's gate,
    reads nothing but its parameters — which it does not write: they are
    the caller's locals — and has only constants a text spells literally."""
    if code.free_names or code.codes or _errors(code):
        return False
    if any(type(value) not in (int, bool) and value is not UNIT for value in code.consts):
        return False
    return not any(
        instr[0] in _NOT_IN_A_LEAF
        or any(kind in ("w", "ew") and reg < len(code.params)
               for kind, reg in zip(OPS[instr[0]].operands, instr[1:]))
        for instr in code.instrs
    )


class _Generator:
    def __init__(self, code: CodeObject, counted: bool = False, free: list | None = None):
        errors = _errors(code)
        if errors:
            error = errors[0]
            raise MachineError(f"{code.name} cannot run: {error.code} at {error.path}: "
                               f"{error.message}")
        self.code = code
        #: which text: the plain one, or the counted one
        self.counted = counted
        #: the first activation's free slots: the plain text calls the leaf
        #: closures among them inline
        self.free = None if counted else free
        #: register -> the closure a ``free`` loaded into it from ``free``
        self.loaded: dict[str, VMClosure] = {}
        #: guard name -> the code object its inline sites run
        self.guards: dict[str, CodeObject] = {}
        self.inlined = 0
        #: while a callee is emitted inline: the locals its parameters are,
        #: and how far its other registers are renumbered past the caller's
        self.args: tuple[str, ...] = ()
        self.offset = 0
        self.max_path = 0.0
        #: the functions finished so far, each after those it calls
        self.functions: list[str] = []
        self.lines: list[str] = []
        self.callees: list[str] = []
        self.subtrees = 0
        params = [f"r{reg}" for reg in range(len(code.params))]
        prologue = [", ".join(params) + ", = args"] if params else []
        if counted:
            prologue.append(", ".join(_SHARED) + " = counters")
        self.function("run", ["args", "counters"] if counted else ["args"],
                      _Path(0, 1, 0, 0, set(params), []), prologue)

    def text(self) -> str:
        return "\n".join(self.functions) + "\n"

    def function(self, name: str, params: list[str], at: _Path, prologue: list[str]) -> None:
        """``def name(vm, free, *params)``, whose body is the path at ``at``."""
        outer = self.lines, self.callees
        self.lines, self.callees = [], []
        for line in prologue:
            self.emit(at, line)
        self.block(at)
        defaults = ["K=K", "C=C", *(f"{callee}={callee}" for callee in self.callees)]
        header = ", ".join(["vm", "free", *params, *defaults])
        self.functions.append("\n".join([f"def {name}({header}):", *self.lines]))
        self.lines, self.callees = outer

    def emit(self, at: _Path, text: str, indent: int = 0) -> None:
        self.lines.append("    " * (at.depth + indent) + text)

    def check(self, at: _Path) -> None:
        """What follows can be seen: in the counted text, the budget must
        cover the instructions so far."""
        if self.counted and at.unpublished and not at.checked:
            self.emit(at, f"if vm.instructions + {at.unpublished} > L:")
            self.emit(at, f"raise _exceeded(vm, L, o, {tuple(at.segment)!r})", 1)
        at.checked = True

    def publish(self, at: _Path) -> None:
        """Store the count before something that can see it, or fail, runs —
        in the counted text, after checking the budget and crediting the
        segment."""
        if not at.unpublished:
            return
        if self.counted:
            self.check(at)
            key = segment(at.segment)
            self.emit(at, "try:")
            self.emit(at, f"o[{key!r}] += 1", 1)
            self.emit(at, "except KeyError:")
            self.emit(at, f"o[{key!r}] = 1", 1)
        self.emit(at, f"vm.instructions += {at.unpublished}")
        at.unpublished, at.segment = 0, []

    def leave(self, at: _Path, statement: str) -> None:
        """An exit: bring the instruction count up to date, then go."""
        self.publish(at)
        self.emit(at, statement)

    def trap(self, at: _Path, condition: str, value: str) -> None:
        self.emit(at, f"if {condition}:")
        self.leave(at.fork(None, at.depth + 1), f"raise Trap({value})")

    def branch(self, at: _Path, condition: str, pc: int, ed: str = "", value: str = "") -> None:
        """``if condition:`` the subtree at ``pc``, entered with ``ed = value``
        when the edge writes a register."""
        self.emit(at, f"if {condition}:")
        taken = at.fork(pc, at.depth + 1)
        if ed:
            self.emit(taken, f"{ed} = {value}")
            taken.defined.add(ed)
        if at.depth < _MAX_DEPTH:
            self.block(taken)
            return
        # every subtree ends in an exit: its function returns what it does
        self.subtrees += 1
        name = f"s{self.subtrees}"
        arguments = [*(_SHARED if self.counted else ()),
                     *sorted(taken.defined, key=lambda register: int(register[1:]))]
        self.emit(taken, f"return {name}({', '.join(['vm', 'free', *arguments])})")
        self.callees.append(name)
        self.function(name, arguments, taken.fork(pc, 1), [])

    def local(self, reg: int) -> str:
        """The local holding register ``reg`` of the code being emitted."""
        if not self.offset:
            return f"r{reg}"
        return self.args[reg] if reg < len(self.args) else f"r{reg + self.offset}"

    def rendered(self, kind: str, operand):
        """An operand as emitters see it: a register as the local it is, a
        capture plan as the list display it evaluates to, the rest as it is."""
        if kind in ("r", "w", "ew", "ew?"):
            return self.local(operand)
        if kind == "rs":
            return _Registers(self.local(reg) for reg in operand)
        if kind == "plan":
            return _captures(operand)
        return operand

    def inlinable(self, target: str, arguments: int) -> CodeObject | None:
        """The code object a call of ``target`` with ``arguments`` values may
        run inline: a leaf's, which the first activation bound ``target``'s
        slot to.  Not inside an inlined body: the sites do not nest."""
        closure = self.loaded.get(target)
        if closure is None or self.offset or len(closure.code.params) != arguments:
            return None
        return closure.code if _leaf(closure.code) else None

    def inline(self, at: _Path, target: str, arguments: tuple[str, ...], callee) -> None:
        """``if`` the call of ``target`` is unprofiled and enters ``callee``:
        ``callee``'s body, on the caller's path."""
        guard = next((name for name, code in self.guards.items() if code is callee),
                     f"G{len(self.guards)}")
        self.guards[guard] = callee
        if guard not in self.callees:
            self.callees.append(guard)  # bound as a default, like a split subtree
        self.emit(at, f"if vm.profiler is None and type({target}) is VMClosure"
                      f" and {target}.code is {guard}:")
        outer = self.code, self.args, self.offset
        self.code, self.args, self.offset = callee, arguments, self.code.nregs
        self.block(at.fork(0, at.depth + 1))
        self.code, self.args, self.offset = outer
        self.inlined += 1

    def block(self, at: _Path) -> None:
        instrs = self.code.instrs
        while at.pc is not None:
            op, *operands = instrs[at.pc]
            row = OPS[op]
            at.pc = None if row.terminal else at.pc + 1
            at.total += 1
            at.unpublished += 1
            at.segment.append(op)
            at.checked = False
            if op in _OBSERVED:
                self.check(at)
            EMITTERS[op](self, at, *map(self.rendered, row.operands, operands))
            at.defined.update(map(self.local, _writes(row.operands, operands)))
        self.max_path = max(self.max_path, at.total)


# ---------------------------------------------------------------------------
# one emitter per opcode, each the mirror of its arm in the reference loop
# (``tests/machine/reference_vm.py``): the same checks, in the same order
# ---------------------------------------------------------------------------


def _not_int(*names: str) -> str:
    return " or ".join(f"type({name}) is not int" for name in names)


_INT, _INTS = _not_int("{1}"), _not_int("{1}", "{2}")

#: opcode -> (statement, (trap condition, trap value)...) for the instructions
#: that check, then do one thing; ``{n}`` is the n-th operand, rendered
_STRAIGHT = {
    "raise": ("raise Trap({0})",),
    "halt": ("raise Halted({0})",),
    "closure": ("{0} = VMClosure(C[{1}], {2})",),
    "band": ("{0} = wrap_int({1} & {2})", (_INTS, "TYPE_ERROR")),
    "bor": ("{0} = wrap_int({1} | {2})", (_INTS, "TYPE_ERROR")),
    "bxor": ("{0} = wrap_int({1} ^ {2})", (_INTS, "TYPE_ERROR")),
    "shl": ("{0} = wrap_int({1} << ({2} % 64))", (_INTS, "TYPE_ERROR")),
    "shr": ("{0} = wrap_int({1} >> ({2} % 64))", (_INTS, "TYPE_ERROR")),
    "bnot": ("{0} = wrap_int(~{1})", (_INT, "TYPE_ERROR")),
    "c2i": ("{0} = {1}.code & 0xFF", ("not isinstance({1}, Char)", "TYPE_ERROR")),
    "i2c": ("{0} = Char(chr({1} & 0xFF))", (_INT, "TYPE_ERROR")),
    "arr": ("{0} = TmlArray({1})",),
    "vec": ("{0} = TmlVector({1})",),
    "anew": ("{0} = TmlArray([{2}] * {1})", (_INT, "TYPE_ERROR"), ("{1} < 0", "BOUNDS_ERROR")),
    "bnew": ("{0} = TmlByteArray(bytes([{2} & 0xFF]) * {1})",
             (_INTS, "TYPE_ERROR"), ("{1} < 0", "BOUNDS_ERROR")),
    "aget": ("{0} = {1}.slots[{2}]",
             ("not isinstance({1}, (TmlArray, TmlVector)) or type({2}) is not int", "TYPE_ERROR"),
             ("not 0 <= {2} < len({1}.slots)", "BOUNDS_ERROR")),
    "aset": ("{0}.slots[{1}] = {2}",
             ("not isinstance({0}, TmlArray) or type({1}) is not int", "TYPE_ERROR"),
             ("not 0 <= {1} < len({0}.slots)", "BOUNDS_ERROR")),
    "bget": ("{0} = {1}.data[{2}]",
             ("not isinstance({1}, TmlByteArray) or type({2}) is not int", "TYPE_ERROR"),
             ("not 0 <= {2} < len({1}.data)", "BOUNDS_ERROR")),
    "bset": ("{0}.data[{1}] = {2} & 0xFF",
             ("not isinstance({0}, TmlByteArray) or type({1}) is not int", "TYPE_ERROR"),
             ("not 0 <= {1} < len({0}.data)", "BOUNDS_ERROR"),
             ("type({2}) is not int", "TYPE_ERROR")),
    "asize": ("{0} = len({1})",
              ("not isinstance({1}, (TmlArray, TmlVector, TmlByteArray))", "TYPE_ERROR")),
    "pushh": ("vm.handlers.append({0})",),
    "print": ("vm.output.append(show_value({0}))",),
}


def _straight(statement: str, *traps: tuple[str, str]):
    def emitter(g, at, *operands):
        for condition, value in traps:
            g.trap(at, condition.format(*operands), value)
        (g.emit if at.pc is not None else g.leave)(at, statement.format(*operands))

    return emitter


def _tailcall(g, at, target, arguments):
    callee = g.inlinable(target, len(arguments))
    if callee is not None:
        g.inline(at, target, arguments, callee)
    g.leave(at, f"return {target}, {arguments}")


def _free(g, at, dst, slot):
    g.emit(at, f"{dst} = free[{slot}]")
    if g.free is not None and slot < len(g.free) and type(g.free[slot]) is VMClosure:
        # kept when ``dst`` is written again: the guard, not this, is what
        # makes an inline site right
        g.loaded[dst] = g.free[slot]


def _const(g, at, dst, index):
    value = g.code.consts[index]
    if type(value) in (int, bool):
        g.emit(at, f"{dst} = {value!r}")
    elif g.offset:  # unit, in an inlined leaf: ``K`` is the caller's pool
        g.emit(at, f"{dst} = UNIT")
    elif type(value) is Oid:  # one code object runs on VMs with and without a store
        g.check(at)
        g.emit(at, f"{dst} = K[{index}] if vm.store is None else vm.store.load(K[{index}])")
    else:
        g.emit(at, f"{dst} = K[{index}]")


def _fix(g, at, group):
    for n, (dst, index, _plan) in enumerate(group):
        g.emit(at, f"r{dst} = g{n} = VMClosure(C[{index}], None)")
    for n, (_dst, _index, plan) in enumerate(group):
        g.emit(at, f"g{n}.free = {_captures(plan)}")


def _arith(sign: str):
    def emitter(g, at, dst, a, b, epc, ed):
        g.trap(at, _not_int(a, b), "TYPE_ERROR")
        g.emit(at, f"t = {a} {sign} {b}")
        g.branch(at, f"t < {INT_MIN} or t > {INT_MAX}", epc, ed, "OVERFLOW")
        g.emit(at, f"{dst} = t")

    return emitter


def _divide(function: str):
    def emitter(g, at, dst, a, b, epc, ed):
        g.trap(at, _not_int(a, b), "TYPE_ERROR")
        g.emit(at, f"t = None if {b} == 0 else {function}({a}, {b})")
        g.branch(at, f"t is None or t < {INT_MIN} or t > {INT_MAX}", epc,
                 ed, "ZERO_DIVIDE if t is None else OVERFLOW")
        g.emit(at, f"{dst} = t")

    return emitter


def _compare(negated: str):
    def emitter(g, at, a, b, else_pc):
        g.trap(at, _not_int(a, b), "TYPE_ERROR")
        g.branch(at, f"{a} {negated} {b}", else_pc)

    return emitter


def _move(bytes_mode: bool):
    def emitter(g, at, *operands):
        g.publish(at)
        g.emit(at, f"block_move({', '.join(operands)}, {bytes_mode})")

    return emitter


def _case(g, at, scrutinee, tags, pcs, else_pc):
    for tag, pc in zip(tags, pcs):
        g.branch(at, f"identical({scrutinee}, {tag})", pc)
    at.pc = else_pc  # the last alternative needs no ``if``
    if else_pc is None:
        g.leave(at, "raise Trap('caseError')")


def _poph(g, at):
    g.emit(at, "if not vm.handlers:")
    g.leave(at.fork(None, at.depth + 1), "raise MachineError('popHandler on empty handler stack')")
    g.emit(at, "vm.handlers.pop()")


def _call(g, at, call: str, failure: str, value: str, epc, ed) -> None:
    """``t = call``; when that raises ``failure``, the subtree at ``epc``
    entered with ``ed = value`` — or a trap, when there is no such edge."""
    g.emit(at, "try:")
    g.emit(at, f"t = {call}", indent=1)
    g.emit(at, "e = _NO_RAISE", indent=1)
    g.emit(at, f"except {failure} as raised:")
    if epc is None:
        g.emit(at, "raise Trap(raised.value) from None", indent=1)
    else:
        g.emit(at, f"e = {value}", indent=1)
        g.branch(at, "e is not _NO_RAISE", epc, ed, "e")


def _ccall(g, at, dst, function, vector, epc, ed):
    g.publish(at)
    g.emit(at, f"f = {function}.value if isinstance({function}, Char) else {function}")
    g.trap(at, f"not isinstance(f, str) or not isinstance({vector}, (TmlArray, TmlVector))",
           "TYPE_ERROR")
    if g.counted:
        g.emit(at, "p['ccall:' + f] += 1")
    g.emit(at, "f = vm.foreign.lookup(f)")
    _call(g, at, f"f(*{vector}.slots)", "Exception", "f'foreignError: {raised}'", epc, ed)
    g.emit(at, f"{dst} = UNIT if t is None else t")


def _extcall(g, at, name, dst, arguments, epc, ed):
    # looked up at every call: entries of the table are replaced while code runs
    g.emit(at, f"h = EXT_OPS.get({name!r})")
    g.publish(at)
    message = f"no VM handler for extension primitive {name!r}"
    g.emit(at, "if h is None:")
    g.emit(at, f"raise MachineError({message!r})", indent=1)
    if g.counted:
        g.emit(at, f"p[{'extcall:' + name!r}] += 1")
    _call(g, at, f"h(vm, {arguments})", "ExtRaise", "raised.value", epc, ed)
    g.emit(at, f"{dst} = t")
    at.total = float("inf")  # the handler may have run any number of instructions


#: opcode -> emitter(generator, path, *rendered operands), for every opcode
#: (``tests/machine/test_isa_table.py`` holds the keys to ``OPS``)
EMITTERS: dict[str, Callable] = {
    **{op: _straight(*spec) for op, spec in _STRAIGHT.items()},
    "tailcall": _tailcall,
    "free": _free,
    "const": _const,
    "fix": _fix,
    "add": _arith("+"),
    "sub": _arith("-"),
    "mul": _arith("*"),
    "div": _divide("int_div"),
    "rem": _divide("int_rem"),
    "lt": _compare(">="),
    "gt": _compare("<="),
    "le": _compare(">"),
    "ge": _compare("<"),
    "amove": _move(False),
    "bmove": _move(True),
    "case": _case,
    "poph": _poph,
    "ccall": _ccall,
    "extcall": _extcall,
}


def source(code: CodeObject, counted: bool = False, free: list | None = None) -> str:
    """The Python the tier runs for ``code`` — its plain text, with the leaf
    closures among ``free``'s slots called inline, or its counted one
    (regenerated: it is not kept)."""
    return _Generator(code, counted, free).text()


def compile_code(code: CodeObject, counted: bool = False, free: list | None = None):
    """Compile one of ``code``'s texts and cache the function on it — the
    plain one, which calls the leaf closures among ``free``'s slots inline,
    as ``code.tier``, the counted one as ``code.tier_counted``:
    ``run(vm, free, args) -> (target, values)``, whose ``max_path`` is the
    most instructions one call runs.  Raises :class:`MachineError` on code
    ``verify_tam`` rejects.

    Threads racing a first activation all compile and all assign; each
    function carries its own ``max_path``, so whichever is left serves, and
    there is no lock."""
    started = time.perf_counter()
    generator = _Generator(code, counted, free)
    scope = {"K": code.consts, "C": code.codes, **generator.guards}
    exec(compile(generator.text(), f"<tier {code.name}>", "exec"), _ENV, scope)
    run = scope["run"]
    run.max_path = generator.max_path
    if counted:
        code.tier_counted = run
    else:
        code.tier = run
    _COMPILED.inc()
    _INLINED.inc(generator.inlined)
    _COMPILE_S.observe(time.perf_counter() - started)
    return run
