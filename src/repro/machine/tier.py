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

The plain text runs three kinds of ``tailcall`` on the caller's path when
``vm.profiler is None`` (a ``ClosureProfile`` credits per activation), the
trampoline being the miss.  It is compiled at the code object's first
activation, and a call through a register a ``free`` loaded from a slot then
holding a *leaf* closure — no free variables or nested codes, no ``free``,
``closure``, ``fix``, ``extcall``, ``ccall``, ``pushh`` or ``poph``, no
constants but ``int``, ``bool`` and unit: every library wrapper but
``math.sqrt`` — runs the callee's body when the closure called has that code
object: a leaf reads nothing but its arguments, so the guard needs no
dependency hash.  A call of a *join*, a closure a ``closure`` instruction on
the path made, runs its body with the captured expressions as its free
slots unless its code has an ``extcall`` or the call returns from an inlined
leaf; a join several calls reach is entered only by those passing a literal
its leading ``case`` folds on.  ``closure`` itself emits nothing: the object
is allocated where it escapes — read, captured by one allocated, a captured
register rewritten, a split — or on the miss.  An inlined path's length
counts towards the caller's, so counts, traps and ``max_path`` are those of
the activations.  A call, in ``run`` itself or in a join it entered, through
a register a ``free`` loaded from a slot the first activation bound to its
own closure is a *loop site*: when ``vm.step_limit is None`` too and the
closure called has this code object and this ``free`` list, the path
publishes its count, rebinds the parameters and goes round ``while True:``,
which wraps ``run``'s body only in a text with such a site.  No iteration
goes round under a step limit, so ``max_path`` stays the bound of one; a
self call in a split subtree returns to the trampoline.  The plain text also
knows which locals hold an ``int`` or ``bool`` literal and which hold an
``int`` (one that passed an ``int`` test, or an instruction's result) on the
path, and emits no test such knowledge decides: no ``int`` test of a known
``int``; a ``case`` on a known ``bool`` or ``int`` operand is ``identical``'s
rule for it spelled out (``x is True``, ``type(x) is int and x == k``,
``x == k``); ``div``/``rem`` by an ``int`` literal other than 0 and -1 is
C's truncation inline, with neither the zero test nor the overflow branch
(the result is no larger than the dividend); ``add``/``sub`` of an ``int``
literal tests the one bound it pushes towards (``a + k``, ``k + a``,
``a - k``); a non-negative literal index is tested against the length only;
and a literal size or negative literal index decides its bounds test.  The
counted text has no inline or loop sites, no deferral and no such knowledge,
so its counts and traps are the instructions'.

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
from dataclasses import dataclass, field
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
_JOINED = METRICS.counter(
    "vm.tier.joined", "tail calls of a closure made on the same path compiled as its body"
)
_LOOPED = METRICS.counter(
    "vm.tier.looped", "self tail calls compiled as an iteration of a loop around the body"
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
    """Where the generator stands on one root-to-exit path, and what the
    plain text knows there of its locals (a write to one forgets it)."""

    pc: int | None  #: the next instruction; None once the path has left
    depth: int  #: indentation of the statements being emitted
    total: float  #: instructions executed since the activation began
    unpublished: int  #: ... since ``vm.instructions`` was brought up to date
    defined: set[str]  #: registers written on the way here: a split's arguments
    segment: list[str]  #: the opcodes of the ``unpublished`` instructions
    checked: bool = False  #: the budget is known to cover ``unpublished``
    #: local -> the closure a ``closure`` instruction on the path made in it
    made: dict[str, "_Made"] = field(default_factory=dict)
    #: the locals of ``made`` not yet allocated (ordered, unlike a set)
    pending: dict[str, None] = field(default_factory=dict)
    #: local -> the ``int`` or ``bool`` literal it holds
    literals: dict[str, int | bool] = field(default_factory=dict)
    unprofiled: bool = False  #: inside ``if vm.profiler is None:``
    #: locals a ``free`` loaded from a slot the first activation bound to
    #: its own closure
    selves: set[str] = field(default_factory=set)
    #: locals known to hold an ``int`` besides ``literals``': they passed
    #: an ``int`` test, or an instruction that gives one wrote them
    ints: set[str] = field(default_factory=set)

    def fork(self, pc: int | None, depth: int) -> "_Path":
        return _Path(pc, depth, self.total, self.unpublished, set(self.defined),
                     list(self.segment), self.checked, dict(self.made), dict(self.pending),
                     dict(self.literals), self.unprofiled, set(self.selves), set(self.ints))

    def holds_int(self, local: str) -> bool:
        return local in self.ints or type(self.literals.get(local)) is int

    def int_literal(self, local: str) -> int | None:
        """The ``int`` literal ``local`` holds, if it holds one."""
        value = self.literals.get(local)
        return value if type(value) is int else None


@dataclass(frozen=True, eq=False)
class _Frame:
    """What the generator emits one code object's instructions from: the
    activation's own code, a join entered in place or an inlined leaf."""

    code: CodeObject
    args: tuple[str, ...]  #: the locals its parameters are
    offset: int  #: how far its other registers are renumbered
    free: tuple[str, ...] | None  #: what its ``free`` slots read; None: ``free``
    bound: list | None = None  #: the first activation's ``free``, for inline and loop sites
    leaf: bool = False  #: an inlined library body: no sites inside it

    def local(self, reg: int) -> str:
        return self.args[reg] if reg < len(self.args) else f"r{reg + self.offset}"

    def slot(self, index: int) -> str:
        return f"free[{index}]" if self.free is None else self.free[index]


@dataclass(frozen=True)
class _Made:
    """A closure made on the path: ``frame``'s ``C[index]``, whose code is
    ``code``, over ``sources``; ``exits`` ``tailcall``s through its register
    follow the ``closure``."""

    frame: _Frame
    index: int
    code: CodeObject
    sources: "_Registers"
    exits: int


def _writes(kinds: tuple[str, ...], operands: list) -> list[int]:
    """The registers an instruction writes on fall-through."""
    writes = []
    for kind, operand in zip(kinds, operands):
        if kind == "w":
            writes.append(operand)
        elif kind == "group":
            writes += [dst for dst, _, _ in operand]
    return writes


def _exits(code: CodeObject, pc: int, reg: int) -> int:
    """The ``tailcall``s through ``reg`` from ``pc`` until ``reg`` is written."""
    count, stack = 0, [pc]
    while stack:
        op, *operands = code.instrs[pc := stack.pop()]
        row, kinds = OPS[op], dict(zip(OPS[op].operands, operands))
        count += op == "tailcall" and operands[0] == reg
        if not row.terminal and reg not in _writes(row.operands, operands):
            stack.append(pc + 1)
        edge = kinds.get("pc", kinds.get("pc?"))
        if edge is not None and kinds.get("ew", kinds.get("ew?")) != reg:
            stack.append(edge)
        stack += kinds.get("pcs", ())
    return count


def _writes_params(code: CodeObject) -> bool:
    return any(
        kind in ("w", "ew") and reg < len(code.params)
        for instr in code.instrs for kind, reg in zip(OPS[instr[0]].operands, instr[1:])
    )


def _folds(code: CodeObject, args: tuple[str, ...], literals: dict) -> bool:
    """``code`` begins with ``const``s and a ``case`` of them on a parameter
    ``args`` passes a literal in: entered, it emits one alternative."""
    first = next(pc for pc, instr in enumerate(code.instrs) if instr[0] != "const")
    consts = {dst: code.consts[index] for _, dst, index in code.instrs[:first]}
    op, *operands = code.instrs[first]
    return (op == "case" and operands[0] < len(args) and args[operands[0]] in literals
            and all(type(consts.get(tag)) in (int, bool) for tag in operands[1]))


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
    if code.free_names or code.codes or _errors(code) or _writes_params(code):
        return False
    if any(type(value) not in (int, bool) and value is not UNIT for value in code.consts):
        return False
    return not any(instr[0] in _NOT_IN_A_LEAF for instr in code.instrs)


class _Generator:
    def __init__(self, code: CodeObject, counted: bool = False, free: list | None = None):
        errors = _errors(code)
        if errors:
            error = errors[0]
            raise MachineError(f"{code.name} cannot run: {error.code} at {error.path}: "
                               f"{error.message}")
        #: which text: the plain one, or the counted one
        self.counted = counted
        params = tuple(f"r{reg}" for reg in range(len(code.params)))
        #: the frame being emitted from; the activation's own
        self.frame = self.root = _Frame(code, params, 0, None, None if counted else free)
        #: the slots the first activation bound to its own closure, as the
        #: root frame reads them
        self.own_slots = {
            f"free[{index}]" for index, value in enumerate(self.root.bound or ())
            if type(value) is VMClosure and value.code is code and value.free is free
        }
        #: register -> the closure a ``free`` loaded into it from a bound slot
        self.loaded: dict[str, VMClosure] = {}
        #: what the text names besides ``_ENV``: constant and code pools
        #: (``K``, ``C``, ``K1``, ...), inline sites' guards (``G0``, ...)
        self.scope: dict[str, object] = {"K": code.consts, "C": code.codes}
        self.inlined = self.joined = self.looped = 0
        #: whether the function being emitted is ``run``, which a self tail
        #: call can go round again
        self.in_run = False
        self.max_path = 0.0
        #: the functions finished so far, each after those it calls
        self.functions: list[str] = []
        self.lines: list[str] = []
        self.callees: list[str] = []
        self.subtrees = 0
        prologue = [", ".join(params) + ", = args"] if params else []
        if counted:
            prologue.append(", ".join(_SHARED) + " = counters")
        self.function("run", ["args", "counters"] if counted else ["args"],
                      _Path(0, 1, 0, 0, set(params), []), prologue)

    def text(self) -> str:
        return "\n".join(self.functions) + "\n"

    def function(self, name: str, params: list[str], at: _Path, prologue: list[str]) -> None:
        """``def name(vm, free, *params)``, whose body is the path at ``at``
        — in ``run``, inside ``while True:`` when a self tail call loops."""
        outer = self.lines, self.callees, self.in_run
        self.lines, self.callees, self.in_run = [], [], name == "run"
        for line in prologue:
            self.emit(at, line)
        self.block(at)
        if self.in_run and self.looped:
            body = self.lines[len(prologue):]
            self.lines[len(prologue):] = ["    while True:", *("    " + line for line in body)]
        defaults = ["K=K", "C=C", *(f"{callee}={callee}" for callee in self.callees)]
        header = ", ".join(["vm", "free", *params, *defaults])
        self.functions.append("\n".join([f"def {name}({header}):", *self.lines]))
        self.lines, self.callees, self.in_run = outer

    def bind(self, prefix: str, value) -> str:
        """The name the function being emitted reads ``value`` by."""
        names = [name for name in self.scope if name.startswith(prefix)]
        name = next((name for name in names if self.scope[name] is value), f"{prefix}{len(names)}")
        self.scope[name] = value
        if name not in ("K", "C") and name not in self.callees:
            self.callees.append(name)  # bound as a default, like a split subtree
        return name

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

    def trap(self, at: _Path, condition: str | bool, value: str,
             ints: tuple[str, ...] = ()) -> bool:
        """``if condition``, or one of ``ints`` holds no ``int``: ``raise
        Trap(value)`` — a local the path knows holds an ``int`` is not tested,
        and a ``condition`` the path decided is ``True`` or empty.  Whether
        the path goes on."""
        if condition is True:
            self.leave(at, f"raise Trap({value})")
            at.pc = None
            return False
        tests = [condition] if condition else []
        tests += [f"type({local}) is not int" for local in ints if not at.holds_int(local)]
        if tests:
            self.emit(at, f"if {' or '.join(tests)}:")
            self.leave(at.fork(None, at.depth + 1), f"raise Trap({value})")
        if not self.counted:
            at.ints.update(ints)
        return True

    def branch(self, at: _Path, condition: str, pc: int, ed: str = "", value: str = "") -> None:
        """``if condition:`` the subtree at ``pc``, entered with ``ed = value``
        when the edge writes a register."""
        self.emit(at, f"if {condition}:")
        taken = at.fork(pc, at.depth + 1)
        if ed:
            self.wrote(taken, [ed])
            self.emit(taken, f"{ed} = {value}")
            taken.defined.add(ed)
        if at.depth < _MAX_DEPTH:
            self.block(taken)
            return
        # every subtree ends in an exit: its function returns what it does,
        # and the locals it is passed hold their values
        for local in list(taken.pending):
            self.allocate(taken, local)
        self.subtrees += 1
        name = f"s{self.subtrees}"
        arguments = [*(_SHARED if self.counted else ()),
                     *sorted(taken.defined, key=lambda register: int(register[1:]))]
        self.emit(taken, f"return {name}({', '.join(['vm', 'free', *arguments])})")
        self.callees.append(name)
        self.function(name, arguments, taken.fork(pc, 1), [])

    def rendered(self, kind: str, operand):
        """An operand as emitters see it: a register as the local it is, a
        capture plan as the expressions it captures, the rest as it is."""
        frame = self.frame
        if kind in ("r", "w", "ew", "ew?"):
            return operand if operand is None else frame.local(operand)
        if kind == "rs":
            return _Registers(frame.local(reg) for reg in operand)
        if kind == "plan":
            return _Registers(frame.local(index) if source == "r" else frame.slot(index)
                              for source, index in operand)
        if kind == "group":
            return tuple((frame.local(dst), index, self.rendered("plan", plan))
                         for dst, index, plan in operand)
        return operand

    # -- what the plain text knows of its locals --------------------------

    def allocate(self, at: _Path, local: str) -> None:
        """Allocate the closure made in ``local``, after those it captures."""
        del at.pending[local]
        made = at.made[local]
        for source in made.sources:
            if source in at.pending:
                self.allocate(at, source)
        codes = self.bind("C", made.frame.code.codes)
        self.emit(at, f"{local} = VMClosure({codes}[{made.index}], {made.sources})")

    def wrote(self, at: _Path, locals_: list[str]) -> None:
        """Before ``locals_`` are written: allocate the closures that captured
        them, and forget what the path knew of them."""
        for local in locals_:
            for other, made in list(at.made.items()):
                if local in made.sources:
                    if other in at.pending:
                        self.allocate(at, other)
                    del at.made[other]
            at.made.pop(local, None)
            at.pending.pop(local, None)
            at.literals.pop(local, None)
            at.selves.discard(local)
            at.ints.discard(local)

    def before(self, at: _Path, op: str, kinds: tuple[str, ...], operands: list,
               rendered: list) -> None:
        """Allocate the pending closures the instruction reads (but a call's
        target and a capture), and those that captured a register it writes."""
        reads: list[str] = []
        for n, (kind, value) in enumerate(zip(kinds, rendered)):
            if kind == "r" and not (op == "tailcall" and n == 0):
                reads.append(value)
            elif kind == "rs":
                reads += value
            elif kind == "group":
                reads += [source for _, _, plan in value for source in plan]
            elif kind == "f":
                reads.append(self.frame.slot(value))
        for local in reads:
            if local in at.pending:
                self.allocate(at, local)
        self.wrote(at, list(map(self.frame.local, _writes(kinds, operands))))

    # -- calls run on the caller's path -----------------------------------

    def guard(self, at: _Path, condition: str) -> _Path:
        """``if condition`` (and ``vm.profiler is None``): the path inside."""
        if not at.unprofiled:
            condition = "vm.profiler is None" + (f" and {condition}" if condition else "")
        self.emit(at, f"if {condition}:")
        inside = at.fork(0, at.depth + 1)
        inside.unprofiled = True
        return inside

    def run_inline(self, at: _Path, code: CodeObject, args: tuple[str, ...],
                   free: tuple[str, ...], leaf: bool = False) -> None:
        """``code``'s body at ``at``, its registers past the frame's."""
        outer = self.frame
        self.frame = _Frame(code, args, outer.offset + outer.code.nregs, free, leaf=leaf)
        self.block(at)
        self.frame = outer

    def inlinable(self, target: str, arguments: int) -> CodeObject | None:
        """The code object a call of ``target`` with ``arguments`` values may
        run inline: a leaf's, which the first activation bound ``target``'s
        slot to.  Not inside an inlined leaf: the sites do not nest."""
        closure = self.loaded.get(target)
        if closure is None or self.frame.leaf or len(closure.code.params) != arguments:
            return None
        return closure.code if _leaf(closure.code) else None

    def inline(self, at: _Path, target: str, arguments: tuple[str, ...], callee) -> None:
        """``if`` the call of ``target`` is unprofiled and enters ``callee``:
        ``callee``'s body, on the caller's path."""
        guard = self.bind("G", callee)
        inside = self.guard(at, f"type({target}) is VMClosure and {target}.code is {guard}")
        self.run_inline(inside, callee, arguments, (), leaf=True)
        self.inlined += 1

    def loops(self, at: _Path, target: str, arguments: tuple[str, ...]) -> bool:
        """The call of ``target`` may go round ``run`` again: ``target`` holds
        what the first activation's own slot held, the path is ``run``'s and
        not an inlined leaf's return, and the call passes as many values as
        the activation took."""
        return (target in at.selves and self.in_run and not self.frame.leaf
                and len(arguments) == len(self.root.args))

    def loop(self, at: _Path, target: str, arguments: tuple[str, ...]) -> None:
        """``if`` the call of ``target`` is an unprofiled, unlimited call of
        the activation's own closure: its parameters rebound to
        ``arguments``, the next iteration of ``run``'s loop."""
        guard = self.bind("G", self.root.code)
        inside = self.guard(at, f"vm.step_limit is None and type({target}) is VMClosure"
                                f" and {target}.code is {guard} and {target}.free is free")
        self.publish(inside)
        rebound = [(param, value) for param, value in zip(self.root.args, arguments)
                   if param != value]
        if rebound:
            params, values = zip(*rebound)
            self.emit(inside, f"{', '.join(params)} = {', '.join(values)}")
        self.emit(inside, "continue")
        self.looped += 1

    def enters(self, at: _Path, made: _Made, arguments: tuple[str, ...]) -> bool:
        """The call of ``made`` runs its body here: made in this frame (an
        inlined leaf makes none), of code the tier runs that writes no
        parameter — a caller's local — and has a bounded path."""
        code = made.code
        if made.frame is not self.frame or len(code.params) != len(arguments):
            return False
        if _errors(code) or _writes_params(code) or any(i[0] == "extcall" for i in code.instrs):
            return False
        return made.exits == 1 or _folds(code, arguments, at.literals)

    def enter(self, at: _Path, target: str, arguments: tuple[str, ...]) -> bool:
        """The body of the closure in ``target``, its ``free`` slots the
        expressions it captured; whether the path goes on (to the miss)
        after it."""
        made = at.made[target]
        inside = at if at.unprofiled else self.guard(at, "")
        # nothing the body reads holds the closure, nor one still pending
        # that captured it: the body neither allocates nor passes them
        dead = {target} if target in inside.pending else set()
        for local, other in list(inside.made.items()):
            if local in dead or local in inside.pending and dead.intersection(other.sources):
                dead.add(local)
                del inside.made[local], inside.pending[local]
                inside.defined.discard(local)
        inside.pc = 0
        self.run_inline(inside, made.code, arguments, tuple(made.sources))
        self.joined += 1
        return inside is not at

    def block(self, at: _Path) -> None:
        frame = self.frame
        instrs = frame.code.instrs
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
            rendered = list(map(self.rendered, row.operands, operands))
            if not self.counted:
                self.before(at, op, row.operands, operands, rendered)
            EMITTERS[op](self, at, *rendered)
            written = list(map(frame.local, _writes(row.operands, operands)))
            if row.gives == "int" and not self.counted:
                at.ints.update(written)
            else:  # an operand the instruction tested may be what it wrote over
                at.ints.difference_update(written)
            at.defined.update(written)
        self.max_path = max(self.max_path, at.total)


# ---------------------------------------------------------------------------
# one emitter per opcode, each the mirror of its arm in the reference loop
# (``tests/machine/reference_vm.py``): the same checks, in the same order
# ---------------------------------------------------------------------------


_INT, _INTS = ("", 1), ("", 1, 2)


def _outside(target: int, index: int, items: str) -> Callable:
    """The bounds test of operand ``index`` into operand ``target``'s
    ``items``: an ``int`` literal index decides its ``0 <=`` half, and a
    negative one the whole test."""
    def condition(at: _Path, operands: tuple) -> str | bool:
        array, local = operands[target], operands[index]
        literal = at.int_literal(local)
        if literal is None:
            return f"not 0 <= {local} < len({array}.{items})"
        if literal < 0:
            return True
        return f"len({array}.{items}) <= {literal}"

    return condition


def _negative(size: int) -> Callable:
    """The bounds test of operand ``size``, a new array's: an ``int``
    literal decides it."""
    def condition(at: _Path, operands: tuple) -> str | bool:
        literal = at.int_literal(operands[size])
        return f"{operands[size]} < 0" if literal is None else literal < 0

    return condition


#: opcode -> (statement, ((trap condition, operand...), trap value)...) for
#: the instructions that check, then do one thing; ``{n}`` is the n-th
#: operand, rendered, a condition a callable of the path and the operands
#: where a literal can decide it, and a trap's operands are those it tests
#: are ``int``s
_STRAIGHT = {
    "raise": ("raise Trap({0})",),
    "halt": ("raise Halted({0})",),
    "band": ("{0} = wrap_int({1} & {2})", (_INTS, "TYPE_ERROR")),
    "bor": ("{0} = wrap_int({1} | {2})", (_INTS, "TYPE_ERROR")),
    "bxor": ("{0} = wrap_int({1} ^ {2})", (_INTS, "TYPE_ERROR")),
    "shl": ("{0} = wrap_int({1} << ({2} % 64))", (_INTS, "TYPE_ERROR")),
    "shr": ("{0} = wrap_int({1} >> ({2} % 64))", (_INTS, "TYPE_ERROR")),
    "bnot": ("{0} = wrap_int(~{1})", (_INT, "TYPE_ERROR")),
    "c2i": ("{0} = {1}.code & 0xFF", (("not isinstance({1}, Char)",), "TYPE_ERROR")),
    "i2c": ("{0} = Char(chr({1} & 0xFF))", (_INT, "TYPE_ERROR")),
    "arr": ("{0} = TmlArray({1})",),
    "vec": ("{0} = TmlVector({1})",),
    "anew": ("{0} = TmlArray([{2}] * {1})",
             (_INT, "TYPE_ERROR"), ((_negative(1),), "BOUNDS_ERROR")),
    "bnew": ("{0} = TmlByteArray(bytes([{2} & 0xFF]) * {1})",
             (_INTS, "TYPE_ERROR"), ((_negative(1),), "BOUNDS_ERROR")),
    "aget": ("{0} = {1}.slots[{2}]",
             (("not isinstance({1}, (TmlArray, TmlVector))", 2), "TYPE_ERROR"),
             ((_outside(1, 2, "slots"),), "BOUNDS_ERROR")),
    "aset": ("{0}.slots[{1}] = {2}",
             (("not isinstance({0}, TmlArray)", 1), "TYPE_ERROR"),
             ((_outside(0, 1, "slots"),), "BOUNDS_ERROR")),
    "bget": ("{0} = {1}.data[{2}]",
             (("not isinstance({1}, TmlByteArray)", 2), "TYPE_ERROR"),
             ((_outside(1, 2, "data"),), "BOUNDS_ERROR")),
    "bset": ("{0}.data[{1}] = {2} & 0xFF",
             (("not isinstance({0}, TmlByteArray)", 1), "TYPE_ERROR"),
             ((_outside(0, 1, "data"),), "BOUNDS_ERROR"),
             (("", 2), "TYPE_ERROR")),
    "asize": ("{0} = len({1})",
              (("not isinstance({1}, (TmlArray, TmlVector, TmlByteArray))",), "TYPE_ERROR")),
    "pushh": ("vm.handlers.append({0})",),
    "print": ("vm.output.append(show_value({0}))",),
}


def _straight(statement: str, *traps: tuple[tuple, str]):
    def emitter(g, at, *operands):
        for (condition, *ints), value in traps:
            test = condition(at, operands) if callable(condition) else condition.format(*operands)
            if not g.trap(at, test, value, tuple(operands[n] for n in ints)):
                return  # the trap is certain: the path ends there
        (g.emit if at.pc is not None else g.leave)(at, statement.format(*operands))

    return emitter


def _tailcall(g, at, target, arguments):
    made = at.made.get(target)
    if made is not None and g.enters(at, made, arguments):
        if not g.enter(at, target, arguments):
            return  # the path knew it is unprofiled: there is no miss
    elif g.loops(at, target, arguments):
        g.loop(at, target, arguments)
    else:
        callee = g.inlinable(target, len(arguments))
        if callee is not None:
            g.inline(at, target, arguments, callee)
    if target in at.pending:
        g.allocate(at, target)
    g.leave(at, f"return {target}, {arguments}")


def _closure(g, at, dst, index, plan):
    code = g.frame.code
    exits = _exits(code, at.pc, code.instrs[at.pc - 1][1])
    at.made[dst], at.pending[dst] = _Made(g.frame, index, code.codes[index], plan, exits), None
    if g.counted or dst in plan:  # the latter captures what ``dst`` held before
        g.allocate(at, dst)
        del at.made[dst]


def _free(g, at, dst, slot):
    source = g.frame.slot(slot)
    g.emit(at, f"{dst} = {source}")
    if source in g.own_slots:  # read in ``run``, or in a join entered as its ``free[k]``
        at.selves.add(dst)
    # a join entered reads a local of the frame that made it
    if source in at.literals:
        at.literals[dst] = at.literals[source]
    elif at.holds_int(source):
        at.ints.add(dst)
    bound = g.frame.bound
    if bound is not None and slot < len(bound) and type(bound[slot]) is VMClosure:
        # kept when ``dst`` is written again: the guard, not this, is what
        # makes an inline site right
        g.loaded[dst] = bound[slot]


def _const(g, at, dst, index):
    value = g.frame.code.consts[index]
    if type(value) in (int, bool):
        g.emit(at, f"{dst} = {value!r}")
        if not g.counted:
            at.literals[dst] = value
    elif value is UNIT:
        g.emit(at, f"{dst} = UNIT")
    else:
        pool = g.bind("K", g.frame.code.consts)
        if type(value) is Oid:  # one code object runs on VMs with and without a store
            g.check(at)
            g.emit(at, f"{dst} = {pool}[{index}] if vm.store is None "
                       f"else vm.store.load({pool}[{index}])")
        else:
            g.emit(at, f"{dst} = {pool}[{index}]")


def _fix(g, at, group):
    codes = g.bind("C", g.frame.code.codes)
    for n, (dst, index, _plan) in enumerate(group):
        g.emit(at, f"{dst} = g{n} = VMClosure({codes}[{index}], None)")
    for n, (_dst, _index, plan) in enumerate(group):
        g.emit(at, f"g{n}.free = {plan}")


def _overflows(at: _Path, sign: str, a: str, b: str) -> str:
    """The overflow test of ``t = a sign b``: an ``int`` literal added, or
    subtracted from the other operand, pushes ``t`` past one bound only —
    past none when it is 0."""
    for local in (b, a) if sign == "+" else (b,) if sign == "-" else ():
        literal = at.int_literal(local)
        if literal is not None:
            pushed = -literal if sign == "-" else literal
            if pushed == 0:
                return ""
            return f"t > {INT_MAX}" if pushed > 0 else f"t < {INT_MIN}"
    return f"t < {INT_MIN} or t > {INT_MAX}"


def _arith(sign: str):
    def emitter(g, at, dst, a, b, epc, ed):
        g.trap(at, "", "TYPE_ERROR", (a, b))
        g.emit(at, f"t = {a} {sign} {b}")
        overflows = _overflows(at, sign, a, b)
        if overflows:
            g.branch(at, overflows, epc, ed, "OVERFLOW")
        g.emit(at, f"{dst} = t")

    return emitter


def _truncated(op: str, a: str, divisor: int) -> str:
    """``a op divisor`` in C's truncating division, ``divisor`` not 0."""
    m = abs(divisor)
    if op == "%":  # the remainder takes the dividend's sign
        return f"{a} % {m} if {a} >= 0 else -(-{a} % {m})"
    if divisor > 0:
        return f"{a} // {m} if {a} >= 0 else -(-{a} // {m})"
    return f"-({a} // {m}) if {a} >= 0 else -{a} // {m}"


def _divide(function: str, op: str):
    def emitter(g, at, dst, a, b, epc, ed):
        g.trap(at, "", "TYPE_ERROR", (a, b))
        divisor = at.int_literal(b)
        if divisor not in (None, 0, -1):
            # |a op divisor| <= |a|: neither the zero divisor nor overflow
            g.emit(at, f"{dst} = {_truncated(op, a, divisor)}")
            return
        g.emit(at, f"t = None if {b} == 0 else {function}({a}, {b})")
        g.branch(at, f"t is None or t < {INT_MIN} or t > {INT_MAX}", epc,
                 ed, "ZERO_DIVIDE if t is None else OVERFLOW")
        g.emit(at, f"{dst} = t")

    return emitter


def _compare(negated: str):
    def emitter(g, at, a, b, else_pc):
        g.trap(at, "", "TYPE_ERROR", (a, b))
        g.branch(at, f"{a} {negated} {b}", else_pc)

    return emitter


def _move(bytes_mode: bool):
    def emitter(g, at, *operands):
        g.publish(at)
        g.emit(at, f"block_move({', '.join(operands)}, {bytes_mode})")

    return emitter


def _identical(at: _Path, a: str, b: str) -> str:
    """``identical(a, b)``, spelled out as its rule where the path knows an
    operand: a ``bool`` literal is the one object it is identical to, and
    an ``int`` is identical to an equal ``int`` only."""
    for known, other in ((b, a), (a, b)):
        if type(at.literals.get(known)) is bool:
            return f"{other} is {at.literals[known]!r}"
    if at.holds_int(a) and at.holds_int(b):
        return f"{a} == {b}"
    for known, other in ((b, a), (a, b)):
        if at.holds_int(known):
            return f"type({other}) is int and {other} == {known}"
    return f"identical({a}, {b})"


def _case(g, at, scrutinee, tags, pcs, else_pc):
    known = at.literals
    at.pc = else_pc  # the last alternative needs no ``if``
    for tag, pc in zip(tags, pcs):
        if scrutinee not in known or tag not in known:
            g.branch(at, _identical(at, scrutinee, tag), pc)
        elif identical(known[scrutinee], known[tag]):
            # literals: the alternative is taken here, those after it are not emitted
            at.pc = pc
            break
    if at.pc is None:
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
    "closure": _closure,
    "add": _arith("+"),
    "sub": _arith("-"),
    "mul": _arith("*"),
    "div": _divide("int_div", "//"),
    "rem": _divide("int_rem", "%"),
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
    closures among ``free``'s slots called inline and calls through a slot
    holding the closure over ``free`` looping, or its counted one
    (regenerated: it is not kept)."""
    return _Generator(code, counted, free).text()


def compile_code(code: CodeObject, counted: bool = False, free: list | None = None):
    """Compile one of ``code``'s texts and cache the function on it — the
    plain one, which calls the leaf closures among ``free``'s slots inline
    and loops through a slot holding the closure over ``free``, as
    ``code.tier``, the counted one as ``code.tier_counted``:
    ``run(vm, free, args) -> (target, values)``, whose ``max_path`` is the
    most instructions one call runs under a step limit (a loop goes round
    only without one).  Raises :class:`MachineError` on code
    ``verify_tam`` rejects.

    Threads racing a first activation all compile and all assign; each
    function carries its own ``max_path``, so whichever is left serves, and
    there is no lock."""
    started = time.perf_counter()
    generator = _Generator(code, counted, free)
    scope = dict(generator.scope)
    exec(compile(generator.text(), f"<tier {code.name}>", "exec"), _ENV, scope)
    run = scope["run"]
    run.max_path = generator.max_path
    if counted:
        code.tier_counted = run
    else:
        code.tier = run
    _COMPILED.inc()
    _INLINED.inc(generator.inlined)
    _JOINED.inc(generator.joined)
    _LOOPED.inc(generator.looped)
    _COMPILE_S.observe(time.perf_counter() - started)
    return run
