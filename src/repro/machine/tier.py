"""The compiled tier: one TAM code object becomes one Python function.

The code generator gives every jump its own forward label and emits a
deferred block after the code that jumps to it, so inside one code object
every jump is forward and every pc is entered by at most one edge: **the
control flow is a tree**.  A tree needs no loop and no dispatch — a branching
instruction becomes ``if <taken>: <the target's subtree>``, which always ends
in an exit, followed by the fall-through at the same indentation — and the
number of instructions executed on the way to any exit is a constant of the
path.  So registers are locals, ``int``/``bool`` constants are literals, and
nothing is counted per instruction: every exit (``tailcall``, ``halt``,
``raise``, each trap site) adds its path's length to ``vm.instructions``.

:meth:`repro.machine.vm.VM._execute` stays the reference: each emitter makes
the checks of its arm there, in that order, and raises the same trap.  Code
that is not such a tree, that nests deeper than Python indents, or that reads
a register no instruction on the path wrote (the interpreter reads ``None``; a
local would be unbound) is declined when first activated and stays
interpreted.  An ``extcall`` handler may re-enter the VM, so the count is
brought up to date before the call and the path counts on from zero after it;
such code has no static bound on the instructions of one activation
(``tier_max_path`` is infinite, and under a step limit the trampoline
interprets it).

Nothing is compiled before a code object's first activation the trampoline
does not interpret (a :class:`~repro.obs.profile.VMProfiler` makes it
interpret every one), nothing is persisted, and the generated source is not
kept — :func:`source` regenerates it for a look.
"""

from __future__ import annotations

import time
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
    TmlArray,
    TmlByteArray,
    TmlVector,
    Trap,
    block_move,
    identical,
    show_value,
)
from repro.obs.metrics import METRICS
from repro.primitives._util import INT_MAX, INT_MIN, wrap_int
from repro.primitives.arith import OVERFLOW, ZERO_DIVIDE, int_div, int_rem

__all__ = ["EMITTERS", "compile_code", "source"]

_COMPILED = METRICS.counter("vm.tier.compiled", "code objects compiled to Python")
_COMPILE_S = METRICS.histogram("vm.tier.compile_s", "seconds compiling one code object")
#: why a code object stays interpreted
_FALLBACK = {
    reason: METRICS.counter(f"vm.tier.fallback.{reason}", f"code left interpreted: {why}")
    for reason, why in (
        ("shape", "not a tree of known instructions"),
        ("depth", "branches nest deeper than Python indents"),
        ("undefined_read", "a path reads a register it did not write"),
    )
}

#: Python's tokenizer stops at 100 levels of indentation
_MAX_DEPTH = 80
_NO_RAISE = object()

#: what generated code can name besides its own locals
_ENV = dict(
    BOUNDS_ERROR=BOUNDS_ERROR, EXT_OPS=EXT_OPS, OVERFLOW=OVERFLOW, TYPE_ERROR=TYPE_ERROR,
    UNIT=UNIT, ZERO_DIVIDE=ZERO_DIVIDE, _NO_RAISE=_NO_RAISE, Char=Char, ExtRaise=ExtRaise,
    Halted=Halted, MachineError=MachineError, TmlArray=TmlArray, TmlByteArray=TmlByteArray,
    TmlVector=TmlVector, Trap=Trap, VMClosure=VMClosure, block_move=block_move,
    identical=identical, int_div=int_div, int_rem=int_rem, show_value=show_value,
    wrap_int=wrap_int,
)


class _Declined(Exception):
    def __init__(self, reason: str):
        self.reason = reason


@dataclass
class _Path:
    """Where the generator stands on one root-to-exit path."""

    pc: int | None  #: the next instruction; None once the path has left
    depth: int  #: indentation of the statements being emitted
    total: float  #: instructions executed since the activation began
    unpublished: int  #: ... since ``vm.instructions`` was brought up to date
    defined: set[str]  #: registers written on the way here


def _check_tree(code: CodeObject) -> None:
    """Decline unless every instruction is known, every jump goes forward and
    no pc is entered by more than one edge."""
    entered = [0] * (len(code.instrs) + 1)
    for pc, instr in enumerate(code.instrs):
        row = OPS.get(instr[0])
        if row is None or len(instr) != len(row.operands) + 1:
            raise _Declined("shape")
        for kind, operand in zip(row.operands, instr[1:]):
            if kind in ("pc", "pc?", "pcs") and operand is not None:
                for target in operand if kind == "pcs" else (operand,):
                    if not pc < target < len(code.instrs):
                        raise _Declined("shape")
                    entered[target] += 1
        entered[pc + 1] += not row.terminal
    if max(entered) > 1:
        raise _Declined("shape")


def _registers(kinds: tuple[str, ...], operands: list) -> tuple[set[str], list[str]]:
    """The registers an instruction reads, and those it writes on fall-through."""
    reads, writes = [], []
    for kind, operand in zip(kinds, operands):
        if kind == "r":
            reads.append(operand)
        elif kind == "rs":
            reads += operand
        elif kind == "w":
            writes.append(operand)
        elif kind == "plan":
            reads += [i for source, i in operand if source == "r"]
        elif kind == "group":  # every dst is written before a plan is read
            writes += [dst for dst, _, _ in operand]
            reads += [i for _, _, plan in operand for source, i in plan
                      if source == "r" and i not in writes]
    return {f"r{reg}" for reg in reads}, [f"r{reg}" for reg in writes]


def _captures(plan) -> str:
    return "[" + ", ".join(f"r{i}" if source == "r" else f"free[{i}]" for source, i in plan) + "]"


class _Registers(tuple):
    """Names of locals; in generated code, the list of their values."""

    def __format__(self, spec: str) -> str:
        return "[" + ", ".join(self) + "]"


def _rendered(kind: str, operand):
    """An operand as emitters see it: a register as the local it becomes, a
    capture plan as the list display it evaluates to, the rest as it is."""
    if kind in ("r", "w", "ew", "ew?"):
        return f"r{operand}"
    if kind == "rs":
        return _Registers(f"r{reg}" for reg in operand)
    if kind == "plan":
        return _captures(operand)
    return operand


class _Generator:
    def __init__(self, code: CodeObject):
        _check_tree(code)
        self.code = code
        self.lines = ["def run(vm, free, args, K=K, C=C):"]
        self.max_path = 0.0
        params = [f"r{reg}" for reg in range(len(code.params))]
        start = _Path(0, 1, 0, 0, set(params))
        if params:
            self.emit(start, ", ".join(params) + ", = args")
        self.block(start)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def emit(self, at: _Path, text: str, indent: int = 0) -> None:
        self.lines.append("    " * (at.depth + indent) + text)

    def leave(self, at: _Path, statement: str, indent: int = 0) -> None:
        """An exit: bring the instruction count up to date, then go."""
        if at.unpublished:
            self.emit(at, f"vm.instructions += {at.unpublished}", indent)
        self.emit(at, statement, indent)

    def trap(self, at: _Path, condition: str, value: str) -> None:
        self.emit(at, f"if {condition}:")
        self.leave(at, f"raise Trap({value})", indent=1)

    def publish(self, at: _Path) -> None:
        """Store the count before something that can see it, or fail, runs."""
        if at.unpublished:
            self.emit(at, f"vm.instructions += {at.unpublished}")
        at.unpublished = 0

    def branch(self, at: _Path, condition: str, pc: int, ed: str = "", value: str = "") -> None:
        """``if condition:`` the subtree at ``pc``, entered with ``ed = value``
        when the edge writes a register."""
        if at.depth >= _MAX_DEPTH:
            raise _Declined("depth")
        self.emit(at, f"if {condition}:")
        taken = _Path(pc, at.depth + 1, at.total, at.unpublished, set(at.defined))
        if ed:
            self.emit(taken, f"{ed} = {value}")
            taken.defined.add(ed)
        self.block(taken)

    def block(self, at: _Path) -> None:
        instrs = self.code.instrs
        while at.pc is not None:
            if at.pc == len(instrs):
                raise _Declined("shape")  # runs off the end
            op, *operands = instrs[at.pc]
            row = OPS[op]
            reads, writes = _registers(row.operands, operands)
            if not reads <= at.defined:
                raise _Declined("undefined_read")
            at.pc = None if row.terminal else at.pc + 1
            at.total += 1
            at.unpublished += 1
            EMITTERS[op](self, at, *map(_rendered, row.operands, operands))
            at.defined.update(writes)
        self.max_path = max(self.max_path, at.total)


# ---------------------------------------------------------------------------
# one emitter per opcode, each the mirror of its arm in ``VM._execute``
# ---------------------------------------------------------------------------


def _not_int(*names: str) -> str:
    return " or ".join(f"type({name}) is not int" for name in names)


_INT, _INTS = _not_int("{1}"), _not_int("{1}", "{2}")

#: opcode -> (statement, (trap condition, trap value)...) for the instructions
#: that check, then do one thing; ``{n}`` is the n-th operand, rendered
_STRAIGHT = {
    "tailcall": ("return {0}, {1}",),
    "raise": ("raise Trap({0})",),
    "halt": ("raise Halted({0})",),
    "free": ("{0} = free[{1}]",),
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


def _const(g, at, dst, index):
    value = g.code.consts[index]
    if type(value) in (int, bool):
        g.emit(at, f"{dst} = {value!r}")
    elif type(value) is Oid:  # one code object runs on VMs with and without a store
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
    g.leave(at, "raise MachineError('popHandler on empty handler stack')", indent=1)
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
    _call(g, at, f"h(vm, {arguments})", "ExtRaise", "raised.value", epc, ed)
    g.emit(at, f"{dst} = t")
    at.total = float("inf")  # the handler may have run any number of instructions


#: opcode -> emitter(generator, path, *rendered operands); no opcode is left to
#: the interpreter (``tests/machine/test_isa_table.py`` holds the keys to ``OPS``)
EMITTERS: dict[str, Callable] = {
    **{op: _straight(*spec) for op, spec in _STRAIGHT.items()},
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


def source(code: CodeObject) -> str:
    """The Python the tier runs for ``code`` (regenerated: it is not kept)."""
    try:
        return _Generator(code).text()
    except _Declined as declined:
        return f"# stays interpreted: {declined.reason}\n"


def compile_code(code: CodeObject):
    """Compile ``code`` and cache the outcome on it (``code.tier``, with
    ``code.tier_max_path``): ``run(vm, free, args) -> (target, values)``, or
    ``False`` when declined.

    Threads racing a first activation both compile and both assign; either
    function serves, so there is no lock."""
    started = time.perf_counter()
    try:
        generator = _Generator(code)
    except _Declined as declined:
        _FALLBACK[declined.reason].inc()
        code.tier = False
        return False
    scope = {"K": code.consts, "C": code.codes}
    exec(compile(generator.text(), f"<tier {code.name}>", "exec"), _ENV, scope)
    code.tier_max_path = generator.max_path
    run = code.tier = scope["run"]
    _COMPILED.inc()
    _COMPILE_S.observe(time.perf_counter() - started)
    return run
