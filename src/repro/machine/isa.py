"""Instruction set of the Tycoon Abstract Machine (TAM).

The back-end target substituting for the paper's native code generator: a
register-based bytecode machine with CPS-faithful control (there is no call
stack — every transfer is a tail call, matching "a generalized goto with
parameter passing", section 2.1).

A :class:`CodeObject` is the compiled form of one TML abstraction that is
*materialized* as a closure (user procedures, escaping continuations,
recursive Y-group members).  Abstractions that are only ever entered
directly — continuation arguments of primitives, branch continuations,
directly-applied λs — are compiled inline into their parent's instruction
stream, so straight-line TL code becomes straight-line bytecode.

Instructions are tuples ``(op, operand...)``.  :data:`OPS` declares every
opcode exactly once — the paper's section 2.3 discipline of stating
everything about a primitive in one place, applied to the machine.  The
bytecode verifier, the binary format, the abstract interpreter's regular
transfer function and the decompiler are consumers of that table; the VM's
dispatch loop, the compiled tier's emitters (:mod:`repro.machine.tier`) and
the code generator's emitters are hand-written and checked against it
(``tests/machine/test_isa_table.py``).

Operand kinds (what :mod:`repro.analysis.verify_tam` checks of each, and
the role each plays in its definite-assignment analysis):

========  ===========================================================
``w``     register written on the fall-through path
``r``     register read
``rs``    tuple of registers read
``c``     constant-pool index
``k``     nested-code index
``f``     free-variable slot of the running closure
``plan``  capture plan ``(("r"|"f", index), ...)`` for the nested code
          named by the ``k`` operand; its ``r`` entries are read
``group`` ``fix`` group ``((dst, k, plan), ...)``: every ``dst`` is
          written first, then the plans are read
``pc``    jump target: a second control-flow edge
``pcs``   tuple of jump targets, one per register of the ``rs`` operand
``pc?``   jump target or ``None`` (no edge: the instruction traps)
``ew``    register written on the ``pc`` edge only (the error value)
``ew?``   the same for a ``pc?`` edge; ignored when there is no edge
``name``  non-empty string naming the extension primitive to run
========  ===========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any

from repro.core.names import Name
from repro.primitives.effects import EffectClass
from repro.primitives.registry import Attributes, default_registry

__all__ = [
    "Label",
    "CodeObject",
    "VMClosure",
    "Op",
    "OPS",
    "code_size",
    "flatten_codes",
]


@dataclass(frozen=True)
class Op:
    """One row of the instruction table: everything static about an opcode.

    Every claim is checkable against :meth:`repro.machine.vm.VM._execute`;
    the table test runs every row against the reference interpreter.
    """

    #: the byte :mod:`repro.machine.binfmt` encodes the opcode as.  Literal
    #: and append-only: stored images outlive this table, so a number is
    #: never reused (1, 5 and 42 belonged to ``move``, ``jump`` and
    #: ``trapc``, which no code generator ever emitted).
    number: int
    #: operand kinds, in instruction order (see the module docstring)
    operands: tuple[str, ...]
    #: the per-instruction reference: what executing it does
    meaning: str
    #: the Fig. 2 primitive this instruction implements; None for register
    #: traffic, calls, and ``extcall`` (whose ``name`` operand says which)
    prim: str | None = None
    #: control never falls through to pc+1 (tailcall, halt, raise, ...)
    terminal: bool = False
    #: may leave the instruction stream via a TML trap (typeError,
    #: boundsError, ...) or a MachineError — i.e. executing it can observe
    #: machine state other than its own operands
    can_trap: bool = False
    #: net change to the dynamic handler-stack depth
    handler_delta: int = 0
    #: value-kind token required of each register read, in order (``top``:
    #: any value, which the instruction may store into heap data — as it
    #: may every register of an ``rs`` operand).  Rows the abstract
    #: interpreter handles by hand leave this empty.
    needs: tuple[str, ...] = ()
    #: value-kind token of what the ``w`` operand receives
    gives: str | None = None

    @property
    def branches(self) -> bool:
        """Has a pc operand it may transfer to (comparisons, error edges)."""
        return any(kind in ("pc", "pcs", "pc?") for kind in self.operands)

    def parts(self, instr: tuple) -> tuple[list[int], int | None, int | None, int | None]:
        """``(reads, dst, epc, ed)`` of an instruction of a *regular* row —
        registers and at most one jump target, which is how every inlined
        primitive but ``==`` compiles: the registers read in operand order,
        the one written on fall-through, the branch target, and the
        register written on that edge."""
        reads: list[int] = []
        rest: dict[str, int] = {}
        for kind, operand in zip(self.operands, instr[1:]):
            if kind == "r":
                reads.append(operand)
            elif kind == "rs":
                reads.extend(operand)
            else:
                rest[kind] = operand
        return reads, rest.get("w"), rest.get("pc"), rest.get("ew")

    @cached_property
    def effect(self) -> EffectClass:
        """The registry's declared effect of the implemented primitive.

        Read, not copied, so honestly-compiled code never exceeds its
        term's inferred effect (TAM105).  An instruction that names its
        primitive at run time has the registry's worst-case default;
        one that implements none is register traffic.
        """
        if self.prim is not None:
            return default_registry().lookup(self.prim).attrs.effect
        if "name" in self.operands:
            return Attributes().effect
        return EffectClass.PURE

    @property
    def writes_memory(self) -> bool:
        """Mutates heap-visible state (arrays / byte arrays) other sessions
        or later instructions can read."""
        return self.effect is EffectClass.WRITE

    @property
    def observable(self) -> bool:
        """Emits to an observable channel (the output list, foreign code)."""
        return self.effect in (EffectClass.IO, EffectClass.UNKNOWN)


_ARITH = ("w", "r", "r", "pc", "ew")
_COMPARE = ("r", "r", "pc")
_BINARY = ("w", "r", "r")
_UNARY = ("w", "r")
_STORE = ("r", "r", "r")
_BLOCK = ("r", "r", "r", "r", "r")
_II = ("int", "int")
_AI = ("array", "int")
_AIAII = ("array", "int", "array", "int", "int")

#: opcode -> :class:`Op`.  ``const`` may load from the store but can neither
#: trap nor branch; ``poph`` on an empty stack is a MachineError, so it
#: counts as trapping.
OPS: dict[str, Op] = {
    "const": Op(0, ("w", "c"), "regs[d] = consts[c], loaded from the store when an OID"),
    "free": Op(2, ("w", "f"), "regs[d] = closure.free[f]"),
    "closure": Op(3, ("w", "k", "plan"), "regs[d] = new closure of codes[k], captured per plan"),
    "fix": Op(4, ("group",), "create mutually recursive closures, then patch their captures",
              prim="Y"),
    "add": Op(6, _ARITH, "regs[d] = a + b; overflow: regs[ed] = error, jump epc",
              prim="+", can_trap=True, needs=_II, gives="int"),
    "sub": Op(7, _ARITH, "regs[d] = a - b; overflow as add",
              prim="-", can_trap=True, needs=_II, gives="int"),
    "mul": Op(8, _ARITH, "regs[d] = a * b; overflow as add",
              prim="*", can_trap=True, needs=_II, gives="int"),
    "div": Op(9, _ARITH, "regs[d] = a / b; zeroDivide and overflow via epc",
              prim="/", can_trap=True, needs=_II, gives="int"),
    "rem": Op(10, _ARITH, "regs[d] = a % b; zeroDivide and overflow via epc",
              prim="%", can_trap=True, needs=_II, gives="int"),
    "lt": Op(11, _COMPARE, "fall through when a < b, jump pc when not",
             prim="<", can_trap=True, needs=_II),
    "gt": Op(12, _COMPARE, "fall through when a > b, jump pc when not",
             prim=">", can_trap=True, needs=_II),
    "le": Op(13, _COMPARE, "fall through when a <= b, jump pc when not",
             prim="<=", can_trap=True, needs=_II),
    "ge": Op(14, _COMPARE, "fall through when a >= b, jump pc when not",
             prim=">=", can_trap=True, needs=_II),
    "band": Op(15, _BINARY, "regs[d] = a & b",
               prim="band", can_trap=True, needs=_II, gives="int"),
    "bor": Op(16, _BINARY, "regs[d] = a | b",
              prim="bor", can_trap=True, needs=_II, gives="int"),
    "bxor": Op(17, _BINARY, "regs[d] = a ^ b",
               prim="bxor", can_trap=True, needs=_II, gives="int"),
    "shl": Op(18, _BINARY, "regs[d] = a << (b mod 64), wrapped to the int range",
              prim="shl", can_trap=True, needs=_II, gives="int"),
    "shr": Op(19, _BINARY, "regs[d] = a >> (b mod 64)",
              prim="shr", can_trap=True, needs=_II, gives="int"),
    "bnot": Op(20, _UNARY, "regs[d] = bitwise complement of a",
               prim="bnot", can_trap=True, needs=("int",), gives="int"),
    "c2i": Op(21, _UNARY, "regs[d] = code of the char a",
              prim="char2int", can_trap=True, needs=("char",), gives="int"),
    "i2c": Op(22, _UNARY, "regs[d] = the char with code a mod 256",
              prim="int2char", can_trap=True, needs=("int",), gives="char"),
    "arr": Op(23, ("w", "rs"), "regs[d] = mutable array of the operand registers",
              prim="array", gives="array"),
    "vec": Op(24, ("w", "rs"), "regs[d] = immutable vector of the operand registers",
              prim="vector", gives="array"),
    "anew": Op(25, _BINARY, "regs[d] = array of regs[n] slots, each regs[i]",
               prim="new", can_trap=True, needs=("int", "top"), gives="array"),
    "bnew": Op(26, _BINARY, "regs[d] = byte array of regs[n] slots, each regs[i] mod 256",
               prim="$new", can_trap=True, needs=_II, gives="array"),
    "aget": Op(27, _BINARY, "regs[d] = a[i]; boundsError outside the array or vector",
               prim="[]", can_trap=True, needs=_AI, gives="top"),
    "aset": Op(28, _STORE, "a[i] = v; boundsError outside the array, typeError on a vector",
               prim="[]:=", can_trap=True, needs=("array", "int", "top")),
    "bget": Op(29, _BINARY, "regs[d] = the byte a[i]",
               prim="$[]", can_trap=True, needs=_AI, gives="int"),
    "bset": Op(30, _STORE, "the byte a[i] = v mod 256",
               prim="$[]:=", can_trap=True, needs=("array", "int", "int")),
    "asize": Op(31, _UNARY, "regs[d] = number of slots of a",
                prim="size", can_trap=True, needs=("array",), gives="int"),
    "amove": Op(32, _BLOCK, "dst[di:di+n] = src[si:si+n]; boundsError outside either",
                prim="move", can_trap=True, needs=_AIAII),
    "bmove": Op(33, _BLOCK, "the same between byte arrays",
                prim="$move", can_trap=True, needs=_AIAII),
    "case": Op(34, ("r", "rs", "pcs", "pc?"),
               "jump pcs[i] for the first tag register identical to regs[s], else epc "
               "(caseError when epc is None)",
               prim="==", terminal=True, can_trap=True),
    "tailcall": Op(35, ("r", "rs"), "enter closure regs[f] with the operand registers",
                   terminal=True, can_trap=True),
    "pushh": Op(36, ("r",), "push regs[h] on the handler stack",
                prim="pushHandler", handler_delta=1),
    "poph": Op(37, (), "pop the handler stack",
               prim="popHandler", can_trap=True, handler_delta=-1),
    "raise": Op(38, ("r",), "raise regs[v] to the topmost handler",
                prim="raise", terminal=True, can_trap=True),
    "ccall": Op(39, _ARITH, "regs[d] = foreign regs[f](*regs[a]); failure as add's overflow",
                prim="ccall", can_trap=True),
    "print": Op(40, ("r",), "emit regs[v] to the output channel", prim="print"),
    "halt": Op(41, ("r",), "stop, delivering regs[v]", prim="halt", terminal=True),
    "extcall": Op(43, ("name", "w", "rs", "pc?", "ew?"),
                  "regs[d] = extension primitive name(*regs); its raise goes to epc with "
                  "regs[ed] = value, or traps when epc is None",
                  can_trap=True),
}


class Label:
    """A forward-reference jump target, resolved to a pc at assembly time."""

    __slots__ = ("pc",)

    def __init__(self) -> None:
        self.pc: int | None = None

    def __repr__(self) -> str:
        return f"<label pc={self.pc}>"


@dataclass(slots=True)
class CodeObject:
    """Compiled form of one materialized TML abstraction.

    Immutable once executed: the VM caches what it made of the instructions
    on the object (``tier``) and does not look for edits to them afterwards.
    """

    name: str
    params: tuple[Name, ...]
    nregs: int = 0
    instrs: list[tuple] = field(default_factory=list)
    consts: list[Any] = field(default_factory=list)
    codes: list["CodeObject"] = field(default_factory=list)
    #: the free variables this closure captures, in slot order
    free_names: tuple[Name, ...] = ()
    is_proc: bool = False
    #: OID of the persistent TML (PTML) blob for this function, when the
    #: compiler attached one (paper section 4.1: "the compiler back end
    #: augments the generated code ... with a reference to a compact
    #: persistent representation of the TML tree").
    ptml_ref: Any = None
    #: :func:`repro.machine.tier.compile_code`'s cache: the compiled function,
    #: ``False`` when declined, ``None`` before the first activation.  Not
    #: part of the value: never compared, printed, copied or persisted.
    tier: Any = field(default=None, init=False, compare=False, repr=False)
    #: instructions on the longest path through ``tier`` (infinite when an
    #: ``extcall`` handler may run more); set before ``tier`` is
    tier_max_path: float = field(default=0, init=False, compare=False, repr=False)

    def __reduce__(self):
        """Copy and pickle through ``__init__``, i.e. without ``tier``."""
        return CodeObject, tuple(getattr(self, f.name) for f in fields(self) if f.init)

    @property
    def arity(self) -> int:
        return len(self.params)

    def disassemble(self, indent: str = "") -> str:
        """Human-readable listing (nested code objects included)."""
        lines = [
            f"{indent}code {self.name} params={len(self.params)} "
            f"regs={self.nregs} free={[str(n) for n in self.free_names]}"
        ]
        for pc, instr in enumerate(self.instrs):
            lines.append(f"{indent}  {pc:4d}  {instr}")
        for index, nested in enumerate(self.codes):
            lines.append(f"{indent}  .code[{index}]:")
            lines.append(nested.disassemble(indent + "    "))
        return "\n".join(lines)


class VMClosure:
    """A runtime closure: code plus captured free-variable cells.

    ``free`` is a list (not tuple) because the ``fix`` instruction patches
    the cells of mutually recursive closures after creating the whole group.
    """

    __slots__ = ("code", "free")

    def __init__(self, code: CodeObject, free: list):
        self.code = code
        self.free = free

    @property
    def arity(self) -> int:
        return len(self.code.params)

    def __repr__(self) -> str:
        return f"<vmclosure {self.code.name}/{self.arity}>"


def flatten_codes(root: CodeObject) -> list[CodeObject]:
    """The code object and all nested ones, preorder."""
    out: list[CodeObject] = []
    stack = [root]
    while stack:
        code = stack.pop()
        out.append(code)
        stack.extend(reversed(code.codes))
    return out


def code_size(root: CodeObject) -> int:
    """Total instruction count across a code object tree.

    The unit of the E3 code-size experiment's "executable code" side.
    """
    return sum(len(code.instrs) for code in flatten_codes(root))
