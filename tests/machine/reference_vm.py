"""The TAM-level reference: the per-instruction interpreter loop.

The VM's only executor is :mod:`repro.machine.tier`, which counts nothing
per instruction: a path's instruction count, its opcode histogram and where
a step limit stops it are constants it works out when it compiles.  This
loop is the oracle those constants are checked against.  It dispatches on
the opcode with one ``if``/``elif`` arm per row of
:data:`repro.machine.isa.OPS`, checks the step limit before every
instruction and counts every opcode as it executes it, so none of those
numbers needs an argument to believe.

``ReferenceVM`` is a :class:`~repro.machine.vm.VM` whose trampoline runs
every activation here — a query predicate's too, since its ``procedure``
re-enters through ``VM.apply`` on every row and never calls a tier text.
A new opcode needs an arm here as well as a row, a ``codegen`` emitter and
a tier emitter (``tests/machine/test_isa_table.py`` says which is missing).
"""

from __future__ import annotations

from typing import Any

from repro.core.syntax import UNIT, Char, Oid
from repro.machine.isa import VMClosure
from repro.machine.runtime import (
    ARITY_ERROR,
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
    UncaughtTmlException,
    block_move,
    identical,
    show_value,
)
from repro.machine.vm import _TOP_EXCEPTION, _TOP_NORMAL, VM
from repro.primitives._util import INT_MAX, INT_MIN, wrap_int
from repro.primitives.arith import OVERFLOW, ZERO_DIVIDE, int_div, int_rem

__all__ = ["ReferenceVM"]


class ReferenceVM(VM):
    """A VM that interprets every activation, one instruction at a time."""

    def procedure(self, closure: Any, n: int):
        """Every call a nested run of this trampoline: the reference has no
        direct path into a tier text."""
        return lambda *args: self.apply(closure, list(args))

    def _loop(self, target: Any, values: list[Any], floor: int) -> Any:
        """:meth:`VM._loop` with :meth:`_execute` in place of the tier: the
        same profile credit per activation, the same handler floor."""
        profile = self.profiler
        while True:
            try:
                while True:
                    if type(target) is VMClosure:
                        if len(target.code.params) != len(values):
                            raise Trap(ARITY_ERROR)
                        if profile is None:
                            target, values = self._execute(target, values)
                            continue
                        stats = profile.enter(target.code.name)
                        uncredited = self.instructions - self._credited
                        try:
                            target, values = self._execute(target, values)
                        finally:
                            own = self.instructions - self._credited - uncredited
                            self._credited += own
                            stats.instructions += own
                    elif target is _TOP_NORMAL:
                        return values[0]
                    elif target is _TOP_EXCEPTION:
                        raise UncaughtTmlException(values[0])
                    else:
                        raise Trap(TYPE_ERROR)
            except Trap as trap:
                if len(self.handlers) <= floor:
                    raise UncaughtTmlException(trap.value) from None
                target, values = self.handlers.pop(), [trap.value]
            except Halted as halted:
                return halted.value

    def _execute(self, closure: VMClosure, args: list[Any]) -> tuple[Any, list[Any]]:
        """Run one code object until it tail-calls out (or halts/raises)."""
        code = closure.code
        regs: list[Any] = [None] * code.nregs
        regs[: len(args)] = args
        free = closure.free
        consts = code.consts
        instrs = code.instrs
        codes = code.codes
        pc = 0
        counted = self.instructions
        limit = self.step_limit
        profiler = self.profiler
        if profiler is not None and profiler.per_instruction:
            segments = profiler.segments
        else:
            profiler = None

        while True:
            instr = instrs[pc]
            counted += 1
            if limit is not None and counted > limit:
                # the instruction that tripped the limit never executes, so
                # it is not part of the run's executed-instruction count
                self.instructions = counted - 1
                raise StepLimitExceeded(
                    f"exceeded {limit} instructions", limit=limit
                )
            op = instr[0]
            if profiler is not None:
                segments[op] = segments.get(op, 0) + 1  # a segment of one

            if op == "const":
                value = consts[instr[2]]
                if type(value) is Oid and self.store is not None:
                    value = self.store.load(value)
                regs[instr[1]] = value
            elif op == "free":
                regs[instr[1]] = free[instr[2]]
            elif op == "closure":
                _, dst, code_index, plan = instr
                regs[dst] = VMClosure(
                    codes[code_index],
                    [regs[i] if kind == "r" else free[i] for kind, i in plan],
                )
            elif op == "fix":
                group = instr[1]
                created = []
                for dst, code_index, plan in group:
                    vmclosure = VMClosure(codes[code_index], [None] * len(plan))
                    regs[dst] = vmclosure
                    created.append((vmclosure, plan))
                for vmclosure, plan in created:
                    for slot, (kind, i) in enumerate(plan):
                        vmclosure.free[slot] = regs[i] if kind == "r" else free[i]
            elif op in ("add", "sub", "mul"):
                _, dst, ra, rb, epc, ed = instr
                a, b = regs[ra], regs[rb]
                if type(a) is not int or type(b) is not int:
                    self.instructions = counted
                    raise Trap(TYPE_ERROR)
                result = a + b if op == "add" else a - b if op == "sub" else a * b
                if result < INT_MIN or result > INT_MAX:
                    regs[ed] = OVERFLOW
                    pc = epc
                    continue
                regs[dst] = result
            elif op in ("div", "rem"):
                _, dst, ra, rb, epc, ed = instr
                a, b = regs[ra], regs[rb]
                if type(a) is not int or type(b) is not int:
                    self.instructions = counted
                    raise Trap(TYPE_ERROR)
                if b == 0:
                    regs[ed] = ZERO_DIVIDE
                    pc = epc
                    continue
                result = int_div(a, b) if op == "div" else int_rem(a, b)
                if result < INT_MIN or result > INT_MAX:
                    regs[ed] = OVERFLOW
                    pc = epc
                    continue
                regs[dst] = result
            elif op in ("lt", "gt", "le", "ge"):
                _, ra, rb, else_pc = instr
                a, b = regs[ra], regs[rb]
                if type(a) is not int or type(b) is not int:
                    self.instructions = counted
                    raise Trap(TYPE_ERROR)
                taken = (
                    a < b if op == "lt" else a > b if op == "gt" else a <= b if op == "le" else a >= b
                )
                if not taken:
                    pc = else_pc
                    continue
            elif op in ("band", "bor", "bxor", "shl", "shr"):
                _, dst, ra, rb = instr
                a, b = regs[ra], regs[rb]
                if type(a) is not int or type(b) is not int:
                    self.instructions = counted
                    raise Trap(TYPE_ERROR)
                if op == "band":
                    regs[dst] = wrap_int(a & b)
                elif op == "bor":
                    regs[dst] = wrap_int(a | b)
                elif op == "bxor":
                    regs[dst] = wrap_int(a ^ b)
                elif op == "shl":
                    regs[dst] = wrap_int(a << (b % 64))
                else:
                    regs[dst] = wrap_int(a >> (b % 64))
            elif op == "bnot":
                a = regs[instr[2]]
                if type(a) is not int:
                    self.instructions = counted
                    raise Trap(TYPE_ERROR)
                regs[instr[1]] = wrap_int(~a)
            elif op == "c2i":
                a = regs[instr[2]]
                if not isinstance(a, Char):
                    self.instructions = counted
                    raise Trap(TYPE_ERROR)
                regs[instr[1]] = a.code & 0xFF
            elif op == "i2c":
                a = regs[instr[2]]
                if type(a) is not int:
                    self.instructions = counted
                    raise Trap(TYPE_ERROR)
                regs[instr[1]] = Char(chr(a & 0xFF))
            elif op == "arr":
                regs[instr[1]] = TmlArray([regs[i] for i in instr[2]])
            elif op == "vec":
                regs[instr[1]] = TmlVector([regs[i] for i in instr[2]])
            elif op == "anew":
                n, init = regs[instr[2]], regs[instr[3]]
                if type(n) is not int:
                    self.instructions = counted
                    raise Trap(TYPE_ERROR)
                if n < 0:
                    self.instructions = counted
                    raise Trap(BOUNDS_ERROR)
                regs[instr[1]] = TmlArray([init] * n)
            elif op == "bnew":
                n, init = regs[instr[2]], regs[instr[3]]
                if type(n) is not int or type(init) is not int:
                    self.instructions = counted
                    raise Trap(TYPE_ERROR)
                if n < 0:
                    self.instructions = counted
                    raise Trap(BOUNDS_ERROR)
                regs[instr[1]] = TmlByteArray(bytes([init & 0xFF]) * n)
            elif op == "aget":
                target, i = regs[instr[2]], regs[instr[3]]
                self.instructions = counted
                if isinstance(target, TmlArray):
                    slots = target.slots
                elif isinstance(target, TmlVector):
                    slots = target.slots
                else:
                    raise Trap(TYPE_ERROR)
                if type(i) is not int:
                    raise Trap(TYPE_ERROR)
                if not 0 <= i < len(slots):
                    raise Trap(BOUNDS_ERROR)
                regs[instr[1]] = slots[i]
            elif op == "aset":
                target, i, value = regs[instr[1]], regs[instr[2]], regs[instr[3]]
                self.instructions = counted
                if not isinstance(target, TmlArray):
                    raise Trap(TYPE_ERROR)
                if type(i) is not int:
                    raise Trap(TYPE_ERROR)
                if not 0 <= i < len(target.slots):
                    raise Trap(BOUNDS_ERROR)
                target.slots[i] = value
            elif op == "bget":
                target, i = regs[instr[2]], regs[instr[3]]
                self.instructions = counted
                if not isinstance(target, TmlByteArray):
                    raise Trap(TYPE_ERROR)
                if type(i) is not int:
                    raise Trap(TYPE_ERROR)
                if not 0 <= i < len(target.data):
                    raise Trap(BOUNDS_ERROR)
                regs[instr[1]] = target.data[i]
            elif op == "bset":
                target, i, value = regs[instr[1]], regs[instr[2]], regs[instr[3]]
                self.instructions = counted
                if not isinstance(target, TmlByteArray):
                    raise Trap(TYPE_ERROR)
                if type(i) is not int:
                    raise Trap(TYPE_ERROR)
                if not 0 <= i < len(target.data):
                    raise Trap(BOUNDS_ERROR)
                if type(value) is not int:
                    raise Trap(TYPE_ERROR)
                target.data[i] = value & 0xFF
            elif op == "asize":
                target = regs[instr[2]]
                self.instructions = counted
                if isinstance(target, (TmlArray, TmlVector, TmlByteArray)):
                    regs[instr[1]] = len(target)
                else:
                    raise Trap(TYPE_ERROR)
            elif op == "amove":
                self.instructions = counted
                block_move(*(regs[i] for i in instr[1:6]), False)
            elif op == "bmove":
                self.instructions = counted
                block_move(*(regs[i] for i in instr[1:6]), True)
            elif op == "case":
                _, rs, tag_regs, pcs, else_pc = instr
                scrutinee = regs[rs]
                target_pc = else_pc
                for tag_reg, branch_pc in zip(tag_regs, pcs):
                    if identical(scrutinee, regs[tag_reg]):
                        target_pc = branch_pc
                        break
                if target_pc is None:
                    self.instructions = counted
                    raise Trap("caseError")
                pc = target_pc
                continue
            elif op == "tailcall":
                self.instructions = counted
                return regs[instr[1]], [regs[i] for i in instr[2]]
            elif op == "pushh":
                self.handlers.append(regs[instr[1]])
            elif op == "poph":
                if not self.handlers:
                    self.instructions = counted
                    raise MachineError("popHandler on empty handler stack")
                self.handlers.pop()
            elif op == "raise":
                self.instructions = counted
                raise Trap(regs[instr[1]])
            elif op == "ccall":
                _, dst, rf, rv, epc, ed = instr
                fn_name = regs[rf]
                argvec = regs[rv]
                self.instructions = counted
                if isinstance(fn_name, Char):
                    fn_name = fn_name.value
                if not isinstance(fn_name, str) or not isinstance(
                    argvec, (TmlArray, TmlVector)
                ):
                    raise Trap(TYPE_ERROR)
                if profiler is not None:
                    profiler.primitives[f"ccall:{fn_name}"] += 1
                function = self.foreign.lookup(fn_name)
                try:
                    result = function(*argvec.slots)
                except Exception as error:
                    regs[ed] = f"foreignError: {error}"
                    pc = epc
                    continue
                regs[dst] = UNIT if result is None else result
            elif op == "extcall":
                _, name, dst, arg_regs, epc, ed = instr
                handler = EXT_OPS.get(name)
                self.instructions = counted
                if handler is None:
                    raise MachineError(f"no VM handler for extension primitive {name!r}")
                if profiler is not None:
                    profiler.primitives[f"extcall:{name}"] += 1
                try:
                    regs[dst] = handler(self, [regs[i] for i in arg_regs])
                except ExtRaise as ext:
                    counted = self.instructions  # nested calls were counted
                    if epc is None:
                        raise Trap(ext.value) from None
                    regs[ed] = ext.value
                    pc = epc
                    continue
                # an extension handler may re-enter the VM (e.g. a query
                # predicate); pick up the instructions it executed
                counted = self.instructions
            elif op == "print":
                self.output.append(show_value(regs[instr[1]]))
            elif op == "halt":
                self.instructions = counted
                raise Halted(regs[instr[1]])
            else:  # pragma: no cover - defensive
                raise MachineError(f"unknown opcode {op!r}")

            pc += 1
