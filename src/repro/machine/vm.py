"""The Tycoon Abstract Machine: executes TAM code objects.

A register machine with CPS control: no call stack, every transfer is a
``tailcall`` that replaces the current register file.  Runtime state is
(code, pc, registers) plus the dynamic handler stack, the output channel and
the foreign-function table.

The VM agrees observably with the reference interpreter
(:mod:`repro.machine.cps_interp`); differential tests enforce this.  It also
counts executed instructions, the concrete realization of the paper's
"idealized abstract machine" cost measure.

One activation of a code object runs either in :meth:`VM._execute`, the
bytecode interpreter loop, or as the Python function
:mod:`repro.machine.tier` compiled the code object to; :meth:`VM._loop`
chooses from what it can observe (profiler, step limit, the code's shape),
and the two agree on every value, trap and count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.syntax import Char, Oid, UNIT
from repro.machine.isa import CodeObject, VMClosure
from repro.machine.runtime import (
    ARITY_ERROR,
    BOUNDS_ERROR,
    EXT_OPS,
    ExtRaise,
    ForeignTable,
    Halted,
    MachineError,
    TYPE_ERROR,
    TmlArray,
    TmlByteArray,
    TmlVector,
    Trap,
    UncaughtTmlException,
    block_move,
    identical,
    show_value,
)
from repro.machine.tier import compile_code
from repro.obs.metrics import METRICS
from repro.primitives.arith import OVERFLOW, ZERO_DIVIDE, int_div, int_rem
from repro.primitives._util import INT_MAX, INT_MIN, wrap_int

_VM_RUNS = METRICS.counter("vm.runs", "completed top-level VM runs")
_VM_INSTRUCTIONS = METRICS.counter(
    "vm.instructions", "TAM instructions executed by completed top-level runs"
)

__all__ = ["VM", "VMResult", "instantiate", "StepLimitExceeded", "EXT_OPS"]


class StepLimitExceeded(Exception):
    """The configured instruction budget ran out.

    Carries the truncated run as structured state so profilers and tests can
    inspect how far execution got:

    * ``limit`` — the configured budget;
    * ``instructions`` — instructions executed by the *run* that hit the
      limit (filled in by :meth:`VM._run`);
    * ``partial`` — a :class:`VMResult` with ``value=None`` holding the
      instruction count and the output emitted before truncation.
    """

    def __init__(
        self,
        message: str,
        *,
        limit: int | None = None,
        instructions: int | None = None,
        partial: "VMResult | None" = None,
    ):
        super().__init__(message)
        self.limit = limit
        self.instructions = instructions
        self.partial = partial


class _TopCont:
    """Sentinel closures terminating a VM run."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        self.kind = kind


_TOP_EXCEPTION, _TOP_NORMAL = _TopCont("exception"), _TopCont("normal")


@dataclass(slots=True)
class VMResult:
    """Observable outcome of a VM execution."""

    value: Any
    instructions: int
    output: list[str] = field(default_factory=list)


def instantiate(code: CodeObject, bindings: dict | None = None) -> VMClosure:
    """Create a closure of a top-level code object.

    ``bindings`` maps the code's free :class:`~repro.core.names.Name`s to
    runtime values (the linker supplies module/store bindings this way).
    """
    bindings = bindings or {}
    free = []
    for name in code.free_names:
        if name not in bindings:
            raise MachineError(f"no binding supplied for free variable {name}")
        free.append(bindings[name])
    return VMClosure(code, free)


class VM:
    """One virtual machine instance (handler stack, output, store, foreign)."""

    def __init__(
        self,
        store=None,
        foreign: ForeignTable | None = None,
        step_limit: int | None = None,
        profiler=None,
    ):
        self.store = store
        self.foreign = foreign or ForeignTable()
        self.step_limit = step_limit
        self.handlers: list[Any] = []
        self.output: list[str] = []
        self.instructions = 0
        #: optional :class:`repro.obs.profile.VMProfiler`; when attached the
        #: main loop additionally counts per-opcode / per-closure totals
        self.profiler = profiler
        #: runs in progress: > 1 while an extcall handler has re-entered
        self._depth = 0

    # ------------------------------------------------------------------ API

    def call(self, closure: VMClosure, args: list[Any]) -> VMResult:
        """Call a procedure closure with top-level ce/cc continuations."""
        start_instr, start_output = self.instructions, len(self.output)
        value = self.apply(closure, args)
        return VMResult(value, self.instructions - start_instr, self.output[start_output:])

    def apply(self, closure: VMClosure, args: list[Any]) -> Any:
        """:meth:`call`, returning the bare value: the re-entry a bulk
        primitive makes once per row, which has no use for a result record."""
        if closure.arity != len(args) + 2:
            raise MachineError(
                f"procedure {closure.code.name} expects {closure.arity} args "
                f"(incl. continuations), got {len(args) + 2}"
            )
        start_instr, start_output = self.instructions, len(self.output)
        self._depth += 1
        try:
            value = self._loop(closure, [*args, _TOP_EXCEPTION, _TOP_NORMAL])
        except StepLimitExceeded as exc:
            # enrich with the truncated run's observable state (satellite of
            # the obs layer: profilers/tests inspect how far execution got)
            exc.instructions = self.instructions - start_instr
            exc.partial = VMResult(
                value=None,
                instructions=exc.instructions,
                output=self.output[start_output:],
            )
            raise
        finally:
            self._depth -= 1
        if not self._depth:
            # a run entered from an extcall handler is part of the run around it
            _VM_RUNS.inc()
            _VM_INSTRUCTIONS.inc(self.instructions - start_instr)
        return value

    # ------------------------------------------------------------ main loop

    def _loop(self, target: Any, values: list[Any]) -> Any:
        """The trampoline: enter closure after closure until a top
        continuation receives the run's value.

        An activation runs compiled (:mod:`repro.machine.tier`, compiled at a
        code object's first activation) unless something observable says it
        cannot: a profiler is attached to this run, the step limit could run
        out inside it, or the code was declined.  Then :meth:`_execute` runs
        it, so profiles and ``StepLimitExceeded`` come from one place."""
        limit = self.step_limit
        profiled = self.profiler is not None
        while True:
            try:
                while True:
                    if type(target) is VMClosure:
                        code = target.code
                        if len(code.params) != len(values):
                            raise Trap(ARITY_ERROR)
                        if profiled:
                            target, values = self._execute(target, values)
                            continue
                        run = code.tier
                        if run is None:
                            run = compile_code(code)
                        if run is False or (
                            limit is not None and self.instructions + code.tier_max_path > limit
                        ):
                            target, values = self._execute(target, values)
                        else:
                            target, values = run(self, target.free, values)
                    elif target is _TOP_NORMAL:
                        return values[0]
                    elif target is _TOP_EXCEPTION:
                        raise UncaughtTmlException(values[0])
                    else:
                        raise Trap(TYPE_ERROR)
            except Trap as trap:
                if not self.handlers:
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
        if profiler is not None:
            profile_ops = profiler.opcodes
            closure_stats = profiler.enter(code.name)

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
                profile_ops[op] += 1
                closure_stats.instructions += 1

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
