"""The Tycoon Abstract Machine: executes TAM code objects.

A register machine with CPS control: no call stack, every transfer is a
``tailcall`` that replaces the current register file.  Runtime state is
(code, pc, registers) plus the dynamic handler stack, the output channel and
the foreign-function table.

The VM agrees observably with the reference interpreter
(:mod:`repro.machine.cps_interp`); differential tests enforce this.  It also
counts executed instructions, the concrete realization of the paper's
"idealized abstract machine" cost measure.

Every activation of a code object runs as the Python function
:mod:`repro.machine.tier` compiled the code object to: its plain text, or
its counted one when a :class:`~repro.obs.profile.VMProfiler` wants opcode
counts or the step limit could run out inside the activation.
:meth:`VM._loop` is the trampoline between activations and chooses the text
from what it can observe; the two agree on every value, trap and count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.machine.isa import CodeObject, VMClosure
from repro.machine.runtime import (
    ARITY_ERROR,
    EXT_OPS,
    TYPE_ERROR,
    ForeignTable,
    Halted,
    MachineError,
    StepLimitExceeded,
    Trap,
    UncaughtTmlException,
)
from repro.machine.tier import compile_code, counters
from repro.obs.metrics import METRICS

_VM_RUNS = METRICS.counter("vm.runs", "completed top-level VM runs")
_VM_INSTRUCTIONS = METRICS.counter(
    "vm.instructions", "TAM instructions executed by completed top-level runs"
)

__all__ = ["VM", "VMResult", "instantiate", "StepLimitExceeded", "EXT_OPS"]


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
        #: optional :class:`repro.obs.profile.ClosureProfile` (per-closure
        #: totals, credited per activation) or
        #: :class:`~repro.obs.profile.VMProfiler` (plus per-opcode totals)
        self.profiler = profiler
        #: runs in progress: > 1 while an extcall handler has re-entered
        self._depth = 0
        #: instructions credited to profiled activations so far
        self._credited = 0

    # ------------------------------------------------------------------ API

    def call(self, closure: VMClosure, args: list[Any]) -> VMResult:
        """Call a procedure closure with top-level ce/cc continuations."""
        start_instr, start_output = self.instructions, len(self.output)
        value = self.apply(closure, args)
        return VMResult(value, self.instructions - start_instr, self.output[start_output:])

    def apply(self, closure: VMClosure, args: list[Any]) -> Any:
        """:meth:`call`, returning the bare value: the re-entry a bulk
        primitive makes once per row, which has no use for a result record."""
        if len(closure.code.params) != len(args) + 2:  # ``arity``, without a call per row
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

        Each activation runs in :mod:`repro.machine.tier`: the code object's
        plain text (compiled at its first activation), or its counted text
        (compiled the first time one needs it, and given the run's
        :func:`~repro.machine.tier.counters`) when something observable asks
        for per-instruction accounting — the attached profile counts opcodes
        (a :class:`~repro.obs.profile.VMProfiler`), or the step limit could
        run out inside the activation.

        Under any profile, each activation is credited here: one invocation,
        and the instructions it ran itself — its span of
        ``self.instructions`` less what the activations of nested runs were
        credited — however it ends (tail call, trap, halt, step limit).

        A run sees only the handlers it pushed: a trap with none above the
        depth the stack had when the run began ends the run as an
        :class:`UncaughtTmlException` — which, for a run an ``extcall``
        handler started (a query predicate), the primitive hands to its own
        exception continuation."""
        limit = self.step_limit
        profile = self.profiler
        floor = len(self.handlers)
        counted = None  # the counted text's counters, made when first needed
        while True:
            try:
                while True:
                    if type(target) is VMClosure:
                        code = target.code
                        if len(code.params) != len(values):
                            raise Trap(ARITY_ERROR)
                        if profile is not None:
                            # the choice made below, with the credit around
                            # it: kept apart so that unprofiled runs, which
                            # ``VM.apply`` starts once per query row, do no
                            # accounting at all
                            stats = profile.enter(code.name)
                            uncredited = self.instructions - self._credited
                            try:
                                run = code.tier or compile_code(code)
                                if profile.per_instruction or (
                                    limit is not None
                                    and self.instructions + run.max_path > limit
                                ):
                                    counted = counted or counters(self)
                                    run = code.tier_counted or compile_code(code, counted=True)
                                    target, values = run(self, target.free, values, counted)
                                else:
                                    target, values = run(self, target.free, values)
                            finally:
                                own = self.instructions - self._credited - uncredited
                                self._credited += own
                                stats.instructions += own
                            continue
                        # compiled with this activation's bindings: it calls
                        # the leaf closures among them inline
                        run = code.tier or compile_code(code, free=target.free)
                        if limit is not None and self.instructions + run.max_path > limit:
                            counted = counted or counters(self)
                            run = code.tier_counted or compile_code(code, counted=True)
                            target, values = run(self, target.free, values, counted)
                        else:
                            target, values = run(self, target.free, values)
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
