"""Execution substrates for TML.

Two consistent semantics:

* :mod:`repro.machine.cps_interp` — the direct CPS interpreter, the
  semantics oracle (call-by-value λ-calculus with store, section 2.1);
* :mod:`repro.machine.codegen` + :mod:`repro.machine.vm` — the Tycoon
  Abstract Machine back end: TML compiles to register bytecode with
  tail-call-only control flow, which the VM interprets or, through
  :mod:`repro.machine.tier`, runs as one Python function per code object.

Shared runtime values live in :mod:`repro.machine.runtime`.
"""

from repro.machine.codegen import CodegenError, compile_function
from repro.machine.cps_interp import Interpreter, RunResult
from repro.machine.isa import CodeObject, VMClosure, code_size
from repro.machine.runtime import (
    Closure,
    Env,
    ForeignTable,
    Halted,
    MachineError,
    TmlArray,
    TmlByteArray,
    TmlVector,
    Trap,
    UncaughtTmlException,
    show_value,
)
from repro.machine.vm import VM, VMResult, instantiate

__all__ = [
    "CodegenError",
    "compile_function",
    "Interpreter",
    "RunResult",
    "CodeObject",
    "VMClosure",
    "code_size",
    "Closure",
    "Env",
    "ForeignTable",
    "Halted",
    "MachineError",
    "TmlArray",
    "TmlByteArray",
    "TmlVector",
    "Trap",
    "UncaughtTmlException",
    "show_value",
    "VM",
    "VMResult",
    "instantiate",
]
