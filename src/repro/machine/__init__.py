"""Execution substrates for TML.

Two consistent semantics:

* :mod:`repro.machine.cps_interp` — the direct CPS interpreter, the
  semantics oracle (call-by-value λ-calculus with store, section 2.1);
* :mod:`repro.machine.codegen` + :mod:`repro.machine.vm` — the Tycoon
  Abstract Machine back end: TML compiles to register bytecode with
  tail-call-only control flow, which the VM runs, through
  :mod:`repro.machine.tier`, as one Python function per code object.

Shared runtime values live in :mod:`repro.machine.runtime`.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    submod_attrs={
        ".codegen": ["CodegenError", "compile_function"],
        ".cps_interp": ["Interpreter", "RunResult"],
        ".isa": ["CodeObject", "VMClosure", "code_size"],
        ".runtime": [
            "Closure", "Env", "ForeignTable", "Halted", "MachineError", "TmlArray",
            "TmlByteArray", "TmlVector", "Trap", "UncaughtTmlException", "show_value",
        ],
        ".vm": ["VM", "VMResult", "instantiate"],
    },
)
