"""Diagnostics shared by every static analysis in :mod:`repro.analysis`.

A :class:`Diagnostic` is one finding: a stable code (``TML...`` for term-level
analyses, ``TAM...`` for the bytecode verifier), a severity, a human message,
the *path* from the analyzed root to the offending node, and — where we can
offer one — a fix hint.  Paths follow attribute access on the syntax tree
(``body.args[2].fn``), so a diagnostic can be replayed against a pretty-printed
term by hand.

The analyses return plain ``list[Diagnostic]``; callers that want exceptions
use :func:`raise_on_error` (the checked pipeline, the module compiler) while
callers that want reports keep the list (the ``repro lint`` CLI, the golden
regression test).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

__all__ = [
    "Severity",
    "Diagnostic",
    "AnalysisError",
    "format_path",
    "format_diagnostics",
    "has_errors",
    "error_count",
    "severity_counts",
    "raise_on_error",
    "DIAGNOSTIC_CODES",
]


class Severity(enum.IntEnum):
    """Severity levels, ordered so ``max()`` picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


#: Path step: an attribute name ("body", "fn") or an ("args", index) pair.
PathStep = Any


def format_path(steps: Sequence[PathStep]) -> str:
    """Render a path tuple as ``body.args[2].fn`` (empty path: ``<root>``)."""
    if not steps:
        return "<root>"
    parts: list[str] = []
    for step in steps:
        if isinstance(step, tuple):
            attr, index = step
            parts.append(f"{attr}[{index}]")
        else:
            parts.append(str(step))
    return ".".join(parts)


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One analysis finding, precise enough to act on."""

    code: str
    severity: Severity
    message: str
    #: dotted path from the analysis root to the offending node
    path: str = "<root>"
    #: the offending node (a Term, Name, CodeObject, instruction pc, ...)
    subject: Any = None
    #: how to fix it, when the analysis knows
    hint: str = ""
    #: extra structured context (rule name, primitive name, pc, ...)
    data: dict = field(default_factory=dict, compare=False)

    def __str__(self) -> str:
        text = f"{self.severity}[{self.code}] {self.path}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR


class AnalysisError(ValueError):
    """Raised when an analysis run is asked to treat errors as fatal."""

    def __init__(self, diagnostics: list[Diagnostic], context: str = ""):
        self.diagnostics = diagnostics
        lines = "\n  ".join(str(d) for d in diagnostics)
        prefix = f"{context}: " if context else ""
        super().__init__(f"{prefix}analysis found errors:\n  {lines}")


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.is_error for d in diagnostics)


def error_count(diagnostics: Iterable[Diagnostic]) -> int:
    return sum(1 for d in diagnostics if d.is_error)


def severity_counts(diagnostics: Iterable[Diagnostic]) -> dict[str, int]:
    """Counts keyed by severity name — the shape of the golden file."""
    counts = {"error": 0, "warning": 0, "info": 0}
    for d in diagnostics:
        counts[str(d.severity)] += 1
    return counts


def raise_on_error(diagnostics: list[Diagnostic], context: str = "") -> list[Diagnostic]:
    """Raise :class:`AnalysisError` when any diagnostic is an error."""
    errors = [d for d in diagnostics if d.is_error]
    if errors:
        raise AnalysisError(errors, context)
    return diagnostics


def format_diagnostics(diagnostics: Iterable[Diagnostic], label: str = "") -> str:
    """Multi-line report, worst findings first."""
    ordered = sorted(diagnostics, key=lambda d: (-int(d.severity), d.code, d.path))
    prefix = f"{label}: " if label else ""
    return "\n".join(f"{prefix}{d}" for d in ordered)


#: Registry of every diagnostic code, for docs and the CLI.  Codes are stable:
#: tests and golden files reference them.
DIAGNOSTIC_CODES: dict[str, str] = {
    # --- TML structural constraints (paper section 2.2, constraints 1-5) ---
    "TML001": "duplicate binding: identifier bound more than once (constraint 4)",
    "TML002": "direct application arity mismatch (constraint 1)",
    "TML003": "continuation escapes into a value position (constraint 3)",
    "TML004": "value/literal argument follows a continuation argument (constraint 1)",
    "TML005": "unknown primitive (constraint 2)",
    "TML006": "primitive called against its signature (constraint 2)",
    "TML007": "procedure abstraction with wrong continuation-parameter count (constraint 5)",
    "TML008": "continuation parameters are not a parameter-list suffix (constraint 5)",
    "TML009": "Y fixpoint function does not have shape λ(c0 v1..vn c) (constraint 5)",
    "TML010": "foreign object in the syntax tree",
    # --- usage analyses (feed the optimizer; warnings) ---
    "TML020": "unused parameter",
    "TML021": "dead binding: directly-applied abstraction ignores its argument",
    "TML022": "normal continuation never invoked",
    # --- effect analyses ---
    "TML030": "fold function registered on a non-discardable primitive",
    "TML031": "commutativity declared on a primitive whose effects forbid reordering",
    # --- checked-pipeline findings ---
    "TML040": "rewrite pass broke well-formedness",
    "TML041": "reduction pass did not strictly decrease term size",
    "TML042": "rewrite pass increased the inferred effect class",
    "TML043": "fold discarded a non-discardable primitive application",
    "TML044": "fold result did not strictly decrease term size",
    # --- TAM bytecode verifier ---
    "TAM001": "unknown opcode",
    "TAM002": "wrong operand count for opcode",
    "TAM003": "operand has the wrong kind",
    "TAM004": "register index out of range",
    "TAM005": "constant-pool index out of range",
    "TAM006": "nested-code index out of range",
    "TAM007": "jump target out of range",
    "TAM008": "closure capture plan does not match the child code's free slots",
    "TAM009": "control can fall off the end of the instruction stream",
    "TAM010": "register read before any definition reaches it",
    "TAM011": "code object metadata inconsistent (params vs nregs)",
    "TAM012": "control flow is not a tree: a backward jump, or a pc entered by "
    "more than one edge",
    "TAM020": "popHandler provably executable at handler depth <= 0: it pops "
    "a handler installed by a caller",
    # --- abstract interpretation (repro.analysis.absint) ---
    "TAM101": "instruction applied to a value of a provably wrong kind: "
    "guaranteed trap if it executes",
    "TAM102": "call to a resolved function with the wrong argument count: "
    "guaranteed arityError",
    # --- whole-image audit (repro.analysis.audit) ---
    "TAM105": "generated code's effect class exceeds what its persistent TML "
    "admits: code generation does not implement its source",
    "TAM110": "stored function unreachable from every module's export surface",
    "TAM111": "frozen external reference into a stored module that does not "
    "define the member: linking fails",
    "TAM112": "stale analysis fact dropped: a dependency's PTML hash moved",
    "TAM113": "stored module does not load: its PTML is refused or its code "
    "cannot be regenerated",
}
