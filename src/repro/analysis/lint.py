"""Front door of the analysis suite: lint a term and/or its compiled code.

Used by ``python -m repro lint`` and by the golden differential test; the
individual analyses stay importable on their own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis import effects, linearity, usage
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.verify_tam import verify_code
from repro.core.syntax import Term
from repro.machine.isa import CodeObject

if TYPE_CHECKING:  # pragma: no cover
    from repro.primitives.registry import PrimitiveRegistry

__all__ = ["lint_term", "lint_code", "lint_function"]


def lint_term(
    term: Term,
    registry: "PrimitiveRegistry | None" = None,
    include_usage: bool = True,
) -> list[Diagnostic]:
    """All term-level diagnostics: constraints 1-5 plus usage findings."""
    found = linearity.analyze(term, registry)
    if include_usage:
        found.extend(usage.analyze(term))
    return found


def lint_code(
    code: CodeObject,
    name: str | None = None,
    registry: "PrimitiveRegistry | None" = None,
) -> list[Diagnostic]:
    """All bytecode-level diagnostics for a code object tree.

    Structural verification first; when it finds no errors, the abstract
    interpreter (:mod:`repro.analysis.absint`) runs over the family with
    worst-case free-variable bindings and contributes the TAM1xx findings
    (guaranteed-trap sites, arity mismatches) and handler depth (TAM020).
    Interprocedural precision — resolved callees, effect conformance,
    reachability — needs the whole image and lives in ``python -m repro
    audit``.
    """
    found = verify_code(code, name=name)
    if not found:
        from repro.analysis.absint import analyze_code

        found = analyze_code(code, name=name or code.name, registry=registry).diagnostics
    return found


def lint_function(
    term: Term | None,
    code: CodeObject | None,
    registry: "PrimitiveRegistry | None" = None,
    include_usage: bool = True,
) -> list[Diagnostic]:
    """Lint a compiled function: its TML term and its TAM code together."""
    found: list[Diagnostic] = []
    if term is not None:
        found.extend(lint_term(term, registry, include_usage=include_usage))
    if code is not None:
        found.extend(lint_code(code))
    return found


def lint_registry(registry: "PrimitiveRegistry") -> list[Diagnostic]:
    """Registry attribute lint (fold/commutativity preconditions)."""
    return effects.lint_registry(registry)
