"""Static verification layer for TML terms and TAM bytecode.

The paper states its invariants (section 2.2 constraints 1-5, section 2.3
effect classes, section 3 strict size decrease) but never enforces them
mechanically; this package does:

* :mod:`repro.analysis.diagnostics` — the shared :class:`Diagnostic` record,
  severities, stable ``TML``/``TAM`` codes;
* :mod:`repro.analysis.dataflow` — the path-carrying traversal of TML trees
  the analyses share;
* :mod:`repro.analysis.linearity` — continuation-linearity and arity
  analysis (constraints 1-5), the engine behind
  :mod:`repro.core.wellformed`;
* :mod:`repro.analysis.effects` — Gifford/Lucassen effect inference and
  registry attribute lint;
* :mod:`repro.analysis.usage` — dead bindings and unused parameters, feeding
  the expansion pass's savings estimate;
* :mod:`repro.analysis.verify_tam` — the TAM bytecode verifier run by the
  linker before code is persisted or executed;
* :mod:`repro.analysis.checked` — invariant re-verification after every
  optimizer pass (``optimize(..., check=True)``);
* :mod:`repro.analysis.lint` — the aggregate entry point behind
  ``python -m repro lint``;
* :mod:`repro.analysis.absint` — fixpoint abstract interpretation over TAM
  code families (value kinds, effects, handler depth, escapes);
* :mod:`repro.analysis.callgraph` — the image-wide call graph over frozen
  inter-module bindings;
* :mod:`repro.analysis.facts` — the persisted analysis-fact cache under
  heap root ``analysis:facts``;
* :mod:`repro.analysis.audit` — the whole-image audit behind
  ``python -m repro audit``.
"""

from repro.analysis.absint import (
    AbsVal,
    FunctionAnalysis,
    Kind,
    Summary,
    analyze_code,
    handler_diagnostics,
    kind_of_value,
    summarize_graph,
)
from repro.analysis.audit import AuditReport, audit_heap, audit_image
from repro.analysis.callgraph import FunctionNode, ImageGraph
from repro.analysis.facts import FACTS_ROOT, FactRecord, FactStore

from repro.analysis.diagnostics import (
    AnalysisError,
    Diagnostic,
    DIAGNOSTIC_CODES,
    Severity,
    format_diagnostics,
    format_path,
    has_errors,
    severity_counts,
)
from repro.analysis.effects import effect_join, effect_le, infer_effect
from repro.analysis.lint import lint_code, lint_function, lint_registry, lint_term
from repro.analysis.verify_tam import (
    TamVerificationError,
    assert_verified,
    verify_code,
)

__all__ = [
    "AnalysisError",
    "Diagnostic",
    "DIAGNOSTIC_CODES",
    "Severity",
    "TamVerificationError",
    "assert_verified",
    "effect_join",
    "effect_le",
    "format_diagnostics",
    "format_path",
    "has_errors",
    "infer_effect",
    "lint_code",
    "lint_function",
    "lint_registry",
    "lint_term",
    "severity_counts",
    "verify_code",
    # image-wide analysis (absint / callgraph / facts / audit)
    "AbsVal",
    "AuditReport",
    "FACTS_ROOT",
    "FactRecord",
    "FactStore",
    "FunctionAnalysis",
    "FunctionNode",
    "ImageGraph",
    "Kind",
    "Summary",
    "analyze_code",
    "audit_heap",
    "audit_image",
    "handler_diagnostics",
    "kind_of_value",
    "summarize_graph",
]
