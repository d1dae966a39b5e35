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
* :mod:`repro.analysis.verify_tam` — the TAM bytecode verifier, the gate
  code passes wherever it enters (compile, load, reflect, the tier);
* :mod:`repro.analysis.checked` — invariant re-verification after every
  optimizer pass (``optimize(..., check=True)``);
* :mod:`repro.analysis.lint` — the aggregate entry point behind
  ``python -m repro lint``;
* :mod:`repro.analysis.absint` — fixpoint abstract interpretation over TAM
  code families (value kinds, effects, handler depth, escapes);
* :mod:`repro.analysis.callgraph` — the image-wide call graph over frozen
  inter-module bindings;
* :mod:`repro.analysis.facts` — the audit's summary cache, one persisted
  record per PTML hash under heap root ``analysis:facts``;
* :mod:`repro.analysis.audit` — the whole-image audit behind
  ``python -m repro audit``.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    submod_attrs={
        ".absint": [
            "AbsVal", "FunctionAnalysis", "Kind", "Summary", "analyze_code",
            "kind_of_value", "summarize_graph",
        ],
        ".audit": ["AuditReport", "audit_heap", "audit_image"],
        ".callgraph": ["FunctionNode", "ImageGraph"],
        ".diagnostics": [
            "AnalysisError", "DIAGNOSTIC_CODES", "Diagnostic", "Severity",
            "format_diagnostics", "format_path", "has_errors", "severity_counts",
        ],
        ".effects": ["effect_join", "effect_le", "infer_effect"],
        ".facts": ["FACTS_ROOT", "FactRecord", "FactStore"],
        ".lint": ["lint_code", "lint_function", "lint_registry", "lint_term"],
        ".verify_tam": ["TamVerificationError", "assert_verified", "verify_code"],
    },
)
