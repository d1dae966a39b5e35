"""Analysis and rewriting of TML intermediate representations (paper §3).

The reduction pass applies the eight core rewrite rules to a fixpoint; the
expansion pass performs cost-model-guided procedure inlining and, given a
heap, runs the primitives' ``expand`` hooks (the query rules); the pipeline
alternates the two under an accumulated-penalty bound.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    submod_attrs={
        ".expansion": ["ExpansionConfig", "expand_pass"],
        ".pipeline": ["OptimizeResult", "OptimizerConfig", "optimize", "reduce_only"],
        ".reduction": ["reduce_to_fixpoint"],
        ".rules": ["ALL_RULES", "RuleConfig"],
        ".stats": ["QueryRewriteStats", "RewriteStats"],
    },
)
