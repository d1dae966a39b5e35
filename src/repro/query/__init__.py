"""Integrated query processing on TML (paper section 4.2).

Relations and indexes in the persistent store, relational-algebra extension
primitives, embedded ``select``/``exists`` in TL, algebraic rewrite rules in
CPS notation (the relational primitives' expansion hooks), and the
integrated program/query optimizer of Fig. 4.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    submod_attrs={
        ".algebra": ["QUERY_PRIMITIVES", "query_registry", "register_query_primitives"],
        ".index": ["HashIndex", "OrderedIndex"],
        ".optimizer": ["IntegratedResult", "QueryRewriteStats", "integrated_optimize"],
        ".relation": ["QueryError", "Relation"],
        ".rules": ["QueryRewriter", "is_effect_safe"],
    },
)
__all__ += ["optimize_query_function"]


def optimize_query_function(system, module: str, function: str, config=None):
    """Reflectively optimize a TL function *including* its embedded queries.

    The runtime counterpart of Fig. 4: the reflective optimizer collects the
    contributing declarations, and the integrated program/query optimizer
    rewrites the combined scope with access to the running store's bindings
    (e.g. indexes).  Returns a :class:`repro.reflect.ReflectResult`.
    """
    # integrated_optimize is read through this package, where it is a lazy
    # public binding; a rebinding of it there is honoured
    from repro.query import integrated_optimize
    from repro.reflect.optimize import optimize_closure

    closure = system.closure(module, function)

    def pipeline(term, registry, cfg):
        return integrated_optimize(term, registry, heap=system.heap, config=cfg)

    return optimize_closure(
        closure,
        heap=system.heap,
        registry=system.registry,
        config=config,
        name=f"{module}.{function}'",
        pipeline=pipeline,
    )
