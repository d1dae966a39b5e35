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
        ".optimizer": ["integrated_optimize"],
        ".relation": ["QueryError", "Relation"],
        ".rules": ["QueryRewriter", "is_effect_safe"],
    },
)
__all__ += ["optimize_query_function"]


def optimize_query_function(system, module: str, function: str, config=None):
    """Alias of :func:`repro.reflect.optimize_result`, which optimizes
    embedded queries against the running store's indexes itself."""
    from repro.reflect import optimize_result

    return optimize_result(system, module, function, config)
