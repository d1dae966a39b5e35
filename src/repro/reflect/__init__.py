"""Reflective runtime optimization across abstraction barriers (paper §4.1).

The public entry point is :func:`optimize_function`, mirroring the paper's

    let optimizedAbs = reflect.optimize(abs)

>>> from repro.lang import TycoonSystem
>>> from repro import reflect
>>> system = TycoonSystem()
>>> _ = system.compile('''
... module m export f
... let f(x: Int): Int = x * 2 + 1
... end''')
>>> fast = reflect.optimize_function(system, "m", "f")
>>> system.vm().call(fast, [20]).value
41
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    submod_attrs={
        ".decompile": ["decompile_code"],
        ".optimize": ["DYNAMIC_CONFIG", "ReflectResult", "config_fingerprint", "optimize_closure"],
        ".pgo": ["HotCandidate", "PgoReport", "optimize_hot", "rank_hot"],
        ".reach": ["Entity", "EntityGraph", "ReflectError", "collect_entities", "term_of_closure"],
    },
)
__all__ += ["optimize_function", "optimize_result"]


def optimize_function(system, module: str, function: str, config=None):
    """Reflectively optimize ``module.function`` in a running system image.

    Returns the new, faster closure (the paper's ``optimizedAbs``).  Use
    :func:`optimize_result` for the full diagnostics.
    """
    return optimize_result(system, module, function, config).closure


def optimize_result(system, module: str, function: str, config=None):
    """Like :func:`optimize_function` but returns the full
    :class:`~repro.reflect.optimize.ReflectResult`.  Embedded queries are
    optimized against ``system.heap``'s relations and indexes."""
    from repro.reflect.optimize import DYNAMIC_CONFIG, optimize_closure

    closure = system.closure(module, function)
    return optimize_closure(
        closure,
        heap=system.heap,
        registry=system.registry,
        config=config or DYNAMIC_CONFIG,
        name=f"{module}.{function}'",
    )
