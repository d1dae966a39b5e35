"""TML — a persistent CPS intermediate code representation for open database
environments.

A from-scratch reproduction of Gawecki & Matthes, *"Exploiting Persistent
Intermediate Code Representations in Open Database Environments"* (EDBT
1996): the Tycoon Machine Language, its rewrite rules and two-pass
optimizer, a TL-style front end with dynamically bound libraries, a
persistent object store with compact PTML code blobs, reflective runtime
optimization across abstraction barriers, and integrated program/query
optimization.

Quickstart::

    from repro import TycoonSystem, reflect

    system = TycoonSystem()
    system.compile('''
    module demo export twice
    let twice(x: Int): Int = x + x
    end''')
    print(system.call("demo", "twice", [21]).value)          # 42
    fast = reflect.optimize_function(system, "demo", "twice")
    print(system.vm().call(fast, [21]).value)                 # 42, fewer instructions
"""

from repro._lazy import attach

__version__ = "1.0.0"

# every name resolves on first use, straight from the module defining it
__getattr__, __dir__, __all__ = attach(
    __name__,
    submodules=["reflect"],
    submod_attrs={
        ".core.builder": ["TmlBuilder"],
        ".core.names": ["Name", "NameSupply"],
        ".core.parser": ["parse_term"],
        ".core.pretty": ["pretty"],
        ".core.syntax": ["Abs", "App", "Lit", "Oid", "PrimApp", "Var", "term_size"],
        ".core.wellformed": ["check"],
        ".lang.modules": ["CompileOptions", "compile_module"],
        ".lang.system": ["TycoonSystem"],
        ".machine.codegen": ["compile_function"],
        ".machine.cps_interp": ["Interpreter"],
        ".machine.vm": ["VM"],
        ".primitives.registry": ["default_registry"],
        ".query.algebra": ["query_registry"],
        ".query.optimizer": ["integrated_optimize"],
        ".query.relation": ["Relation"],
        ".rewrite.pipeline": ["OptimizerConfig", "optimize", "reduce_only"],
        ".rewrite.rules": ["RuleConfig"],
        ".store.heap": ["ObjectHeap"],
        ".store.ptml": ["decode_ptml", "encode_ptml"],
    },
)
__all__ += ["__version__"]
