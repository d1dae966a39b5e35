"""TL: the Tycoon-style source language front end.

Lexer → parser → checker → CPS conversion to TML → static optimizer →
TAM code generation, plus first-class modules with link-time binding and a
dynamically bound standard library (the abstraction barriers of sections
4.1 and 6).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    submod_attrs={
        ".check": ["CheckedModule", "check_module"],
        ".errors": ["TLCheckError", "TLError", "TLSyntaxError"],
        ".modules": [
            "CompileOptions", "CompiledFunction", "CompiledModule", "ModuleValue",
            "compile_module", "compile_stdlib", "link_module", "link_stdlib",
            "load_module", "store_module",
        ],
        ".parser": ["parse_expression", "parse_module", "parse_modules"],
        ".system": ["TycoonSystem"],
    },
)
