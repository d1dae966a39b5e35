"""Core TML intermediate representation (paper section 2).

Abstract syntax, unique-binding names, occurrence counting, capture-free
substitution, free-variable/binding analysis, well-formedness checking, and
concrete syntax (parser + pretty-printer).
"""

from repro._lazy import attach

# no ``pretty``: importing the submodule ``repro.core.pretty`` binds that
# name to the module, so the function is exported as ``repro.pretty`` only
__getattr__, __dir__, __all__ = attach(
    __name__,
    submod_attrs={
        ".builder": ["TmlBuilder"],
        ".names": ["CONT_SORT", "VAL_SORT", "Name", "NameSupply"],
        ".parser": ["ParseError", "parse_term"],
        ".pretty": ["PrettyOptions", "pretty_compact"],
        ".syntax": [
            "Abs", "App", "Application", "Char", "Lit", "Oid", "PrimApp", "Term",
            "UNIT", "Unit", "Value", "Var", "is_application", "is_value",
            "iter_abstractions", "iter_applications", "iter_subterms", "max_uid",
            "term_size",
        ],
        ".wellformed": ["WellFormednessError", "check", "is_well_formed", "violations"],
    },
)
