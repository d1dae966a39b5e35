"""Checked types and module interfaces for TL.

The TL front end performs the role the paper assigns it: it guarantees that
generated TML satisfies the well-formedness constraints (binding, arity,
calling conventions).  Types here are *shape* information — their load-
bearing job is resolving record field accesses to positional indices (the
``complex.x`` pattern of section 4.1) and checking call arities; everything
else degrades gracefully to ``TUnknown``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.lang.errors import TLCheckError

if TYPE_CHECKING:
    from repro.lang import ast

__all__ = [
    "Type",
    "TInt",
    "TBool",
    "TChar",
    "TStr",
    "TUnit",
    "TUnknown",
    "TArray",
    "TRecord",
    "TFun",
    "INT",
    "BOOL",
    "CHAR",
    "STRING",
    "UNIT",
    "UNKNOWN",
    "FunSig",
    "ModuleInterface",
    "ExternalRef",
    "resolve_type",
    "type_term",
    "term_type",
]


class Type:
    """Base of checked types."""

    def describe(self) -> str:
        return type(self).__name__[1:]


class TInt(Type):
    pass


class TBool(Type):
    pass


class TChar(Type):
    pass


class TStr(Type):
    pass


class TUnit(Type):
    pass


class TUnknown(Type):
    """No information; compatible with everything."""


@dataclass(frozen=True)
class TArray(Type):
    element: Type

    def describe(self) -> str:
        return f"Array({self.element.describe()})"


@dataclass(frozen=True)
class TRecord(Type):
    """A structural record: ordered (field, type) pairs."""

    fields: tuple[tuple[str, Type], ...]

    def index_of(self, name: str) -> int | None:
        for index, (field_name, _) in enumerate(self.fields):
            if field_name == name:
                return index
        return None

    def field_type(self, name: str) -> Type:
        for field_name, field_ty in self.fields:
            if field_name == name:
                return field_ty
        return UNKNOWN

    def describe(self) -> str:
        inner = ", ".join(name for name, _ in self.fields)
        return f"tuple {inner} end"


@dataclass(frozen=True)
class TFun(Type):
    """A function: parameter types and result (arity is load-bearing)."""

    params: tuple[Type, ...]
    result: Type

    @property
    def arity(self) -> int:
        return len(self.params)

    def describe(self) -> str:
        inner = ", ".join(p.describe() for p in self.params)
        return f"Fun({inner}) -> {self.result.describe()}"


INT = TInt()
BOOL = TBool()
CHAR = TChar()
STRING = TStr()
UNIT = TUnit()
UNKNOWN = TUnknown()

_BASE_TYPES: dict[str, Type] = {
    "Int": INT,
    "Bool": BOOL,
    "Char": CHAR,
    "String": STRING,
    "Unit": UNIT,
    # the paper's examples use Real; this reproduction is integer-only
    # (Fig. 2 has no floating primitives), so Real aliases Int.
    "Real": INT,
}


@dataclass(frozen=True)
class FunSig:
    """Interface entry for an exported function."""

    name: str
    params: tuple[Type, ...]
    result: Type

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass
class ModuleInterface:
    """The statically visible surface of a module.

    What an importing compilation unit may know at compile time — exported
    types and function signatures.  Implementation bindings stay unavailable
    until link/run time (the abstraction barrier of section 4.1).
    """

    name: str
    types: dict[str, TRecord] = field(default_factory=dict)
    functions: dict[str, FunSig] = field(default_factory=dict)
    values: dict[str, Type] = field(default_factory=dict)

    def has_member(self, member: str) -> bool:
        return member in self.functions or member in self.values

    def member_type(self, member: str) -> Type:
        sig = self.functions.get(member)
        if sig is not None:
            return TFun(sig.params, sig.result)
        return self.values.get(member, UNKNOWN)


def type_term(ty: Type):
    """``ty`` as plain data a module record stores: a base type's name, else
    a tuple tagged ``Array``, ``tuple`` (a record) or ``Fun``."""
    if isinstance(ty, TArray):
        return ("Array", type_term(ty.element))
    if isinstance(ty, TRecord):
        return ("tuple", tuple((name, type_term(t)) for name, t in ty.fields))
    if isinstance(ty, TFun):
        return ("Fun", tuple(map(type_term, ty.params)), type_term(ty.result))
    return ty.describe()


_BY_NAME = {ty.describe(): ty for ty in (INT, BOOL, CHAR, STRING, UNIT, UNKNOWN)}


def term_type(term) -> Type:
    """The inverse of :func:`type_term`."""
    if isinstance(term, str):
        return _BY_NAME[term]
    if term[0] == "Array":
        return TArray(term_type(term[1]))
    if term[0] == "tuple":
        return TRecord(tuple((name, term_type(t)) for name, t in term[1]))
    return TFun(tuple(map(term_type, term[1])), term_type(term[2]))


class ExternalRef:
    """What a free variable of a converted function denotes.

    ``kind``: ``import`` (a member of another module, including all library
    functions) or ``sibling`` (another function of the same module).
    """

    __slots__ = ("kind", "module", "member")

    def __init__(self, kind: str, module: str | None, member: str):
        self.kind = kind
        self.module = module
        self.member = member

    def key(self) -> tuple:
        return (self.kind, self.module, self.member)

    def __repr__(self) -> str:
        if self.kind == "import":
            return f"<import {self.module}.{self.member}>"
        return f"<sibling {self.member}>"


def resolve_type(
    expr: ast.TypeExpr | None,
    local_types: dict[str, TRecord],
    imports: dict[str, ModuleInterface],
    pos: ast.Position | None = None,
) -> Type:
    """Resolve a syntactic annotation to a checked type.

    Unknown names resolve to :data:`UNKNOWN` (annotations are permissive);
    only malformed module-qualified references raise.
    """
    from repro.lang import ast

    if expr is None:
        return UNKNOWN
    if isinstance(expr, ast.NamedType):
        if expr.module is not None:
            interface = imports.get(expr.module)
            if interface is None:
                raise TLCheckError(
                    f"type reference to unimported module {expr.module!r}",
                    pos.line if pos else 0,
                    pos.column if pos else 0,
                )
            found = interface.types.get(expr.name)
            return found if found is not None else UNKNOWN
        base = _BASE_TYPES.get(expr.name)
        if base is not None:
            return base
        local = local_types.get(expr.name)
        return local if local is not None else UNKNOWN
    if isinstance(expr, ast.ArrayType):
        return TArray(resolve_type(expr.element, local_types, imports, pos))
    if isinstance(expr, ast.RecordType):
        fields = tuple(
            (f.name, resolve_type(f.type, local_types, imports, pos))
            for f in expr.fields
        )
        return TRecord(fields)
    raise TLCheckError(f"unsupported type annotation {expr!r}")
