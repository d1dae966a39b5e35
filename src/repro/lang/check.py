"""The TL checker: binding resolution, arity checking, record-shape typing.

Performs the front-end duties the paper assumes (section 2.2: constraints 1
and 2 "statically enforced by the compiler front end which performs the
necessary type checking on the input to the TML code generator"):

* resolves every identifier — local, module-level function/constant,
  imported member, or implicit library builtin;
* rewrites ``m.f`` field accesses into module references when ``m`` names an
  import;
* resolves record field accesses to positional indices using declared
  record types (annotations on parameters/lets, exactly the paper's
  ``complex.x`` pattern);
* checks arities of statically known callees.

The result is a :class:`CheckedModule`: the AST plus a resolution table the
CPS converter consults (keyed by node identity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.lang import ast
from repro.lang.errors import TLCheckError
from repro.lang.stdlib import BUILTIN_FUNS, stdlib_interfaces
from repro.lang.types import (
    BOOL,
    CHAR,
    FunSig,
    INT,
    ModuleInterface,
    STRING,
    TArray,
    TFun,
    TRecord,
    TUnknown,
    Type,
    UNIT,
    UNKNOWN,
    resolve_type,
)

__all__ = ["Resolution", "CheckedModule", "check_module", "build_interface"]


@dataclass(frozen=True)
class Resolution:
    """How an identifier / access node resolves.

    ``kind`` is one of ``local``, ``boxed`` (mutable local), ``modfun``
    (sibling function), ``modval`` (sibling constant), ``import`` (imported
    member), ``builtin`` (implicit library function), ``field`` (record
    access, with positional ``index``), ``module_ref``.
    """

    kind: str
    module: str | None = None
    member: str | None = None
    index: int | None = None


@dataclass
class CheckedModule:
    """A checked module: AST + resolution table + exported interface."""

    module: ast.Module
    interface: ModuleInterface
    resolutions: dict[int, Resolution]
    imports: dict[str, ModuleInterface]
    local_types: dict[str, TRecord]
    #: constants: name -> literal AST node
    constants: dict[str, ast.Expr]

    def resolution(self, node: Any) -> Resolution | None:
        return self.resolutions.get(id(node))


def build_interface(
    module: ast.Module, imports: dict[str, ModuleInterface]
) -> tuple[ModuleInterface, dict[str, TRecord]]:
    """Compute a module's exported interface and its local type table."""
    local_types: dict[str, TRecord] = {}
    for decl in module.decls:
        if isinstance(decl, ast.TypeDecl):
            resolved = resolve_type(decl.type, local_types, imports, decl.pos)
            if not isinstance(resolved, TRecord):
                raise TLCheckError(
                    f"type {decl.name!r} must be a record type",
                    decl.pos.line,
                    decl.pos.column,
                )
            local_types[decl.name] = resolved

    interface = ModuleInterface(name=module.name)
    exported = set(module.exports)
    for decl in module.decls:
        if isinstance(decl, ast.TypeDecl) and decl.name in exported:
            interface.types[decl.name] = local_types[decl.name]
        elif isinstance(decl, ast.LetFun):
            params = tuple(
                resolve_type(p.type, local_types, imports, p.pos) for p in decl.params
            )
            result = resolve_type(decl.return_type, local_types, imports, decl.pos)
            if decl.name in exported:
                interface.functions[decl.name] = FunSig(decl.name, params, result)
        elif isinstance(decl, ast.LetVal) and decl.name in exported:
            interface.values[decl.name] = _literal_type(decl.value)
    return interface, local_types


def _literal_type(expr: ast.Expr) -> Type:
    if isinstance(expr, ast.IntLit):
        return INT
    if isinstance(expr, ast.BoolLit):
        return BOOL
    if isinstance(expr, ast.CharLit):
        return CHAR
    if isinstance(expr, ast.StrLit):
        return STRING
    if isinstance(expr, (ast.UnitLit,)):
        return UNIT
    return UNKNOWN


class _Scope:
    """Lexical scope: name -> (kind, type); kinds ``local`` / ``boxed``."""

    def __init__(self, parent: "_Scope | None" = None):
        self.bindings: dict[str, tuple[str, Type]] = {}
        self.parent = parent

    def lookup(self, name: str) -> tuple[str, Type] | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        return None

    def child(self) -> "_Scope":
        return _Scope(self)


class _Checker:
    def __init__(
        self,
        module: ast.Module,
        imports: dict[str, ModuleInterface],
        interface: ModuleInterface,
        local_types: dict[str, TRecord],
    ):
        self.module = module
        self.imports = imports
        self.interface = interface
        self.local_types = local_types
        self.resolutions: dict[int, Resolution] = {}
        self.functions: dict[str, FunSig] = {}
        self.constants: dict[str, ast.Expr] = {}

        for decl in module.decls:
            if isinstance(decl, ast.LetFun):
                params = tuple(
                    resolve_type(p.type, local_types, imports, p.pos)
                    for p in decl.params
                )
                result = resolve_type(decl.return_type, local_types, imports, decl.pos)
                self.functions[decl.name] = FunSig(decl.name, params, result)
            elif isinstance(decl, ast.LetVal):
                if not isinstance(
                    decl.value,
                    (ast.IntLit, ast.BoolLit, ast.CharLit, ast.StrLit, ast.UnitLit),
                ):
                    raise TLCheckError(
                        f"module-level constant {decl.name!r} must be a literal",
                        decl.pos.line,
                        decl.pos.column,
                    )
                self.constants[decl.name] = decl.value

    # ------------------------------------------------------------- driver

    def run(self) -> None:
        for name in self.module.exports:
            if (
                name not in self.functions
                and name not in self.constants
                and name not in self.local_types
            ):
                raise TLCheckError(
                    f"module {self.module.name!r} exports undefined name {name!r}"
                )
        for decl in self.module.decls:
            if isinstance(decl, ast.LetFun):
                scope = _Scope()
                for param in decl.params:
                    annotation = resolve_type(
                        param.type, self.local_types, self.imports, param.pos
                    )
                    scope.bindings[param.name] = ("local", annotation)
                self.infer(decl.body, scope)

    # ------------------------------------------------------------ inference

    def infer(self, expr: ast.Expr, scope: _Scope) -> Type:
        method = getattr(self, f"_infer_{type(expr).__name__}", None)
        if method is None:  # pragma: no cover - defensive
            raise TLCheckError(f"checker cannot handle {type(expr).__name__}")
        return method(expr, scope)

    def _infer_IntLit(self, expr, scope) -> Type:
        return INT

    def _infer_BoolLit(self, expr, scope) -> Type:
        return BOOL

    def _infer_CharLit(self, expr, scope) -> Type:
        return CHAR

    def _infer_StrLit(self, expr, scope) -> Type:
        return STRING

    def _infer_UnitLit(self, expr, scope) -> Type:
        return UNIT

    def _infer_Ident(self, expr: ast.Ident, scope: _Scope) -> Type:
        bound = scope.lookup(expr.name)
        if bound is not None:
            kind, ty = bound
            self.resolutions[id(expr)] = Resolution(kind)
            return ty
        if expr.name in self.functions:
            self.resolutions[id(expr)] = Resolution("modfun", member=expr.name)
            sig = self.functions[expr.name]
            return TFun(sig.params, sig.result)
        if expr.name in self.constants:
            self.resolutions[id(expr)] = Resolution("modval", member=expr.name)
            return _literal_type(self.constants[expr.name])
        if expr.name in BUILTIN_FUNS:
            module, member, arity = BUILTIN_FUNS[expr.name]
            self.resolutions[id(expr)] = Resolution(
                "builtin", module=module, member=member
            )
            sig = stdlib_interfaces()[module].functions[member]
            return TFun(sig.params, sig.result)
        raise TLCheckError(
            f"unbound identifier {expr.name!r}", expr.pos.line, expr.pos.column
        )

    def _infer_FieldAccess(self, expr: ast.FieldAccess, scope: _Scope) -> Type:
        # m.f where m names an import and is not shadowed: a module reference
        if isinstance(expr.target, ast.Ident) and scope.lookup(expr.target.name) is None:
            interface = self.imports.get(expr.target.name)
            if interface is not None:
                if not interface.has_member(expr.field):
                    raise TLCheckError(
                        f"module {expr.target.name!r} has no export {expr.field!r}",
                        expr.pos.line,
                        expr.pos.column,
                    )
                self.resolutions[id(expr)] = Resolution(
                    "module_ref", module=expr.target.name, member=expr.field
                )
                return interface.member_type(expr.field)

        target_type = self.infer(expr.target, scope)
        if not isinstance(target_type, TRecord):
            raise TLCheckError(
                f"field access .{expr.field} on a value of unknown record shape — "
                "annotate the expression with its record type",
                expr.pos.line,
                expr.pos.column,
            )
        index = target_type.index_of(expr.field)
        if index is None:
            raise TLCheckError(
                f"record {target_type.describe()} has no field {expr.field!r}",
                expr.pos.line,
                expr.pos.column,
            )
        self.resolutions[id(expr)] = Resolution("field", index=index)
        return target_type.field_type(expr.field)

    def _infer_BinOp(self, expr: ast.BinOp, scope: _Scope) -> Type:
        self.infer(expr.left, scope)
        self.infer(expr.right, scope)
        if expr.op in ("and", "or"):
            return BOOL
        if expr.op in ("==", "!=", "<", ">", "<=", ">="):
            return BOOL
        return INT

    def _infer_UnOp(self, expr: ast.UnOp, scope: _Scope) -> Type:
        self.infer(expr.operand, scope)
        return BOOL if expr.op == "not" else INT

    def _infer_Call(self, expr: ast.Call, scope: _Scope) -> Type:
        fn_type = self.infer(expr.fn, scope)
        for arg in expr.args:
            self.infer(arg, scope)
        if isinstance(fn_type, TFun):
            if fn_type.arity != len(expr.args):
                raise TLCheckError(
                    f"call supplies {len(expr.args)} argument(s); callee takes "
                    f"{fn_type.arity}",
                    expr.pos.line,
                    expr.pos.column,
                )
            return fn_type.result
        if isinstance(fn_type, TUnknown):
            return UNKNOWN
        raise TLCheckError(
            f"cannot call a value of type {fn_type.describe()}",
            expr.pos.line,
            expr.pos.column,
        )

    def _infer_Index(self, expr: ast.Index, scope: _Scope) -> Type:
        target = self.infer(expr.target, scope)
        self.infer(expr.index, scope)
        if isinstance(target, TArray):
            return target.element
        return UNKNOWN

    def _infer_TupleLit(self, expr: ast.TupleLit, scope: _Scope) -> Type:
        fields = tuple(
            (name, self.infer(value, scope)) for name, value in expr.fields
        )
        seen = set()
        for name, _ in fields:
            if name in seen:
                raise TLCheckError(
                    f"duplicate record field {name!r}", expr.pos.line, expr.pos.column
                )
            seen.add(name)
        return TRecord(fields)

    def _infer_If(self, expr: ast.If, scope: _Scope) -> Type:
        self.infer(expr.condition, scope)
        then_type = self.infer(expr.then_branch, scope.child())
        if expr.else_branch is None:
            return UNIT
        else_type = self.infer(expr.else_branch, scope.child())
        if type(then_type) is type(else_type):
            return then_type
        return UNKNOWN

    def _infer_Seq(self, expr: ast.Seq, scope: _Scope) -> Type:
        result: Type = UNIT
        for item in expr.exprs:
            result = self.infer(item, scope)
        return result

    def _infer_LetIn(self, expr: ast.LetIn, scope: _Scope) -> Type:
        value_type = self.infer(expr.value, scope)
        if expr.type is not None:
            annotated = resolve_type(expr.type, self.local_types, self.imports, expr.pos)
            if not isinstance(annotated, TUnknown):
                value_type = annotated
        inner = scope.child()
        inner.bindings[expr.name] = ("local", value_type)
        return self.infer(expr.body, inner)

    def _infer_VarIn(self, expr: ast.VarIn, scope: _Scope) -> Type:
        value_type = self.infer(expr.value, scope)
        inner = scope.child()
        inner.bindings[expr.name] = ("boxed", value_type)
        return self.infer(expr.body, inner)

    def _infer_Assign(self, expr: ast.Assign, scope: _Scope) -> Type:
        self.infer(expr.value, scope)
        if isinstance(expr.target, ast.Ident):
            bound = scope.lookup(expr.target.name)
            if bound is None or bound[0] != "boxed":
                raise TLCheckError(
                    f"{expr.target.name!r} is not a mutable variable "
                    "(declare it with 'var')",
                    expr.pos.line,
                    expr.pos.column,
                )
            self.resolutions[id(expr.target)] = Resolution("boxed")
        else:
            assert isinstance(expr.target, ast.Index)
            self.infer(expr.target.target, scope)
            self.infer(expr.target.index, scope)
        return UNIT

    def _infer_While(self, expr: ast.While, scope: _Scope) -> Type:
        self.infer(expr.condition, scope)
        self.infer(expr.body, scope.child())
        return UNIT

    def _infer_ForLoop(self, expr: ast.ForLoop, scope: _Scope) -> Type:
        self.infer(expr.start, scope)
        self.infer(expr.stop, scope)
        inner = scope.child()
        inner.bindings[expr.var] = ("local", INT)
        self.infer(expr.body, inner)
        return UNIT

    def _infer_Lambda(self, expr: ast.Lambda, scope: _Scope) -> Type:
        inner = scope.child()
        param_types = []
        for param in expr.params:
            annotation = resolve_type(
                param.type, self.local_types, self.imports, param.pos
            )
            inner.bindings[param.name] = ("local", annotation)
            param_types.append(annotation)
        result = self.infer(expr.body, inner)
        return TFun(tuple(param_types), result)

    def _infer_TryCatch(self, expr: ast.TryCatch, scope: _Scope) -> Type:
        body_type = self.infer(expr.body, scope.child())
        inner = scope.child()
        inner.bindings[expr.exc_name] = ("local", UNKNOWN)
        handler_type = self.infer(expr.handler, inner)
        if type(body_type) is type(handler_type):
            return body_type
        return UNKNOWN

    def _infer_Raise(self, expr: ast.Raise, scope: _Scope) -> Type:
        self.infer(expr.value, scope)
        return UNKNOWN

    def _infer_SelectExpr(self, expr: ast.SelectExpr, scope: _Scope) -> Type:
        self.infer(expr.source, scope)
        inner = scope.child()
        var_type = resolve_type(expr.var_type, self.local_types, self.imports, expr.pos)
        inner.bindings[expr.var] = ("local", var_type)
        if expr.where is not None:
            self.infer(expr.where, inner)
        self.infer(expr.target, inner)
        return UNKNOWN  # a relation value

    def _infer_ExistsExpr(self, expr: ast.ExistsExpr, scope: _Scope) -> Type:
        self.infer(expr.source, scope)
        inner = scope.child()
        var_type = resolve_type(expr.var_type, self.local_types, self.imports, expr.pos)
        inner.bindings[expr.var] = ("local", var_type)
        self.infer(expr.pred, inner)
        return BOOL

    def _infer_ModuleRef(self, expr: ast.ModuleRef, scope: _Scope) -> Type:
        interface = self.imports.get(expr.module)
        if interface is None or not interface.has_member(expr.member):
            raise TLCheckError(
                f"unknown module member {expr.module}.{expr.member}",
                expr.pos.line,
                expr.pos.column,
            )
        self.resolutions[id(expr)] = Resolution(
            "module_ref", module=expr.module, member=expr.member
        )
        return interface.member_type(expr.member)


def check_module(
    module: ast.Module,
    available: Callable[[str], ModuleInterface | None] | None = None,
) -> CheckedModule:
    """Check one module against the interfaces of its imports.

    ``available`` maps a module name to its interface, or None; the
    standard library is always available.
    """
    imports: dict[str, ModuleInterface] = {}
    for name in module.imports():
        interface = stdlib_interfaces().get(name) or (available(name) if available else None)
        if interface is None:
            raise TLCheckError(f"import of unknown module {name!r}")
        imports[name] = interface

    interface, local_types = build_interface(module, imports)
    checker = _Checker(module, imports, interface, local_types)
    checker.run()
    return CheckedModule(
        module=module,
        interface=interface,
        resolutions=checker.resolutions,
        imports=imports,
        local_types=local_types,
        constants=checker.constants,
    )
