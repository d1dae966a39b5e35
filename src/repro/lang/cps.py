"""TL → TML continuation-passing-style conversion.

Every TL construct becomes TML applications:

* control structures (if, loops, and/or, exceptions) become continuations —
  loops via the Y fixpoint combinator exactly as the paper's
  ``for i = 1 upto 10`` example (section 2.3);
* user-visible operators and builtins become *calls to dynamically bound
  library procedures* (free variables bound at link time — section 6);
  compiler-internal machinery (loop control, record vectors, mutable-local
  boxes, branching on booleans) uses primitives directly, as the paper's own
  loop example does;
* ``try/catch`` installs a handler continuation for runtime traps *and*
  threads a new exception continuation for explicit raises, making all
  exception control flow explicit (section 2.3).

Invariants maintained: the exception continuation ``ce`` passed into
:meth:`CpsConverter.convert` is always a ``Var`` (it may be referenced any
number of times); the normal continuation ``cc`` may be an abstraction but
is placed in the output exactly once.  Whenever a construct needs to
reference a continuation from several branches it λ-binds it first (a join
point).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.builder import TmlBuilder
from repro.core.names import Name, NameSupply
from repro.core.syntax import Abs, App, Application, Char, Lit, PrimApp, UNIT, Value, Var
from repro.lang import ast
from repro.lang.check import CheckedModule
from repro.lang.errors import TLCheckError
from repro.lang.stdlib import OP_FUNS
from repro.lang.types import ExternalRef

__all__ = ["CpsConverter"]


_SIMPLE = (ast.IntLit, ast.BoolLit, ast.CharLit, ast.StrLit, ast.UnitLit)


class CpsConverter:
    """Converts the functions of one checked module to TML."""

    def __init__(
        self,
        checked: CheckedModule,
        supply: NameSupply | None = None,
        library_ops: bool = True,
    ):
        self.checked = checked
        self.b = TmlBuilder(supply or NameSupply())
        self.library_ops = library_ops
        #: external key -> the shared free Name used across this module
        self.externals: dict[tuple, Name] = {}
        #: free Name -> ExternalRef (consumed by the linker)
        self.external_refs: dict[Name, ExternalRef] = {}

    # ------------------------------------------------------------ externals

    def external(self, kind: str, module: str | None, member: str) -> Var:
        ref = ExternalRef(kind, module, member)
        name = self.externals.get(ref.key())
        if name is None:
            base = member if module is None else f"{module}.{member}"
            name = self.b.val_name(base)
            self.externals[ref.key()] = name
            self.external_refs[name] = ref
        return Var(name)

    def _op_fun(self, op: str) -> Var:
        module, member = OP_FUNS[op]
        return self.external("import", module, member)

    # ------------------------------------------------------------ functions

    def convert_function(self, fn: ast.LetFun) -> Abs:
        """Compile one module-level function to a TML proc abstraction."""
        env: dict[str, tuple[str, Name]] = {}
        params: list[Name] = []
        for param in fn.params:
            name = self.b.val_name(param.name)
            env[param.name] = ("plain", name)
            params.append(name)
        ce = self.b.cont_name("ce")
        cc = self.b.cont_name("cc")
        body = self.convert(fn.body, env, Var(ce), Var(cc))
        return Abs(tuple(params) + (ce, cc), body)

    def convert_lambda(
        self, fn: ast.Lambda, env: dict[str, tuple[str, Name]]
    ) -> Abs:
        inner = dict(env)
        params: list[Name] = []
        for param in fn.params:
            name = self.b.val_name(param.name)
            inner[param.name] = ("plain", name)
            params.append(name)
        ce = self.b.cont_name("ce")
        cc = self.b.cont_name("cc")
        body = self.convert(fn.body, inner, Var(ce), Var(cc))
        return Abs(tuple(params) + (ce, cc), body)

    # ----------------------------------------------------------- plumbing

    def _join(
        self, conts: Sequence[Value], build: Callable[..., Application]
    ) -> Application:
        """λ-bind abstraction continuations so branches may share them."""
        params: list[Name] = []
        args: list[Value] = []
        final: list[Value] = []
        for cont in conts:
            if isinstance(cont, Abs):
                name = self.b.cont_name("j")
                params.append(name)
                args.append(cont)
                final.append(Var(name))
            else:
                final.append(cont)
        body = build(*final)
        if params:
            return App(Abs(tuple(params), body), tuple(args))
        return body

    def _simple_value(
        self, expr: ast.Expr, env: dict[str, tuple[str, Name]]
    ) -> Value | None:
        """A TML value for trivially-convertible expressions, else None."""
        if isinstance(expr, ast.IntLit):
            return Lit(expr.value)
        if isinstance(expr, ast.BoolLit):
            return Lit(expr.value)
        if isinstance(expr, ast.CharLit):
            return Lit(Char(expr.value))
        if isinstance(expr, ast.StrLit):
            return Lit(expr.value)
        if isinstance(expr, ast.UnitLit):
            return Lit(UNIT)
        if isinstance(expr, ast.Ident):
            resolution = self.checked.resolution(expr)
            if resolution is None:
                raise TLCheckError(f"unresolved identifier {expr.name!r}")
            if resolution.kind == "local":
                return Var(env[expr.name][1])
            if resolution.kind == "modfun":
                return self.external("sibling", None, resolution.member)
            if resolution.kind == "modval":
                literal = self.checked.constants[resolution.member]
                return self._simple_value(literal, env)
            if resolution.kind == "builtin":
                return self.external("import", resolution.module, resolution.member)
            return None  # boxed locals need a primitive load
        if isinstance(expr, ast.FieldAccess):
            resolution = self.checked.resolution(expr)
            if resolution is not None and resolution.kind == "module_ref":
                return self.external("import", resolution.module, resolution.member)
            return None
        return None

    def _convert_values(
        self,
        exprs: Sequence[ast.Expr],
        env: dict[str, tuple[str, Name]],
        ce: Value,
        build: Callable[[list[Value]], Application],
    ) -> Application:
        """Evaluate expressions left-to-right, then build with their values."""

        def step(index: int, acc: list[Value]) -> Application:
            if index == len(exprs):
                return build(acc)
            simple = self._simple_value(exprs[index], env)
            if simple is not None:
                return step(index + 1, acc + [simple])
            name = self.b.val_name("t")
            rest = step(index + 1, acc + [Var(name)])
            return self.convert(exprs[index], env, ce, Abs((name,), rest))

        return step(0, [])

    # ------------------------------------------------------------- convert

    def convert(
        self,
        expr: ast.Expr,
        env: dict[str, tuple[str, Name]],
        ce: Value,
        cc: Value,
    ) -> Application:
        """CPS-convert ``expr``; the result value flows into ``cc``."""
        if not isinstance(ce, Var):
            raise TLCheckError("internal: exception continuation must be a variable")

        simple = self._simple_value(expr, env)
        if simple is not None:
            return App(cc, (simple,))

        method = getattr(self, f"_convert_{type(expr).__name__}", None)
        if method is None:  # pragma: no cover - defensive
            raise TLCheckError(f"cannot CPS-convert {type(expr).__name__}")
        return method(expr, env, ce, cc)

    def _convert_Ident(self, expr: ast.Ident, env, ce, cc) -> Application:
        resolution = self.checked.resolution(expr)
        if resolution is not None and resolution.kind == "boxed":
            box = env[expr.name][1]
            return PrimApp("[]", (Var(box), Lit(0), cc))
        raise TLCheckError(f"unresolved identifier {expr.name!r}")

    def _convert_FieldAccess(self, expr: ast.FieldAccess, env, ce, cc) -> Application:
        resolution = self.checked.resolution(expr)
        if resolution is None:
            raise TLCheckError(f"unresolved field access .{expr.field}")
        if resolution.kind == "module_ref":
            return App(cc, (self.external("import", resolution.module, resolution.member),))
        assert resolution.kind == "field"
        index = resolution.index

        def build(values: list[Value]) -> Application:
            return PrimApp("[]", (values[0], Lit(index), cc))

        return self._convert_values([expr.target], env, ce, build)

    def _convert_BinOp(self, expr: ast.BinOp, env, ce, cc) -> Application:
        if expr.op in ("and", "or"):
            return self._convert_shortcircuit(expr, env, ce, cc)

        if self.library_ops:
            fn = self._op_fun(expr.op)

            def build(values: list[Value]) -> Application:
                return App(fn, (values[0], values[1], ce, cc))

            return self._convert_values([expr.left, expr.right], env, ce, build)
        return self._convert_open_coded(expr, env, ce, cc)

    def _convert_open_coded(self, expr: ast.BinOp, env, ce, cc) -> Application:
        """Direct-primitive operators (the open-coding ablation of E1/E2)."""
        op = expr.op
        if op in ("+", "-", "*", "/", "%"):

            def build(values: list[Value]) -> Application:
                return PrimApp(op, (values[0], values[1], ce, cc))

            return self._convert_values([expr.left, expr.right], env, ce, build)
        if op in ("<", ">", "<=", ">="):

            def build_cmp(values: list[Value]) -> Application:
                def branch(ccv: Value) -> Application:
                    hit = Abs((), App(ccv, (Lit(True),)))
                    miss = Abs((), App(ccv, (Lit(False),)))
                    return PrimApp(op, (values[0], values[1], hit, miss))

                return self._join([cc], branch)

            return self._convert_values([expr.left, expr.right], env, ce, build_cmp)
        assert op in ("==", "!=")
        hit_value, miss_value = (True, False) if op == "==" else (False, True)

        def build_eq(values: list[Value]) -> Application:
            def branch(ccv: Value) -> Application:
                hit = Abs((), App(ccv, (Lit(hit_value),)))
                miss = Abs((), App(ccv, (Lit(miss_value),)))
                return PrimApp("==", (values[0], values[1], hit, miss))

            return self._join([cc], branch)

        return self._convert_values([expr.left, expr.right], env, ce, build_eq)

    def _convert_shortcircuit(self, expr: ast.BinOp, env, ce, cc) -> Application:
        def build(ccv: Value) -> Application:
            if expr.op == "and":
                on_true = Abs((), self.convert(expr.right, env, ce, ccv))
                on_false = Abs((), App(ccv, (Lit(False),)))
            else:
                on_true = Abs((), App(ccv, (Lit(True),)))
                on_false = Abs((), self.convert(expr.right, env, ce, ccv))

            def test(values: list[Value]) -> Application:
                return PrimApp("==", (values[0], Lit(True), on_true, on_false))

            return self._convert_values([expr.left], env, ce, test)

        return self._join([cc], build)

    def _convert_UnOp(self, expr: ast.UnOp, env, ce, cc) -> Application:
        if expr.op == "-":
            if self.library_ops:
                fn = self.external("import", "int", "neg")

                def build(values: list[Value]) -> Application:
                    return App(fn, (values[0], ce, cc))

                return self._convert_values([expr.operand], env, ce, build)

            def build_neg(values: list[Value]) -> Application:
                return PrimApp("-", (Lit(0), values[0], ce, cc))

            return self._convert_values([expr.operand], env, ce, build_neg)

        assert expr.op == "not"

        def build_not(ccv: Value) -> Application:
            def test(values: list[Value]) -> Application:
                hit = Abs((), App(ccv, (Lit(False),)))
                miss = Abs((), App(ccv, (Lit(True),)))
                return PrimApp("==", (values[0], Lit(True), hit, miss))

            return self._convert_values([expr.operand], env, ce, test)

        return self._join([cc], build_not)

    def _convert_Call(self, expr: ast.Call, env, ce, cc) -> Application:
        def build(values: list[Value]) -> Application:
            fn, *args = values
            return App(fn, tuple(args) + (ce, cc))

        return self._convert_values([expr.fn, *expr.args], env, ce, build)

    def _convert_Index(self, expr: ast.Index, env, ce, cc) -> Application:
        fn = self.external("import", "arraylib", "get")

        def build(values: list[Value]) -> Application:
            return App(fn, (values[0], values[1], ce, cc))

        return self._convert_values([expr.target, expr.index], env, ce, build)

    def _convert_TupleLit(self, expr: ast.TupleLit, env, ce, cc) -> Application:
        def build(values: list[Value]) -> Application:
            return PrimApp("vector", tuple(values) + (cc,))

        return self._convert_values([value for _, value in expr.fields], env, ce, build)

    def _convert_If(self, expr: ast.If, env, ce, cc) -> Application:
        def build(ccv: Value) -> Application:
            then_c = Abs((), self.convert(expr.then_branch, env, ce, ccv))
            if expr.else_branch is not None:
                else_c = Abs((), self.convert(expr.else_branch, env, ce, ccv))
            else:
                else_c = Abs((), App(ccv, (Lit(UNIT),)))

            def test(values: list[Value]) -> Application:
                return PrimApp("==", (values[0], Lit(True), then_c, else_c))

            return self._convert_values([expr.condition], env, ce, test)

        return self._join([cc], build)

    def _convert_Seq(self, expr: ast.Seq, env, ce, cc) -> Application:
        def chain(index: int) -> Application:
            if index == len(expr.exprs) - 1:
                return self.convert(expr.exprs[index], env, ce, cc)
            ignored = self.b.val_name("_")
            rest = chain(index + 1)
            return self.convert(expr.exprs[index], env, ce, Abs((ignored,), rest))

        return chain(0)

    def _convert_LetIn(self, expr: ast.LetIn, env, ce, cc) -> Application:
        name = self.b.val_name(expr.name)
        inner = dict(env)
        inner[expr.name] = ("plain", name)
        body = self.convert(expr.body, inner, ce, cc)
        return self.convert(expr.value, env, ce, Abs((name,), body))

    def _convert_VarIn(self, expr: ast.VarIn, env, ce, cc) -> Application:
        box = self.b.val_name(expr.name)
        inner = dict(env)
        inner[expr.name] = ("boxed", box)
        body = self.convert(expr.body, inner, ce, cc)

        def build(values: list[Value]) -> Application:
            return PrimApp("new", (Lit(1), values[0], Abs((box,), body)))

        return self._convert_values([expr.value], env, ce, build)

    def _convert_Assign(self, expr: ast.Assign, env, ce, cc) -> Application:
        if isinstance(expr.target, ast.Ident):
            box = env[expr.target.name][1]

            def build(values: list[Value]) -> Application:
                unit_name = self.b.val_name("u")
                done = Abs((unit_name,), App(cc, (Var(unit_name),)))
                return PrimApp("[]:=", (Var(box), Lit(0), values[0], done))

            return self._convert_values([expr.value], env, ce, build)

        assert isinstance(expr.target, ast.Index)
        fn = self.external("import", "arraylib", "set")

        def build_set(values: list[Value]) -> Application:
            return App(fn, (values[0], values[1], values[2], ce, cc))

        return self._convert_values(
            [expr.target.target, expr.target.index, expr.value], env, ce, build_set
        )

    def _convert_While(self, expr: ast.While, env, ce, cc) -> Application:
        def build(ccv: Value) -> Application:
            loop = self.b.cont_name("loop")
            body_app = self.convert(
                expr.body,
                env,
                ce,
                Abs((self.b.val_name("_"),), App(Var(loop), ())),
            )
            exit_c = Abs((), App(ccv, (Lit(UNIT),)))
            cond_app = self._while_cond(expr.condition, env, ce, body_app, exit_c)
            loop_body = Abs((), cond_app)
            entry = Abs((), App(Var(loop), ()))
            return self.b.fix(entry, [(loop, loop_body)])

        return self._join([cc], build)

    def _while_cond(
        self, condition: ast.Expr, env, ce, body_app: Application, exit_c: Abs
    ) -> Application:
        cv = self.b.val_name("cv")
        test = PrimApp("==", (Var(cv), Lit(True), Abs((), body_app), exit_c))
        return self.convert(condition, env, ce, Abs((cv,), test))

    def _convert_ForLoop(self, expr: ast.ForLoop, env, ce, cc) -> Application:
        def build(ccv: Value) -> Application:
            def with_bounds(values: list[Value]) -> Application:
                start_v, stop_v = values
                loop = self.b.cont_name("for")
                ivar = self.b.val_name(expr.var)
                inner = dict(env)
                inner[expr.var] = ("plain", ivar)
                step_prim = "-" if expr.downto else "+"
                cmp_prim = ">=" if expr.downto else "<="
                next_i = self.b.val_name("i'")
                advance = PrimApp(
                    step_prim,
                    (Var(ivar), Lit(1), ce, Abs((next_i,), App(Var(loop), (Var(next_i),)))),
                )
                body_app = self.convert(
                    expr.body, inner, ce, Abs((self.b.val_name("_"),), advance)
                )
                exit_c = Abs((), App(ccv, (Lit(UNIT),)))
                head = Abs(
                    (ivar,),
                    PrimApp(cmp_prim, (Var(ivar), stop_v, Abs((), body_app), exit_c)),
                )
                entry = Abs((), App(Var(loop), (start_v,)))
                return self.b.fix(entry, [(loop, head)])

            return self._convert_values([expr.start, expr.stop], env, ce, with_bounds)

        return self._join([cc], build)

    def _convert_Lambda(self, expr: ast.Lambda, env, ce, cc) -> Application:
        return App(cc, (self.convert_lambda(expr, env),))

    def _convert_TryCatch(self, expr: ast.TryCatch, env, ce, cc) -> Application:
        def build(ccv: Value) -> Application:
            exc_name = self.b.val_name(expr.exc_name)
            inner = dict(env)
            inner[expr.exc_name] = ("plain", exc_name)
            handler = Abs((exc_name,), self.convert(expr.handler, inner, ce, ccv))

            hn = self.b.cont_name("h")
            ev = self.b.val_name("ev")
            rv = self.b.val_name("rv")
            # on explicit raise inside the body: uninstall the trap handler,
            # then enter the same handler continuation
            ce2 = Abs(
                (ev,),
                PrimApp("popHandler", (Abs((), App(Var(hn), (Var(ev),))),)),
            )
            # on normal completion: uninstall, then continue (ccv is a join
            # variable, so referencing it here and in the handler is fine)
            cc2 = Abs(
                (rv,),
                PrimApp("popHandler", (Abs((), App(ccv, (Var(rv),))),)),
            )

            ce2n = self.b.cont_name("ce'")
            cc2n = self.b.cont_name("cc'")
            body_app = self.convert(expr.body, env, Var(ce2n), Var(cc2n))
            protected = PrimApp("pushHandler", (Var(hn), Abs((), body_app)))
            inner_bind = App(Abs((ce2n, cc2n), protected), (ce2, cc2))
            return App(Abs((hn,), inner_bind), (handler,))

        return self._join([cc], build)

    def _convert_Raise(self, expr: ast.Raise, env, ce, cc) -> Application:
        def build(values: list[Value]) -> Application:
            return App(ce, (values[0],))

        return self._convert_values([expr.value], env, ce, build)

    def _convert_ModuleRef(self, expr: ast.ModuleRef, env, ce, cc) -> Application:
        return App(cc, (self.external("import", expr.module, expr.member),))

    # ------------------------------------------------- embedded queries (§4.2)

    def _query_proc(
        self, var: str, body: ast.Expr, env: dict[str, tuple[str, Name]]
    ) -> Abs:
        """A user-level procedure over the correlation variable.

        The scope of the SQL correlation variable is captured by a
        λ-abstraction binding it alongside the two continuation variables —
        the paper's representation of ``Pred``/``Target``.
        """
        x = self.b.val_name(var)
        inner = dict(env)
        inner[var] = ("plain", x)
        ce = self.b.cont_name("ce")
        cc = self.b.cont_name("cc")
        return Abs((x, ce, cc), self.convert(body, inner, Var(ce), Var(cc)))

    def _is_identity_target(self, expr: ast.SelectExpr) -> bool:
        return (
            isinstance(expr.target, ast.Ident) and expr.target.name == expr.var
        )

    def _convert_SelectExpr(self, expr: ast.SelectExpr, env, ce, cc) -> Application:
        """The paper's translation template::

            (select λ(x ce cc)(Pred x ...) Rel ce
               cont(tempRel)
                 (project λ(x ce cc)(Target x ...) tempRel ce cc))
        """
        identity = self._is_identity_target(expr)

        def build(values: list[Value]) -> Application:
            rel_v = values[0]
            if expr.where is None and identity:
                return App(cc, (rel_v,))
            if expr.where is None:
                target = self._query_proc(expr.var, expr.target, env)
                return PrimApp("project", (target, rel_v, ce, cc))
            pred = self._query_proc(expr.var, expr.where, env)
            if identity:
                return PrimApp("select", (pred, rel_v, ce, cc))
            target = self._query_proc(expr.var, expr.target, env)
            temp = self.b.val_name("tempRel")
            projection = PrimApp("project", (target, Var(temp), ce, cc))
            return PrimApp("select", (pred, rel_v, ce, Abs((temp,), projection)))

        return self._convert_values([expr.source], env, ce, build)

    def _convert_ExistsExpr(self, expr: ast.ExistsExpr, env, ce, cc) -> Application:
        pred = self._query_proc(expr.var, expr.pred, env)

        def build(values: list[Value]) -> Application:
            return PrimApp("exists", (pred, values[0], ce, cc))

        return self._convert_values([expr.source], env, ce, build)
