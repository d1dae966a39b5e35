"""Relational-algebra primitives as TML primitive procedures (paper §4.2).

"CPS ... leaves much freedom in the choice of the particular primitive
procedures to be used for the representation of declarative queries."  This
module chooses classic algebra operators and registers them as *extension
primitives* — the adaptability mechanism of section 2.3: each comes with a
calling convention, optimizer attributes, an interpreter handler and a code
generation hook, without touching the core language.

Conventions (higher-order arguments are user-level procedures ``proc(x ce cc)``)::

    (select pred rel ce cc)        σ_pred(rel)        — new temp relation
    (project fn rel ce cc)         π_fn(rel)
    (join pred rel1 rel2 ce cc)    rel1 ⋈_pred rel2   — nested loops
    (exists pred rel ce cc)        ∃x∈rel: pred(x)    — short-circuiting
    (empty rel cc)                 rel = ∅ ?
    (count rel cc)                 |rel|
    (and a b cc) (or a b cc) (not a cc)    boolean connectives (foldable)
    (insert rel row ce cc)         side-effecting insert
    (indexscan rel field v ce cc)  index point lookup  — the access path
    (rangescan rel field lo hi ce cc)   ordered-index range lookup

Predicates raising (through their exception continuation) surface at the
operator's ``ce`` — exception control flow stays explicit end to end.

``select``, ``project``, ``exists`` and ``join`` carry the query rules as
their ``expand`` hook (:mod:`repro.query.rules`), which the program
optimizer's expansion pass runs in a runtime optimization.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable

from repro.core.syntax import Application, Lit, PrimApp
from repro.machine.runtime import EXT_OPS, ExtRaise, TmlVector, UncaughtTmlException
from repro.primitives._util import invoke
from repro.primitives.effects import EffectClass
from repro.primitives.registry import Attributes, Primitive, PrimitiveRegistry, Signature
from repro.query.relation import QueryError, Relation

__all__ = [
    "QUERY_PRIMITIVES",
    "register_query_primitives",
    "query_registry",
]

_temp_counter = [0]


def _temp_name(kind: str) -> str:
    _temp_counter[0] += 1
    return f"__{kind}_{_temp_counter[0]}"


def _need_relation(value: Any) -> Relation:
    if not isinstance(value, Relation):
        raise ExtRaise("queryTypeError: not a relation")
    return value


@contextmanager
def _predicate_raises():
    """Around an operator's row loop: a predicate that invoked its exception
    continuation (or trapped with no handler of its own) fails the operator
    at its ``ce``."""
    try:
        yield
    except UncaughtTmlException as exc:
        raise ExtRaise(exc.value) from None


def _not_a_boolean() -> ExtRaise:
    return ExtRaise("queryTypeError: predicate did not return a boolean")


def _need_bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise _not_a_boolean()
    return value


# ---------------------------------------------------------------------------
# operator implementations (machine-agnostic: ``machine.procedure(closure,
# n)`` is the callable that runs a higher-order argument on n values)
# ---------------------------------------------------------------------------


def _op_select(machine, args: list[Any]) -> Relation:
    pred, rel = args
    relation = _need_relation(rel)
    out = Relation(_temp_name("select"), relation.fields)
    # rows of a relation of the same arity, into one without an index
    kept, test = out.rows, machine.procedure(pred, 1)
    with _predicate_raises():
        for row in relation.scan():
            answer = test(row)
            if answer is True:
                kept.append(row)
            elif answer is not False:
                raise _not_a_boolean()
    return out


def _op_project(machine, args: list[Any]) -> Relation:
    fn, rel = args
    relation = _need_relation(rel)
    with _predicate_raises():
        results = list(map(machine.procedure(fn, 1), relation.scan()))
    if results and all(
        isinstance(r, TmlVector) and len(r.slots) == len(results[0].slots)
        for r in results
        if isinstance(results[0], TmlVector)
    ) and isinstance(results[0], TmlVector):
        fields = tuple(f"c{i}" for i in range(len(results[0].slots)))
        rows = results
    else:
        fields = ("value",)
        rows = [TmlVector([r]) for r in results]
    out = Relation(_temp_name("project"), fields)
    for row in rows:
        out.insert(row)
    return out


def _op_join(machine, args: list[Any]) -> Relation:
    pred, left, right = args
    left_rel, right_rel = _need_relation(left), _need_relation(right)
    fields = list(left_rel.fields)
    for field in right_rel.fields:
        fields.append(f"r_{field}" if field in left_rel.fields else field)
    if len(set(fields)) < len(fields):
        # a renamed right field is a left field too
        raise ExtRaise(f"queryError: join: duplicate field names {tuple(fields)}")
    out = Relation(_temp_name("join"), fields)
    test = machine.procedure(pred, 2)
    with _predicate_raises():
        for lrow in left_rel.scan():
            for rrow in right_rel.scan():
                answer = test(lrow, rrow)
                if answer is True:
                    out.insert(TmlVector(list(lrow.slots) + list(rrow.slots)))
                elif answer is not False:
                    raise _not_a_boolean()
    return out


def _op_exists(machine, args: list[Any]) -> bool:
    pred, rel = args
    relation = _need_relation(rel)
    test = machine.procedure(pred, 1)
    with _predicate_raises():
        for row in relation.scan():
            answer = test(row)
            if answer is True:
                return True
            if answer is not False:
                raise _not_a_boolean()
    return False


def _op_empty(machine, args: list[Any]) -> bool:
    return len(_need_relation(args[0])) == 0


def _op_count(machine, args: list[Any]) -> int:
    return len(_need_relation(args[0]))


def _op_and(machine, args: list[Any]) -> bool:
    return _need_bool(args[0]) and _need_bool(args[1])


def _op_or(machine, args: list[Any]) -> bool:
    return _need_bool(args[0]) or _need_bool(args[1])


def _op_not(machine, args: list[Any]) -> bool:
    return not _need_bool(args[0])


def _op_insert(machine, args: list[Any]) -> Any:
    from repro.core.syntax import UNIT

    rel, row = args
    relation = _need_relation(rel)
    if not isinstance(row, TmlVector):
        raise ExtRaise("queryTypeError: row must be a record")
    try:
        relation.insert(row)
    except QueryError as error:
        raise ExtRaise(f"queryError: {error}") from None
    return UNIT


def _rows_of(relation: Relation, kind: str, rows: list) -> Relation:
    """A relation without an index of ``rows``, a list of ``relation``'s
    rows its index made for the caller."""
    out = Relation(_temp_name(kind), relation.fields)
    out.rows = rows
    return out


def _op_indexscan(machine, args: list[Any]) -> Relation:
    rel, field, value = args
    relation = _need_relation(rel)
    if not isinstance(field, str):
        raise ExtRaise("queryTypeError: field name must be a string")
    try:
        rows = relation.index_lookup(field, value)
    except (QueryError, TypeError) as error:
        raise ExtRaise(f"queryError: {error}") from None
    return _rows_of(relation, "iscan", rows)


def _op_rangescan(machine, args: list[Any]) -> Relation:
    rel, field, low, high = args
    relation = _need_relation(rel)
    if not isinstance(field, str):
        raise ExtRaise("queryTypeError: field name must be a string")
    try:
        rows = relation.index_range(field, low, high)
    except (QueryError, TypeError) as error:
        raise ExtRaise(f"queryError: {error}") from None
    return _rows_of(relation, "rscan", rows)


# ---------------------------------------------------------------------------
# folds for the boolean connectives (meta-evaluation, section 2.3 item 2)
# ---------------------------------------------------------------------------


def _lit_bool(value) -> bool | None:
    if isinstance(value, Lit) and isinstance(value.value, bool):
        return value.value
    return None


def _fold_and(call: PrimApp) -> Application | None:
    a, b, cont = call.args
    left, right = _lit_bool(a), _lit_bool(b)
    if left is False or right is False:
        return invoke(cont, Lit(False))
    if left is True:
        return invoke(cont, b)
    if right is True:
        return invoke(cont, a)
    return None


def _fold_or(call: PrimApp) -> Application | None:
    a, b, cont = call.args
    left, right = _lit_bool(a), _lit_bool(b)
    if left is True or right is True:
        return invoke(cont, Lit(True))
    if left is False:
        return invoke(cont, b)
    if right is False:
        return invoke(cont, a)
    return None


def _fold_not(call: PrimApp) -> Application | None:
    a, cont = call.args
    value = _lit_bool(a)
    if value is not None:
        return invoke(cont, Lit(not value))
    return None


def _expand(call: PrimApp, state) -> Application:
    """The query rules' hook.  Bound on first use: a process that never
    optimizes a query (the daemon) never loads the rules."""
    from repro.query.rules import QueryRewriter

    return QueryRewriter(state).rewrite(call)


# ---------------------------------------------------------------------------
# registration: interpreter handlers, VM extcall handlers, codegen emitters
# ---------------------------------------------------------------------------


def _interp_handler(impl: Callable, n_args: int, has_exc: bool):
    """Adapt a direct-style operator to the interpreter's prim protocol."""

    def handler(machine, args):
        from repro.machine.runtime import Trap

        values = args[:n_args]
        if has_exc:
            ce, cc = args[n_args], args[n_args + 1]
            try:
                return cc, [impl(machine, list(values))]
            except ExtRaise as ext:
                return ce, [ext.value]
        cont = args[n_args]
        try:
            return cont, [impl(machine, list(values))]
        except ExtRaise as ext:
            # no exception continuation in the signature: route to the
            # dynamic handler stack like any runtime trap
            raise Trap(ext.value) from None

    return handler


def _vm_emitter(name: str, n_args: int, has_exc: bool):
    """Generate the ``extcall`` instruction for one operator."""

    def emit(c, app: PrimApp) -> None:
        values = app.args[:n_args]
        regs = tuple(c.value_reg(v) for v in values)
        dst, err = c.fresh_reg(), c.fresh_reg()
        if has_exc:
            ce, cc = app.args[n_args], app.args[n_args + 1]
            exc = c.block(ce, [err])
            c.emit("extcall", name, dst, regs, exc, err)
            c.continue_with(cc, [dst])
        else:
            cont = app.args[n_args]
            c.emit("extcall", name, dst, regs, None, err)
            c.continue_with(cont, [dst])

    return emit


def _make_primitive(
    name: str,
    impl: Callable,
    n_args: int,
    has_exc: bool,
    effect: EffectClass,
    cost: int,
    fold=None,
    commutative: bool = False,
    bulk: bool = False,
    expand=None,
) -> Primitive:
    EXT_OPS[name] = impl
    return Primitive(
        name,
        Signature(value_args=n_args, cont_args=2 if has_exc else 1),
        Attributes(effect=effect, commutative=commutative, bulk=bulk),
        fold=fold,
        cost=cost,
        interp=_interp_handler(impl, n_args, has_exc),
        emit=_vm_emitter(name, n_args, has_exc),
        expand=expand,
    )


#: the bulk operators iterate a relation; the query rules rewrite them
_BULK = {"bulk": True, "expand": _expand}

QUERY_PRIMITIVES = [
    _make_primitive("select", _op_select, 2, True, EffectClass.READ, 50, **_BULK),
    _make_primitive("project", _op_project, 2, True, EffectClass.READ, 50, **_BULK),
    _make_primitive("join", _op_join, 3, True, EffectClass.READ, 200, **_BULK),
    _make_primitive("exists", _op_exists, 2, True, EffectClass.READ, 30, **_BULK),
    _make_primitive("empty", _op_empty, 1, False, EffectClass.READ, 3),
    _make_primitive("count", _op_count, 1, False, EffectClass.READ, 3),
    _make_primitive(
        "and", _op_and, 2, False, EffectClass.PURE, 1, fold=_fold_and, commutative=True
    ),
    _make_primitive(
        "or", _op_or, 2, False, EffectClass.PURE, 1, fold=_fold_or, commutative=True
    ),
    _make_primitive("not", _op_not, 1, False, EffectClass.PURE, 1, fold=_fold_not),
    _make_primitive("insert", _op_insert, 2, True, EffectClass.WRITE, 10),
    _make_primitive("indexscan", _op_indexscan, 3, True, EffectClass.READ, 10),
    _make_primitive("rangescan", _op_rangescan, 4, True, EffectClass.READ, 12),
]


def register_query_primitives(registry: PrimitiveRegistry) -> PrimitiveRegistry:
    """Register the relational primitives into a registry (idempotent)."""
    for prim in QUERY_PRIMITIVES:
        if prim.name not in registry:
            registry.register(prim)
    return registry


_query_registry: PrimitiveRegistry | None = None


def query_registry() -> PrimitiveRegistry:
    """The default registry extended with the relational algebra (shared)."""
    global _query_registry
    if _query_registry is None:
        from repro.primitives.registry import default_registry

        _query_registry = register_query_primitives(default_registry().copy())
    return _query_registry
