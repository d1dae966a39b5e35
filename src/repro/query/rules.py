"""Algebraic query rewrite rules on CPS terms (paper section 4.2).

The rules are expressed directly on TML — "for a given set of primitive
procedures, algebraic and implementation-oriented query optimization rules
can be expressed quite naturally in CPS":

* **merge-select** — the paper's worked example σp(σq(R)) ≡ σp∧q(R)::

      (select q R ce cont(tempRel)               (select proc(x ce' cc')
         (select p tempRel ce cc))        →           (q x ce' cont(b)
                                                        (== b true
                                                           cont()(p x ce' cc')
                                                           cont()(cc' false)))
                                                    R ce cc)

  One scan instead of two and no temporary relation; the merged predicate
  evaluates p only on q-passing rows, preserving σ semantics exactly.

* **merge-project** — π_f(π_g(R)) ≡ π_{f∘g}(R), same shape.

* **trivial-exists** — the paper's scoping-restricted rule: when the
  correlation variable does not occur in the predicate (``|p|_x = 0``) and
  the predicate is effect-safe, ``∃x∈R: p`` reduces to evaluating ``p`` once
  guarded by non-emptiness.  We generate the short-circuit form
  ``(empty R ...)`` first so the predicate runs at most once, which the
  paper's ``p ∧ ¬empty(R)`` form reduces to after boolean folding.

* **push-select-join** — σp(R ⋈ S) → σp(R) ⋈ S when p reads only R's
  columns, which needs R's arity: the relation behind the OID literal.

* **index-select** — access-path selection: a selection whose predicate is
  an equality on a field of a relation *that has an index at runtime*
  becomes an ``indexscan``.  This rule needs the object store (the relation
  behind the OID literal), which is exactly why the paper delays query
  optimization until runtime (section 4.2).

There is no query-rewrite engine here.  The rules are the ``expand`` hook
of ``select``, ``project``, ``exists`` and ``join``
(:mod:`repro.query.algebra`): the program optimizer's expansion pass calls
:meth:`QueryRewriter.rewrite` on each of their applications when it runs
against a heap, with its name supply, rule switches and statistics, and
the reduce/expand alternation is the fixpoint (Fig. 4's "the program
optimizer invokes the query optimizer").
"""

from __future__ import annotations

from repro.core.names import Name
from repro.core.occurrences import count as count_occurrences
from repro.core.syntax import Abs, App, Application, Lit, Oid, PrimApp, Term, Value, Var
from repro.obs.trace import TRACER
from repro.primitives.effects import EffectClass
from repro.primitives.registry import PrimitiveRegistry
from repro.query.relation import Relation

__all__ = ["QueryRewriter", "is_effect_safe"]

_SAFE_EFFECTS = {EffectClass.PURE, EffectClass.READ}


def is_effect_safe(term: Term, registry: PrimitiveRegistry) -> bool:
    """May this term be evaluated a different number of times than written?

    True when every primitive is PURE/READ and every call target is a
    continuation (unknown user procedures are conservatively unsafe) —
    the worst-case-assumption discipline of section 2.3.
    """
    stack: list[Term] = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, PrimApp):
            prim = registry.get(node.prim)
            if prim is None or prim.attrs.effect not in _SAFE_EFFECTS:
                return False
            stack.extend(node.args)
        elif isinstance(node, App):
            if isinstance(node.fn, Var) and not node.fn.name.is_cont:
                return False
            stack.append(node.fn)
            stack.extend(node.args)
        elif isinstance(node, Abs):
            stack.append(node.body)
    return True


class QueryRewriter:
    """The query rules at one relational primitive application.

    ``state`` is the expansion pass's: ``registry``, ``heap`` (never None
    here), ``rules`` (a :class:`repro.rewrite.rules.RuleConfig`), ``supply``
    and ``stats``.
    """

    __slots__ = ("state",)

    def __init__(self, state):
        self.state = state

    def rewrite(self, call: PrimApp) -> Application:
        """The first enabled rule that applies to ``call``, or ``call``."""
        arity, rules = _RULES[call.prim]
        if len(call.args) != arity:
            return call
        for rule, apply in rules:
            if self.state.rules.allows(rule):
                out = apply(self, call)
                if out is not call:
                    return out
        return call

    def _fired(self, rule: str, relation=None, **attrs) -> None:
        """Count a rule application and, when tracing, explain the choice.

        The emitted ``query.rule`` event carries the cardinality/cost
        estimates behind the decision (e.g. scan-vs-index cost for
        index-select), so a trace answers *why* a plan was chosen.
        """
        self.state.stats.fired(rule)
        if TRACER.enabled:
            if relation is not None:
                attrs["relation"] = self._describe_rel(relation)
            TRACER.event("query.rule", rule=rule, **attrs)

    def _describe_rel(self, rel) -> str:
        """A compact label for the relation operand of a fired rule."""
        if isinstance(rel, Lit) and isinstance(rel.value, Oid):
            return f"oid:{int(rel.value)}"
        if isinstance(rel, Var):
            return str(rel.name)
        return type(rel).__name__

    def _relation(self, rel) -> Relation | None:
        """The stored relation behind an OID literal operand, if any."""
        if not (isinstance(rel, Lit) and isinstance(rel.value, Oid)):
            return None
        try:
            relation = self.state.heap.load(rel.value)
        except Exception:
            return None
        return relation if isinstance(relation, Relation) else None

    # -------------------------------------------------------------- rules

    def _merge_select(self, node: PrimApp) -> Application:
        """σp(σq(R)) → σ(q∧p)(R) — the paper's merge-select."""
        inner = _consumed_by(node, "select")
        if inner is None:
            return node
        q, rel, ce, _ = node.args
        p, _, _, cc2 = inner.args
        merged = self._conjoin(q, p)
        self._fired(
            "merge-select",
            relation=rel,
            scans_before=2,
            scans_after=1,
            materializes_temp=False,
        )
        return PrimApp("select", (merged, rel, ce, cc2))

    def _conjoin(self, q: Value, p: Value) -> Abs:
        """proc(x ce cc): q(x) and then p(x), short-circuiting on false."""
        supply = self.state.supply
        x = supply.fresh_val("x")
        ce = supply.fresh_cont("ce")
        cc = supply.fresh_cont("cc")
        b = supply.fresh_val("b")
        miss = Abs((), App(Var(cc), (Lit(False),)))
        hit = Abs((), App(p, (Var(x), Var(ce), Var(cc))))
        test = PrimApp("==", (Var(b), Lit(True), hit, miss))
        body = App(q, (Var(x), Var(ce), Abs((b,), test)))
        return Abs((x, ce, cc), body)

    def _merge_project(self, node: PrimApp) -> Application:
        """π_f(π_g(R)) → π_{f∘g}(R)."""
        inner = _consumed_by(node, "project")
        if inner is None:
            return node
        g, rel, ce, _ = node.args
        f, _, _, cc2 = inner.args
        supply = self.state.supply
        x = supply.fresh_val("x")
        ce_n = supply.fresh_cont("ce")
        cc_n = supply.fresh_cont("cc")
        t = supply.fresh_val("t")
        inner_call = App(f, (Var(t), Var(ce_n), Var(cc_n)))
        body = App(g, (Var(x), Var(ce_n), Abs((t,), inner_call)))
        composed = Abs((x, ce_n, cc_n), body)
        self._fired(
            "merge-project",
            relation=rel,
            scans_before=2,
            scans_after=1,
            materializes_temp=False,
        )
        return PrimApp("project", (composed, rel, ce, cc2))

    def _trivial_exists(self, node: PrimApp) -> Application:
        """(|p|_x = 0): ∃x∈R: p  →  ¬empty(R) ∧ p (paper's trivial-exists)."""
        pred, rel, ce, cc = node.args
        if not isinstance(pred, Abs) or len(pred.params) != 3:
            return node
        x = pred.params[0]
        if count_occurrences(pred.body, x) != 0:
            return node
        if not is_effect_safe(pred.body, self.state.registry):
            return node

        supply = self.state.supply
        e = supply.fresh_val("e")
        self._fired("trivial-exists", relation=rel, predicate_evals_after=1)
        # cc may be an abstraction; it is placed twice, so λ-bind it first
        if isinstance(cc, Abs):
            j = supply.fresh_cont("j")
            test = PrimApp("==", (Var(e), Lit(True),
                                  Abs((), App(Var(j), (Lit(False),))),
                                  Abs((), App(pred, (Lit(0), ce, Var(j))))))
            return App(Abs((j,), PrimApp("empty", (rel, Abs((e,), test)))), (cc,))
        on_empty = Abs((), App(cc, (Lit(False),)))
        on_nonempty = Abs((), App(pred, (Lit(0), ce, cc)))
        test = PrimApp("==", (Var(e), Lit(True), on_empty, on_nonempty))
        return PrimApp("empty", (rel, Abs((e,), test)))

    def _push_select_left(self, node: PrimApp) -> Application:
        """σp(R ⋈ S) → σp(R) ⋈ S when p touches only R's columns.

        CPS pattern::

            (join jp R S ce cont(t) (select p t ce cc))
              →
            (select p' R ce cont(t2) (join jp t2 S ce cc))

        Join rows are the left row's fields followed by the right row's, so
        a predicate whose every access of its row variable is a direct
        indexed load below ``arity(R)`` applies unchanged to bare R rows.
        ``arity(R)`` is a *runtime binding* (the relation behind the OID
        literal), which is why this, too, only fires in the runtime
        optimizer (section 4.2).  Pushed, p also runs on R rows that match
        nothing in S, so p must not raise: it never uses its exception
        continuation.
        """
        inner = _consumed_by(node, "select")
        if inner is None:
            return node
        jp, left_rel, right_rel, ce, _ = node.args
        p, _, _, cc2 = inner.args
        if not isinstance(p, Abs) or len(p.params) != 3:
            return node
        if count_occurrences(p.body, p.params[1]) != 0:
            return node
        relation = self._relation(left_rel)
        if relation is None or not _accesses_only_below(p, relation.arity):
            return node
        if not is_effect_safe(p.body, self.state.registry):
            return node

        temp2 = self.state.supply.fresh_val("tempRel")
        new_join = PrimApp("join", (jp, Var(temp2), right_rel, ce, cc2))
        left_rows = len(relation)
        right = self._relation(right_rel)
        self._fired(
            "push-select-join",
            relation=left_rel,
            left_rows=left_rows,
            right=None if right is None else len(right),
            est_join_input_before=left_rows,
        )
        return PrimApp("select", (p, left_rel, ce, Abs((temp2,), new_join)))

    def _index_select(self, node: PrimApp) -> Application:
        """Equality selection on an indexed field → indexscan (runtime rule)."""
        pred, rel, ce, cc = node.args
        match = _match_equality_pred(pred)
        if match is None:
            return node
        relation = self._relation(rel)
        if relation is None:
            return node
        field_position, key_value = match
        field_name = relation.field_at(field_position)
        if field_name is None or not relation.has_index(field_name):
            return node
        rows = len(relation)
        self._fired(
            "index-select",
            relation=rel,
            field=field_name,
            rows=rows,
            est_scan_cost=rows,
            est_index_cost=1,
        )
        return PrimApp("indexscan", (rel, Lit(field_name), key_value, ce, cc))


#: relational primitive -> (its arity, its rules in the order they are tried)
_RULES = {
    "select": (
        4,
        (("merge-select", QueryRewriter._merge_select),
         ("index-select", QueryRewriter._index_select)),
    ),
    "project": (4, (("merge-project", QueryRewriter._merge_project),)),
    "exists": (4, (("trivial-exists", QueryRewriter._trivial_exists),)),
    "join": (5, (("push-select-join", QueryRewriter._push_select_left),)),
}


def _consumed_by(node: PrimApp, prim: str) -> PrimApp | None:
    """The operator that consumes ``node``'s result, if it fuses with it.

    That is ``node``'s continuation ``cont(t) (prim f t ce' cc)`` when the
    temporary ``t`` occurs there exactly once (as the relation operand) and
    ``ce'`` is ``node``'s own exception continuation: the two operators
    then run as one, with no temporary relation between them.
    """
    ce, k = node.args[-2:]
    if not (isinstance(k, Abs) and len(k.params) == 1):
        return None
    inner = k.body
    if not (isinstance(inner, PrimApp) and inner.prim == prim and len(inner.args) == 4):
        return None
    temp = k.params[0]
    inner_rel, ce2 = inner.args[1], inner.args[2]
    if not (isinstance(inner_rel, Var) and inner_rel.name == temp):
        return None
    if count_occurrences(inner, temp) != 1:
        return None
    if not (isinstance(ce, Var) and isinstance(ce2, Var) and ce.name == ce2.name):
        return None
    return inner


def _accesses_only_below(pred: Abs, limit: int) -> bool:
    """Every use of the predicate's row variable is ``([] x i)`` with i < limit."""
    x = pred.params[0]
    stack: list = [pred.body]
    found_access = False
    while stack:
        node = stack.pop()
        if isinstance(node, PrimApp):
            if node.prim == "[]" and len(node.args) == 3:
                target, index, k = node.args
                if isinstance(target, Var) and target.name == x:
                    if not (
                        isinstance(index, Lit)
                        and isinstance(index.value, int)
                        and not isinstance(index.value, bool)
                        and 0 <= index.value < limit
                    ):
                        return False
                    found_access = True
                    stack.append(k)
                    stack.append(index)
                    continue
            for arg in node.args:
                if isinstance(arg, Var) and arg.name == x:
                    return False  # x escapes into an unknown position
                stack.append(arg)
        elif isinstance(node, App):
            for part in (node.fn,) + node.args:
                if isinstance(part, Var) and part.name == x:
                    return False
                stack.append(part)
        elif isinstance(node, Abs):
            stack.append(node.body)
    return True


def _match_equality_pred(pred: Value):
    """Match ``proc(x ce cc)(([] x IDX) == V ? true : false)``.

    Returns (field position, key value) or None.  ``V`` may be a literal or
    a variable bound outside the predicate.
    """
    if not isinstance(pred, Abs) or len(pred.params) != 3:
        return None
    x, ce, cc = pred.params
    body = pred.body
    if not (isinstance(body, PrimApp) and body.prim == "[]" and len(body.args) == 3):
        return None
    target, index, k = body.args
    if not (isinstance(target, Var) and target.name == x):
        return None
    if not (isinstance(index, Lit) and isinstance(index.value, int)):
        return None
    if not (isinstance(k, Abs) and len(k.params) == 1):
        return None
    t = k.params[0]
    cmp = k.body
    if not (isinstance(cmp, PrimApp) and cmp.prim == "==" and len(cmp.args) == 4):
        return None
    a, b, hit, miss = cmp.args
    if isinstance(a, Var) and a.name == t:
        key = b
    elif isinstance(b, Var) and b.name == t:
        key = a
    else:
        return None
    if isinstance(key, Var) and key.name in (x, t):
        return None
    if isinstance(key, Abs):
        return None
    if not _is_bool_return(hit, cc, True) or not _is_bool_return(miss, cc, False):
        return None
    return index.value, key


def _is_bool_return(branch: Value, cc: Name, expected: bool) -> bool:
    return (
        isinstance(branch, Abs)
        and not branch.params
        and isinstance(branch.body, App)
        and isinstance(branch.body.fn, Var)
        and branch.body.fn.name == cc
        and len(branch.body.args) == 1
        and branch.body.args[0] == Lit(expected)
    )
