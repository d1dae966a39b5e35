"""The expansion pass: procedure inlining / view expansion (paper section 3).

"The subsequent expansion pass tries to substitute bound λ-abstractions
(procedures or continuations) at the positions where they are applied.
Effectively, this CPS transformation performs procedure inlining in terms of
traditional compiler optimization or view expansion in database
terminology."

The reduction pass already moves *once-referenced* abstractions to their use
site (the ``subst`` rule's precondition).  Expansion handles the multiply
referenced ones: it copies (a variant of the subst rule, with alpha
renaming so the unique binding rule survives duplication) the abstraction
into call sites the cost model approves.  Both let-bound procedures

    (λ(f ..) body  proc(..) pbody ..)        call sites (f a.. ce cc)

and Y-bound recursive procedures are candidates; expanding a recursive
procedure into its own body is loop unrolling, which the paper lists among
the classic optimizations subsumed by these rules.  Unrolling is off by
default and bounded by the penalty mechanism when enabled.

Given a heap (a runtime optimization), the same rebuild also runs each
primitive's ``expand`` hook on every rebuilt application of it.  That is
where the query rules of section 4.2 fire (the relational primitives'
hooks, :mod:`repro.query.rules`): view expansion meets the query
constructs it exposes, and the rules read the relations behind OID
literals from the heap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.names import Name, NameSupply, fresh_supply_above
from repro.core.occurrences import count_all
from repro.core.substitution import alpha_rename
from repro.core.syntax import Abs, App, Lit, PrimApp, Term, Var, max_uid
from repro.primitives.registry import PrimitiveRegistry
from repro.rewrite.cost import site_decision
from repro.rewrite.rules import RuleConfig, _split_fix  # shared Y destructuring
from repro.rewrite.stats import RewriteStats

__all__ = ["ExpansionConfig", "expand_pass"]


@dataclass(frozen=True, slots=True)
class ExpansionConfig:
    """Tuning of the expansion pass.

    ``growth_budget`` is the residual cost (in abstract-machine instructions)
    a single inlined copy may add; it shrinks as penalty accumulates, which
    is how the paper guarantees termination of the reduce/expand alternation
    "even in obscure cases".
    """

    growth_budget: int = 24
    unroll_recursive: bool = False
    #: growth budget applied to recursive (Y-bound) call sites when
    #: unrolling is enabled — deliberately tighter.
    recursive_growth_budget: int = 8
    #: hard cap on inlined sites per pass (defence against pathological fanout)
    max_sites_per_pass: int = 2_000


@dataclass(slots=True)
class _ExpansionState:
    registry: PrimitiveRegistry
    config: ExpansionConfig
    supply: NameSupply
    stats: RewriteStats
    #: the object store a runtime optimization reads; None runs no hooks
    heap: object | None
    #: which rules the ``expand`` hooks may fire
    rules: RuleConfig
    #: name -> (definition, is_recursive, is_y_bound)
    candidates: dict[Name, tuple[Abs, bool, bool]] = field(default_factory=dict)
    sites_inlined: int = 0


def expand_pass(
    term: Term,
    registry: PrimitiveRegistry,
    config: ExpansionConfig | None = None,
    stats: RewriteStats | None = None,
    heap=None,
    rules: RuleConfig | None = None,
) -> Term:
    """Inline cost-approved call sites of multiply-referenced abstractions;
    with a ``heap``, also run the primitives' ``expand`` hooks."""
    config = config or ExpansionConfig()
    stats = stats if stats is not None else RewriteStats()
    state = _ExpansionState(
        registry=registry,
        config=config,
        supply=fresh_supply_above([max_uid(term)]),
        stats=stats,
        heap=heap,
        rules=rules or RuleConfig(),
    )
    _collect_candidates(term, state)
    if not state.candidates and heap is None:
        return term
    occurrences = count_all(term)
    new_term = _rewrite_sites(term, state, occurrences)
    stats.expansion_passes += 1
    stats.inlined_sites += state.sites_inlined
    return new_term


def _collect_candidates(term: Term, state: _ExpansionState) -> None:
    """Find abstraction bindings that could be expanded at their call sites.

    Let bindings: ``(λ(.. f ..) body  .. proc ..)``.  Y bindings: the
    ``v1..vn`` of a fixpoint function.  Once-referenced abstractions are left
    to the reduction pass's subst rule.
    """
    stack: list[Term] = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Abs):
            stack.append(node.body)
        elif isinstance(node, App):
            if isinstance(node.fn, Abs):
                for param, arg in zip(node.fn.params, node.args):
                    if isinstance(arg, Abs):
                        state.candidates[param] = (arg, False, False)
            stack.append(node.fn)
            stack.extend(node.args)
        elif isinstance(node, PrimApp):
            if node.prim == "Y":
                split = _split_fix(node)
                if split is not None:
                    _, c0, vs, _, body = split
                    group = set(vs) | {c0}
                    for v, abs_value in zip(vs, body.args[1:]):
                        if isinstance(abs_value, Abs):
                            # A member that references no group name is not
                            # actually recursive — inlining it is ordinary
                            # procedure inlining, not loop unrolling.
                            occurrences = count_all(abs_value)
                            recursive = any(name in occurrences for name in group)
                            state.candidates[v] = (abs_value, recursive, True)
            stack.extend(node.args)


def _rewrite_sites(term: Term, state: _ExpansionState, occurrences) -> Term:
    """Rebuild the tree, replacing approved call sites with fresh copies
    and, with a heap, primitive applications with what their hooks return."""
    EXPAND, BUILD = 0, 1
    work: list[tuple[Term, int]] = [(term, EXPAND)]
    results: list[Term] = []

    while work:
        node, phase = work.pop()
        if phase == EXPAND:
            if isinstance(node, (Lit, Var)):
                results.append(node)
            elif isinstance(node, Abs):
                work.append((node, BUILD))
                work.append((node.body, EXPAND))
            elif isinstance(node, App):
                work.append((node, BUILD))
                for arg in reversed(node.args):
                    work.append((arg, EXPAND))
                work.append((node.fn, EXPAND))
            else:
                work.append((node, BUILD))
                for arg in reversed(node.args):
                    work.append((arg, EXPAND))
        else:
            if isinstance(node, Abs):
                body = results.pop()
                results.append(node if body is node.body else Abs(node.params, body))
            elif isinstance(node, App):
                count = 1 + len(node.args)
                parts = results[-count:]
                del results[-count:]
                fn, args = parts[0], tuple(parts[1:])
                rebuilt = (
                    node
                    if fn is node.fn and all(a is b for a, b in zip(args, node.args))
                    else App(fn, args)
                )
                results.append(_maybe_inline(rebuilt, state, occurrences))
            else:  # PrimApp
                count = len(node.args)
                args = tuple(results[-count:]) if count else ()
                if count:
                    del results[-count:]
                rebuilt = (
                    node
                    if all(a is b for a, b in zip(args, node.args))
                    else PrimApp(node.prim, args)
                )
                if state.heap is not None:
                    prim = state.registry.get(node.prim)
                    if prim is not None and prim.expand is not None:
                        rebuilt = prim.expand(rebuilt, state)
                results.append(rebuilt)

    assert len(results) == 1
    return results[0]


def _maybe_inline(app: App, state: _ExpansionState, occurrences) -> App:
    if not isinstance(app.fn, Var):
        return app
    candidate = state.candidates.get(app.fn.name)
    if candidate is None:
        return app
    definition, is_recursive, is_y_bound = candidate
    if definition.arity != len(app.args):
        return app
    if not is_y_bound and occurrences.get(app.fn.name, 0) < 2:
        # once-referenced let binding: the reduction pass's subst rule moves
        # it for free.  (Y-bound members are never moved by subst, so they
        # are expanded here regardless of their reference count.)
        return app
    if is_recursive and not state.config.unroll_recursive:
        return app
    if state.sites_inlined >= state.config.max_sites_per_pass:
        return app

    budget = (
        state.config.recursive_growth_budget
        if is_recursive
        else state.config.growth_budget
    )
    decision = site_decision(definition, app.args, state.registry, budget)
    if not decision.inline:
        return app

    copy = alpha_rename(definition, state.supply)
    assert isinstance(copy, Abs)
    state.sites_inlined += 1
    state.stats.fired("expand-inline")
    return App(copy, app.args)
