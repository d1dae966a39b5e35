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
literals from the heap.  One walk before the rebuild finds the candidates,
the census and the top uid; a candidate is costed once, at its first site.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from repro.core.names import Name, NameSupply, fresh_supply_above
from repro.core.occurrences import count_all
from repro.core.substitution import alpha_rename
from repro.core.syntax import Abs, App, Lit, PrimApp, Term, Var
from repro.primitives.registry import PrimitiveRegistry
from repro.rewrite.cost import costed_decision, definition_cost
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
class _Candidate:
    """An abstraction binding that could be expanded at its call sites."""

    definition: Abs
    recursive: bool
    y_bound: bool
    #: :func:`~repro.rewrite.cost.definition_cost`, filled at the first site
    costed: tuple[int, frozenset[int]] | None = None


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
    candidates: dict[Name, _Candidate]
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
    candidates, occurrences, top = _survey(term)
    if not candidates and heap is None:
        return term
    stats = stats if stats is not None else RewriteStats()
    state = _ExpansionState(
        registry=registry,
        config=config or ExpansionConfig(),
        supply=fresh_supply_above([top]),
        stats=stats,
        heap=heap,
        rules=rules or RuleConfig(),
        candidates=candidates,
    )
    new_term = _rewrite_sites(term, state, occurrences)
    stats.expansion_passes += 1
    stats.inlined_sites += state.sites_inlined
    return new_term


def _survey(term: Term) -> tuple[dict[Name, _Candidate], Counter[Name], int]:
    """One walk: ``term``'s expansion candidates, its occurrence census and
    its top uid (what ``count_all`` and ``max_uid`` would return).

    Candidates are let bindings ``(λ(.. f ..) body  .. proc ..)`` and the
    ``v1..vn`` of a fixpoint function.  Once-referenced abstractions are left
    to the reduction pass's subst rule.
    """
    candidates: dict[Name, _Candidate] = {}
    names: list[Name] = []
    binders: list[Name] = []
    stack: list[Term] = [term]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Var:
            names.append(node.name)
        elif kind is Abs:
            binders.extend(node.params)
            stack.append(node.body)
        elif kind is App:
            if type(node.fn) is Abs:
                for param, arg in zip(node.fn.params, node.args):
                    if type(arg) is Abs:
                        candidates[param] = _Candidate(arg, False, False)
            stack.append(node.fn)
            stack.extend(node.args)
        elif kind is PrimApp:
            split = _split_fix(node) if node.prim == "Y" else None
            if split is not None:
                _, c0, vs, _, body = split
                group = set(vs) | {c0}
                for v, abs_value in zip(vs, body.args[1:]):
                    if type(abs_value) is Abs:
                        # A member that references no group name is not
                        # actually recursive — inlining it is ordinary
                        # procedure inlining, not loop unrolling.
                        recursive = not group.isdisjoint(count_all(abs_value))
                        candidates[v] = _Candidate(abs_value, recursive, True)
            stack.extend(node.args)
    census = Counter(names)
    top = max((name.uid for name in chain(census, binders)), default=-1)
    return candidates, census, top


def _rewrite_sites(term: Term, state: _ExpansionState, occurrences) -> Term:
    """Rebuild the tree, replacing approved call sites with fresh copies
    and, with a heap, primitive applications with what their hooks return."""
    EXPAND, BUILD = 0, 1
    work: list[tuple[Term, int]] = [(term, EXPAND)]
    results: list[Term] = []

    while work:
        node, phase = work.pop()
        kind = type(node)
        if phase == EXPAND:
            if kind is Var or kind is Lit:
                results.append(node)
            elif kind is Abs:
                work.append((node, BUILD))
                work.append((node.body, EXPAND))
            elif kind is App:
                work.append((node, BUILD))
                for arg in reversed(node.args):
                    work.append((arg, EXPAND))
                work.append((node.fn, EXPAND))
            else:
                work.append((node, BUILD))
                for arg in reversed(node.args):
                    work.append((arg, EXPAND))
        else:
            if kind is Abs:
                body = results.pop()
                results.append(node if body is node.body else Abs(node.params, body))
            elif kind is App:
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
                start = len(results) - len(node.args)
                args = tuple(results[start:])
                del results[start:]
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
    if type(app.fn) is not Var:
        return app
    candidate = state.candidates.get(app.fn.name)
    if candidate is None:
        return app
    definition = candidate.definition
    if definition.arity != len(app.args):
        return app
    if not candidate.y_bound and occurrences.get(app.fn.name, 0) < 2:
        # once-referenced let binding: the reduction pass's subst rule moves
        # it for free.  (Y-bound members are never moved by subst, so they
        # are expanded here regardless of their reference count.)
        return app
    if candidate.recursive and not state.config.unroll_recursive:
        return app
    if state.sites_inlined >= state.config.max_sites_per_pass:
        return app

    budget = (
        state.config.recursive_growth_budget
        if candidate.recursive
        else state.config.growth_budget
    )
    if candidate.costed is None:
        candidate.costed = definition_cost(definition, state.registry)
    decision = costed_decision(candidate.costed, app.args, budget)
    if not decision.inline:
        return app

    copy = alpha_rename(definition, state.supply)
    assert isinstance(copy, Abs)
    state.sites_inlined += 1
    state.stats.fired("expand-inline")
    return App(copy, app.args)
