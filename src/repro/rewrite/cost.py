"""Heuristic cost model for the expansion (inlining) pass.

Paper section 3: "The decision whether a given use of a bound abstraction is
to be substituted is based on a heuristic cost model similar to the one
described by [Appel 1992]."  Section 2.3 item 3: every primitive carries "a
function to estimate the runtime cost of a given call ... measured in the
number of instructions necessary to implement the primitive on an idealized
abstract machine.  This function is used by the optimizer to estimate the
possible savings resulting from the inlining of a TML procedure containing
calls to the primitive."

The model is deliberately simple and unit-consistent: everything is measured
in abstract-machine instructions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.syntax import Abs, App, Lit, PrimApp, Term, Var, iter_subterms
from repro.primitives.registry import PrimitiveRegistry

__all__ = [
    "CALL_COST",
    "CLOSURE_COST",
    "DEFAULT_PRIM_COST",
    "term_cost",
    "InlineDecision",
    "costed_decision",
    "definition_cost",
    "site_decision",
]

#: Instructions for a user-level procedure call: fetch closure, push frame,
#: pass arguments, indirect jump — the overhead inlining eliminates.
CALL_COST = 6

#: Instructions for invoking a continuation: a goto with arguments (most
#: continuation transfers compile to fallthrough or a single jump).
CONT_CALL_COST = 1

#: Instructions to materialize a closure for an abstraction used as a value.
CLOSURE_COST = 4

#: Worst-case cost assumed for unknown primitives (section 2.3: attribute
#: defaults represent the worst possible case).
DEFAULT_PRIM_COST = 20

#: Savings credited per literal argument at a call site: a known constant
#: typically enables at least one fold inside the inlined body.
LIT_ARG_BONUS = 2

#: Savings credited per abstraction argument: a known function argument
#: usually turns an indirect call inside the body into a direct (inlinable)
#: one — the higher-order-argument effect that makes query predicates cheap.
ABS_ARG_BONUS = CALL_COST


def term_cost(term: Term, registry: PrimitiveRegistry) -> int:
    """Estimated instruction cost of one execution path through ``term``.

    A static approximation: every application is counted once.  Fine for
    comparing a call site against an inlined body; not a profile.
    """
    total = 0
    for node in iter_subterms(term):
        if isinstance(node, App):
            fn = node.fn
            is_cont_transfer = (isinstance(fn, Var) and fn.name.is_cont) or (
                isinstance(fn, Abs) and fn.is_cont_abs
            )
            total += CONT_CALL_COST if is_cont_transfer else CALL_COST
        elif isinstance(node, PrimApp):
            prim = registry.get(node.prim)
            total += prim.cost if prim is not None else DEFAULT_PRIM_COST
        elif isinstance(node, Abs):
            total += CLOSURE_COST
    return total


@dataclass(frozen=True, slots=True)
class InlineDecision:
    """Outcome of the per-site heuristic, kept for explainability.

    ``savings`` is what inlining recovers at this site; ``growth`` is the
    residual cost the copy adds.  The site is inlined when ``growth`` stays
    within the pass's growth budget.
    """

    inline: bool
    savings: int
    growth: int
    body_cost: int


def definition_cost(body: Abs, registry: PrimitiveRegistry) -> tuple[int, frozenset[int]]:
    """What :func:`site_decision` needs of ``body`` whatever the site: its
    body's ``term_cost`` and the indices of its unused parameters."""
    from repro.analysis.usage import unused_param_indices

    return term_cost(body.body, registry), frozenset(unused_param_indices(body))


def site_decision(
    body: Abs, call_args: tuple, registry: PrimitiveRegistry, growth_budget: int
) -> InlineDecision:
    """Decide whether to substitute ``body`` at a call site (section 3)."""
    return costed_decision(definition_cost(body, registry), call_args, growth_budget)


def costed_decision(
    costed: tuple[int, frozenset[int]], call_args: tuple, growth_budget: int
) -> InlineDecision:
    """:func:`site_decision` for a definition :func:`definition_cost` costed.

    savings = call overhead + per-argument bonuses for statically known
    arguments; the site is expanded when ``body_cost - savings`` does not
    exceed ``growth_budget``.

    Arguments bound to parameters the body never uses are credited too: the
    reduction pass deletes the dead binding right after inlining, so whatever
    it cost to materialize the argument is recovered (nothing for variables,
    the literal bonus for literals, a closure for abstractions).
    """
    cost, unused = costed
    savings = CALL_COST + CLOSURE_COST  # the call and (eventually) the closure
    for index, arg in enumerate(call_args):
        if isinstance(arg, Lit):
            savings += LIT_ARG_BONUS
        elif isinstance(arg, Abs):
            savings += ABS_ARG_BONUS
        if index in unused:
            if isinstance(arg, Lit):
                savings += 1
            elif isinstance(arg, Abs):
                savings += CLOSURE_COST
    growth = max(0, cost - savings)
    return InlineDecision(growth <= growth_budget, savings, growth, cost)
