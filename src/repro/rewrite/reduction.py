"""The reduction pass (paper section 3).

"During the reduction pass, a number of generic rewrite rules are applied to
the TML tree until no more rules are applicable.  Termination is guaranteed
because each of the rewrite rules reduces the size of the TML tree if it is
applied."

One *pass* is a single bottom-up rebuild of the tree that applies every
enabled rule wherever it matches, maintaining the occurrence census
incrementally (see :class:`repro.rewrite.rules.ReductionState` for the
staleness protocol).  Passes repeat until one makes no change; each pass is
O(tree), and the strict size decrease bounds the number of passes.  A pass
is a function of its term (fresh census, empty dirty set), so the pipeline
never reduces again a term that a fixpoint call has just returned.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

from repro.core.occurrences import OccurrenceCensus
from repro.obs.trace import TRACER
from repro.core.syntax import Abs, App, Lit, PrimApp, Term, Var
from repro.primitives.registry import PrimitiveRegistry
from repro.rewrite.rules import ReductionState, RuleConfig, rewrite_app, rewrite_prim, try_eta
from repro.rewrite.stats import RewriteStats

__all__ = ["reduce_pass", "reduce_to_fixpoint"]

#: Upper bound on local cascading at a single node; each cascade step shrinks
#: the subtree so this is never reached in practice — pure safety net.
_CASCADE_LIMIT = 10_000

#: Safety bound on the number of passes (each pass shrinks the tree or is
#: the last, so real programs converge in a handful).
_MAX_PASSES = 1_000


def reduce_pass(term: Term, state: ReductionState) -> Term:
    """One bottom-up rewrite pass over ``term``; sets ``state.changed``."""
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
            else:  # PrimApp
                work.append((node, BUILD))
                for arg in reversed(node.args):
                    work.append((arg, EXPAND))
        else:  # BUILD
            if kind is Abs:
                body = results.pop()
                assert type(body) is App or type(body) is PrimApp
                rebuilt = node if body is node.body else Abs(node.params, body)
                results.append(rebuilt)
            elif kind is App:
                count = 1 + len(node.args)
                parts = results[-count:]
                del results[-count:]
                fn, args = parts[0], parts[1:]
                # Positional restriction on eta: the arguments of a
                # continuation-variable application may be Y-group members
                # (the fixfun body is `(c entry abs1..absn)`), and
                # eta-reducing a member to its own recursive name would
                # produce the ill-defined binding v := v.  Bottom-up we
                # cannot see whether this App is a fix body, so we skip eta
                # for all cont-var applications — ordinary binding redexes
                # (fn is an Abs) and user calls (fn is a value variable)
                # keep it.
                if not (type(fn) is Var and fn.name.is_cont):
                    args = [_maybe_eta(arg, state) for arg in args]
                if fn is node.fn and all(a is b for a, b in zip(args, node.args)):
                    rebuilt: Term = node
                else:
                    rebuilt = App(fn, tuple(args))
                results.append(_cascade(rebuilt, state))
            else:  # PrimApp
                start = len(results) - len(node.args)
                args = results[start:]
                del results[start:]
                # eta is positionally restricted: the Y fixpoint argument must
                # stay an abstraction (its λ(c0 v1..vn c) shape is what the
                # Y rules and the code generator destructure).
                args = [
                    arg
                    if (node.prim == "Y" and index == 0)
                    else _maybe_eta(arg, state)
                    for index, arg in enumerate(args)
                ]
                if all(a is b for a, b in zip(args, node.args)):
                    rebuilt = node
                else:
                    rebuilt = PrimApp(node.prim, tuple(args))
                results.append(_cascade(rebuilt, state))

    assert len(results) == 1
    out = results[0]
    if type(out) is Abs:
        replacement = try_eta(out, state)
        if replacement is not None:
            out = replacement
    return out


def _maybe_eta(value: Term, state: ReductionState) -> Term:
    if type(value) is Abs:
        replacement = try_eta(value, state)
        if replacement is not None:
            return replacement
    return value


def _cascade(node: Term, state: ReductionState) -> Term:
    """Apply the application-level rules repeatedly at one node."""
    current = node
    timer = state.timer
    for _ in range(_CASCADE_LIMIT):
        if timer is not None:
            # eta fires elsewhere may have left pending entries; drop them so
            # this call's elapsed time is credited only to its own rules
            timer.pending.clear()
            started = perf_counter()
        if type(current) is App and type(current.fn) is Abs:
            rewritten = rewrite_app(current, state)
        elif type(current) is PrimApp:
            rewritten = rewrite_prim(current, state)
        else:
            break
        if timer is not None:
            timer.credit(perf_counter() - started)
        if rewritten is current:
            break
        current = rewritten
    return current


def reduce_to_fixpoint(
    term: Term,
    registry: PrimitiveRegistry,
    config: RuleConfig | None = None,
    stats: RewriteStats | None = None,
    on_pass=None,
    timer=None,
) -> Term:
    """Apply the reduction rules until none is applicable (section 3).

    ``on_pass(before, after, fired)`` is invoked after every pass that changed
    the tree, with the per-pass rule-application counts (a ``Counter``); the
    checked pipeline uses it to re-verify the section 2.2/2.3/3 invariants.
    ``timer`` is an optional :class:`~repro.rewrite.stats.RuleTimer`
    collecting per-rule latencies (attached by the pipeline while tracing).
    """
    config = config or RuleConfig()
    stats = stats if stats is not None else RewriteStats()
    tracer = TRACER
    for _ in range(_MAX_PASSES):
        traced = tracer.enabled
        state = ReductionState(
            census=OccurrenceCensus(term),
            registry=registry,
            config=config,
            stats=stats,
            timer=timer,
        )
        want_delta = on_pass is not None or traced
        counts_before = Counter(stats.rule_counts) if want_delta else None
        span = tracer.span("rewrite.pass", pass_index=stats.reduction_passes)
        before = term
        term = reduce_pass(term, state)
        stats.reduction_passes += 1
        if traced:
            fired = stats.rule_counts - counts_before
            span.set(
                changed=state.changed,
                fired=sum(fired.values()),
                rules={name: fired[name] for name in sorted(fired)},
            ).finish()
        if not state.changed:
            break
        if on_pass is not None:
            delta = stats.rule_counts - counts_before
            on_pass(before, term, delta)
    return term
