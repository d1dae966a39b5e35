"""The two-pass TML optimizer (paper section 3).

"We have organized the TML optimizer into two separate passes, namely a
reduction pass and the expansion pass. ... each expansion pass is followed
by a reduction pass.  Likewise, the reduction pass may reveal new
opportunities to perform expansions, so the two passes are applied
repeatedly until no more changes are made to the TML tree.  To guarantee the
termination of this process even in obscure cases, a penalty is accumulated
at each round of the reduction/expansion phases.  The optimization process
stops when this penalty reaches a certain limit."

Penalty here is the number of inlined sites per round; when the accumulated
penalty crosses ``penalty_limit`` the growth budget collapses to zero and
the alternation necessarily stops.  The last fixpoint is not confirmed by a
second one: the final reduction runs only over a term expansion changed.

Given a heap, ``optimize`` is the runtime optimizer of section 4.2 as well:
the expansion pass runs the relational primitives' query rules, and a pass
in which one fired counts as a change, so the alternation goes on.  The
static compiler passes no heap and gets no query rule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from repro.core.syntax import Term, term_size
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.primitives.registry import PrimitiveRegistry, default_registry
from repro.rewrite.expansion import ExpansionConfig, expand_pass
from repro.rewrite.reduction import reduce_to_fixpoint
from repro.rewrite.rules import RuleConfig
from repro.rewrite.stats import QueryRewriteStats, RewriteStats, RuleTimer

__all__ = ["OptimizerConfig", "OptimizeResult", "optimize", "reduce_only"]

_OPT_RUNS = METRICS.counter("rewrite.optimize_runs", "full optimizer invocations")
_RULES_FIRED = METRICS.counter("rewrite.rules_fired", "reduction rule applications")
_SITES_INLINED = METRICS.counter("rewrite.inlined_sites", "expansion inline sites")
_SIZE_DELTA = METRICS.histogram(
    "rewrite.size_shrink", "term-size reduction (nodes removed) per optimize run"
)


@dataclass(frozen=True, slots=True)
class OptimizerConfig:
    """Configuration of the full reduce/expand alternation."""

    rules: RuleConfig = field(default_factory=RuleConfig)
    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)
    #: accumulated-penalty limit that bounds the alternation (section 3)
    penalty_limit: int = 500
    #: hard bound on reduce/expand rounds
    max_rounds: int = 10
    #: skip the expansion pass entirely (reduction-only optimizer)
    expansion_enabled: bool = True

    @classmethod
    def reduction_only(cls) -> "OptimizerConfig":
        return cls(expansion_enabled=False)


@dataclass(frozen=True, slots=True)
class OptimizeResult:
    """An optimized term plus the statistics explaining what happened."""

    term: Term
    stats: RewriteStats

    @property
    def query_stats(self) -> QueryRewriteStats:
        return QueryRewriteStats(self.stats)


def optimize(
    term: Term,
    registry: PrimitiveRegistry | None = None,
    config: OptimizerConfig | None = None,
    check: bool = False,
    heap=None,
) -> OptimizeResult:
    """Run the alternating reduction/expansion optimizer to quiescence.

    ``heap`` makes this a runtime optimization: the expansion pass also runs
    the primitives' ``expand`` hooks (the query rules), which read the
    objects behind OID literals from it.

    With ``check=True`` every pass is re-verified against the paper's
    invariants (well-formedness, strict shrink, effect preservation, fold
    legality); a violation raises
    :class:`repro.analysis.checked.RewriteCheckError` naming the offending
    rule with before/after terms.  See ``docs/analysis.md``.
    """
    registry = registry or default_registry()
    config = config or OptimizerConfig()
    checker, registry = _checker(registry, check, context="optimize")
    on_pass = checker.reduction_pass_hook if checker else None
    stats = RewriteStats()
    stats.size_before = term_size(term)
    tracer = TRACER
    timer = RuleTimer() if tracer.enabled else None
    span = tracer.span("rewrite.optimize", size_before=stats.size_before)

    penalty = 0
    expansion_config = config.expansion
    fixpoint = None
    for round_index in range(config.max_rounds):
        stats.rounds = round_index + 1
        term = fixpoint = reduce_to_fixpoint(term, registry, config.rules, stats, on_pass, timer)
        if not config.expansion_enabled:
            break

        if penalty >= config.penalty_limit:
            break
        inlined_before = stats.inlined_sites
        counts_before = Counter(stats.rule_counts)
        with tracer.span("rewrite.expansion", round=round_index + 1) as exp_span:
            expanded = expand_pass(term, registry, expansion_config, stats, heap, config.rules)
            new_sites = stats.inlined_sites - inlined_before
            exp_span.set(inlined_sites=new_sites)
        fired = stats.rule_counts - counts_before
        if checker and fired:
            checker.expansion_check(term, expanded, fired)
        term = expanded
        if not fired:
            break
        penalty += new_sites
        stats.penalty = penalty
        if penalty >= config.penalty_limit:
            # collapse the growth budget so a final reduction settles things
            expansion_config = replace(expansion_config, growth_budget=0)

    if term is not fixpoint:
        # a pass over a fixpoint fires nothing: reduce only what expansion changed
        term = reduce_to_fixpoint(term, registry, config.rules, stats, on_pass, timer)
    stats.size_after = term_size(term)
    _record_run(stats)
    if timer is not None:
        for rule, fires, total in timer.as_rows():
            tracer.event(
                "rewrite.rule_latency",
                rule=rule,
                timed_fires=fires,
                total_fires=stats.count(rule),
                total_s=total,
            )
    span.set(
        size_after=stats.size_after,
        rounds=stats.rounds,
        inlined_sites=stats.inlined_sites,
        rewrites=stats.total_rewrites,
    ).finish()
    return OptimizeResult(term, stats)


def _record_run(stats: RewriteStats) -> None:
    """Fold one optimizer run into the process-wide metrics."""
    _OPT_RUNS.inc()
    _RULES_FIRED.inc(stats.total_rewrites)
    _SITES_INLINED.inc(stats.inlined_sites)
    _SIZE_DELTA.observe(max(0, stats.size_before - stats.size_after))


def reduce_only(
    term: Term,
    registry: PrimitiveRegistry | None = None,
    rules: RuleConfig | None = None,
    check: bool = False,
) -> OptimizeResult:
    """Run just the reduction pass to fixpoint (no inlining)."""
    registry = registry or default_registry()
    checker, registry = _checker(registry, check, context="reduce_only")
    on_pass = checker.reduction_pass_hook if checker else None
    stats = RewriteStats()
    stats.size_before = term_size(term)
    term = reduce_to_fixpoint(term, registry, rules or RuleConfig(), stats, on_pass)
    stats.size_after = term_size(term)
    return OptimizeResult(term, stats)


def _checker(registry: PrimitiveRegistry, check: bool, context: str):
    """Build the pass checker and fold-guarded registry for checked mode."""
    if not check:
        return None, registry
    # Imported lazily: repro.analysis is a client of this package's stats
    # types and must not be required for plain (unchecked) optimization.
    from repro.analysis.checked import PassChecker, checked_registry

    return PassChecker(registry, context=context), checked_registry(registry)
