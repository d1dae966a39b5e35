"""Rewrite statistics: how often each rule fired, sizes before/after.

The per-rule counters power the E7 rule-ablation experiment and give tests a
way to assert that a specific optimization (e.g. ``fold`` of ``+``) actually
happened rather than merely that output looks plausible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

__all__ = ["QUERY_RULES", "QueryRewriteStats", "RewriteStats", "RuleTimer"]

#: The section 4.2 query rules.  They fire in the expansion pass (through the
#: relational primitives' ``expand`` hooks) and are counted in the same
#: ``rule_counts``, but ``total_rewrites`` leaves them out: their total is
#: the query optimizer's own figure.
QUERY_RULES = frozenset(
    ["merge-select", "merge-project", "trivial-exists", "push-select-join", "index-select"]
)


@dataclass(slots=True)
class RewriteStats:
    """Counters accumulated across reduction and expansion passes."""

    rule_counts: Counter = field(default_factory=Counter)
    reduction_passes: int = 0
    expansion_passes: int = 0
    rounds: int = 0
    inlined_sites: int = 0
    penalty: int = 0
    size_before: int = 0
    size_after: int = 0

    def fired(self, rule: str, times: int = 1) -> None:
        self.rule_counts[rule] += times

    def count(self, rule: str) -> int:
        return self.rule_counts.get(rule, 0)

    @property
    def total_rewrites(self) -> int:
        """Applications of the program rules (reduction and inlining)."""
        return sum(n for rule, n in self.rule_counts.items() if rule not in QUERY_RULES)

    @property
    def query_rewrites(self) -> int:
        """Applications of the query rules."""
        return sum(self.rule_counts[rule] for rule in QUERY_RULES)

    def merge(self, other: "RewriteStats") -> None:
        """Fold a later run's counters into this one.

        Sizes follow sequential-composition semantics: ``size_before`` is
        the first recorded input size, ``size_after`` the last recorded
        output size (previously both were silently dropped, so merged
        summaries misreported sizes).
        """
        self.rule_counts.update(other.rule_counts)
        self.reduction_passes += other.reduction_passes
        self.expansion_passes += other.expansion_passes
        self.rounds += other.rounds
        self.inlined_sites += other.inlined_sites
        self.penalty += other.penalty
        if not self.size_before:
            self.size_before = other.size_before
        if other.size_after:
            self.size_after = other.size_after

    def as_dict(self) -> dict:
        """Deterministic JSON-ready form (used by the bench exporters)."""
        return {
            "rules": {name: self.rule_counts[name] for name in sorted(self.rule_counts)},
            "reduction_passes": self.reduction_passes,
            "expansion_passes": self.expansion_passes,
            "rounds": self.rounds,
            "inlined_sites": self.inlined_sites,
            "penalty": self.penalty,
            "size_before": self.size_before,
            "size_after": self.size_after,
        }

    def summary(self) -> str:
        rules = ", ".join(f"{name}={n}" for name, n in sorted(self.rule_counts.items()))
        return (
            f"size {self.size_before} -> {self.size_after} in {self.rounds} round(s); "
            f"{self.inlined_sites} site(s) inlined; rules: {rules or 'none'}"
        )


@dataclass(frozen=True, slots=True)
class QueryRewriteStats:
    """The query rules' counts in one optimization's :class:`RewriteStats`."""

    stats: RewriteStats

    def count(self, rule: str) -> int:
        return self.stats.count(rule) if rule in QUERY_RULES else 0

    @property
    def total(self) -> int:
        return self.stats.query_rewrites


class RuleTimer:
    """Wall-clock latency per reduction rule, active only while tracing.

    The reduction pass calls rules at cascade sites; when a timer is
    attached to the :class:`~repro.rewrite.rules.ReductionState`, each
    timed rewrite call credits its elapsed time to the rules that fired
    during it (``fired`` pushes onto ``pending``, the cascade site calls
    :meth:`credit`).  Never attached on the default (untraced) path, so it
    costs nothing when observability is off.
    """

    __slots__ = ("pending", "totals", "timed_fires")

    def __init__(self):
        self.pending: list[str] = []
        self.totals: dict[str, float] = {}
        self.timed_fires: dict[str, int] = {}

    def credit(self, elapsed: float) -> None:
        """Attribute one timed rewrite call to the rules it fired."""
        pending = self.pending
        if not pending:
            return
        share = elapsed / len(pending)
        for rule in pending:
            self.totals[rule] = self.totals.get(rule, 0.0) + share
            self.timed_fires[rule] = self.timed_fires.get(rule, 0) + 1
        pending.clear()

    def as_rows(self) -> list[tuple[str, int, float]]:
        """(rule, timed fires, total seconds) sorted by total desc, name."""
        return sorted(
            (
                (rule, self.timed_fires[rule], total)
                for rule, total in self.totals.items()
            ),
            key=lambda row: (-row[2], row[0]),
        )
