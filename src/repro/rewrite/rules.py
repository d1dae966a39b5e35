"""The core TML rewrite rules (paper section 3).

Eight generic λ-calculus rules subsume many classic optimizations:

=============  =====================================================
rule           classic optimizations it generalizes
=============  =====================================================
subst          constant propagation, copy propagation, view expansion,
               inlining of once-used procedures
remove         dead-code (dead-binding) elimination
reduce         removal of trivial blocks
eta-reduce     removal of forwarding wrappers
fold           constant folding via per-primitive meta-evaluation
case-subst     refinement of a scrutinee inside case branches
Y-remove       elimination of dead recursive definitions
Y-reduce       removal of empty recursive binding groups
=============  =====================================================

Every rule is written exactly as the paper states it, as a guarded local
transformation ``precondition : A → B``.  Each application strictly shrinks
the tree (case-subst preserves size but strictly decreases the number of
scrutinee occurrences in branches), which is the paper's termination
argument for the reduction pass.

The implementation threads a :class:`ReductionState` through the rules so
occurrence counts (the ``|E|_v`` function) are maintained incrementally
rather than recounted from the root — see the dirty-set protocol documented
on :class:`ReductionState`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.names import Name
from repro.core.occurrences import OccurrenceCensus, count as count_occurrences
from repro.core.syntax import Abs, App, Application, Lit, PrimApp, Value, Var
from repro.core.substitution import substitute_many
from repro.primitives.control import case_parts
from repro.primitives.registry import PrimitiveRegistry
from repro.rewrite.stats import QUERY_RULES, RewriteStats

__all__ = ["ALL_RULES", "RuleConfig", "ReductionState", "rewrite_app", "rewrite_prim", "try_eta"]

#: Names of the eight core rules and the five query rules (which fire only
#: in a runtime optimization, see :func:`repro.rewrite.pipeline.optimize`),
#: for configuration and ablation.
ALL_RULES = (
    frozenset(
        ["subst", "remove", "reduce", "eta-reduce", "fold", "case-subst", "Y-remove", "Y-reduce"]
    )
    | QUERY_RULES
)


@dataclass(frozen=True, slots=True)
class RuleConfig:
    """Which rules are enabled (per-rule enable flags, section 2.3 item 4)."""

    enabled: frozenset[str] = ALL_RULES

    def __post_init__(self) -> None:
        unknown = self.enabled - ALL_RULES
        if unknown:
            raise ValueError(f"unknown rewrite rules: {sorted(unknown)}")

    def allows(self, rule: str) -> bool:
        return rule in self.enabled

    @classmethod
    def without(cls, *rules: str) -> "RuleConfig":
        return cls(ALL_RULES - set(rules))


@dataclass(slots=True)
class ReductionState:
    """Mutable state threaded through one reduction pass.

    ``census`` carries the occurrence counts from the start of the pass,
    updated incrementally with exact deltas as rules fire.  Counts can only
    become *stale-high* through deletions the census missed — harmless, the
    next pass catches the enabled rewrite.  Counts can become *stale-low*
    only when a substitution increased some variable's occurrence count; such
    variables enter ``dirty`` and all count-guarded decisions about them
    (``remove``, abstraction ``subst``, the Y rules) are deferred to the next
    pass, when the census is rebuilt.  This is what makes a single O(n) pass
    sound.
    """

    census: OccurrenceCensus
    registry: PrimitiveRegistry
    config: RuleConfig = field(default_factory=RuleConfig)
    stats: RewriteStats = field(default_factory=RewriteStats)
    changed: bool = False
    dirty: set[Name] = field(default_factory=set)
    #: optional :class:`repro.rewrite.stats.RuleTimer` — attached only while
    #: tracing is enabled, so the default path pays nothing
    timer: object | None = None

    def occurrences(self, name: Name) -> int:
        return self.census.occurrences(name)

    def is_clean(self, name: Name) -> bool:
        return name not in self.dirty

    def fired(self, rule: str) -> None:
        self.stats.fired(rule)
        self.changed = True
        if self.timer is not None:
            self.timer.pending.append(rule)


# ---------------------------------------------------------------------------
# subst / remove / reduce — the binding rules, fused over one App(Abs) redex
# ---------------------------------------------------------------------------


def rewrite_app(app: App, state: ReductionState) -> Application:
    """Apply subst, remove and reduce to a direct abstraction application.

    ``(λ(v1..vn) body  val1..valn)``: each binding is examined —

    * dead (``|body|_v = 0``): struck out with its value   [remove]
    * literal or variable value: substituted freely        [subst]
    * abstraction value with exactly one reference: moved  [subst]
    * otherwise: kept.

    If no bindings remain the application collapses to its body [reduce].
    """
    if not isinstance(app.fn, Abs):
        return app

    fn = app.fn
    if len(fn.params) != len(app.args):
        # Ill-typed direct application; constraint 1 is the front end's job —
        # leave the node alone rather than corrupt it.
        return app

    substitutions: dict[Name, Value] = {}
    kept_params: list[Name] = []
    kept_args: list[Value] = []
    removed_rule_hits = 0
    subst_rule_hits = 0

    for param, arg in zip(fn.params, app.args):
        occurrences = state.occurrences(param)
        if occurrences == 0 and state.is_clean(param):
            if state.config.allows("remove"):
                # remove: value args cannot contain calls, so dropping the
                # binding cannot lose side effects.
                state.census.forget_subtree(arg)
                state.census.zero(param)
                removed_rule_hits += 1
                continue
            kept_params.append(param)
            kept_args.append(arg)
            continue

        if not state.config.allows("subst"):
            kept_params.append(param)
            kept_args.append(arg)
            continue

        if isinstance(arg, Lit):
            substitutions[param] = arg
            state.census.zero(param)
            subst_rule_hits += 1
        elif isinstance(arg, Var):
            substitutions[param] = arg
            # every occurrence of param becomes an occurrence of arg; the
            # occurrence of arg in the argument list disappears.
            delta = occurrences - 1
            state.census.add(arg.name, delta)
            if delta > 0 or not state.is_clean(param):
                # arg's count grew, or param's count was uncertain so the
                # delta itself is uncertain — defer count-guarded decisions
                # about arg to the next pass.
                state.dirty.add(arg.name)
            state.census.zero(param)
            subst_rule_hits += 1
        elif (
            isinstance(arg, Abs)
            and occurrences == 1
            and state.is_clean(param)
        ):
            # subst with the |app|_v = 1 precondition: the abstraction is
            # *moved* to its single use site, so no occurrence deltas beyond
            # forgetting the binding itself.  (The paper notes the momentary
            # double occurrence of the abstraction's parameters; fusing subst
            # with the removal of the argument restores uniqueness
            # immediately.)
            substitutions[param] = arg
            state.census.zero(param)
            subst_rule_hits += 1
        else:
            kept_params.append(param)
            kept_args.append(arg)

    if not substitutions and not removed_rule_hits:
        if not fn.params and state.config.allows("reduce"):
            state.fired("reduce")
            return fn.body
        return app

    body = substitute_many(fn.body, substitutions) if substitutions else fn.body
    for _ in range(subst_rule_hits):
        state.fired("subst")
    for _ in range(removed_rule_hits):
        state.fired("remove")

    if not kept_params and state.config.allows("reduce"):
        state.fired("reduce")
        assert isinstance(body, (App, PrimApp))
        return body
    assert isinstance(body, (App, PrimApp))
    return App(Abs(tuple(kept_params), body), tuple(kept_args))


# ---------------------------------------------------------------------------
# eta-reduce
# ---------------------------------------------------------------------------


def try_eta(abs_node: Abs, state: ReductionState) -> Value | None:
    """``λ(v1..vn)(val v1..vn)  →  val`` when no ``vi`` occurs in ``val``.

    Returns the replacement value or None.  The caller decides positional
    legality (the Y fixpoint argument must remain an abstraction).
    """
    if not state.config.allows("eta-reduce"):
        return None
    body = abs_node.body
    if not isinstance(body, App) or len(body.args) != len(abs_node.params):
        return None
    for param, arg in zip(abs_node.params, body.args):
        if not (isinstance(arg, Var) and arg.name == param):
            return None
    target = body.fn
    params = set(abs_node.params)
    if isinstance(target, Var) and target.name in params:
        return None
    if isinstance(target, Abs):
        # the paper's precondition ∀i |val|_{vi} = 0
        for param in abs_node.params:
            if count_occurrences(target, param) > 0:
                return None
    # each parameter occurred exactly once (in the argument list) — those
    # occurrences vanish with the wrapper.
    for param in abs_node.params:
        state.census.add(param, -1)
        state.census.zero(param)
    state.fired("eta-reduce")
    return target


# ---------------------------------------------------------------------------
# fold and case-subst — primitive application rules
# ---------------------------------------------------------------------------


def rewrite_prim(prim_app: PrimApp, state: ReductionState) -> Application:
    """Apply fold, case-subst, Y-remove and Y-reduce to a primitive call."""
    result: Application = prim_app
    if state.config.allows("fold"):
        result = _try_fold(result, state)
    if isinstance(result, PrimApp) and result.prim == "==" and state.config.allows(
        "case-subst"
    ):
        result = _try_case_subst(result, state)
    if isinstance(result, PrimApp) and result.prim == "Y":
        # Y-alias is a derived rule (subst composed with Y-remove): when
        # eta-reduction turns a group member into a bare variable, the
        # binding v_i := x is an alias — substitute x for v_i and drop it.
        if state.config.allows("subst"):
            result = _try_y_alias(result, state)
        if isinstance(result, PrimApp) and result.prim == "Y" and state.config.allows(
            "Y-remove"
        ):
            result = _try_y_remove(result, state)
        if isinstance(result, PrimApp) and result.prim == "Y" and state.config.allows(
            "Y-reduce"
        ):
            result = _try_y_reduce(result, state)
    return result


def _try_fold(prim_app: PrimApp, state: ReductionState) -> Application:
    prim = state.registry.get(prim_app.prim)
    if prim is None:
        return prim_app
    folded = prim.meta_evaluate(prim_app)
    if folded is None:
        return prim_app
    state.census.forget_subtree(prim_app)
    state.census.add_subtree(folded)
    state.fired("fold")
    return folded


def _try_case_subst(prim_app: PrimApp, state: ReductionState) -> PrimApp:
    """Substitute the scrutinee variable with the tag inside each branch.

    ``(== v val1..valn c1..cn [ce]) → (== v val1..valn c1[val1/v]..cn[valn/v] [ce])``
    """
    scrutinee, tags, branches, else_branch = case_parts(prim_app)
    if not isinstance(scrutinee, Var):
        return prim_app
    v = scrutinee.name
    if state.occurrences(v) == 1 and state.is_clean(v):
        # a clean count is never low: no branch mentions v
        return prim_app

    new_branches: list[Value] = []
    changed = False
    for tag, branch in zip(tags, branches):
        if not isinstance(tag, (Lit, Var)) or not isinstance(branch, Abs):
            new_branches.append(branch)
            continue
        if isinstance(tag, Var) and tag.name == v:
            new_branches.append(branch)
            continue
        hits = count_occurrences(branch, v)
        if hits == 0:
            new_branches.append(branch)
            continue
        new_branches.append(substitute_many(branch, {v: tag}))
        state.census.add(v, -hits)
        if isinstance(tag, Var):
            state.census.add(tag.name, hits)
            state.dirty.add(tag.name)
        changed = True

    if not changed:
        return prim_app
    state.fired("case-subst")
    new_args = (scrutinee,) + tuple(tags) + tuple(new_branches)
    if else_branch is not None:
        new_args += (else_branch,)
    return PrimApp("==", new_args)


# ---------------------------------------------------------------------------
# Y-remove and Y-reduce
# ---------------------------------------------------------------------------


def _split_fix(prim_app: PrimApp) -> tuple[Abs, Name, tuple[Name, ...], Name, App] | None:
    """Destructure ``(Y λ(c0 v1..vn c) (c entry abs1..absn))`` or None."""
    if len(prim_app.args) != 1 or not isinstance(prim_app.args[0], Abs):
        return None
    fixfun = prim_app.args[0]
    if len(fixfun.params) < 2:
        return None
    c0, *vs, c = fixfun.params
    if not (c0.is_cont and c.is_cont):
        return None
    body = fixfun.body
    if not isinstance(body, App):
        return None
    if not (isinstance(body.fn, Var) and body.fn.name == c):
        return None
    if len(body.args) != len(vs) + 1:
        return None
    return fixfun, c0, tuple(vs), c, body


def _try_y_alias(prim_app: PrimApp, state: ReductionState) -> PrimApp:
    """Eliminate variable-valued Y group members by substitution.

    ``(Y λ(c0 ..vi.. c)(c entry ..x..))  →  (Y λ(c0 .. c)((c entry ..)[x/vi]))``
    where the member bound to ``v_i`` is the variable ``x`` (an alias
    produced by eta-reducing the member abstraction).
    """
    split = _split_fix(prim_app)
    if split is None:
        return prim_app
    fixfun, c0, vs, c, body = split
    entry = body.args[0]
    abses = list(body.args[1:])

    alias_index = None
    for index, member in enumerate(abses):
        if isinstance(member, Var) and member.name != vs[index]:
            alias_index = index
            break
    if alias_index is None:
        return prim_app

    v = vs[alias_index]
    x = abses[alias_index]
    assert isinstance(x, Var)
    count_v = state.occurrences(v)

    remaining_vs = vs[:alias_index] + vs[alias_index + 1 :]
    remaining = abses[:alias_index] + abses[alias_index + 1 :]
    new_entry = substitute_many(entry, {v: x}) if not isinstance(entry, Lit) else entry
    new_members = [
        substitute_many(member, {v: x}) if not isinstance(member, Lit) else member
        for member in remaining
    ]
    # occurrences of v become occurrences of x; the member occurrence of x
    # itself is deleted
    state.census.add(x.name, count_v - 1)
    state.dirty.add(x.name)
    state.census.zero(v)
    state.fired("subst")

    new_body = App(Var(c), (new_entry,) + tuple(new_members))
    new_fix = Abs((c0,) + remaining_vs + (c,), new_body)
    return PrimApp("Y", (new_fix,))


def _try_y_remove(prim_app: PrimApp, state: ReductionState) -> PrimApp:
    """Strike out recursive bindings referenced by no other binding.

    Precondition for removing ``v_i``: ``|app|_{v_i} = 0`` (not used by the
    entry continuation) and ``|val_j|_{v_i} = 0`` for all j ≠ i (not used by
    the other recursive abstractions).  Self-references inside ``abs_i`` do
    not keep it alive.
    """
    split = _split_fix(prim_app)
    if split is None:
        return prim_app
    fixfun, c0, vs, c, body = split
    entry = body.args[0]
    abses = body.args[1:]

    keep = [True] * len(vs)
    removed_any = False
    for index, (v, abs_value) in enumerate(zip(vs, abses)):
        total = state.occurrences(v)
        if total == 0 and state.is_clean(v):
            keep[index] = False
            removed_any = True
            continue
        if not state.is_clean(v):
            continue
        # occurrences inside the member's own definition (including the
        # degenerate self-alias v_i := v_i) do not keep it alive
        self_refs = count_occurrences(abs_value, v)
        if total == self_refs and total > 0:
            keep[index] = False
            removed_any = True

    if not removed_any:
        return prim_app

    new_vs: list[Name] = []
    new_abses: list[Value] = []
    for flag, v, abs_value in zip(keep, vs, abses):
        if flag:
            new_vs.append(v)
            new_abses.append(abs_value)
        else:
            state.census.forget_subtree(abs_value)
            state.census.zero(v)
            state.fired("Y-remove")

    new_body = App(Var(c), (entry,) + tuple(new_abses))
    new_fix = Abs((c0,) + tuple(new_vs) + (c,), new_body)
    return PrimApp("Y", (new_fix,))


def _try_y_reduce(prim_app: PrimApp, state: ReductionState) -> Application:
    """``(Y λ(c0 c)(c cont() app)) → app`` when ``|app|_{c0} = 0``."""
    split = _split_fix(prim_app)
    if split is None:
        return prim_app
    fixfun, c0, vs, c, body = split
    if vs:
        return prim_app
    entry = body.args[0]
    if not isinstance(entry, Abs) or entry.params:
        return prim_app
    if state.occurrences(c0) != 0 or not state.is_clean(c0):
        return prim_app
    # the single occurrence of c (functional position of the body) vanishes
    state.census.add(c, -1)
    state.census.zero(c)
    state.census.zero(c0)
    state.fired("Y-reduce")
    return entry.body
