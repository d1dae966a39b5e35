"""Checked rewriting: re-verify invariants after every optimizer pass.

Section 3 promises that the rewrite rules preserve well-formedness, that
reduction strictly decreases term size (the termination argument), and that
fold only discards effect-free work (section 2.3).  ``optimize(...,
check=True)`` enforces all three *dynamically*:

* after every reduction pass that changed the tree: well-formedness
  (``TML040``), strict size decrease (``TML041``) and effect preservation
  (``TML042``), attributing the failure to the rules that fired in that pass;
* after every expansion pass that changed the tree: well-formedness and
  effect preservation (growth is the point of expansion, so no size
  check), attributing the failure to the inlining and query rules that
  fired in that pass;
* around every *individual* fold: :func:`checked_registry` wraps each
  primitive's meta-evaluation function so a fold that fires on a
  non-discardable primitive (``TML043``) or fails to shrink the call
  (``TML044``) is caught at the exact application, naming the rule and the
  primitive.

Failures raise :class:`RewriteCheckError` carrying diagnostics with the
offending rule name and before/after pretty-printed terms.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.analysis.diagnostics import AnalysisError, Diagnostic, Severity
from repro.analysis.effects import effect_le, infer_effect
from repro.analysis.linearity import analyze as linearity_analyze
from repro.core.pretty import pretty_compact
from repro.core.syntax import Term, term_size
from repro.primitives.effects import is_discardable
from repro.primitives.registry import Primitive, PrimitiveRegistry

if TYPE_CHECKING:  # pragma: no cover
    from collections import Counter

__all__ = ["RewriteCheckError", "PassChecker", "checked_registry"]

#: Cap on embedded pretty-printed terms inside diagnostics.
_PRETTY_LIMIT = 1500


class RewriteCheckError(AnalysisError):
    """A rewrite violated a section 2.2/2.3/3 invariant.

    ``rule`` names the offending rule when a single rule is implicated
    (e.g. ``"fold"``); ``rules`` lists every rule that fired in the
    offending pass otherwise.
    """

    def __init__(
        self,
        diagnostics: list[Diagnostic],
        context: str = "",
        rule: str | None = None,
        rules: tuple[str, ...] = (),
    ):
        super().__init__(diagnostics, context)
        self.rule = rule
        self.rules = rules or ((rule,) if rule else ())


def _clip(term: Term) -> str:
    text = pretty_compact(term)
    if len(text) > _PRETTY_LIMIT:
        text = text[:_PRETTY_LIMIT] + f"... [{len(text) - _PRETTY_LIMIT} more chars]"
    return text


class PassChecker:
    """Per-pass invariant checks for the optimizer's checked mode."""

    def __init__(self, registry: PrimitiveRegistry, context: str = "optimize"):
        self.registry = registry
        self.context = context

    # hook signature expected by reduce_to_fixpoint(on_pass=...)
    def reduction_pass_hook(self, before: Term, after: Term, fired: "Counter") -> None:
        self._check(before, after, fired, "reduction", require_shrink=True)

    def expansion_check(self, before: Term, after: Term, fired: "Counter") -> None:
        self._check(before, after, fired, "expansion", require_shrink=False)

    def _check(
        self, before: Term, after: Term, fired: "Counter", kind: str, require_shrink: bool
    ) -> None:
        rules = tuple(sorted(fired))
        label = ", ".join(f"{rule}x{fired[rule]}" for rule in rules) or "none"
        stage = f"{kind} pass (rules fired: {label})"
        found: list[Diagnostic] = []
        data = {"rules": rules, "before": _clip(before), "after": _clip(after)}

        wf_errors = [d for d in linearity_analyze(after, self.registry) if d.is_error]
        if wf_errors:
            detail = "; ".join(f"{d.code} {d.path}: {d.message}" for d in wf_errors[:5])
            found.append(
                Diagnostic(
                    code="TML040",
                    severity=Severity.ERROR,
                    message=f"{stage} broke well-formedness: {detail}",
                    subject=after,
                    hint="one of the rules that fired in this pass rewrote "
                    "the tree into an ill-formed shape",
                    data=data,
                )
            )

        if require_shrink:
            size_before, size_after = term_size(before), term_size(after)
            if size_after >= size_before:
                found.append(
                    Diagnostic(
                        code="TML041",
                        severity=Severity.ERROR,
                        message=f"{stage} changed the tree but did not shrink "
                        f"it: {size_before} -> {size_after} nodes; the "
                        "termination argument of section 3 is void",
                        subject=after,
                        data=data,
                    )
                )

        effect_before = infer_effect(before, self.registry)
        effect_after = infer_effect(after, self.registry)
        if not effect_le(effect_after, effect_before):
            found.append(
                Diagnostic(
                    code="TML042",
                    severity=Severity.ERROR,
                    message=f"{stage} increased the inferred effect class: "
                    f"{effect_before.value} -> {effect_after.value}",
                    subject=after,
                    data={
                        **data,
                        "effect_before": effect_before.value,
                        "effect_after": effect_after.value,
                    },
                )
            )

        if found:
            raise RewriteCheckError(found, context=self.context, rules=rules)


# ---------------------------------------------------------------------------
# per-fold guard
# ---------------------------------------------------------------------------


def checked_registry(registry: PrimitiveRegistry) -> PrimitiveRegistry:
    """A registry whose fold functions verify their own preconditions.

    Every successful fold must (a) be on a discardable primitive — replacing
    the call with its meta-evaluated result discards the call's effect — and
    (b) strictly shrink the application (section 3's termination measure).
    """
    clone = PrimitiveRegistry()
    for prim in registry:
        clone.register(prim if prim.fold is None else replace(prim, fold=_guarded_fold(prim)))
    return clone


def _guarded_fold(prim: Primitive):
    original = prim.fold

    def guarded(call):
        result = original(call)
        if result is None:
            return None
        if not is_discardable(prim.attrs.effect):
            raise RewriteCheckError(
                [
                    Diagnostic(
                        code="TML043",
                        severity=Severity.ERROR,
                        message=f"rule 'fold' discarded a call of primitive "
                        f"{prim.name!r} with non-discardable effect class "
                        f"{prim.attrs.effect.value!r}",
                        subject=call,
                        hint="only PURE/READ/ALLOC primitives may be "
                        "meta-evaluated away (section 2.3)",
                        data={
                            "rule": "fold",
                            "prim": prim.name,
                            "before": _clip(call),
                            "after": _clip(result),
                        },
                    )
                ],
                context=f"fold {prim.name}",
                rule="fold",
            )
        if term_size(result) >= term_size(call):
            raise RewriteCheckError(
                [
                    Diagnostic(
                        code="TML044",
                        severity=Severity.ERROR,
                        message=f"rule 'fold' on primitive {prim.name!r} did "
                        f"not shrink the call: {term_size(call)} -> "
                        f"{term_size(result)} nodes",
                        subject=call,
                        hint="a meta-evaluation function must return a "
                        "strictly smaller replacement or None",
                        data={
                            "rule": "fold",
                            "prim": prim.name,
                            "before": _clip(call),
                            "after": _clip(result),
                        },
                    )
                ],
                context=f"fold {prim.name}",
                rule="fold",
            )
        return result

    return guarded
