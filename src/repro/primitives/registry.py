"""Primitive-procedure registry (paper section 2.3).

"In TML, most of the 'real work' needed to implement source language
semantics is factored out into primitive procedures which are not considered
part of the intermediate language itself."  A new primitive is defined by
providing four things (section 2.3):

1. a *code generation* function — registered by the back end
   (:mod:`repro.machine.codegen`) via :meth:`PrimitiveRegistry.set_emitter`;
2. a *meta-evaluation* function used by the ``fold`` rewrite rule —
   the ``fold`` callable here;
3. a *runtime cost estimate* in abstract machine instructions — ``cost``;
4. *attributes* for the optimizer — commutativity, side-effect class,
   per-rule enable flags — with worst-case defaults.

A primitive may also carry an ``expand`` hook: the rewrite rules of its own
domain, applied by the expansion pass of a runtime optimization (the query
rules of section 4.2 are the relational primitives' hooks).

The registry is the single source of truth consulted by the well-formedness
checker (calling conventions), the optimizer (fold, cost, attributes), the
reference interpreter and the code generator (both register their handlers
here, keyed by primitive name, avoiding import cycles).

This registry is what makes TML adaptable: the query subsystem registers the
relational primitives (``select``, ``project``, ...) as *extensions* without
touching the core language — exactly the paper's pitch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Optional

from repro.core.syntax import Application, PrimApp
from repro.primitives.effects import EffectClass

__all__ = [
    "Signature",
    "Attributes",
    "Primitive",
    "PrimitiveRegistry",
    "default_registry",
    "ExpandFn",
    "FoldFn",
]

#: A meta-evaluation function: given a primitive application whose relevant
#: arguments are literal, return a strictly smaller replacement application,
#: or None when no useful meta-evaluation is possible (paper: "it simply
#: returns the original call").
FoldFn = Callable[[PrimApp], Optional[Application]]

#: An expansion hook: given a primitive application and the expansion pass's
#: state (registry, heap, rule config, name supply, stats), return a
#: replacement application, or the call itself when no rule applies.
ExpandFn = Callable[[PrimApp, Any], Application]


@dataclass(frozen=True, slots=True)
class Signature:
    """Calling convention of a primitive.

    ``layout`` selects how continuation argument positions are computed:

    * ``"suffix"`` — ``value_args`` leading values (exactly, or at least when
      ``variadic``) followed by ``cont_args`` trailing continuations.  This
      covers every Fig. 2 primitive except ``==`` and ``Y``.
    * ``"case"`` — the ``==`` identity-case primitive:
      ``(== v tag1..tagn c1..cn [celse])`` with n >= 1.  Total arity ``t``
      determines the split: odd t has no else branch, even t has one.
    * ``"fixpoint"`` — the ``Y`` combinator: exactly one argument, the
      fixpoint function, which is a value position with special shape.
    """

    value_args: int = 0
    cont_args: int = 0
    variadic: bool = False
    layout: str = "suffix"

    def accepts_arity(self, total: int) -> bool:
        if self.layout == "case":
            return total >= 3
        if self.layout == "fixpoint":
            return total == 1
        if self.variadic:
            return total >= self.value_args + self.cont_args
        return total == self.value_args + self.cont_args

    def cont_positions(self, total: int) -> frozenset[int]:
        """Indices of arguments that are continuations, given total arity."""
        if self.layout == "case":
            # t = 1 + n tags + n branches (+ optional else)
            has_else = (total % 2) == 0
            branches = (total - 1) // 2 + (1 if has_else else 0)
            return frozenset(range(total - branches, total))
        if self.layout == "fixpoint":
            return frozenset()
        return frozenset(range(total - self.cont_args, total))

    def value_positions(self, total: int) -> frozenset[int]:
        return frozenset(range(total)) - self.cont_positions(total)

    def describe(self) -> str:
        if self.layout == "case":
            return "(== v tag1..tagn c1..cn [celse])"
        if self.layout == "fixpoint":
            return "(Y fixfun)"
        values = f"{self.value_args}{'+ ' if self.variadic else ''} values"
        return f"{values}, {self.cont_args} continuations"


@dataclass(frozen=True, slots=True)
class Attributes:
    """Optimizer-facing attributes with worst-case defaults (section 2.3)."""

    effect: EffectClass = EffectClass.UNKNOWN
    commutative: bool = False
    #: Disable the fold rule for this primitive (a per-rule enable flag).
    fold_enabled: bool = True
    #: Hint for the query optimizer: primitive iterates its relation argument.
    bulk: bool = False


@dataclass(slots=True)
class Primitive:
    """One primitive procedure: name, convention, semantics hooks, cost."""

    name: str
    signature: Signature
    attrs: Attributes = field(default_factory=Attributes)
    fold: FoldFn | None = None
    #: Runtime cost estimate in abstract-machine instructions (section 2.3
    #: item 3) — consulted by the expansion pass's savings heuristic.
    cost: int = 1
    #: Reference-interpreter handler; registered by repro.machine.cps_interp.
    interp: Callable | None = None
    #: Bytecode emitter; registered by repro.machine.codegen.
    emit: Callable | None = None
    #: Domain rewrite rules run by the expansion pass when it optimizes
    #: against a heap (see :data:`ExpandFn`).
    expand: ExpandFn | None = None

    def meta_evaluate(self, call: PrimApp) -> Application | None:
        """Apply the meta-evaluation function if enabled and applicable."""
        if self.fold is None or not self.attrs.fold_enabled:
            return None
        if call.prim != self.name:
            raise ValueError(f"call to {call.prim!r} handed to primitive {self.name!r}")
        return self.fold(call)


class PrimitiveRegistry:
    """A named collection of primitives; extensible per section 2.3."""

    def __init__(self, primitives: Iterable[Primitive] = ()) -> None:
        self._prims: dict[str, Primitive] = {}
        for prim in primitives:
            self.register(prim)

    def register(self, prim: Primitive, replace_existing: bool = False) -> None:
        if prim.name in self._prims and not replace_existing:
            raise ValueError(f"primitive {prim.name!r} already registered")
        self._prims[prim.name] = prim

    def lookup(self, name: str) -> Primitive:
        return self._prims[name]

    def get(self, name: str) -> Primitive | None:
        return self._prims.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._prims

    def names(self) -> frozenset[str]:
        return frozenset(self._prims)

    def __iter__(self):
        return iter(self._prims.values())

    def __len__(self) -> int:
        return len(self._prims)

    def set_interp(self, name: str, handler: Callable) -> None:
        """Attach a reference-interpreter handler to a primitive."""
        self._prims[name].interp = handler

    def set_emitter(self, name: str, emitter: Callable) -> None:
        """Attach a code-generation function to a primitive (item 1)."""
        self._prims[name].emit = emitter

    def with_disabled_fold(self, names: Iterable[str]) -> "PrimitiveRegistry":
        """A copy of the registry with fold disabled for ``names``.

        Used by the rule-ablation experiment (E7) and by tests exercising the
        per-rule enable flags of section 2.3 item 4.
        """
        disabled = set(names)
        clone = PrimitiveRegistry()
        for prim in self:
            if prim.name in disabled:
                prim = replace(prim, attrs=replace(prim.attrs, fold_enabled=False))
            clone.register(prim)
        return clone

    def copy(self) -> "PrimitiveRegistry":
        clone = PrimitiveRegistry()
        for prim in self:
            clone.register(prim)
        return clone


_default: PrimitiveRegistry | None = None


def default_registry() -> PrimitiveRegistry:
    """The standard Fig. 2 primitive set plus the I/O helpers.

    Built lazily and shared; callers that mutate (e.g. the query subsystem
    registering relational primitives, or ablation experiments) must work on
    a :meth:`PrimitiveRegistry.copy`.
    """
    global _default
    if _default is None:
        from repro.primitives import arith, arrays, bits, ccall, control, convert, io

        registry = PrimitiveRegistry()
        for module in (arith, bits, convert, arrays, control, ccall, io):
            for prim in module.PRIMITIVES:
                registry.register(prim)
        _default = registry
    return _default
