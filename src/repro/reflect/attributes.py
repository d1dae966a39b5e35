"""Persistent derived attributes of optimized code (paper section 4.1).

"To speed up repeated optimizations of (shared) functions, the optimizer
attaches several derived attributes (costs, savings, ...) to the generated
code which also become part of the persistent system state."

The cache lives in the object heap under the root ``reflect:attributes``:
a dict keyed by ``function name @ optimizer fingerprint`` holding the cost
before/after, entity count and code size of the last reflective
optimization.  :func:`cached_optimize` consults it to skip re-optimizing a
procedure whose inputs have not changed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.isa import VMClosure
from repro.rewrite.pipeline import OptimizerConfig
from repro.reflect.optimize import DYNAMIC_CONFIG, ReflectResult, optimize_closure
from repro.store.heap import ObjectHeap

__all__ = ["DerivedAttributes", "attributes_root", "load_attributes", "record_attributes", "cached_optimize"]

ATTRIBUTES_ROOT = "reflect:attributes"


@dataclass(frozen=True)
class DerivedAttributes:
    """Costs and savings attached to one optimized procedure."""

    function: str
    fingerprint: str
    cost_before: int
    cost_after: int
    entities: int
    code_size: int

    @property
    def savings(self) -> int:
        return max(0, self.cost_before - self.cost_after)

    def as_dict(self) -> dict:
        return {
            "function": self.function,
            "fingerprint": self.fingerprint,
            "cost_before": self.cost_before,
            "cost_after": self.cost_after,
            "entities": self.entities,
            "code_size": self.code_size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DerivedAttributes":
        return cls(
            function=data["function"],
            fingerprint=data["fingerprint"],
            cost_before=data["cost_before"],
            cost_after=data["cost_after"],
            entities=data["entities"],
            code_size=data["code_size"],
        )


def config_fingerprint(config: OptimizerConfig) -> str:
    """A stable identifier for an optimizer configuration."""
    rules = ",".join(sorted(config.rules.enabled))
    return (
        f"rules={rules};growth={config.expansion.growth_budget};"
        f"unroll={config.expansion.unroll_recursive};"
        f"penalty={config.penalty_limit};expand={config.expansion_enabled}"
    )


def attributes_root(heap: ObjectHeap) -> dict:
    """The mutable attribute table stored in the heap (created on demand)."""
    oid = heap.root(ATTRIBUTES_ROOT)
    if oid is None:
        table: dict = {}
        heap.set_root(ATTRIBUTES_ROOT, heap.store(table))
        return table
    return heap.load(oid)


def load_attributes(heap: ObjectHeap, function: str, config: OptimizerConfig) -> DerivedAttributes | None:
    table = attributes_root(heap)
    entry = table.get(f"{function}@{config_fingerprint(config)}")
    return DerivedAttributes.from_dict(entry) if entry is not None else None


def record_attributes(
    heap: ObjectHeap, function: str, config: OptimizerConfig, result: ReflectResult
) -> DerivedAttributes:
    attrs = DerivedAttributes(
        function=function,
        fingerprint=config_fingerprint(config),
        cost_before=result.cost_before,
        cost_after=result.cost_after,
        entities=result.entities,
        code_size=result.code_size,
    )
    table = attributes_root(heap)
    table[f"{function}@{attrs.fingerprint}"] = attrs.as_dict()
    oid = heap.root(ATTRIBUTES_ROOT)
    assert oid is not None
    heap.update(oid, table)
    return attrs


def cached_optimize(
    heap: ObjectHeap,
    closure: VMClosure,
    registry=None,
    config: OptimizerConfig | None = None,
    _cache: dict = {},
) -> ReflectResult:
    """Reflectively optimize with an in-session result cache plus persisted
    derived attributes.

    The session cache is keyed by closure identity and fingerprint (the same
    running procedure optimized twice under the same configuration is free);
    the persistent attribute table survives restarts and lets tools inspect
    historical costs/savings without re-running the optimizer.
    """
    config = config or DYNAMIC_CONFIG
    key = (id(closure), config_fingerprint(config))
    entry = _cache.get(key)
    # an id is reused once its object is gone: the entry holds the closure
    # it was computed for, and only that closure may have the result
    if entry is not None and entry[0] is closure:
        return entry[1]
    result = optimize_closure(closure, heap=heap, registry=registry, config=config)
    record_attributes(heap, closure.code.name, config, result)
    _cache[key] = (closure, result)
    return result
