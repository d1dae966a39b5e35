"""Per-closure / per-opcode VM execution profiles.

The paper's reflective optimizer needs runtime *evidence*: which procedures
actually run hot.  :class:`VMProfiler` plugs into
:class:`repro.machine.vm.VM` and extends the existing single
``instructions`` counter into

* per-opcode totals (``opcodes``),
* per-code-object invocation and instruction counts (``closures``, keyed by
  the code object's qualified name, e.g. ``sieve.count_primes``),
* per-primitive call counts for ``ccall``/``extcall`` (``primitives``).

A run with a profiler attached executes in the VM's interpreter loop, never
in the compiled tier (:mod:`repro.machine.tier`), which counts nothing per
instruction.

Profiles are deterministic: the VM is, so the same program produces an
identical profile on every run (pinned by ``tests/obs/test_profile.py``).
``repro.reflect.pgo`` consumes profiles to pick reoptimization targets.
"""

from __future__ import annotations

from collections import Counter as _Counter
from dataclasses import dataclass

__all__ = ["ClosureStats", "VMProfiler", "profile_call"]


@dataclass(slots=True)
class ClosureStats:
    """Execution totals for one code object."""

    invocations: int = 0
    instructions: int = 0


class VMProfiler:
    """Mutable profile accumulated by one or more VM runs."""

    __slots__ = ("opcodes", "closures", "primitives")

    def __init__(self):
        self.opcodes: _Counter = _Counter()
        self.closures: dict[str, ClosureStats] = {}
        self.primitives: _Counter = _Counter()

    # -------------------------------------------------------- VM interface

    def enter(self, code_name: str) -> ClosureStats:
        """Count one invocation; returns the stats cell for the hot loop."""
        stats = self.closures.get(code_name)
        if stats is None:
            stats = self.closures[code_name] = ClosureStats()
        stats.invocations += 1
        return stats

    # ------------------------------------------------------------- queries

    @property
    def total_instructions(self) -> int:
        return sum(self.opcodes.values())

    def hot_closures(
        self, top: int | None = None, key: str = "instructions"
    ) -> list[tuple[str, ClosureStats]]:
        """Closures ordered hottest-first by ``key`` (name breaks ties)."""
        if key not in ("instructions", "invocations"):
            raise ValueError(f"unknown profile key {key!r}")
        ranked = sorted(
            self.closures.items(),
            key=lambda item: (-getattr(item[1], key), item[0]),
        )
        return ranked[:top] if top is not None else ranked

    def merge(self, other: "VMProfiler") -> None:
        self.opcodes.update(other.opcodes)
        self.primitives.update(other.primitives)
        for name, stats in other.closures.items():
            mine = self.closures.get(name)
            if mine is None:
                mine = self.closures[name] = ClosureStats()
            mine.invocations += stats.invocations
            mine.instructions += stats.instructions

    # ------------------------------------------------------------- export

    def as_dict(self) -> dict:
        """Deterministic JSON-ready representation (sorted keys)."""
        return {
            "schema": "repro.profile/v3",
            "total_instructions": self.total_instructions,
            "opcodes": {op: self.opcodes[op] for op in sorted(self.opcodes)},
            "closures": {
                name: {
                    "invocations": stats.invocations,
                    "instructions": stats.instructions,
                }
                for name, stats in sorted(self.closures.items())
            },
            "primitives": {
                name: self.primitives[name] for name in sorted(self.primitives)
            },
        }

    def format_report(self, top: int | None = None) -> str:
        """Human-readable profile: closures hottest-first, then opcodes."""
        lines = []
        lines.append(f"{'closure':<40} {'invocations':>12} {'instructions':>13}")
        lines.append("-" * 67)
        for name, stats in self.hot_closures(top):
            lines.append(f"{name:<40} {stats.invocations:>12} {stats.instructions:>13}")
        lines.append("")
        lines.append(f"{'opcode':<12} {'count':>12}")
        lines.append("-" * 25)
        for op, count in sorted(self.opcodes.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"{op:<12} {count:>12}")
        lines.append("-" * 25)
        lines.append(f"{'total':<12} {self.total_instructions:>12}")
        if self.primitives:
            lines.append("")
            lines.append(f"{'primitive':<24} {'calls':>8}")
            lines.append("-" * 33)
            for name, count in sorted(
                self.primitives.items(), key=lambda kv: (-kv[1], kv[0])
            ):
                lines.append(f"{name:<24} {count:>8}")
        return "\n".join(lines)


def profile_call(
    system,
    module: str,
    function: str,
    args=(),
    step_limit: int | None = None,
    profiler: VMProfiler | None = None,
):
    """Run ``module.function`` under a profiler; returns (result, profiler).

    ``system`` is a :class:`repro.lang.TycoonSystem`; an existing profiler
    may be passed to accumulate across several runs.
    """
    profiler = profiler if profiler is not None else VMProfiler()
    closure = system.closure(module, function)
    vm = system.vm(step_limit=step_limit)
    vm.profiler = profiler
    result = vm.call(closure, list(args))
    return result, profiler
