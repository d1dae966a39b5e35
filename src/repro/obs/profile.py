"""Per-closure / per-opcode VM execution profiles.

The paper's reflective optimizer needs runtime *evidence*: which procedures
actually run hot.  Two profiles plug into :class:`repro.machine.vm.VM`:

* :class:`ClosureProfile` — per-code-object invocation and instruction
  counts (``closures``, keyed by the code object's qualified name, e.g.
  ``sieve.count_primes``): the evidence ``repro.reflect.pgo`` and the
  daemon's PGO worker read.  The VM's trampoline credits it once per
  activation, so a run under it executes each code object's plain text
  (:mod:`repro.machine.tier`);
* :class:`VMProfiler` — that, plus per-opcode totals (``opcodes``) and
  per-primitive call counts for ``ccall``/``extcall`` (``primitives``).
  A run under it executes each code object's *counted* text: the compiled
  tier knows statically which opcodes each run of instructions between two
  updates of the count executes, and credits the run — a *segment* — as a
  whole, so ``opcodes`` is folded from the ``segments`` on demand.

The VM picks the text by the profile's class (``per_instruction``).
Profiles are deterministic: the VM is, so the same program produces an
identical profile on every run (pinned by ``tests/obs/test_profile.py``),
and the two profiles' ``closures`` agree (``tests/obs/test_evidence.py``).
"""

from __future__ import annotations

from collections import Counter as _Counter
from dataclasses import dataclass

__all__ = ["ClosureStats", "ClosureProfile", "VMProfiler", "profile_call", "segment"]


def segment(opcodes) -> str:
    """The :attr:`VMProfiler.segments` key of opcodes executed one after the
    other: their names, space-separated ("free lt tailcall")."""
    return " ".join(opcodes)


@dataclass(slots=True)
class ClosureStats:
    """Execution totals for one code object."""

    invocations: int = 0
    instructions: int = 0


class ClosureProfile:
    """Per-closure evidence accumulated by one or more VM runs."""

    __slots__ = ("closures",)

    #: the VM counts nothing per instruction for this profile: it runs each
    #: code object's plain text under it
    per_instruction = False

    def __init__(self):
        self.closures: dict[str, ClosureStats] = {}

    # -------------------------------------------------------- VM interface

    def enter(self, code_name: str) -> ClosureStats:
        """Count one invocation; returns the cell the activation's
        instructions are credited to when it ends."""
        stats = self.closures.get(code_name)
        if stats is None:
            stats = self.closures[code_name] = ClosureStats()
        stats.invocations += 1
        return stats

    # ------------------------------------------------------------- queries

    @property
    def total_instructions(self) -> int:
        return sum(stats.instructions for stats in self.closures.values())

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

    def merge(self, other: "ClosureProfile") -> None:
        for name, stats in other.closures.items():
            mine = self.closures.get(name)
            if mine is None:
                mine = self.closures[name] = ClosureStats()
            mine.invocations += stats.invocations
            mine.instructions += stats.instructions


class VMProfiler(ClosureProfile):
    """A :class:`ClosureProfile` plus per-opcode and per-primitive counts."""

    __slots__ = ("segments", "primitives")

    #: the VM runs every activation's counted text, to count its opcodes
    per_instruction = True

    def __init__(self):
        super().__init__()
        #: :func:`segment` -> times executed
        self.segments: dict[str, int] = {}
        self.primitives: _Counter = _Counter()

    @property
    def opcodes(self) -> _Counter:
        """opcode -> times executed, folded from :attr:`segments`."""
        counts: _Counter = _Counter()
        for key, times in self.segments.items():
            for op in key.split():
                counts[op] += times
        return counts

    @property
    def total_instructions(self) -> int:
        return sum(self.opcodes.values())

    def merge(self, other: "VMProfiler") -> None:
        super().merge(other)
        for key, times in other.segments.items():
            self.segments[key] = self.segments.get(key, 0) + times
        self.primitives.update(other.primitives)

    # ------------------------------------------------------------- export

    def as_dict(self) -> dict:
        """Deterministic JSON-ready representation (sorted keys)."""
        return {
            "schema": "repro.profile/v3",
            "total_instructions": self.total_instructions,
            "opcodes": dict(sorted(self.opcodes.items())),
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
        opcodes = self.opcodes
        for op, count in sorted(opcodes.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"{op:<12} {count:>12}")
        lines.append("-" * 25)
        lines.append(f"{'total':<12} {sum(opcodes.values()):>12}")
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
