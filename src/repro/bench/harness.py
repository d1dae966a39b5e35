"""Measurement harness for the paper's section 6 experiments.

Three optimization configurations (the columns of E1/E2):

* ``none``   — code generated straight from CPS conversion;
* ``static`` — the local compile-time optimizer (reduction + expansion per
  function; imported library bindings remain free — the abstraction
  barrier), the paper's "local program optimizations";
* ``dynamic``— runtime reflective optimization across module boundaries
  (``reflect.optimize``), the paper's "move to dynamic (link-time or
  runtime) optimization".

For every Stanford program the harness reports wall time and executed TAM
instructions per configuration, plus the dynamic/static speedups whose
geometric mean is the paper's "more than doubles the execution speed".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable

from repro.bench.stanford.programs import PROGRAMS
from repro.lang.modules import CompileOptions
from repro.lang.system import TycoonSystem
from repro.machine.isa import VMClosure
from repro.reflect import optimize_result
from repro.rewrite.pipeline import OptimizerConfig

__all__ = [
    "StanfordRow",
    "run_stanford",
    "format_table",
    "geometric_mean",
    "CONFIG_NONE",
    "CONFIG_STATIC",
]

CONFIG_NONE = CompileOptions(optimizer=None)
CONFIG_STATIC = CompileOptions(optimizer=OptimizerConfig())


@dataclass
class StanfordRow:
    """Per-program measurements across the three configurations."""

    program: str
    n: int
    checksum: int
    time_none: float
    time_static: float
    time_dynamic: float
    instr_none: int
    instr_static: int
    instr_dynamic: int

    @property
    def static_speedup(self) -> float:
        return self.time_none / self.time_static if self.time_static else math.inf

    @property
    def dynamic_speedup(self) -> float:
        """Dynamic over static — the paper's headline ratio."""
        return self.time_static / self.time_dynamic if self.time_dynamic else math.inf

    @property
    def instr_ratio(self) -> float:
        """Instruction-count ratio static/dynamic (noise-free speedup proxy)."""
        return self.instr_static / self.instr_dynamic if self.instr_dynamic else math.inf


def _timed_call(system: TycoonSystem, closure: VMClosure, n: int, repeats: int):
    best = math.inf
    instructions = 0
    value = None
    for _ in range(repeats):
        vm = system.vm()
        start = time.perf_counter()
        result = vm.call(closure, [n])
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        instructions = result.instructions
        value = result.value
    return value, best, instructions


def run_stanford(
    names: Iterable[str] | None = None,
    scale: float = 1.0,
    repeats: int = 1,
    verify: bool = True,
) -> list[StanfordRow]:
    """Run the Stanford suite under all three configurations."""
    selected = list(names) if names is not None else sorted(PROGRAMS)
    system_none = TycoonSystem(options=CONFIG_NONE)
    system_static = TycoonSystem(options=CONFIG_STATIC)

    rows: list[StanfordRow] = []
    for name in selected:
        program = PROGRAMS[name]
        n = max(1, int(program.bench_n * scale))

        system_none.compile(program.source)
        system_static.compile(program.source)

        closure_none = system_none.closure(name, "run")
        closure_static = system_static.closure(name, "run")
        closure_dynamic = optimize_result(system_static, name, "run").closure

        value_none, t_none, i_none = _timed_call(system_none, closure_none, n, repeats)
        value_static, t_static, i_static = _timed_call(
            system_static, closure_static, n, repeats
        )
        value_dyn, t_dyn, i_dyn = _timed_call(system_static, closure_dynamic, n, repeats)

        if verify:
            expected = program.reference(n)
            for label, value in (
                ("none", value_none),
                ("static", value_static),
                ("dynamic", value_dyn),
            ):
                if value != expected:
                    raise AssertionError(
                        f"{name}[{label}](n={n}) = {value}, expected {expected}"
                    )

        rows.append(
            StanfordRow(
                program=name,
                n=n,
                checksum=value_none,
                time_none=t_none,
                time_static=t_static,
                time_dynamic=t_dyn,
                instr_none=i_none,
                instr_static=i_static,
                instr_dynamic=i_dyn,
            )
        )
    return rows


def geometric_mean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0 and math.isfinite(v)]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_table(rows: list[StanfordRow]) -> str:
    """Render the E1/E2 results in the shape the paper reports."""
    header = (
        f"{'program':<10} {'n':>5} {'t_none':>9} {'t_static':>9} {'t_dyn':>9} "
        f"{'stat x':>7} {'dyn x':>7} {'instr x':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.program:<10} {row.n:>5} "
            f"{row.time_none * 1e3:>8.2f}ms {row.time_static * 1e3:>8.2f}ms "
            f"{row.time_dynamic * 1e3:>8.2f}ms "
            f"{row.static_speedup:>7.2f} {row.dynamic_speedup:>7.2f} "
            f"{row.instr_ratio:>8.2f}"
        )
    lines.append("-" * len(header))
    lines.append(
        "geometric mean speedups: "
        f"static {geometric_mean([r.static_speedup for r in rows]):.2f}x, "
        f"dynamic {geometric_mean([r.dynamic_speedup for r in rows]):.2f}x "
        f"(instructions {geometric_mean([r.instr_ratio for r in rows]):.2f}x)"
    )
    return "\n".join(lines)
