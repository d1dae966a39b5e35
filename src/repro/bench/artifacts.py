"""Benchmark artifact emission: ``BENCH_vm.json`` and ``BENCH_opt.json``.

Turns one Stanford-suite run into two machine-readable artifacts so the
performance trajectory of this repository is tracked across PRs:

* ``BENCH_vm.json`` — per-program wall times and executed TAM instruction
  counts for the none/static/dynamic configurations plus the geometric-mean
  speedups (the paper's §6 table, as data);
* ``BENCH_opt.json`` — what the optimizer did to get there: term sizes
  before/after, cost estimates, generated code size and rule-fire counts
  from the reflective (dynamic) optimization of each program.

Both artifacts share the ``repro.metrics/v1``-style envelope written by
:mod:`repro.obs.exporters` and embed a process metrics snapshot, so store
and rewrite counters ride along for free.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

from repro.bench.harness import StanfordRow, geometric_mean, run_stanford
from repro.bench.stanford.programs import PROGRAMS
from repro.lang.system import TycoonSystem
from repro.obs.metrics import METRICS

__all__ = ["vm_payload", "opt_payload", "write_bench_artifacts"]


def _meta(scale: float, repeats: int) -> dict:
    return {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": sys.platform,
        "scale": scale,
        "repeats": repeats,
    }


def vm_payload(rows: list[StanfordRow], scale: float, repeats: int) -> dict:
    """The BENCH_vm.json document for one suite run."""
    return {
        "schema": "repro.bench.vm/v1",
        "meta": _meta(scale, repeats),
        "programs": [
            {
                "program": row.program,
                "n": row.n,
                "checksum": row.checksum,
                "wall_s": {
                    "none": row.time_none,
                    "static": row.time_static,
                    "dynamic": row.time_dynamic,
                },
                "instructions": {
                    "none": row.instr_none,
                    "static": row.instr_static,
                    "dynamic": row.instr_dynamic,
                },
                "static_speedup": row.static_speedup,
                "dynamic_speedup": row.dynamic_speedup,
                "instr_ratio": row.instr_ratio,
            }
            for row in rows
        ],
        "geomean": {
            "static_speedup": geometric_mean([r.static_speedup for r in rows]),
            "dynamic_speedup": geometric_mean([r.dynamic_speedup for r in rows]),
            "instr_ratio": geometric_mean([r.instr_ratio for r in rows]),
        },
        "metrics": METRICS.snapshot(),
    }


def opt_payload(names: list[str] | None, scale: float, repeats: int) -> dict:
    """The BENCH_opt.json document: reflective-optimizer work per program."""
    from repro.bench.harness import CONFIG_STATIC
    from repro.reflect import optimize_result

    selected = list(names) if names is not None else sorted(PROGRAMS)
    system = TycoonSystem(options=CONFIG_STATIC)
    results = []
    for name in selected:
        system.compile(PROGRAMS[name].source)
        reflected = optimize_result(system, name, "run")
        stats = reflected.stats
        results.append(
            {
                "program": name,
                "entities": reflected.entities,
                "holes": reflected.holes,
                "term_size_before": stats.size_before,
                "term_size_after": stats.size_after,
                "cost_before": reflected.cost_before,
                "cost_after": reflected.cost_after,
                "estimated_speedup": reflected.estimated_speedup,
                "code_size": reflected.code_size,
                "rounds": stats.rounds,
                "inlined_sites": stats.inlined_sites,
                "rules": {
                    rule: stats.rule_counts[rule]
                    for rule in sorted(stats.rule_counts)
                },
            }
        )
    return {
        "schema": "repro.bench.opt/v1",
        "meta": _meta(scale, repeats),
        "programs": results,
        "metrics": METRICS.snapshot(),
    }


def write_bench_artifacts(
    out_dir: str = ".",
    names: list[str] | None = None,
    scale: float = 1.0,
    repeats: int = 1,
    rows: list[StanfordRow] | None = None,
) -> tuple[str, str]:
    """Run the suite (unless ``rows`` is given) and write both artifacts.

    Returns the two file paths (``BENCH_vm.json``, ``BENCH_opt.json``).
    """
    if rows is None:
        rows = run_stanford(names=names, scale=scale, repeats=repeats)
    os.makedirs(out_dir, exist_ok=True)
    vm_path = os.path.join(out_dir, "BENCH_vm.json")
    opt_path = os.path.join(out_dir, "BENCH_opt.json")
    with open(vm_path, "w", encoding="utf-8") as fp:
        json.dump(vm_payload(rows, scale, repeats), fp, indent=2, sort_keys=True)
        fp.write("\n")
    with open(opt_path, "w", encoding="utf-8") as fp:
        json.dump(
            opt_payload([row.program for row in rows], scale, repeats),
            fp,
            indent=2,
            sort_keys=True,
        )
        fp.write("\n")
    return vm_path, opt_path
