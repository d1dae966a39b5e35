#!/usr/bin/env python3
"""Compare two ``results.json`` files written by ``run.py --all --out DIR``.

    python3 perf/compare.py A/results.json B/results.json

One row per workload × end-to-end metric: both medians, the ratio B/A (A is
the base), and a verdict from the bounds in ``BENCHMARK.json``:

* ``worse``      — B's median is worse than A's by more than the bound and by
                   more than either side's own run-to-run spread;
* ``unresolved`` — the spread (quartile distance over median) of either side
                   is wider than the bound, so the runs cannot tell;
* ``ok``         — otherwise.

Metrics marked exact must be equal when both sides ran the same seed.
Exit status is non-zero on any ``worse`` or unequal exact metric.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spec import EXACT  # noqa: E402


def load_bounds() -> dict[str, tuple[str, float]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        bench = json.load(fp)
    return {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}


def summarize(runs: list[dict], metric: str) -> tuple[float, float]:
    """(median, spread) of one metric over a side's runs; spread is the
    quartile distance over the median, 0 with fewer than two runs."""
    values = [run["metrics"][metric]["value"] for run in runs]
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return middle, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return middle, (q3 - q1) / abs(middle)


def verdict(better: str, bound: float, a: float, b: float, spread: float) -> str:
    if a == 0:
        return "unresolved"
    change = (b - a) / a if better == "lower" else (a - b) / a  # > 0 is worse
    if change > bound and change > spread:
        return "worse"
    if spread > bound:
        return "unresolved"
    return "ok"


def compare(a: dict, b: dict) -> tuple[list[tuple], list[str]]:
    bounds = load_bounds()
    rows, unequal = [], []
    for name, side_a in a["workloads"].items():
        side_b = b["workloads"][name]
        for metric, (better, bound) in bounds.items():
            med_a, spread_a = summarize(side_a["end_to_end"], metric)
            med_b, spread_b = summarize(side_b["end_to_end"], metric)
            spread = max(spread_a, spread_b)
            rows.append(
                (name, metric, med_a, med_b, med_b / med_a if med_a else float("nan"),
                 spread, bound, verdict(better, bound, med_a, med_b, spread))
            )
        if a.get("seed") == b.get("seed"):
            layer_a, layer_b = side_a["per_layer"]["metrics"], side_b["per_layer"]["metrics"]
            for metric in sorted(EXACT):
                if layer_a[metric]["value"] != layer_b[metric]["value"]:
                    unequal.append(
                        f"{name}: exact metric {metric} differs: "
                        f"{layer_a[metric]['value']!r} != {layer_b[metric]['value']!r}"
                    )
    return rows, unequal


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as fp:
        a = json.load(fp)
    with open(argv[1], encoding="utf-8") as fp:
        b = json.load(fp)
    rows, unequal = compare(a, b)
    print(f"{'workload':<14} {'metric':<14} {'A median':>14} {'B median':>14} "
          f"{'B/A':>7} {'spread':>7} {'bound':>6}  verdict")
    for name, metric, med_a, med_b, ratio, spread, bound, word in rows:
        print(f"{name:<14} {metric:<14} {med_a:>14.6g} {med_b:>14.6g} "
              f"{ratio:>7.3f} {spread:>7.3f} {bound:>6.2f}  {word}")
    for line in unequal:
        print(line)
    worse = sum(1 for row in rows if row[-1] == "worse")
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    print(f"{len(rows)} rows: {worse} worse, {unresolved} unresolved, "
          f"{len(unequal)} exact metrics unequal")
    return 1 if worse or unequal else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
