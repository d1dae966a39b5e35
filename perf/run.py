#!/usr/bin/env python3
"""The repository's benchmark: six workloads, end to end and layer by layer.

Driver form (one workload, one mode, last stdout line is the result)::

    python3 perf/run.py --workload kv_write --seed 7 --seconds 8 --trace 0

Human form (every workload untraced, then traced; trace files and
``results.json`` under ``--out``)::

    python3 perf/run.py --all --seed 1 --out perf-out
    python3 perf/run.py --smoke

See ``perf/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

if os.environ.get("PYTHONHASHSEED") != "0":
    # string hashing is randomised per process: dict layouts, and with them
    # the speed of the VM and the compiler, would differ from run to run
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

# the program under test; a checkout without it cannot be benchmarked
import repro  # noqa: E402,F401

import spec  # noqa: E402
from inproc import CompileCold, Outcome, QueryExec, StanfordExec  # noqa: E402
from served import KvRead, KvWrite, MixedRw  # noqa: E402
from calib import LONG_SPINS, Bracket  # noqa: E402
from util import fingerprint, median, pin_benchmark, proc_cpu_s, proc_peak_rss_mb  # noqa: E402

WORKLOADS = {
    w.name: w for w in (StanfordExec, QueryExec, CompileCold, KvRead, KvWrite, MixedRw)
}
assert list(WORKLOADS) == list(spec.WORKLOADS)

#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3


def run_untraced(
    name: str, seed: int, seconds: float, workroot: str, setups: int, smoke: bool = False
) -> Outcome:
    """Set up ``setups`` times (median is ``setup_s``), measure on the last."""
    workload = WORKLOADS[name](smoke)
    helper = getattr(workload, "helper", None)
    try:
        bracket = Bracket(helper, LONG_SPINS)
        setup_times, raw_times = [], []
        state = workdir = None
        for _ in range(setups):
            if state is not None:
                workload.teardown(state)
                shutil.rmtree(workdir)
            workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=workroot)
            started, cpu0 = time.perf_counter(), proc_cpu_s()
            state = workload.setup(seed, workdir)
            # what set-up wrote reaches the disk now, not during the timed
            # region: on ext4 an fsync there would wait for it
            os.sync()
            raw_times.append(time.perf_counter() - started)
            # a set-up that boots a daemon ran partly on the daemon's CPU
            here = proc_cpu_s() - cpu0
            there = proc_cpu_s(state.daemon.pid) if helper is not None else 0.0
            share = there / (here + there) if there else 0.0
            setup_times.append(bracket.close(raw_times[-1], share))
        try:
            outcome = workload.run(state, seconds)
        finally:
            workload.teardown(state)
    finally:
        if helper is not None:
            helper.close()
    outcome.metrics["setup_s"] = median(setup_times)
    # the process doing the work: the daemon reports its own, otherwise this one
    outcome.metrics.setdefault("peak_rss_mb", proc_peak_rss_mb())
    outcome.info["raw_setups_s"] = raw_times
    return outcome


#: (workload, description, predicate over (metrics, info["checks"]))
CHECKS = [
    ("stanford_exec", "machine.time_share >= 0.7",
     lambda m, c: m["machine.time_share"] >= 0.7),
    ("stanford_exec", "store.time_share <= 0.05",
     lambda m, c: m["store.time_share"] <= 0.05),
    ("compile_cold", "stage self times within 10% of the pass they were traced in",
     lambda m, c: 0.9 <= c["phase_sum_over_traced_pass"] <= 1.1),
    ("compile_cold", "machine.time_share <= 0.1",
     lambda m, c: m["machine.time_share"] <= 0.1),
    ("kv_write", "replay children within 10% of replay wall time",
     lambda m, c: 0.9 <= c["replay_phase_sum"] <= 1.1),
    ("kv_write", "store.time_share >= 0.6 on the replay",
     lambda m, c: m["store.time_share"] >= 0.6),
    ("kv_write", "machine.time_share <= 0.1",
     lambda m, c: m["machine.time_share"] <= 0.1),
]


def run_traced(
    name: str, seed: int, seconds: float, workroot: str, out: str | None, smoke: bool = False
) -> Outcome:
    workload = WORKLOADS[name](smoke)
    workdir = tempfile.mkdtemp(prefix=f"{name}-traced-", dir=workroot)
    try:
        outcome = workload.trace(seed, workdir, seconds)
    finally:
        helper = getattr(workload, "helper", None)
        if helper is not None:
            helper.close()
    outcome.metrics = {n: float(outcome.metrics.get(n, 0.0)) for n in spec.LAYER_NAMES}
    violated = [
        text
        for workload_name, text, holds in CHECKS
        if workload_name == name and not holds(outcome.metrics, outcome.info.get("checks", {}))
    ]
    outcome.info["violated"] = violated
    outcome.failed += len(violated)
    if out is not None:
        trace = os.path.join(workdir, f"trace-{name}.ndjson")
        shutil.copy(trace, os.path.join(out, os.path.basename(trace)))
    return outcome


def result_line(outcome: Outcome, names: list[str]) -> dict:
    return {
        "correct": outcome.failed == 0,
        "attempted": max(1, int(outcome.attempted)),
        "failed": int(outcome.failed),
        "metrics": {
            n: {"value": outcome.metrics[n], "unit": spec.UNITS[n]} for n in names
        },
    }


def show(name: str, mode: str, outcome: Outcome, names: list[str]) -> None:
    print(f"== {name} [{mode}] attempted={outcome.attempted} failed={outcome.failed}")
    for metric in names:
        value = outcome.metrics[metric]
        if mode == "traced" and value == 0.0:
            continue  # a layer this workload never enters
        print(f"  {metric:<44} {value:>16.6g} {spec.UNITS[metric]}")
    for key, value in outcome.info.items():
        if key not in ("per_case", "plain", "facts"):
            print(f"  # {key}: {value}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    parser.add_argument("--smoke", action="store_true", help="--all at about a second per workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for trace files and results.json")
    parser.add_argument("--runs", type=int, default=1,
                        help="with --all: untraced runs per workload (seeds SEED, SEED+1, ...)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.all = True
    if not args.all and not args.workload:
        parser.error("one of --workload, --all, --smoke")

    pin_benchmark()
    os.makedirs(os.path.join(ROOT, ".perf_work"), exist_ok=True)
    workroot = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perf_work"))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    seconds = 1.0 if args.smoke else args.seconds
    setups = 1 if args.smoke else SETUPS
    try:
        if not args.all:
            if args.trace:
                outcome = run_traced(args.workload, args.seed, seconds, workroot, args.out)
                names, mode = spec.LAYER_NAMES, "traced"
            else:
                outcome = run_untraced(args.workload, args.seed, seconds, workroot, setups)
                names, mode = spec.E2E_NAMES, "untraced"
            show(args.workload, mode, outcome, names)
            print(json.dumps(result_line(outcome, names)))
            return 0

        print(f"# closed loop, 2 sessions per server workload (mixed_rw's writer: open loop); "
              f"real fsync; {fingerprint(workroot)}")
        results: dict = {"seed": args.seed, "fingerprint": fingerprint(workroot), "workloads": {}}
        failed = 0
        for name in WORKLOADS:
            lines = []
            for run in range(args.runs):
                plain = run_untraced(name, args.seed + run, seconds, workroot, setups, args.smoke)
                show(name, "untraced", plain, spec.E2E_NAMES)
                failed += plain.failed
                lines.append(result_line(plain, spec.E2E_NAMES))
            traced = run_traced(name, args.seed, seconds, workroot, args.out, args.smoke)
            show(name, "traced", traced, spec.LAYER_NAMES)
            failed += traced.failed
            results["workloads"][name] = {
                "end_to_end": lines,
                "per_layer": result_line(traced, spec.LAYER_NAMES),
            }
        if args.out:
            with open(os.path.join(args.out, "results.json"), "w", encoding="utf-8") as fp:
                json.dump(results, fp, indent=1, sort_keys=True)
        print(json.dumps({"correct": failed == 0, "failed": failed}))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(workroot, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
