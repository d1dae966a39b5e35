"""Golden profiles and step-limit sweeps: the per-instruction counts, pinned.

Two files under ``tests/machine/golden/`` were recorded with the
per-instruction interpreter loop that ``tests/machine/reference_vm.py`` keeps:

* ``profiles.json`` — ``VMProfiler.as_dict()`` of every program
  ``tests/obs/test_evidence.py`` runs: the Stanford programs at ``test_n``,
  the four query functions of ``perf.corpus.QUERY_SOURCE``, a run that traps
  into a handler and one that raises past the top;
* ``step_limits.jsonl`` — for the three programs of the every-limit sweeps,
  at every limit from 1 to the run's total + 1: what ``StepLimitExceeded``
  carries (or the completed run) and the profiler's ``opcodes``,
  ``primitives`` and ``closures``.

The VM must reproduce both texts byte for byte, and so must the reference.
Regenerate them (from the reference, so only after a deliberate change of
what is counted) with::

    PYTHONPATH=src:. python -m tests.machine.test_golden --write
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

from repro.bench.stanford import PROGRAMS
from repro.lang import TycoonSystem
from repro.machine.runtime import UncaughtTmlException
from repro.machine.vm import VM, StepLimitExceeded
from repro.obs.profile import VMProfiler

from tests.machine.reference_vm import ReferenceVM
from tests.machine.test_tier import LOOPING, REENTERING, TRAPPING, _rows
from tests.obs.test_evidence import UNCAUGHT, _query_system

GOLDEN = Path(__file__).with_name("golden")
PROFILES = GOLDEN / "profiles.json"
STEP_LIMITS = GOLDEN / "step_limits.jsonl"


def _system(text: str) -> TycoonSystem:
    system = TycoonSystem()
    system.compile(text)
    return system


def _programs():
    """``(name, system, module, function, args)`` of every profiled program."""
    for name in sorted(PROGRAMS):
        program = PROGRAMS[name]
        yield (f"stanford.{name}", _system(program.source), program.name, "run",
               [program.test_n])
    queries = _query_system()
    for function, args in (("byid", [17]), ("byrem", [14]), ("stacked", []), ("anybig", [600])):
        yield f"query.{function}", queries, "q", function, args
    yield "trapping", _system(TRAPPING), "m", "run", [5]
    yield "uncaught", _system(UNCAUGHT), "m", "run", [5]


def _run(vm_class, system, closure, args, limit=None):
    """One profiled call: its outcome and the profile."""
    vm = vm_class(store=system.heap, foreign=system.foreign, step_limit=limit)
    vm.profiler = profiler = VMProfiler()
    try:
        result = vm.call(closure, copy.deepcopy(list(args)))
        outcome = ["value", repr(result.value), result.output, result.instructions]
    except UncaughtTmlException as exc:
        outcome = ["raise", repr(exc.value), vm.output, vm.instructions]
    except StepLimitExceeded as exc:
        outcome = ["limit", exc.limit, exc.instructions, str(exc),
                   exc.partial.instructions, exc.partial.output, vm.instructions]
    return outcome, profiler


def profiles_text(vm_class) -> str:
    found = {}
    for name, system, module, function, args in _programs():
        _, profiler = _run(vm_class, system, system.closure(module, function), args)
        found[name] = profiler.as_dict()
    return json.dumps(found, indent=1, sort_keys=True) + "\n"


def step_limits_text(vm_class) -> str:
    lines = []
    for name, text, args in (("looping", LOOPING, [6]), ("trapping", TRAPPING, [5]),
                             ("reentering", REENTERING, [_rows(7)])):
        system = _system(text)
        closure = system.closure("m", "run")
        total = _run(vm_class, system, closure, args)[0][3]
        for limit in range(1, total + 2):
            outcome, profiler = _run(vm_class, system, closure, args, limit)
            profile = profiler.as_dict()
            record = {"program": name, "limit": limit, "outcome": outcome,
                      **{key: profile[key] for key in ("opcodes", "primitives", "closures")}}
            lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("vm_class", [VM, ReferenceVM], ids=["vm", "reference"])
def test_profiles_are_the_golden_ones(vm_class):
    assert profiles_text(vm_class) == PROFILES.read_text()


@pytest.mark.parametrize("vm_class", [VM, ReferenceVM], ids=["vm", "reference"])
def test_every_step_limit_is_the_golden_one(vm_class):
    assert step_limits_text(vm_class) == STEP_LIMITS.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.machine.test_golden --write")
    GOLDEN.mkdir(exist_ok=True)
    PROFILES.write_text(profiles_text(ReferenceVM))
    STEP_LIMITS.write_text(step_limits_text(ReferenceVM))
