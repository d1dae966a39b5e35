"""The one sweep loop: suites, scenario results and the report.

A :class:`Suite` is a name, a ``build(quick)`` function returning
``(scenario_name, thunk(root) -> checks)`` pairs, and one negative-control
scenario — the same pair shape, but run with the protection under test
switched off, so it MUST fail.  :func:`run` executes either the sweep or
the negative control and returns one report schema for every suite::

    {"suite", "mode", "scenarios", "passed", "failed", "failures",
     "results", "duration_s", "meta"}

A scenario passes by returning its ``checks`` dict and fails by raising —
:class:`InvariantViolation` for an invariant the harness checked, anything
else for a harness that fell over; both are failures, neither stops the
sweep.  Drivers exit nonzero on ``failed > 0``, and CI inverts the
negative-control invocation: a negative control that *passes* means the
detector can no longer see the fault it exists to detect.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.metrics import METRICS

__all__ = [
    "InvariantViolation",
    "Scenario",
    "ScenarioResult",
    "Suite",
    "print_progress",
    "run",
    "scenario",
]

#: ``(name, thunk)``; the thunk gets a fresh scratch directory and returns
#: the JSON-friendly facts it checked
Scenario = tuple[str, Callable[[str], dict]]


class InvariantViolation(AssertionError):
    """A scenario invariant was violated."""


@dataclass(frozen=True)
class Suite:
    name: str
    build: Callable[[bool], list[Scenario]]
    negative_control: Scenario
    #: suite facts for the report's free-form ``meta`` (e.g. the crash
    #: suite's I/O-op count)
    meta: Callable[[], dict] = dict


@dataclass
class ScenarioResult:
    name: str
    ok: bool
    detail: str = ""
    elapsed_s: float = 0.0
    checks: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "detail": self.detail,
            "elapsed_s": round(self.elapsed_s, 3),
            "checks": self.checks,
        }


def scenario(name: str, fn: Callable[..., dict], *args, **kwargs) -> Scenario:
    """Bind a scenario function's parameters; the root comes at run time."""
    return name, lambda root: fn(root, *args, **kwargs)


def run(
    suite: Suite,
    root: str,
    quick: bool = False,
    negative_control: bool = False,
    progress: Callable[[int, int, ScenarioResult], None] | None = None,
) -> dict:
    """Run the suite's sweep (or just its negative control) under ``root``,
    one ``sNNN`` scratch directory per scenario; returns the report."""
    ran = METRICS.counter(f"chaos.{suite.name}.scenarios", "chaos scenarios run")
    broke = METRICS.counter(f"chaos.{suite.name}.failures", "chaos scenarios failed")
    started = time.monotonic()
    scenarios = [suite.negative_control] if negative_control else suite.build(quick)
    results: list[ScenarioResult] = []
    for index, (name, thunk) in enumerate(scenarios):
        ran.inc()
        began = time.monotonic()
        try:
            checks = thunk(os.path.join(root, f"s{index:03d}"))
            result = ScenarioResult(name, True, checks=checks)
        except Exception as exc:
            broke.inc()
            result = ScenarioResult(name, False, detail=f"{type(exc).__name__}: {exc}")
        result.elapsed_s = time.monotonic() - began
        results.append(result)
        if progress is not None:
            progress(index + 1, len(scenarios), result)
    failed = [r for r in results if not r.ok]
    return {
        "suite": suite.name,
        "mode": "negative-control" if negative_control else "quick" if quick else "full",
        "scenarios": len(results),
        "passed": len(results) - len(failed),
        "failed": len(failed),
        "failures": [r.as_dict() for r in failed],
        "results": [r.as_dict() for r in results],
        "duration_s": round(time.monotonic() - started, 2),
        "meta": suite.meta(),
    }


def print_progress(verbose: bool) -> Callable[[int, int, ScenarioResult], None]:
    """The one progress printer: every failure, every scenario under
    ``verbose``, otherwise a heartbeat every tenth scenario and the last."""

    def progress(done: int, total: int, result: ScenarioResult) -> None:
        if verbose or not result.ok:
            mark = "ok  " if result.ok else "FAIL"
            tail = "" if result.ok else f" — {result.detail}"
            print(f"  [{done:3d}/{total}] {mark} {result.name} ({result.elapsed_s:.2f}s){tail}")
        elif done % 10 == 0 or done == total:
            print(f"  [{done:3d}/{total}] ...")

    return progress
