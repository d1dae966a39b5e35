"""Profile-guided reflective optimization: close the paper's runtime loop.

Section 4.1 makes optimization a *runtime* activity; this module supplies
the missing decision input: measured behavior.  A
:class:`repro.obs.profile.ClosureProfile` (or the
:class:`~repro.obs.profile.VMProfiler` that extends it) says which
procedures actually ran hot (invocation and instruction counts per code
object); ``optimize_hot`` selects the hottest compiled functions by that
evidence, runs ``reflect.optimize`` on each, and links the regenerated
closures back into the running image so subsequent calls use the optimized
code.

>>> from repro.lang import TycoonSystem
>>> from repro.obs import profile_call
>>> from repro.reflect.pgo import optimize_hot
>>> system = TycoonSystem()
>>> _ = system.compile('''
... module m export work idle
... let idle(x: Int): Int = x
... let work(n: Int): Int =
...   var s := 0 in var i := 0 in
...   begin while i < n do begin s := s + i; i := i + 1 end end; s end
... end''')
>>> _, prof = profile_call(system, "m", "work", [50])
>>> report = optimize_hot(system, prof, top=1)
>>> [c.function for c in report.selected]
['work']
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.profile import ClosureProfile
from repro.obs.trace import TRACER
from repro.reflect.optimize import DYNAMIC_CONFIG, ReflectResult, config_fingerprint

__all__ = ["HotCandidate", "PgoReport", "rank_hot", "optimize_hot"]


@dataclass(slots=True)
class HotCandidate:
    """One compiled function with its measured execution totals."""

    module: str
    function: str
    invocations: int
    instructions: int

    @property
    def qualified(self) -> str:
        return f"{self.module}.{self.function}"


@dataclass
class PgoReport:
    """Outcome of one profile-guided optimization round."""

    #: candidates that were selected and re-optimized, hottest first
    selected: list[HotCandidate] = field(default_factory=list)
    #: qualified name → the reflective-optimization diagnostics
    results: dict[str, ReflectResult] = field(default_factory=dict)
    #: every measured candidate, hottest first (selection context)
    ranking: list[HotCandidate] = field(default_factory=list)

    def closure(self, module: str, function: str):
        return self.results[f"{module}.{function}"].closure


def rank_hot(
    system,
    profiler: ClosureProfile,
    modules=None,
    key: str = "instructions",
) -> list[HotCandidate]:
    """Rank the system's compiled functions by measured execution totals.

    Only *exported* functions that actually appeared in the profile are
    returned (profiles key closures by qualified code-object name,
    ``module.function``; exports are the procedures reflect can look up and
    relink — a hot internal helper is reached through its exported caller's
    combined scope instead).  ``key`` is ``"instructions"`` (default —
    where the time went) or ``"invocations"`` (what was called most).
    """
    if key not in ("instructions", "invocations"):
        raise ValueError(f"unknown profile key {key!r}")
    wanted = set(modules) if modules is not None else None
    candidates: list[HotCandidate] = []
    for module_name, module in system.compiled.items():
        if wanted is not None and module_name not in wanted:
            continue
        for fn_name in module.exports:
            fn = module.functions.get(fn_name)
            if fn is None:  # exported constant, not a procedure
                continue
            stats = profiler.closures.get(f"{module_name}.{fn.name}")
            if stats is None:
                continue
            candidates.append(
                HotCandidate(
                    module=module_name,
                    function=fn.name,
                    invocations=stats.invocations,
                    instructions=stats.instructions,
                )
            )
    candidates.sort(key=lambda c: (-getattr(c, key), c.qualified))
    return candidates


def optimize_hot(
    system,
    profiler: ClosureProfile,
    top: int = 1,
    modules=None,
    key: str = "instructions",
    min_instructions: int = 0,
    config=None,
    relink: bool = True,
    facts=None,
) -> PgoReport:
    """Reflectively re-optimize the measured-hottest compiled functions.

    Selection is purely evidence-driven: the ``top`` functions by profiled
    ``key`` (with at least ``min_instructions`` executed) are passed through
    :func:`repro.reflect.optimize_result`.  With ``relink=True`` (default)
    each regenerated closure replaces the export binding in the running
    image, so later ``system.call``/``system.closure`` lookups — though not
    closures other modules captured earlier — use the optimized code.

    ``facts`` (a :class:`~repro.analysis.facts.FactStore`) closes the loop
    with the whole-image analysis: the candidate's stored summary (effect
    class, result kind) is attached to the trace evidence, and the
    optimization's derived attributes are recorded on the record of the
    code that was optimized.  That record stays valid: the relink is in
    memory only, so the stored module still carries that code.
    """
    from repro.reflect import optimize_result  # lazy: avoid import cycle
    from repro.store.ptml import ptml_key

    config = config or DYNAMIC_CONFIG
    ranking = rank_hot(system, profiler, modules=modules, key=key)
    report = PgoReport(ranking=ranking)
    for candidate in ranking[:top]:
        if candidate.instructions < min_instructions:
            continue
        code_key = None
        if facts is not None:
            code_key = ptml_key(
                system.closure(candidate.module, candidate.function).code, system.heap
            )
        record = None if code_key is None else facts.lookup(code_key)
        summary = None if record is None else record.summary
        result = optimize_result(system, candidate.module, candidate.function, config)
        report.selected.append(candidate)
        report.results[candidate.qualified] = result
        if code_key is not None:
            facts.annotate(
                code_key, candidate.qualified, config_fingerprint(config), result.attributes
            )
        if relink:
            system.link(candidate.module).exports[candidate.function] = result.closure
        TRACER.event(
            "reflect.pgo",
            function=candidate.qualified,
            invocations=candidate.invocations,
            instructions=candidate.instructions,
            cost_before=result.cost_before,
            cost_after=result.cost_after,
            estimated_speedup=result.estimated_speedup,
            relinked=relink,
            effect=None if summary is None else summary.effect,
            result_kind=None if summary is None else summary.result,
        )
    return report

