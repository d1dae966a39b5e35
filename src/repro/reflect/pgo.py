"""Profile-guided reflective optimization: close the paper's runtime loop.

Section 4.1 makes optimization a *runtime* activity; this module supplies
the missing decision input: measured behavior.  A
:class:`repro.obs.profile.ClosureProfile` (or the
:class:`~repro.obs.profile.VMProfiler` that extends it) says which
procedures actually ran hot (invocation and instruction counts per code
object, a function credited with its nested code objects); ``optimize_hot``
selects the hottest compiled functions by that evidence, runs
``reflect.optimize`` on each and writes the result into the function's
module record as a variant, so subsequent calls — in this process, after a
restart, on a replica — run the optimized code.

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

from repro.machine.isa import VMClosure
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

    #: candidates re-optimized and installed as variants, hottest first
    selected: list[HotCandidate] = field(default_factory=list)
    #: qualified name → the reflective-optimization diagnostics
    results: dict[str, ReflectResult] = field(default_factory=dict)
    #: qualified name → why its result was not installed
    refused: dict[str, str] = field(default_factory=dict)
    #: every measured candidate, hottest first (selection context)
    ranking: list[HotCandidate] = field(default_factory=list)


def rank_hot(
    system,
    profiler: ClosureProfile,
    modules=None,
    key: str = "instructions",
) -> list[HotCandidate]:
    """Rank the system's compiled functions by measured execution totals.

    Only *exported* functions that appeared in the profile are returned (a
    hot internal helper is reached through its exported caller's combined
    scope).  Profiles key code objects by name, ``module.function`` and
    ``module.function/loop_7`` for code nested in it: a function's
    ``instructions`` are its whole family's, its ``invocations`` its own.
    ``key`` is ``"instructions"`` (default — where the time went) or
    ``"invocations"`` (what was called most).
    """
    if key not in ("instructions", "invocations"):
        raise ValueError(f"unknown profile key {key!r}")
    family: dict[str, int] = {}
    for name, stats in profiler.closures.items():
        root = name.partition("/")[0]
        family[root] = family.get(root, 0) + stats.instructions
    candidates: list[HotCandidate] = []
    for module_name, module in system.compiled.items():
        if modules is not None and module_name not in modules:
            continue
        for fn_name in module.exports:
            qualified = f"{module_name}.{fn_name}"
            stats = profiler.closures.get(qualified)
            if stats is not None and fn_name in module.functions:  # not a constant
                candidates.append(
                    HotCandidate(module_name, fn_name, stats.invocations, family[qualified])
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
) -> PgoReport:
    """Reflectively re-optimize the measured-hottest compiled functions.

    The ``top`` functions by profiled ``key`` (with at least
    ``min_instructions`` executed), but one running its variant, pass
    through :func:`repro.reflect.optimize_result`.  Each result becomes its
    function's :class:`~repro.lang.modules.Variant` and the module is
    persisted and forgotten, so the next call links the variant from the
    image, as a restart or a replica does; the caller commits.  A result
    with a hole (a runtime value the image cannot name), stale merged code
    or ill-formed TML is reported in ``refused``, not installed.
    """
    from repro.core.wellformed import is_well_formed
    from repro.lang.modules import Variant
    from repro.reflect import optimize_result  # lazy: avoid import cycle

    config = config or DYNAMIC_CONFIG
    ranking = rank_hot(system, profiler, modules=modules, key=key)
    report = PgoReport(ranking=ranking)
    for candidate in ranking[:top]:
        if candidate.instructions < min_instructions:
            continue
        function = system.compiled[candidate.module].functions[candidate.function]
        if system.closure(candidate.module, candidate.function).code is not function.code:
            report.refused[candidate.qualified] = "it runs its variant"
            continue
        result = optimize_result(system, candidate.module, candidate.function, config)
        report.results[candidate.qualified] = result
        deps = _dependencies(system, result.merged)
        if result.holes:
            report.refused[candidate.qualified] = f"{result.holes} hole(s) in its scope"
        elif not system.current(deps):
            report.refused[candidate.qualified] = "merged code the image does not name"
        elif not is_well_formed(result.term, system.registry):
            report.refused[candidate.qualified] = "its TML is not well-formed"
        else:
            report.selected.append(candidate)
            function.variant = Variant(
                result.closure.code, config_fingerprint(config), deps, result.attributes
            )
        TRACER.event(
            "reflect.pgo",
            function=candidate.qualified,
            invocations=candidate.invocations,
            instructions=candidate.instructions,
            cost_before=result.cost_before,
            cost_after=result.cost_after,
            estimated_speedup=result.estimated_speedup,
            installed=candidate.qualified not in report.refused,
        )
    for module in dict.fromkeys(c.module for c in report.selected):
        system.persist(module)
        system.forget(module)
    return report


def _dependencies(system, merged) -> tuple[tuple[str, str], ...]:
    """A variant's ``(qualified name, dependency_key)`` pairs: every static
    function merged and every imported value one reads (baked in as a
    literal); a merged closure running a variant contributes its deps."""
    variants = {
        id(fn.variant.code): fn.variant.deps
        for module in system.compiled.values()
        for fn in module.functions.values()
        if fn.variant is not None
    }
    deps = set()
    for closure in merged:
        code = closure.code
        if id(code) in variants:
            deps.update(variants[id(code)])
            continue
        deps.add((code.name, system.dependency_key(code)))
        module, _, name = code.name.partition(".")
        if module not in system.compiled:  # the library is never redefined
            continue
        externals = system.compiled[module].functions[name].externals
        for free_name, value in zip(code.free_names, closure.free):
            ref = externals.get(free_name)
            if ref is not None and ref.kind == "import" and not isinstance(value, VMClosure):
                deps.add((f"{ref.module}.{ref.member}", system.dependency_key(value)))
    return tuple(sorted(deps))
