"""The three in-process workloads: ``stanford_exec``, ``query_exec`` and
``compile_cold``.  No daemon, no sockets: the compiler, the optimizers, the
VM and the store are called as a library, as an embedding program would.
"""

from __future__ import annotations

import gc
import os
import random
import time
from dataclasses import dataclass, field

import repro.lang.modules as lang_modules
import repro.lang.system as lang_system
import repro.query as query_pkg
import repro.query.optimizer as query_optimizer
import repro.reflect as reflect_pkg
import repro.reflect.optimize as reflect_optimize
import repro.reflect.reach as reflect_reach
from repro.analysis.verify_tam import assert_verified
from repro.bench.harness import CONFIG_STATIC
from repro.lang import TycoonSystem
from repro.lang.lexer import tokenize
from repro.machine.binfmt import binary_code_size
from repro.machine.isa import code_size, flatten_codes
from repro.machine.vm import EXT_OPS
from repro.obs.profile import VMProfiler
from repro.query import Relation, optimize_query_function
from repro.reflect import optimize_result
from repro.store.heap import ObjectHeap
from repro.store.serialize import Blob

import corpus
from calib import Bracket
from spec import LAYERS
from trace import Recorder
from util import geomean, median

__all__ = ["Outcome", "StanfordExec", "QueryExec", "CompileCold", "layer_shares"]


@dataclass
class Outcome:
    """What one timed (or traced) region produced."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    #: human-readable extras (sample counts, per-item rows); never gated
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# tracing of the compile and reflect pipelines, from outside
# ---------------------------------------------------------------------------


class RewriteHarvest:
    """Sums the statistics every ``rewrite.optimize`` call returns."""

    def __init__(self) -> None:
        self.rules_fired = self.inlined_sites = self.passes = 0
        self.size_before = self.size_after = 0

    def __call__(self, result) -> None:
        stats = result.stats
        self.rules_fired += stats.total_rewrites
        self.inlined_sites += stats.inlined_sites
        self.passes += stats.reduction_passes + stats.expansion_passes
        self.size_before += stats.size_before
        self.size_after += stats.size_after

    def metrics(self) -> dict[str, float]:
        return {
            "rewrite.rules_fired": self.rules_fired,
            "rewrite.inlined_sites": self.inlined_sites,
            "rewrite.passes": self.passes,
            "rewrite.size_ratio": self.size_after / self.size_before if self.size_before else 0.0,
        }


def instrument_pipeline(rec: Recorder) -> RewriteHarvest:
    """Bracket every public stage of compile, persist, load, link and
    reflect.  Each name is patched in the namespace its caller resolves it
    in, so the real pipelines run — nothing is replayed by hand."""
    harvest = RewriteHarvest()
    m, s, r = lang_modules, lang_system, reflect_optimize
    rec.instrument(s, "compile_module", "lang.compile")
    rec.instrument(m, "parse_module", "lang.parse")
    rec.instrument(m, "check_module", "lang.check")
    rec.instrument(m.CpsConverter, "convert_function", "lang.cps")
    rec.instrument(m, "check_wf", "core.wellformed")
    rec.instrument(s, "store_module", "lang.store_module")
    rec.instrument(s, "load_module", "lang.load_module")
    rec.instrument(s, "link_module", "lang.link")
    for owner in (m, r):
        rec.instrument(owner, "compile_function", "machine.codegen")
        rec.instrument(owner, "assert_verified", "analysis.verify")
        rec.instrument(owner, "encode_ptml", "store.ptml.encode")
    for owner in (m, r, query_optimizer):
        rec.instrument(owner, "optimize", "rewrite.optimize", on_result=harvest)
    # optimize_result reaches optimize_closure through the package binding,
    # optimize_query_function through the defining module
    rec.instrument(reflect_pkg, "optimize_closure", "reflect.optimize")
    rec.instrument(r, "optimize_closure", "reflect.optimize")
    rec.instrument(r, "collect_entities", "reflect.collect")
    rec.instrument(reflect_reach, "decode_ptml", "store.ptml.decode")
    rec.instrument(query_pkg, "integrated_optimize", "query.integrated")
    rec.instrument(query_optimizer.QueryRewriter, "rewrite", "query.rewrite")
    return harvest


def instrument_query_primitives(rec: Recorder) -> None:
    """One span per bulk operator call.  The per-row calls back into the VM
    stay inside it: a span per row would cost more than the row."""
    for name in ("select", "exists", "indexscan", "rangescan"):
        rec.instrument_item(EXT_OPS, name, f"query.{name}")


def layer_shares(rec: Recorder, wall_s: float, since: int = 0) -> dict[str, float]:
    """``<layer>.time_share``: self time of the layer's spans over the wall
    time of the traced region (the rest is the benchmark's own loop)."""
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, totals in rec.totals(since).items():
        layer = name.split(".", 1)[0]
        if layer in by_layer:
            by_layer[layer] += totals.self_s
    return {
        f"{layer}.time_share": (value / wall_s if wall_s > 0 else 0.0)
        for layer, value in by_layer.items()
    }


def stage_metrics(rec: Recorder, since: int = 0) -> dict[str, float]:
    """Total seconds per instrumented stage, under the per-layer names."""
    totals = rec.totals(since)

    def total(name: str) -> float:
        entry = totals.get(name)
        return entry.total_s if entry else 0.0

    return {
        "lang.parse_s": total("lang.parse"),
        "lang.check_s": total("lang.check"),
        "lang.cps_s": total("lang.cps"),
        "lang.store_module_s": total("lang.store_module"),
        "lang.load_module_s": total("lang.load_module"),
        "lang.link_s": total("lang.link"),
        "core.wellformed_s": total("core.wellformed"),
        "rewrite.optimize_s": total("rewrite.optimize"),
        "machine.codegen_s": total("machine.codegen"),
        "analysis.verify_s": total("analysis.verify"),
        "store.ptml.encode_s": total("store.ptml.encode"),
        "store.ptml.decode_s": total("store.ptml.decode"),
        "reflect.optimize_s": total("reflect.optimize"),
        "query.optimize_s": total("query.integrated"),
    }


# ---------------------------------------------------------------------------
# shared execution loop of stanford_exec and query_exec
# ---------------------------------------------------------------------------


@dataclass
class Case:
    """One callable under test: the same function as two closures."""

    name: str
    args: list
    static: object
    dynamic: object
    #: independent expected value (never computed by the compiler under test)
    expected: object
    #: maps a VM result value to something comparable with ``expected``
    project: object = None


class ExecLoop:
    """Alternating static/dynamic passes over a list of cases."""

    def __init__(self, system: TycoonSystem, cases: list[Case], image: str, min_passes: int = 3):
        self.system = system
        self.cases = cases
        self.image = image
        self.min_passes = min_passes

    def warm_up(self) -> None:
        """One untimed call of every closure, the last step of set-up: the
        timed passes then start on warm caches, whatever a first call costs
        beyond a later one (lazy linking, a compiling VM tier) shows in
        ``setup_s``, and set-up is long enough that the 5 to 30 ms its
        commit waits for the disk, by the disk's mood, do not decide it."""
        for case in self.cases:
            for closure in (case.static, case.dynamic):
                self.system.vm().call(closure, case.args)

    def one_pass(self, kind: str, times: dict, raw: dict, instrs: dict,
                 bracket: Bracket, rec: Recorder | None) -> int:
        """One pass over the cases; returns the number of wrong results."""
        failed = 0
        for case in self.cases:
            closure = case.static if kind == "static" else case.dynamic
            vm = self.system.vm()
            start = time.perf_counter()
            if rec is None:
                result = vm.call(closure, case.args)
            else:
                with rec.span("machine.vm.call"):
                    result = vm.call(closure, case.args)
            elapsed = time.perf_counter() - start
            times[kind, case.name].append(bracket.close(elapsed))
            raw[kind, case.name].append(elapsed)
            value = case.project(result.value) if case.project else result.value
            if value != case.expected:
                failed += 1
            instrs[kind, case.name] = result.instructions
        return failed

    def run(self, seconds: float, rec: Recorder | None = None) -> Outcome:
        """Alternate static and dynamic passes for ``seconds``.  Every call
        is bracketed by the reference kernel (see ``calib``); the reported
        times are calibrated, the raw ones ride along in ``info``."""
        keys = [(kind, case.name) for kind in ("static", "dynamic") for case in self.cases]
        times = {key: [] for key in keys}
        raw = {key: [] for key in keys}
        instrs: dict = {}
        failed = passes = 0
        gc.collect()
        bracket = Bracket()
        start = time.perf_counter()
        deadline = start + seconds
        while passes < self.min_passes or time.perf_counter() < deadline:
            for kind in ("static", "dynamic"):
                failed += self.one_pass(kind, times, raw, instrs, bracket, rec)
            passes += 1
        wall = time.perf_counter() - start
        attempted = passes * 2 * len(self.cases)

        def total(samples: dict, kind: str) -> float:
            return sum(median(samples[kind, c.name]) for c in self.cases)

        static_s, dynamic_s = total(times, "static"), total(times, "dynamic")
        work_s = sum(sum(samples) for samples in times.values())
        instr_static = sum(instrs["static", c.name] for c in self.cases)
        instr_dynamic = sum(instrs["dynamic", c.name] for c in self.cases)
        return Outcome(
            attempted=attempted,
            failed=failed,
            metrics={
                "primary_ms": static_s * 1e3,
                "secondary_ms": dynamic_s * 1e3,
                "ops_per_s": attempted / work_s,
                "image_bytes": os.path.getsize(self.image),
            },
            info={
                "passes": passes,
                "wall_s": wall,
                "speed_factor": bracket.mean_factor(),
                "raw_primary_ms": total(raw, "static") * 1e3,
                "raw_secondary_ms": total(raw, "dynamic") * 1e3,
                "instr_static": instr_static,
                "instr_dynamic": instr_dynamic,
                "per_case": {
                    c.name: {
                        "static_ms": median(times["static", c.name]) * 1e3,
                        "dynamic_ms": median(times["dynamic", c.name]) * 1e3,
                        "instr_static": instrs["static", c.name],
                        "instr_dynamic": instrs["dynamic", c.name],
                    }
                    for c in self.cases
                },
            },
        )

    def vm_metrics(self, outcome: Outcome) -> dict[str, float]:
        info, m = outcome.info, outcome.metrics
        rows = info["per_case"].values()
        return {
            "machine.vm.instructions_static": info["instr_static"],
            "machine.vm.instructions_dynamic": info["instr_dynamic"],
            "machine.vm.ns_per_instr_static": info["raw_primary_ms"] * 1e6 / info["instr_static"],
            "machine.vm.ns_per_instr_dynamic": info["raw_secondary_ms"] * 1e6 / info["instr_dynamic"],
            "reflect.instr_ratio_geomean": geomean(
                r["instr_static"] / r["instr_dynamic"] for r in rows
            ),
            "reflect.dynamic_speedup_geomean": geomean(
                r["static_ms"] / r["dynamic_ms"] for r in rows
            ),
        }

    def op_shares(self) -> dict[str, float]:
        """Dynamic opcode-count shares of one pass of the optimized code."""
        profiler = VMProfiler()
        for case in self.cases:
            vm = self.system.vm()
            vm.profiler = profiler
            vm.call(case.dynamic, case.args)
        total = profiler.total_instructions or 1
        shares = dict.fromkeys(_OP_CLASS.values(), 0)
        shares["other"] = 0
        for op, count in profiler.opcodes.items():
            shares[_OP_CLASS.get(op, "other")] += count
        return {f"machine.vm.op_share.{k}": v / total for k, v in shares.items()}

    def close(self) -> None:
        self.system.heap.close()


_OP_CLASS = {
    "free": "free",
    "closure": "closure",
    "tailcall": "tailcall",
    "const": "const",
    "case": "case",
    **dict.fromkeys(("add", "sub", "mul", "div", "rem", "lt", "gt", "le", "ge"), "arith"),
    **dict.fromkeys(("arr", "vec", "anew", "aget", "aset", "asize", "amove"), "array"),
    "extcall": "extcall",
}


def _code_growth(pairs) -> float:
    """Σ optimized code size over Σ static code size of the entry points."""
    before = sum(code_size(static.code) for static, _ in pairs)
    after = sum(code_size(dynamic.code) for _, dynamic in pairs)
    return after / before if before else 0.0


def _traced_exec(workload, seed: int, workdir: str, seconds: float) -> Outcome:
    """Shared traced run of the two execution workloads: set-up under the
    pipeline instrumentation, then the same slice untraced and traced."""
    rec = Recorder()
    harvest = instrument_pipeline(rec)
    try:
        loop = workload.setup(seed, workdir)
    finally:
        rec.restore()
    layer = stage_metrics(rec)
    layer.update(harvest.metrics())
    plain = loop.run(seconds / 2)
    setup_spans = len(rec.spans)
    instrument_query_primitives(rec)
    try:
        traced = loop.run(seconds / 2, rec=rec)
    finally:
        rec.restore()
    layer.update(loop.vm_metrics(plain))
    layer.update(loop.op_shares())
    layer["reflect.code_growth"] = _code_growth([(c.static, c.dynamic) for c in loop.cases])
    work_s = sum(t.total_s for name, t in rec.totals(setup_spans).items() if name == "machine.vm.call")
    layer.update(layer_shares(rec, work_s, since=setup_spans))
    # calibrated on both sides, so that machine drift between the two
    # stretches does not pass for tracing cost
    layer["trace_overhead"] = (
        (traced.metrics["primary_ms"] + traced.metrics["secondary_ms"])
        / (plain.metrics["primary_ms"] + plain.metrics["secondary_ms"])
        - 1
    )
    layer.update(workload.extra_layer_metrics(loop, plain))
    loop.close()
    rec.write(os.path.join(workdir, f"trace-{workload.name}.ndjson"))
    return Outcome(
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        metrics=layer,
        info={"spans": len(rec.spans), "plain": plain.info, "traced_passes": traced.info["passes"]},
    )


# ---------------------------------------------------------------------------
# stanford_exec
# ---------------------------------------------------------------------------


class _ExecWorkload:
    """What ``stanford_exec`` and ``query_exec`` share: an :class:`ExecLoop`
    built by ``setup``."""

    def __init__(self, smoke: bool = False):
        #: smoke runs make a single pass (and use the small program sizes)
        self.smoke = smoke

    def run(self, loop: ExecLoop, seconds: float) -> Outcome:
        return loop.run(seconds)

    def teardown(self, loop: ExecLoop) -> None:
        loop.close()

    def trace(self, seed: int, workdir: str, seconds: float) -> Outcome:
        return _traced_exec(self, seed, workdir, seconds)

    def extra_layer_metrics(self, loop: ExecLoop, plain: Outcome) -> dict[str, float]:
        return {}


class StanfordExec(_ExecWorkload):
    name = "stanford_exec"

    def setup(self, seed: int, workdir: str) -> ExecLoop:
        """Compile, persist and commit the suite, then — as a later session
        would — reopen the image, load and link the modules from the store
        and reflectively optimize each entry point."""
        image = os.path.join(workdir, "stanford.tyc")
        programs = corpus.stanford_programs()
        random.Random(seed).shuffle(programs)
        heap = ObjectHeap(image)
        system = TycoonSystem(heap=heap, options=CONFIG_STATIC)
        for program in programs:
            system.compile(program.source)
            system.persist(program.name)
        system.commit()
        heap.close()

        heap = ObjectHeap(image)
        system = TycoonSystem(heap=heap, options=CONFIG_STATIC)
        cases = []
        for program in programs:
            system.load(program.name)
            n = program.test_n if self.smoke else program.bench_n
            cases.append(
                Case(
                    name=program.name,
                    args=[n],
                    static=system.closure(program.name, "run"),
                    dynamic=optimize_result(system, program.name, "run").closure,
                    expected=program.reference(n),
                )
            )
        loop = ExecLoop(system, cases, image, min_passes=1 if self.smoke else 3)
        loop.warm_up()
        return loop


# ---------------------------------------------------------------------------
# query_exec
# ---------------------------------------------------------------------------


def _tuples(relation) -> list[tuple]:
    return sorted(relation.to_tuples())


class QueryExec(_ExecWorkload):
    name = "query_exec"

    def setup(self, seed: int, workdir: str) -> ExecLoop:
        image = os.path.join(workdir, "query.tyc")
        rows = corpus.relation_rows(seed)
        rng = random.Random(seed * 7919 + 5)
        heap = ObjectHeap(image)
        system = TycoonSystem(heap=heap, options=CONFIG_STATIC)
        data = Relation("data", ["id", "v"])
        data.insert_many(rows)
        data.create_index("id")
        data.create_index("v", ordered=True)
        heap.store(data)
        system.register_data_module("db", {"data": data})
        system.compile(corpus.QUERY_SOURCE)
        system.persist("q")
        system.commit()

        key, rem = rng.randrange(len(rows)), rng.randrange(89)
        plans = [
            ("byid", [key], sorted(r for r in rows if r[0] == key), _tuples),
            ("byrem", [rem], sorted(r for r in rows if r[1] % 89 == rem), _tuples),
            ("stacked", [], sorted(r for r in rows if r[1] % 2 == 0 and r[1] % 3 == 0), _tuples),
            ("anybig", [100], len(rows) > 0 and 100 > 500, None),
        ]
        self.rule_count = 0
        cases = []
        for name, args, expected, project in plans:
            result = optimize_query_function(system, "q", name)
            self.rule_count += result.query_stats.total
            cases.append(
                Case(name, args, system.closure("q", name), result.closure, expected, project)
            )
        loop = ExecLoop(system, cases, image, min_passes=1 if self.smoke else 3)
        loop.warm_up()
        return loop

    def extra_layer_metrics(self, loop: ExecLoop, plain: Outcome) -> dict[str, float]:
        rows = plain.info["per_case"]
        n = corpus.RELATION_ROWS
        return {
            "query.rules_fired": self.rule_count,
            "query.instr_ratio": plain.info["instr_static"] / plain.info["instr_dynamic"],
            # unindexed select, static plan: one closure re-entry per row
            "machine.vm.reentry_us": rows["byrem"]["static_ms"] * 1e3 / n,
            "query.scan_us_per_row": rows["byrem"]["dynamic_ms"] * 1e3 / n,
            "query.index_lookup_us": rows["byid"]["dynamic_ms"] * 1e3,
        }


# ---------------------------------------------------------------------------
# compile_cold
# ---------------------------------------------------------------------------

#: rows of the relation the query module is compiled against (the relation
#: is committed with the image; compile time is the point, so it is small)
_COLD_ROWS = 500


@dataclass
class ColdState:
    sources: list[str]
    rows: list[tuple[int, int]]
    synth: corpus.SynthModule
    workdir: str
    check_seed: int
    passes_done: int = 0


@dataclass
class ColdPass:
    #: calibrated seconds (see ``calib``) and the raw ones beside them
    compile_s: float = 0.0
    reflect_s: float = 0.0
    raw_compile_s: float = 0.0
    raw_reflect_s: float = 0.0
    image_bytes: int = 0
    ops: int = 0
    #: filled only on a checking pass
    failed: int = 0
    facts: dict[str, float] = field(default_factory=dict)


class _Timer:
    """Runs steps of a pass, each bracketed by the reference kernel, and
    adds their calibrated and raw durations to a phase of a ColdPass."""

    def __init__(self, done: ColdPass):
        self.done = done
        self.bracket = Bracket()

    def step(self, phase: str, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        calibrated = self.bracket.close(raw)
        done = self.done
        setattr(done, f"{phase}_s", getattr(done, f"{phase}_s") + calibrated)
        setattr(done, f"raw_{phase}_s", getattr(done, f"raw_{phase}_s") + raw)
        return result


class CompileCold:
    name = "compile_cold"

    def __init__(self, smoke: bool = False):
        #: smoke runs skip the warm-up pass and time a single pass
        self.smoke = smoke

    def setup(self, seed: int, workdir: str) -> ColdState:
        synth = corpus.synth_module(seed)
        sources = [p.source for p in corpus.stanford_programs()]
        sources += [corpus.QUERY_SOURCE, synth.source]
        random.Random(seed).shuffle(sources)
        state = ColdState(
            sources=sources,
            rows=corpus.relation_rows(seed)[:_COLD_ROWS],
            synth=synth,
            workdir=workdir,
            check_seed=seed * 7919 + 6,
        )
        if not self.smoke:
            self.one_pass(state)  # warm-up: imports and caches filled before timing
        return state

    def one_pass(self, state: ColdState, check: bool = False) -> ColdPass:
        """Fresh image and system; compile + persist + one commit, then
        reflect over every exported entry point."""
        state.passes_done += 1
        image = os.path.join(state.workdir, f"cold-{state.passes_done}.tyc")
        done = ColdPass()
        timer = _Timer(done)

        def open_system():
            heap = ObjectHeap(image)
            system = TycoonSystem(heap=heap, options=CONFIG_STATIC)
            data = Relation("data", ["id", "v"])
            data.insert_many(state.rows)
            data.create_index("id")
            heap.store(data)
            system.register_data_module("db", {"data": data})
            return heap, system

        def compile_one(system, source):
            module = system.compile(source)
            system.persist(module.name)
            return module

        def reflect_one(system, module, export):
            if module.name == "q":
                return optimize_query_function(system, "q", export)
            return optimize_result(system, module.name, export)

        heap, system = timer.step("compile", open_system)
        try:
            modules = [timer.step("compile", compile_one, system, src) for src in state.sources]
            timer.step("compile", system.commit)
            results = {}
            for module in modules:
                for export in module.exports:
                    if export in module.functions:
                        results[module.name, export] = timer.step(
                            "reflect", reflect_one, system, module, export
                        )
            done.image_bytes = os.path.getsize(image)
            done.ops = len(modules) + len(results)
            if check:
                done.failed = self.check(state, system, modules, results)
                done.facts = self.facts(state, heap, modules, results)
                done.facts["query.rules_fired"] = sum(
                    results["q", export].query_stats.total
                    for module in modules if module.name == "q"
                    for export in module.exports if export in module.functions
                )
            return done
        finally:
            heap.close()
            os.unlink(image)

    def check(self, state: ColdState, system, modules, results) -> int:
        """Every code object verifies; every program, both as compiled and
        as reflectively optimized, returns its independent reference."""
        failed = 0
        codes = [fn.code for m in modules for fn in m.functions.values()]
        codes += [result.closure.code for result in results.values()]
        for code in codes:
            try:
                assert_verified(code)
            except Exception:  # a verifier diagnostic of any kind is a failed op
                failed += 1

        def both(module, function, args, expected, project=None):
            bad = 0
            for closure in (system.closure(module, function), results[module, function].closure):
                value = system.vm().call(closure, list(args)).value
                if (project(value) if project else value) != expected:
                    bad += 1
            return bad

        for program in corpus.stanford_programs():
            failed += both(program.name, "run", [program.test_n], program.reference(program.test_n))
        rng = random.Random(state.check_seed)
        for entry in state.synth.entries:
            x = rng.randrange(200, 1000)
            failed += both("synth", entry, [x], state.synth.reference[entry](x))
        rows = state.rows
        key = rng.randrange(len(rows))
        failed += both("q", "byid", [key], sorted(r for r in rows if r[0] == key), _tuples)
        failed += both("q", "stacked", [], sorted(r for r in rows if r[1] % 6 == 0), _tuples)
        return failed

    def facts(self, state: ColdState, heap, modules, results) -> dict[str, float]:
        """Exact work-size and code-size counts of one pass."""
        functions = [fn for m in modules for fn in m.functions.values()]
        exe = ptml = 0
        for fn in functions:
            exe += binary_code_size(fn.code)
            for part in flatten_codes(fn.code):
                if part.ptml_ref is not None:
                    # persisted: the blob lives in the heap, the code holds its OID
                    ptml += heap.stored_size(part.ptml_ref)
        by_name = {m.name: m for m in modules}
        static = sum(code_size(by_name[mod].functions[fn].code) for mod, fn in results)
        dynamic = sum(code_size(result.closure.code) for result in results.values())
        return {
            "lang.tokens": sum(len(tokenize(source)) for source in state.sources),
            "lang.functions": len(functions),
            "machine.code_instrs": sum(code_size(fn.code) for fn in functions),
            "store.ptml.bytes_per_code_byte": ptml / exe,
            "reflect.code_growth": dynamic / static,
        }

    def run(self, state: ColdState, seconds: float, min_passes: int = 3) -> Outcome:
        if self.smoke:
            min_passes = 1
        passes: list[ColdPass] = []
        gc.collect()
        start = time.perf_counter()
        deadline = start + seconds
        while len(passes) < min_passes or time.perf_counter() < deadline:
            passes.append(self.one_pass(state))
        wall = time.perf_counter() - start
        # correctness on one more pass, outside the timers: the VM runs here
        checked = self.one_pass(state, check=True)
        ops = sum(p.ops for p in passes)
        work_s = sum(p.compile_s + p.reflect_s for p in passes)
        return Outcome(
            attempted=ops,
            failed=checked.failed,
            metrics={
                "primary_ms": median(p.compile_s for p in passes) * 1e3,
                "secondary_ms": median(p.reflect_s for p in passes) * 1e3,
                "ops_per_s": ops / work_s,
                "image_bytes": passes[-1].image_bytes,
            },
            info={
                "passes": len(passes),
                "wall_s": wall,
                "raw_primary_ms": median(p.raw_compile_s for p in passes) * 1e3,
                "raw_secondary_ms": median(p.raw_reflect_s for p in passes) * 1e3,
                "facts": checked.facts,
            },
        )

    def teardown(self, state: ColdState) -> None:
        pass

    def trace(self, seed: int, workdir: str, seconds: float) -> Outcome:
        state = self.setup(seed, workdir)
        plain = self.run(state, seconds / 2, min_passes=2)
        rec = Recorder()
        harvest = instrument_pipeline(rec)
        rec.instrument(ObjectHeap, "commit", "store.heap.commit")
        traced: list[ColdPass] = []
        try:
            deadline = time.perf_counter() + seconds / 2
            while len(traced) < (1 if self.smoke else 2) or time.perf_counter() < deadline:
                with rec.span("bench.pass"):
                    traced.append(self.one_pass(state))
        finally:
            rec.restore()
        n = len(traced)
        totals = rec.totals()
        # the steps' own time: a pass also holds the reference-kernel runs
        wall = sum(p.raw_compile_s + p.raw_reflect_s for p in traced)

        layer = {name: value / n for name, value in stage_metrics(rec).items()}
        counts = harvest.metrics()
        size_ratio = counts.pop("rewrite.size_ratio")
        layer.update({name: value / n for name, value in counts.items()})
        layer["rewrite.size_ratio"] = size_ratio
        layer.update(plain.info["facts"])
        layer.update(layer_shares(rec, wall))
        plain_pass = (plain.info["raw_primary_ms"] + plain.info["raw_secondary_ms"]) / 1e3
        traced_pass = median(p.raw_compile_s + p.raw_reflect_s for p in traced)
        # calibrated on both sides: machine drift is not tracing cost
        layer["trace_overhead"] = median(p.compile_s + p.reflect_s for p in traced) / (
            (plain.metrics["primary_ms"] + plain.metrics["secondary_ms"]) / 1e3
        ) - 1

        # phase sum: what the instrumented stages account for, per pass
        staged = sum(t.self_s for name, t in totals.items() if name != "bench.pass") / n
        rec.write(os.path.join(workdir, f"trace-{self.name}.ndjson"))
        return Outcome(
            attempted=plain.attempted,
            failed=plain.failed,
            metrics=layer,
            info={
                "spans": len(rec.spans),
                "passes": n,
                "checks": {
                    "phase_sum_over_traced_pass": staged / traced_pass,
                    "phase_sum_over_untraced_pass": staged / plain_pass,
                },
            },
        )
