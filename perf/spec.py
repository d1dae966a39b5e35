"""Names, units and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repository root mirrors this module
(``perf/tests/test_perf.py`` keeps the two equal); ``run.py`` fills every
name on every workload so that the driver sees one fixed schema.
"""

from __future__ import annotations

#: timed region of one driver run, seconds
RUN_SECONDS = 12

#: name -> one-line reason (also says what ``primary``/``secondary`` mean there)
WORKLOADS: dict[str, str] = {
    "stanford_exec": (
        "VM-bound: 11 Stanford programs in-process; primary=statically compiled pass, "
        "secondary=reflectively optimised pass. Store, server and compiler idle: a write-path change shows nothing"
    ),
    "query_exec": (
        "VM re-entry: 4 TL queries on a 5000-row indexed relation; primary=static plan, "
        "secondary=runtime-optimised plan. Time is in query primitives calling closures per row"
    ),
    "compile_cold": (
        "Compiler-bound: fresh image, compile+persist+commit a corpus (primary), then reflect-optimise "
        "every entry point (secondary). VM executes nothing; one commit per pass"
    ),
    "kv_read": (
        "Daemon, 2 closed-loop sessions, 10000 roots = 2.4x the heap cache; primary=get, "
        "secondary=call app.sumto. No writes, zero fsyncs: the bypass for every durability change"
    ),
    "kv_write": (
        "Daemon --replicate, 2 closed-loop writers on 10000 roots; primary=set, secondary=restart "
        "after SIGKILL to first get. Store does the work: table rewrite, pager and commit-log fsyncs"
    ),
    "mixed_rw": (
        "Daemon --replicate on 1000 roots (fits the cache): 2 reader sessions (primary=get, 20% call) "
        "against a 20/s writer session (secondary=set, ops=its rate) plus 8 redefinitions: lock, code cache"
    ),
}

#: (name, unit, better, bound) — every workload reports every one
END_TO_END: list[tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("primary_ms", "ms", "lower", 0.25),
    ("secondary_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("image_bytes", "B", "lower", 0.05),
]

_OP_CLASSES = ("free", "closure", "tailcall", "const", "case", "arith", "array", "extcall", "other")
LAYERS = ("lang", "rewrite", "machine", "analysis", "store", "reflect", "query", "server")

#: (name, unit, better).  ``exact`` names (below) repeat bit-for-bit per seed.
PER_LAYER: list[tuple[str, str, str]] = [
    ("lang.parse_s", "s", "lower"),
    ("lang.check_s", "s", "lower"),
    ("lang.cps_s", "s", "lower"),
    ("lang.tokens", "count", "lower"),
    ("lang.functions", "count", "lower"),
    ("lang.store_module_s", "s", "lower"),
    ("lang.load_module_s", "s", "lower"),
    ("lang.link_s", "s", "lower"),
    ("core.wellformed_s", "s", "lower"),
    ("rewrite.optimize_s", "s", "lower"),
    ("rewrite.rules_fired", "count", "higher"),
    ("rewrite.inlined_sites", "count", "higher"),
    ("rewrite.passes", "count", "lower"),
    ("rewrite.size_ratio", "ratio", "lower"),
    ("machine.codegen_s", "s", "lower"),
    ("machine.code_instrs", "count", "lower"),
    ("machine.vm.instructions_static", "count", "lower"),
    ("machine.vm.instructions_dynamic", "count", "lower"),
    ("machine.vm.ns_per_instr_static", "ns", "lower"),
    ("machine.vm.ns_per_instr_dynamic", "ns", "lower"),
    *[(f"machine.vm.op_share.{op}", "ratio", "lower") for op in _OP_CLASSES],
    ("machine.vm.reentry_us", "us", "lower"),
    ("analysis.verify_s", "s", "lower"),
    ("store.ptml.encode_s", "s", "lower"),
    ("store.ptml.decode_s", "s", "lower"),
    ("store.ptml.bytes_per_code_byte", "ratio", "lower"),
    ("store.serialize.encode_us_per_obj", "us", "lower"),
    ("store.serialize.decode_us_per_obj", "us", "lower"),
    ("store.heap.commit_self_s", "s", "lower"),
    ("store.heap.table_bytes_per_commit", "B", "lower"),
    ("store.heap.cache_hit_rate", "ratio", "higher"),
    ("store.heap.evictions", "count", "lower"),
    ("store.heap.load_miss_us", "us", "lower"),
    ("store.pager.fsyncs_per_commit", "count", "lower"),
    ("store.pager.page_writes_per_commit", "count", "lower"),
    ("store.pager.sync_s", "s", "lower"),
    ("store.pager.bytes_written_per_user_byte", "ratio", "lower"),
    ("store.pager.bytes_stored_per_user_byte", "ratio", "lower"),
    ("store.pager.page_reads_per_get", "count", "lower"),
    ("store.commitlog.append_s", "s", "lower"),
    ("store.commitlog.bytes_per_commit", "B", "lower"),
    ("store.txn.write_lock_wait_ms", "ms", "lower"),
    ("store.txn.read_lock_wait_ms", "ms", "lower"),
    ("store.recover_open_s", "s", "lower"),
    ("reflect.optimize_s", "s", "lower"),
    ("reflect.instr_ratio_geomean", "ratio", "higher"),
    ("reflect.dynamic_speedup_geomean", "ratio", "higher"),
    ("reflect.code_growth", "ratio", "lower"),
    ("query.optimize_s", "s", "lower"),
    ("query.rules_fired", "count", "higher"),
    ("query.instr_ratio", "ratio", "higher"),
    ("query.scan_us_per_row", "us", "lower"),
    ("query.index_lookup_us", "us", "lower"),
    ("server.ping_p50_ms", "ms", "lower"),
    ("server.protocol.encode_us", "us", "lower"),
    ("server.protocol.decode_us", "us", "lower"),
    *[(f"server.op.{op}.server_p50_us", "us", "lower") for op in ("get", "set", "call", "run")],
    *[(f"server.wire_overhead_ms.{op}", "ms", "lower") for op in ("get", "set", "call")],
    ("server.codecache.hit_rate", "ratio", "higher"),
    ("server.call_miss_ms", "ms", "lower"),
    ("server.run_p50_ms", "ms", "lower"),
    ("server.cpu_s_per_kop", "s", "lower"),
    ("server.refused", "count", "lower"),
    # client-observed distributions of the traced slice: the tails the
    # end-to-end medians do not carry (reported, not gated)
    *[
        (f"client.{op}_{q}_ms", "ms", "lower")
        for op in ("get", "call", "set")
        for q in ("p50", "p95", "p99")
    ],
    ("client.get_per_s", "1/s", "higher"),
    ("client.set_per_s", "1/s", "higher"),
    *[(f"{layer}.time_share", "ratio", "lower") for layer in LAYERS],
    ("trace_overhead", "ratio", "lower"),
]

#: counts that must repeat bit-for-bit for a fixed seed (single-threaded,
#: deterministic compiler and VM)
EXACT: frozenset[str] = frozenset(
    {
        "lang.tokens",
        "lang.functions",
        "rewrite.rules_fired",
        "rewrite.inlined_sites",
        "rewrite.passes",
        "machine.code_instrs",
        "machine.vm.instructions_static",
        "machine.vm.instructions_dynamic",
        "store.ptml.bytes_per_code_byte",
        "store.pager.fsyncs_per_commit",
        "store.pager.page_writes_per_commit",
        "reflect.instr_ratio_geomean",
        "query.rules_fired",
        "query.instr_ratio",
        *[f"machine.vm.op_share.{op}" for op in _OP_CLASSES],
    }
)

E2E_NAMES = [name for name, *_ in END_TO_END]
LAYER_NAMES = [name for name, *_ in PER_LAYER]
UNITS = {name: unit for name, unit, *_ in (*END_TO_END, *PER_LAYER)}


def benchmark_json() -> dict:
    """The contents ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
