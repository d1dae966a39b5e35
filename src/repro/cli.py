"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run FILE [--entry m.f] [--args ...]`` — compile the TL modules in FILE
  and call an entry function (default: ``main`` of the last module), with
  optional static/dynamic optimization;
* ``tml FILE --function m.f`` — print a function's TML (optionally after
  runtime optimization);
* ``disasm FILE --function m.f`` — print the TAM code listing;
* ``bench [--scale S] [--programs p,q]`` — the §6 Stanford table;
* ``store ls PATH`` — list the roots of a persistent store image;
* ``fsck IMAGE [--repair] [--json OUT]`` — offline integrity check of a
  store image: header slots, page checksums, object table, chains, free
  list, references and reachability; ``--repair`` quarantines corrupt or
  unreachable objects and rebuilds the free list (see docs/durability.md);
  exits nonzero when integrity errors are found;
* ``serve IMAGE [--port N] [--workers N] ...`` — boot the multi-session
  database server over a persistent image (see docs/server.md); prints
  ``listening on HOST:PORT`` once ready and serves until interrupted or a
  client sends ``shutdown``; ``--replicate`` makes it a commit-log-shipping
  primary, ``--replica-of HOST:PORT`` a read replica following that
  primary (see docs/replication.md); ``--coordinator`` with repeated
  ``--shard HOST:PORT[,HOST:PORT]`` groups makes it a shard coordinator
  routing over the consistent-hash ring, and ``--shard-id N`` marks a
  participant daemon's own position (see docs/sharding.md);
* ``client --port N ACTION [...]`` — one-shot session against a running
  daemon: ``ping``, ``call m.f [args]``, ``run FILE``, ``get ROOT...``,
  ``set ROOT VALUE``, ``mset ROOT=VALUE...``, ``scatter [PREFIX [m.f]]``,
  ``topology``, ``roots``, ``stats``, ``pgo``, ``repl-status``,
  ``promote [TERM]``, ``follow HOST:PORT``, ``shutdown``; ``--deadline S``
  bounds each request's wall-clock budget;
* ``lint [FILE] [--stdlib] [--store PATH --oid N]`` — run the static
  analyses (constraints 1-5, usage, effect/registry lint, TAM bytecode
  verifier, abstract interpretation) over compiled TL functions or a stored
  PTML/code object; exits nonzero when any error-severity diagnostic is
  found, or — with ``--strict`` — when any warning is (see docs/analysis.md);
* ``audit IMAGE [--json OUT] [--no-update] [--strict]`` — whole-image
  interprocedural audit: verify and abstractly interpret every stored code
  object over the image call graph, report type-error sites, broken frozen
  references, effect violations and unreachable functions, and refresh the
  persisted analysis-fact cache under the ``analysis:facts`` root; exits
  nonzero on any error finding (see docs/analysis.md);
* ``profile FILE [--entry m.f] [--pgo]`` — run under the VM profiler and
  print per-closure invocation/instruction counts plus per-opcode totals;
  ``--pgo`` then feeds the profile into ``reflect.optimize`` and reports the
  profile-guided reoptimization (see docs/observability.md);
* ``stats [FILE]`` — print the process metrics registry (optionally after
  compiling and running FILE).

Most subcommands accept ``--trace OUT.ndjson`` to stream structured
spans/events from every instrumented layer to an NDJSON trace file.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.lang.modules import CompileOptions
    from repro.lang.system import TycoonSystem

__all__ = ["main"]

# Each subcommand imports what it runs: ``repro client`` never loads the
# compiler or the store, and ``repro serve`` only what a daemon executes.


def _options(level: str) -> CompileOptions:
    from repro.lang.modules import CompileOptions
    from repro.rewrite.pipeline import OptimizerConfig

    if level == "none":
        return CompileOptions(optimizer=None)
    return CompileOptions(optimizer=OptimizerConfig())


def _load_system(path: str, opt: str, store: str | None) -> TycoonSystem:
    from repro.lang.parser import parse_modules
    from repro.lang.system import TycoonSystem
    from repro.store.heap import ObjectHeap

    heap = ObjectHeap(store) if store else None
    system = TycoonSystem(heap=heap, options=_options(opt))
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    for module in parse_modules(source):
        system.compile(module)
    return system


def _parse_value(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    if text == "unit":
        from repro.core.syntax import UNIT

        return UNIT
    try:
        return int(text)
    except ValueError:
        return text


def _split_entry(entry: str, system: TycoonSystem) -> tuple[str, str]:
    if "." in entry:
        module, function = entry.split(".", 1)
        return module, function
    # bare function name: search the compiled modules, latest first
    for name in reversed(list(system.compiled)):
        if entry in system.compiled[name].functions:
            return name, entry
    raise SystemExit(f"error: no compiled module exports {entry!r}")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.machine.runtime import UncaughtTmlException, show_value
    from repro.reflect import optimize_result

    system = _load_system(args.file, args.opt, args.store)
    entry = args.entry
    if entry is None:
        last = list(system.compiled)[-1]
        entry = f"{last}.main" if "main" in system.compiled[last].functions else last
    module, function = _split_entry(entry, system)

    call_args = [_parse_value(a) for a in args.args]
    if args.opt == "dynamic":
        closure = optimize_result(system, module, function).closure
    else:
        closure = system.closure(module, function)
    try:
        result = system.vm().call(closure, call_args)
    except UncaughtTmlException as exc:
        print(f"uncaught exception: {show_value(exc.value)}", file=sys.stderr)
        return 1
    for line in result.output:
        print(line)
    print(f"=> {show_value(result.value)}")
    if args.verbose:
        print(f"[{result.instructions} TAM instructions]", file=sys.stderr)
    return 0


def _cmd_tml(args: argparse.Namespace) -> int:
    from repro.core.pretty import PrettyOptions, pretty
    from repro.reflect import optimize_result
    from repro.reflect.reach import term_of_closure

    system = _load_system(args.file, args.opt, args.store)
    module, function = _split_entry(args.function, system)
    closure = system.closure(module, function)
    if args.dynamic:
        term = optimize_result(system, module, function).term
    else:
        term = term_of_closure(closure, system.heap, allow_decompile=True)
    print(pretty(term, PrettyOptions(show_uids=not args.plain)))
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    system = _load_system(args.file, args.opt, args.store)
    module, function = _split_entry(args.function, system)
    closure = system.closure(module, function)
    print(closure.code.disassemble())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.harness import format_table, run_stanford

    names = args.programs.split(",") if args.programs else None
    rows = run_stanford(names=names, scale=args.scale, repeats=args.repeats)
    print(format_table(rows))
    if args.artifacts is not None:
        from repro.bench.artifacts import write_bench_artifacts

        vm_path, opt_path = write_bench_artifacts(
            args.artifacts, scale=args.scale, repeats=args.repeats, rows=rows
        )
        print(f"wrote {vm_path} and {opt_path}", file=sys.stderr)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.machine.runtime import UncaughtTmlException, show_value
    from repro.machine.vm import StepLimitExceeded
    from repro.obs.exporters import write_metrics_json
    from repro.obs.profile import VMProfiler

    system = _load_system(args.file, args.opt, args.store)
    entry = args.entry
    if entry is None:
        last = list(system.compiled)[-1]
        entry = f"{last}.main" if "main" in system.compiled[last].functions else last
    module, function = _split_entry(entry, system)
    call_args = [_parse_value(a) for a in args.args]

    profiler = VMProfiler()
    closure = system.closure(module, function)
    vm = system.vm(step_limit=args.step_limit)
    vm.profiler = profiler
    truncated = False
    try:
        result = vm.call(closure, call_args)
    except UncaughtTmlException as exc:
        print(f"uncaught exception: {show_value(exc.value)}", file=sys.stderr)
        return 1
    except StepLimitExceeded as exc:
        # the profile of the truncated run is still valid evidence
        truncated = True
        result = exc.partial
        print(
            f"step limit hit after {exc.instructions} instructions "
            f"(limit {exc.limit}); profile covers the truncated run",
            file=sys.stderr,
        )

    for line in result.output:
        print(line)
    if not truncated:
        print(f"=> {show_value(result.value)}")
    print()
    print(f"profile of {module}.{function} ({result.instructions} instructions):")
    print(profiler.format_report(top=args.top))

    if args.pgo:
        from repro.reflect.pgo import optimize_hot

        report = optimize_hot(system, profiler, top=args.pgo)
        print()
        if not report.selected and not report.refused:
            print("pgo: no profiled compiled function to reoptimize")
        for qualified, reason in report.refused.items():
            print(f"pgo: left {qualified} as it was: {reason}")
        for candidate in report.selected:
            reflected = report.results[candidate.qualified]
            print(
                f"pgo: reoptimized {candidate.qualified} "
                f"({candidate.invocations} invocation(s), "
                f"{candidate.instructions} instructions measured): "
                f"cost {reflected.cost_before} -> {reflected.cost_after}, "
                f"estimated speedup {reflected.estimated_speedup:.2f}x"
            )

    if args.json:
        import json as _json

        with open(args.json, "w", encoding="utf-8") as fp:
            _json.dump(profiler.as_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    if args.metrics_json:
        write_metrics_json(args.metrics_json)
        print(f"wrote {args.metrics_json}", file=sys.stderr)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.history:
        return _cmd_stats_history(args)
    from repro.machine.runtime import UncaughtTmlException, show_value
    from repro.obs.exporters import write_metrics_json
    from repro.obs.metrics import METRICS

    # importing the instrumented layers registers their metric catalog even
    # before anything runs
    import repro.machine.vm  # noqa: F401
    import repro.rewrite.pipeline  # noqa: F401
    import repro.store.heap  # noqa: F401
    import repro.store.ptml  # noqa: F401

    if args.file is not None:
        system = _load_system(args.file, args.opt, args.store)
        last = list(system.compiled)[-1]
        entry = f"{last}.main" if "main" in system.compiled[last].functions else last
        module, function = _split_entry(entry, system)
        try:
            system.call(module, function, [])
        except UncaughtTmlException as exc:
            print(f"uncaught exception: {show_value(exc.value)}", file=sys.stderr)
            return 1

    rows = METRICS.describe()
    snapshot = METRICS.snapshot()
    print(f"{'metric':<34} {'type':<10} value")
    print("-" * 64)
    for name, kind, _help in rows:
        state = snapshot[name]
        if kind == "histogram":
            value = (
                f"count={state['count']} total={state['total']} "
                f"min={state['min']} max={state['max']}"
            )
        else:
            value = str(state["value"])
        print(f"{name:<34} {kind:<10} {value}")
    if args.json:
        write_metrics_json(args.json)
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def _cmd_stats_history(args: argparse.Namespace) -> int:
    """Offline read of the in-image metrics-history ring (``obs:history``).

    The daemon persists periodic metric snapshots into the image it
    serves; this reads them back with no server running — the positional
    argument is the store image, not a TL file.
    """
    import json as _json

    from repro.obs.history import read_history
    from repro.store.heap import ObjectHeap

    if args.file is None:
        raise SystemExit("error: stats --history needs a store image path")
    heap = ObjectHeap(args.file)
    try:
        entries = read_history(heap)
    finally:
        heap.close()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            _json.dump(entries, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}", file=sys.stderr)
        return 0
    if not entries:
        print("(no persisted metric snapshots)")
        return 0
    print(f"{'seq':>5} {'timestamp':<24} {'role':<10} {'version':>8} {'requests':>9}")
    print("-" * 60)
    for entry in entries:
        meta = entry.get("meta", {})
        metrics = entry.get("metrics", {})
        requests = metrics.get("server.requests", {}).get("value", "-")
        ts = time.strftime(
            "%Y-%m-%dT%H:%M:%S", time.localtime(entry.get("ts_ms", 0) / 1000)
        )
        print(
            f"{entry.get('seq', 0):>5} {ts:<24} {str(meta.get('role', '-')):<10} "
            f"{str(meta.get('version', '-')):>8} {str(requests):>9}"
        )
    return 0


def _endpoint(text: str, what: str) -> tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)``; ``what`` names the argument in
    the usage error."""
    host, _, port = text.strip().rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"error: {what} expects HOST:PORT")
    return host, int(port)


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.server.top import run_top

    host, port = _endpoint(args.target, "top")
    return run_top(host, port, interval=args.interval, count=args.count)


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store.heap import ObjectHeap

    heap = ObjectHeap(args.path)
    try:
        if args.action == "ls":
            names = heap.root_names()
            if not names:
                print("(no roots)")
            for name in names:
                oid = heap.root(name)
                size = heap.stored_size(oid)
                print(f"{name:<30} oid={int(oid):<6} {size} bytes")
            return 0
        raise SystemExit(f"unknown store action {args.action!r}")
    finally:
        heap.close()


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.diagnostics import Severity
    from repro.analysis.lint import lint_code, lint_registry, lint_term
    from repro.primitives.registry import default_registry

    registry = default_registry()
    findings: list[tuple[str, object]] = []  # (label, Diagnostic)

    def collect(label: str, diags) -> None:
        findings.extend((label, d) for d in diags)

    collect("registry", lint_registry(registry))

    targets: list[tuple[str, object, object]] = []  # (label, term, code)
    if args.stdlib:
        from repro.lang.modules import compile_stdlib

        for mod_name, module in compile_stdlib(_options(args.opt)).items():
            for fn in module.functions.values():
                targets.append((f"{mod_name}.{fn.name}", fn.term, fn.code))
    if args.file is not None:
        system = _load_system(args.file, args.opt, None)
        for mod_name, module in system.compiled.items():
            for fn in module.functions.values():
                targets.append((f"{mod_name}.{fn.name}", fn.term, fn.code))
    if args.oid is not None:
        if args.store is None:
            raise SystemExit("error: --oid requires --store")
        targets.extend(_stored_targets(args.store, args.oid))
    if not targets and not args.stdlib:
        raise SystemExit("error: nothing to lint (give a FILE, --stdlib or --oid)")

    for label, term, code in targets:
        if term is not None:
            collect(label, lint_term(term, registry, include_usage=not args.no_usage))
        if code is not None:
            collect(label, lint_code(code, name=label))

    errors = warnings = infos = 0
    for label, diagnostic in findings:
        if diagnostic.severity == Severity.ERROR:
            errors += 1
        elif diagnostic.severity == Severity.WARNING:
            warnings += 1
        else:
            infos += 1
        if diagnostic.severity == Severity.INFO and not args.verbose:
            continue
        print(f"{label}: {diagnostic}")
    print(
        f"linted {len(targets)} object(s): {errors} error(s), "
        f"{warnings} warning(s), {infos} info(s)"
    )
    # exit-code contract (docs/analysis.md): errors always fail, warnings
    # fail only under --strict, info never does
    if errors:
        return 1
    if args.strict and warnings:
        return 1
    return 0


def _stored_targets(store_path: str, oid: int):
    """Lintable (label, term, code) triples for one stored object: a PTML
    blob, or a module record, whose functions are loaded as a daemon loads
    them (:func:`repro.lang.modules.load_module`)."""
    from repro.core.syntax import Oid
    from repro.lang.modules import StoredModule, load_module
    from repro.query.algebra import query_registry
    from repro.store.heap import ObjectHeap
    from repro.store.ptml import decode_ptml
    from repro.store.serialize import Blob

    heap = ObjectHeap(store_path)
    try:
        obj = heap.load(oid)
        label = f"oid:{oid}"
        if isinstance(obj, Blob):
            return [(label, decode_ptml(obj).term, None)]
        if isinstance(obj, StoredModule):
            if heap.root(f"module:{obj.name}") != Oid(oid):
                raise SystemExit(f"error: oid {oid} is a replaced record of module "
                                 f"{obj.name!r}; lint the one its root names")
            module = load_module(heap, obj.name, query_registry())
            return [
                (f"{label}/{fn.name}", fn.term, fn.code)
                for fn in module.functions.values()
            ]
        raise SystemExit(f"error: oid {oid} holds {type(obj).__name__}, "
                         "not PTML or a stored module")
    finally:
        heap.close()


def _cmd_fsck(args: argparse.Namespace) -> int:
    import json as _json

    from repro.store.fsck import fsck_image

    result = fsck_image(args.image, repair=args.repair)
    for finding in result.findings:
        if finding.severity == "info" and not args.verbose:
            continue
        print(f"{finding.severity}: [{finding.code}] {finding.message}")
    print(
        f"fsck {args.image}: format v{result.format}, "
        f"{result.objects_checked} object(s) checked, "
        f"{len(result.errors)} error(s), {len(result.warnings)} warning(s), "
        f"{len(result.leaked_pages)} leaked page(s)"
        + (f", {len(result.quarantined)} quarantined" if result.repaired else "")
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fp:
            _json.dump(result.as_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    if result.repaired:
        return 0
    return 1 if result.errors else 0


def _cmd_audit(args: argparse.Namespace) -> int:
    import json as _json

    from repro.analysis.audit import audit_image
    from repro.analysis.diagnostics import Severity

    report = audit_image(args.image, update_facts=not args.no_update)
    ordered = sorted(
        report.diagnostics, key=lambda d: (-int(d.severity), d.code, d.path)
    )
    for diagnostic in ordered:
        if diagnostic.severity == Severity.INFO and not args.verbose:
            continue
        print(str(diagnostic))
    counts = report.counts
    print(
        f"audit {args.image}: {report.modules} module(s), "
        f"{report.functions} function(s), {report.analyzed} analyzed, "
        f"{report.reused} fact(s) reused, {counts['error']} error(s), "
        f"{counts['warning']} warning(s), {counts['info']} info(s) "
        f"in {report.wall_s * 1000:.1f} ms"
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fp:
            _json.dump(report.as_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    if not report.ok:
        return 1
    if args.strict and counts["warning"]:
        return 1
    return 0


def _cmd_backup(args: argparse.Namespace) -> int:
    """Full or incremental backup of an image into a directory.

    The first backup into an empty destination is always full; later runs
    default to incremental (ship the archive segments the destination
    lacks) unless ``--full`` forces a fresh base — or the destination
    holds segments of an older commit-log format, which no restore can
    replay: appending to them would grow a backup that cannot be restored
    past its base, so a new base is taken instead.
    """
    import json

    from repro.store.recovery import (
        ArchiveError,
        backup_info,
        full_backup,
        incremental_backup,
        stale_segments,
    )

    mode = "full"
    if not args.full:
        try:
            backup_info(args.dest)
            stale = stale_segments(os.path.join(args.dest, "archive"))
            if stale:
                print(
                    f"note: {args.dest!r} holds {len(stale)} archive segment(s) "
                    "of an older commit-log format; taking a new full backup",
                    file=sys.stderr,
                )
            else:
                mode = "incremental"
        except ArchiveError:
            mode = "full"
    try:
        if mode == "full":
            result = full_backup(args.image, args.dest)
        else:
            result = incremental_backup(args.image, args.dest)
    except (ArchiveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"mode": mode, **result}, indent=2, sort_keys=True))
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    """Rebuild an image from a backup, optionally to a point in time."""
    import json

    from repro.store.recovery import ArchiveError, restore_image

    if args.to_version is not None and args.to_ts is not None:
        print("error: --to-version and --to-ts are mutually exclusive",
              file=sys.stderr)
        return 1
    try:
        result = restore_image(
            args.backup,
            args.image,
            to_version=args.to_version,
            to_ts_us=int(args.to_ts * 1e6) if args.to_ts is not None else None,
            force=args.force,
        )
    except (ArchiveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _config_flags():
    """The :class:`ServerConfig` fields that declare a ``serve`` flag."""
    from repro.server.config import ServerConfig

    return [f for f in dataclasses.fields(ServerConfig) if "flag" in f.metadata]


def _positive(kind):
    """argparse type of a ``zero_disables`` knob: N ≤ 0 means None."""

    def parse(text: str):
        value = kind(text)
        return value if value > 0 else None

    return parse


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per declaring field: the field's name is the ``dest`` and
    its default the flag's, so the parsed namespace *is* the config."""
    for f in _config_flags():
        kwargs = dict(f.metadata)
        flag, off = kwargs.pop("flag"), kwargs.pop("off", None)
        if isinstance(f.default, bool):
            kwargs["action"] = "store_false" if f.default else "store_true"
        else:
            kwargs.setdefault("type", type(f.default))
            kwargs.setdefault("metavar", flag[2:].upper().replace("-", "_"))
            if kwargs.pop("zero_disables", False):
                kwargs["type"] = _positive(kwargs["type"])
        parser.add_argument(flag, dest=f.name, default=f.default, **kwargs)
        if off is not None:
            parser.add_argument(
                off[0], dest=f.name, action="store_const", const=None, help=off[1]
            )


def _serve_config(args: argparse.Namespace):
    from repro.server.config import ServerConfig

    values = {f.name: getattr(args, f.name) for f in _config_flags()}
    # the two structured values arrive as text
    if values["replica_of"]:
        values["replica_of"] = _endpoint(values["replica_of"], "--replica-of")
    if values["shards"]:  # one comma-separated group per occurrence
        values["shards"] = [
            [_endpoint(part, "--shard") for part in group.split(",")]
            for group in values["shards"]
        ]
    return ServerConfig(**values)


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.server.daemon import ReproServer

    server = ReproServer(args.image, _serve_config(args))
    server.start()
    host, port = server.address
    # machine-parsable readiness line: the smoke driver waits for it
    print(f"listening on {host}:{port}", flush=True)

    def _on_sigterm(signum, frame):  # graceful drain, then exit
        print("SIGTERM; draining sessions and shutting down", file=sys.stderr)
        server.initiate_shutdown()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    try:
        server.wait()
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
        server.stop()
    return 0


def _usage(ok, message: str) -> None:
    if not ok:
        raise SystemExit(f"error: {message}")


def _int_operand(operands: list[str]) -> int | None:
    return int(operands[0]) if operands else None


def _client_call(db, args):
    _usage(args.operands, "call needs module.function [args...]")
    module, function = _split_qualified(args.operands[0])
    call_args = [_parse_value(a) for a in args.operands[1:]]
    return db.call(module, function, call_args, step_limit=args.step_limit, full=True)


def _client_run(db, args):
    _usage(len(args.operands) == 1, "run needs a TL source file or inline source")
    source = args.operands[0]
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as handle:
            source = handle.read()
    return {"modules": db.run(source)}


def _client_get(db, args):
    _usage(args.operands, "get needs root names")
    return db.get(*args.operands)


def _client_set(db, args):
    _usage(len(args.operands) == 2, "set needs ROOT VALUE")
    return db.set(args.operands[0], _parse_value(args.operands[1]))


def _client_mset(db, args):
    pairs = [operand.partition("=") for operand in args.operands]
    _usage(pairs and all(sep for _, sep, _ in pairs), "mset needs ROOT=VALUE pairs")
    return db.mset({root: _parse_value(raw) for root, _, raw in pairs})


def _client_scatter(db, args):
    module = function = None
    if len(args.operands) > 1:
        module, function = _split_qualified(args.operands[1])
    prefix = args.operands[0] if args.operands else ""
    return db.scatter(prefix, module=module, function=function, merge=args.merge)


def _client_trace(db, args):
    verb = args.operands[0] if args.operands else "status"
    path = rate = None
    if verb == "start":
        _usage(len(args.operands) == 2, "trace start needs a server-side output path")
        path = args.operands[1]
    elif verb == "sample":
        _usage(len(args.operands) == 2, "trace sample needs a rate in [0, 1]")
        rate = float(args.operands[1])
    return db.trace_ctl(verb, path=path, rate=rate)


def _client_follow(db, args):
    _usage(len(args.operands) == 1, "follow needs HOST:PORT of the new primary")
    return db.follow(*_endpoint(args.operands[0], "follow"))


#: ``client ACTION`` → ``(db, args) -> printable result``
_CLIENT_ACTIONS = {
    "ping": lambda db, args: db.ping(),
    "call": _client_call,
    "run": _client_run,
    "get": _client_get,
    "set": _client_set,
    "mset": _client_mset,
    "scatter": _client_scatter,
    "topology": lambda db, args: db.topology(),
    "roots": lambda db, args: {"roots": db.roots()},
    "stats": lambda db, args: db.stats(metrics=args.metrics),
    "slowlog": lambda db, args: db.slowlog(n=_int_operand(args.operands)),
    "trace": _client_trace,
    "pgo": lambda db, args: db.pgo(top=_int_operand(args.operands)),
    "repl-status": lambda db, args: db.repl_status(digest=True),
    "promote": lambda db, args: db.promote(term=_int_operand(args.operands)),
    "follow": _client_follow,
    "shutdown": lambda db, args: db.shutdown(),
}


def _cmd_client(args: argparse.Namespace) -> int:
    import json as _json

    from repro.server.client import ServerError, connect

    try:
        with connect(args.port, host=args.host, deadline=args.deadline) as db:
            result = _CLIENT_ACTIONS[args.action](db, args)
    except ServerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.code == "read_only":
            # degraded mode: tell the operator what to do, not just "no"
            reason = exc.details.get("reason") or "unknown reason"
            if exc.details.get("manual"):
                remedy = (
                    "it was started with --read-only; restart without "
                    "the flag to re-enable writes"
                )
            else:
                remedy = (
                    "it re-probes the disk and recovers on its own once "
                    "the fault clears"
                )
            print(
                f"hint: the daemon is in degraded read-only mode "
                f"({reason}); reads still work.  {remedy.capitalize()} — "
                "see 'disk full / degraded mode' in docs/durability.md",
                file=sys.stderr,
            )
        return 1
    print(_json.dumps(result, indent=2, sort_keys=True, default=str))
    return 0


def _split_qualified(entry: str) -> tuple[str, str]:
    if "." not in entry:
        raise SystemExit(f"error: expected module.function, got {entry!r}")
    module, function = entry.split(".", 1)
    return module, function


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TML / Tycoon-style persistent code environment "
        "(EDBT 1996 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="compile and run a TL file")
    run_p.add_argument("file")
    run_p.add_argument("--entry", help="module.function (default: <last module>.main)")
    run_p.add_argument("--args", nargs="*", default=[], help="int/bool/string arguments")
    run_p.add_argument(
        "--opt", choices=["none", "static", "dynamic"], default="static"
    )
    run_p.add_argument("--store", help="persistent store file to attach")
    run_p.add_argument("-v", "--verbose", action="store_true")
    run_p.set_defaults(handler=_cmd_run)

    tml_p = sub.add_parser("tml", help="print a function's TML")
    tml_p.add_argument("file")
    tml_p.add_argument("--function", required=True, help="module.function")
    tml_p.add_argument("--dynamic", action="store_true", help="after runtime optimization")
    tml_p.add_argument("--plain", action="store_true", help="hide name uids")
    tml_p.add_argument("--opt", choices=["none", "static"], default="static")
    tml_p.add_argument("--store")
    tml_p.set_defaults(handler=_cmd_tml)

    dis_p = sub.add_parser("disasm", help="print a function's TAM code")
    dis_p.add_argument("file")
    dis_p.add_argument("--function", required=True)
    dis_p.add_argument("--opt", choices=["none", "static"], default="static")
    dis_p.add_argument("--store")
    dis_p.set_defaults(handler=_cmd_disasm)

    bench_p = sub.add_parser("bench", help="run the §6 Stanford experiment")
    bench_p.add_argument("--scale", type=float, default=1.0)
    bench_p.add_argument("--repeats", type=int, default=1)
    bench_p.add_argument("--programs", help="comma-separated subset")
    bench_p.add_argument(
        "--artifacts",
        metavar="DIR",
        help="also write BENCH_vm.json / BENCH_opt.json into DIR",
    )
    bench_p.set_defaults(handler=_cmd_bench)

    prof_p = sub.add_parser(
        "profile", help="run a TL file under the VM profiler"
    )
    prof_p.add_argument("file")
    prof_p.add_argument("--entry", help="module.function (default: <last module>.main)")
    prof_p.add_argument("--args", nargs="*", default=[], help="int/bool/string arguments")
    prof_p.add_argument("--opt", choices=["none", "static"], default="static")
    prof_p.add_argument("--store", help="persistent store file to attach")
    prof_p.add_argument(
        "--step-limit", type=int, help="instruction budget (profile the truncated run)"
    )
    prof_p.add_argument("--top", type=int, help="show only the N hottest closures")
    prof_p.add_argument(
        "--pgo",
        type=int,
        nargs="?",
        const=1,
        metavar="N",
        help="feed the profile into reflect.optimize for the N hottest functions",
    )
    prof_p.add_argument("--json", metavar="OUT", help="write the profile as JSON")
    prof_p.add_argument(
        "--metrics-json", metavar="OUT", help="write a metrics snapshot as JSON"
    )
    prof_p.set_defaults(handler=_cmd_profile)

    stats_p = sub.add_parser(
        "stats", help="print the process metrics registry"
    )
    stats_p.add_argument("file", nargs="?", help="TL file to compile and run first")
    stats_p.add_argument("--opt", choices=["none", "static"], default="static")
    stats_p.add_argument("--store", help="persistent store file to attach")
    stats_p.add_argument("--json", metavar="OUT", help="write the snapshot as JSON")
    stats_p.add_argument(
        "--history", action="store_true",
        help="read the in-image metrics-history ring instead (FILE is a "
        "store image; works offline, no server needed)",
    )
    stats_p.set_defaults(handler=_cmd_stats)

    store_p = sub.add_parser("store", help="inspect a persistent store image")
    store_p.add_argument("action", choices=["ls"])
    store_p.add_argument("path")
    store_p.set_defaults(handler=_cmd_store)

    fsck_p = sub.add_parser(
        "fsck", help="check (and repair) the integrity of a store image"
    )
    fsck_p.add_argument("image", help="persistent store image to check")
    fsck_p.add_argument(
        "--repair",
        action="store_true",
        help="quarantine corrupt/unreachable objects and rebuild the free list",
    )
    fsck_p.add_argument("--json", metavar="OUT", help="write the report as JSON")
    fsck_p.add_argument(
        "-v", "--verbose", action="store_true", help="also print info findings"
    )
    fsck_p.set_defaults(handler=_cmd_fsck)

    lint_p = sub.add_parser(
        "lint", help="run the static analyses over TL functions or stored objects"
    )
    lint_p.add_argument("file", nargs="?", help="TL source file to compile and lint")
    lint_p.add_argument("--stdlib", action="store_true", help="lint the standard library")
    lint_p.add_argument("--store", help="persistent store image to read")
    lint_p.add_argument("--oid", type=int, help="lint a stored PTML/code/module object")
    lint_p.add_argument("--opt", choices=["none", "static"], default="static")
    lint_p.add_argument(
        "--no-usage", action="store_true", help="skip dead-binding/unused-parameter lint"
    )
    lint_p.add_argument(
        "--strict", action="store_true",
        help="exit nonzero on warnings too, not just errors",
    )
    lint_p.add_argument(
        "-v", "--verbose", action="store_true", help="also print info-severity findings"
    )
    lint_p.set_defaults(handler=_cmd_lint)

    audit_p = sub.add_parser(
        "audit", help="whole-image interprocedural analysis of stored code"
    )
    audit_p.add_argument("image", help="persistent store image to audit")
    audit_p.add_argument("--json", metavar="OUT", help="write the report as JSON")
    audit_p.add_argument(
        "--no-update", action="store_true",
        help="read-only: do not refresh the persisted analysis-fact cache",
    )
    audit_p.add_argument(
        "--strict", action="store_true",
        help="exit nonzero on warnings too, not just errors",
    )
    audit_p.add_argument(
        "-v", "--verbose", action="store_true", help="also print info findings"
    )
    audit_p.set_defaults(handler=_cmd_audit)

    serve_p = sub.add_parser(
        "serve", help="run the multi-session database server over an image"
    )
    serve_p.add_argument("image", help="persistent store image (created if absent)")
    _add_config_flags(serve_p)
    serve_p.set_defaults(handler=_cmd_serve)

    backup_p = sub.add_parser(
        "backup",
        help="back an image up into a directory (full base + archived "
        "commit-log segments for point-in-time restore)",
    )
    backup_p.add_argument("image", help="source image")
    backup_p.add_argument("dest", help="backup directory (created if absent)")
    backup_p.add_argument(
        "--full", action="store_true",
        help="force a fresh full base copy (default: full when the "
        "destination is empty, incremental otherwise)",
    )
    backup_p.set_defaults(handler=_cmd_backup)

    restore_p = sub.add_parser(
        "restore",
        help="rebuild an image from a backup directory, optionally to an "
        "earlier point in time",
    )
    restore_p.add_argument("backup", help="backup directory (from `backup`)")
    restore_p.add_argument("image", help="image file to create")
    restore_p.add_argument(
        "--to-version", type=int, default=None,
        help="stop replay at this replication version (point-in-time)",
    )
    restore_p.add_argument(
        "--to-ts", type=float, default=None, metavar="UNIX_SECONDS",
        help="stop replay at the last commit at or before this wall-clock "
        "time",
    )
    restore_p.add_argument(
        "--force", action="store_true",
        help="overwrite an existing image file at the destination",
    )
    restore_p.set_defaults(handler=_cmd_restore)

    top_p = sub.add_parser(
        "top", help="live terminal dashboard over a running daemon's stats"
    )
    top_p.add_argument("target", metavar="HOST:PORT", help="daemon to watch")
    top_p.add_argument(
        "--interval", type=float, default=2.0, help="seconds between polls"
    )
    top_p.add_argument(
        "--count", type=int, default=None,
        help="render N frames then exit (default: until interrupted)",
    )
    top_p.set_defaults(handler=_cmd_top)

    client_p = sub.add_parser("client", help="one-shot session against a daemon")
    client_p.add_argument("action", choices=list(_CLIENT_ACTIONS))
    client_p.add_argument("operands", nargs="*")
    client_p.add_argument("--port", type=int, required=True)
    client_p.add_argument("--host", default="127.0.0.1")
    client_p.add_argument("--step-limit", type=int, help="per-call instruction budget")
    client_p.add_argument(
        "--deadline", type=float,
        help="per-request wall-clock budget in seconds (structured "
        "deadline_exceeded once spent)",
    )
    client_p.add_argument(
        "--metrics", action="store_true", help="include the metrics snapshot in stats"
    )
    client_p.add_argument(
        "--merge", choices=["concat", "sum", "values"], default="concat",
        help="scatter merge strategy (scatter action only)",
    )
    client_p.set_defaults(handler=_cmd_client)

    # --trace OUT.ndjson on every subcommand that executes/optimizes code
    for sub_parser in (
        run_p, tml_p, dis_p, bench_p, prof_p, stats_p, lint_p, audit_p, serve_p,
    ):
        sub_parser.add_argument(
            "--trace",
            metavar="OUT.ndjson",
            help="stream structured trace events (NDJSON) to this file",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return args.handler(args)
    from repro.obs.exporters import NdjsonRecorder
    from repro.obs.trace import TRACER

    with NdjsonRecorder(trace_path) as recorder:
        with TRACER.recording(recorder):
            status = args.handler(args)
    print(f"wrote trace to {trace_path}", file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
