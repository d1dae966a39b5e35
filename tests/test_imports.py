"""What an import loads, pinned on ``sys.modules`` (not on time).

A restarted daemon reattaches to the code in its image: it must not load
the compiler front end, the reflective optimizer or the benchmarks to get
there, and ``repro client …`` must load neither the machine nor the store.
Each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

import repro

_SRC = os.path.dirname(os.path.dirname(repro.__file__))


def _python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _loaded_by(module: str) -> set[str]:
    code = f"import json, sys; import {module}; print(json.dumps(sorted(sys.modules)))"
    return set(json.loads(_python(code)))


def _under(loaded: set[str], *prefixes: str) -> set[str]:
    return {m for m in loaded if any(m == p or m.startswith(p + ".") for p in prefixes)}


def test_the_daemon_imports_no_compiler_optimizer_or_benchmark():
    loaded = _loaded_by("repro.server.daemon")
    assert "repro.server.daemon" in loaded
    assert not _under(
        loaded,
        "networkx",
        "repro.lang.ast", "repro.lang.check", "repro.lang.parser", "repro.lang.cps",
        "repro.reflect", "repro.bench",
        "repro.query.rules", "repro.query.optimizer",
        "repro.analysis.audit", "repro.analysis.lint",
        "repro.analysis.absint", "repro.analysis.effects",
        "repro.machine.cps_interp",
    )


def test_the_value_codec_imports_no_code_objects():
    # PTML is the only stored code: the store's codec knows no TAM
    loaded = _loaded_by("repro.store.serialize")
    assert "repro.store.serialize" in loaded
    assert not _under(loaded, "repro.machine.isa")


def test_the_program_optimizer_imports_no_query_code():
    # the query rules reach the optimizer as the relational primitives'
    # expand hooks, through the registry; rewrite never imports them
    loaded = _loaded_by("repro.rewrite.pipeline")
    assert "repro.rewrite.pipeline" in loaded
    assert not _under(loaded, "repro.query")


def test_the_cli_and_the_client_import_no_machine_language_or_heap():
    for module in ("repro.cli", "repro.server.client"):
        loaded = _loaded_by(module)
        assert module in loaded
        assert not _under(loaded, "repro.machine", "repro.lang", "repro.store.heap"), module


def test_every_public_name_resolves_whatever_was_imported_first():
    # Every module is imported before any lazy name is read, the order in
    # which a submodule import could shadow a name; then each package's
    # __all__ must resolve, and to what its table declares.
    problems = _python(
        """
import importlib, json, pkgutil, repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
modules = [importlib.import_module(n) for n in names if not n.endswith("__main__")]
problems = []
for package in [repro] + [m for m in modules if hasattr(m, "__path__")]:
    for name in getattr(package, "__all__", ()):
        try:
            value = getattr(package, name)
        except AttributeError:
            problems.append(f"{package.__name__}.{name}: missing")
            continue
        try:
            declared = package.__getattr__(name)
        except AttributeError:
            continue  # defined in the __init__ itself
        if value is not declared:
            problems.append(f"{package.__name__}.{name}: shadowed by {value!r}")
print(json.dumps(problems))
"""
    )
    assert json.loads(problems) == []
