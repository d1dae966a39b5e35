"""Differential regression: checked pipeline over the Stanford suite + stdlib.

Every unit is optimized with ``check=True`` (which raises if any rewrite rule
misbehaves), then linted at both the term and bytecode level.  The test
demands *zero error diagnostics* anywhere, and pins the exact warning/info
counts per unit in ``golden_warnings.json`` so a change in analysis output is
a visible, reviewable diff.

Regenerate the golden file after an intentional change with:

    PYTHONPATH=src:. python tests/analysis/test_golden.py --regenerate
"""

import json
from pathlib import Path

import pytest

from repro.analysis import lint_code, lint_term, severity_counts
from repro.bench.stanford.programs import PROGRAMS
from repro.lang.modules import CompileOptions, compile_module, compile_stdlib
from repro.primitives.registry import default_registry
from repro.rewrite import optimize

GOLDEN = Path(__file__).with_name("golden_warnings.json")

# compile without the optimizer so the checked pipeline sees the raw CPS
# terms and every rule application happens under supervision
_RAW = CompileOptions(optimizer=None)


def _lint_unit(term, code, registry):
    diags = list(lint_term(term, registry))
    if code is not None:
        diags.extend(lint_code(code))
    return diags


def collect_counts() -> dict[str, dict[str, int]]:
    """label -> severity counts, across Stanford suite and stdlib."""
    registry = default_registry()
    counts: dict[str, dict[str, int]] = {}

    for prog_name, program in sorted(PROGRAMS.items()):
        compiled = compile_module(program.source, options=_RAW)
        for fn in compiled.functions.values():
            optimized = optimize(fn.term, registry, check=True).term
            diags = _lint_unit(optimized, fn.code, registry)
            counts[f"stanford/{prog_name}.{fn.name}"] = severity_counts(diags)

    for mod_name, module in sorted(compile_stdlib(_RAW).items()):
        for fn in module.functions.values():
            optimized = optimize(fn.term, registry, check=True).term
            diags = _lint_unit(optimized, fn.code, registry)
            counts[f"stdlib/{mod_name}.{fn.name}"] = severity_counts(diags)

    return counts


@pytest.fixture(scope="module")
def counts():
    return collect_counts()


def test_checked_pipeline_has_zero_errors(counts):
    offenders = {label: c for label, c in counts.items() if c["error"]}
    assert offenders == {}


def test_warning_counts_match_golden(counts):
    golden = json.loads(GOLDEN.read_text())
    assert counts == golden, (
        "analysis output drifted from golden_warnings.json; regenerate with "
        "`PYTHONPATH=src:. python tests/analysis/test_golden.py --regenerate` "
        "if the change is intentional"
    )


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        sys.exit("usage: python tests/analysis/test_golden.py --regenerate")
    data = collect_counts()
    GOLDEN.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    total = len(data)
    errors = sum(c["error"] for c in data.values())
    print(f"wrote {GOLDEN} ({total} units, {errors} errors)")
