"""Every example in examples/ must run clean (they are living documentation)."""

import os
import re
import subprocess
import sys

import pytest

_EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(_EXAMPLES, script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_quickstart():
    result = _run("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "sumsq(100) = 338350" in result.stdout
    assert "fewer" in result.stdout


def test_reflective_optimization():
    result = _run("reflective_optimization.py")
    assert result.returncode == 0, result.stderr
    assert "optimizedAbs(c) = 5" in result.stdout
    assert "persisted derived attributes" in result.stdout


def test_embedded_queries():
    result = _run("embedded_queries.py")
    assert result.returncode == 0, result.stderr
    assert "merge-select fired 1x" in result.stdout
    assert "index-select fired 1x" in result.stdout
    assert "trivial-exists fired 1x" in result.stdout


def test_code_shipping():
    result = _run("code_shipping.py")
    assert result.returncode == 0, result.stderr
    assert "index-select fired 1x" in result.stdout
    assert "4 instructions" in result.stdout


def test_persistent_database():
    result = _run("persistent_database.py")
    assert result.returncode == 0, result.stderr
    assert "everything survived" in result.stdout
    assert result.stdout.strip().endswith("OK")
    # session 3 runs session 2's committed variant: the index-select plan
    (line,) = [s for s in result.stdout.splitlines() if "runs session 2's variant" in s]
    assert int(re.search(r"(\d+) instructions", line).group(1)) <= 10, line


@pytest.mark.slow
def test_stanford_suite_small_scale():
    result = _run("stanford_suite.py", "0.2")
    assert result.returncode == 0, result.stderr
    assert "geometric mean speedups" in result.stdout
