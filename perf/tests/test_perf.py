"""Checks of the benchmark itself.  Not part of tier-1: run explicitly with
``python -m pytest perf/tests`` (the repository's ``testpaths`` is
``tests`` and must stay so — these start daemons and take a minute).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PERF = os.path.dirname(HERE)
ROOT = os.path.dirname(PERF)
sys.path.insert(0, PERF)

import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def test_benchmark_json_mirrors_spec():
    assert load_benchmark() == spec.benchmark_json()


def test_contract_limits():
    bench = load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    names = (
        [w["name"] for w in bench["workloads"]]
        + [m["name"] for m in bench["end_to_end"]]
        + [m["name"] for m in bench["per_layer"]]
    )
    assert len(names) == len(set(names)), "a name is used once"
    for name in names:
        assert NAME.match(name), name
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert len(json.dumps(bench)) < 64 * 1024


def smoke(out, seed: int) -> dict:
    subprocess.run(
        [sys.executable, os.path.join(PERF, "run.py"), "--smoke", "--seed", str(seed),
         "--out", str(out)],
        check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=600,
    )
    with open(out / "results.json", encoding="utf-8") as fp:
        return json.load(fp)


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("smoke")


@pytest.fixture(scope="module")
def smokes(outdir):
    """Two smoke runs with one seed, one with another."""
    return smoke(outdir / "first", 1), smoke(outdir / "again", 1), smoke(outdir / "other", 2)


def test_result_schema_matches_benchmark_json(smokes):
    bench = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for results in smokes:
        assert set(results["workloads"]) == {w["name"] for w in bench["workloads"]}
        for workload in results["workloads"].values():
            for line, section in (
                (workload["end_to_end"][0], "end_to_end"),
                (workload["per_layer"], "per_layer"),
            ):
                assert set(line) == {"correct", "attempted", "failed", "metrics"}
                assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
                assert set(line["metrics"]) == {m["name"] for m in bench[section]}
                for name, metric in line["metrics"].items():
                    assert metric["unit"] == units[name]
                    assert isinstance(metric["value"], (int, float))
            for metric in workload["end_to_end"][0]["metrics"].values():
                assert metric["value"] > 0, "end-to-end metrics are never 0"


def test_exact_metrics_repeat_for_one_seed(smokes):
    first, again, _ = smokes
    for name, workload in first["workloads"].items():
        for metric in sorted(spec.EXACT):
            a = workload["per_layer"]["metrics"][metric]["value"]
            b = again["workloads"][name]["per_layer"]["metrics"][metric]["value"]
            assert a == b, f"{name}: {metric} {a!r} != {b!r}"


def test_another_seed_gives_the_same_names(smokes):
    first, _, other = smokes
    for name, workload in first["workloads"].items():
        assert set(workload["per_layer"]["metrics"]) == set(
            other["workloads"][name]["per_layer"]["metrics"]
        )
        nonzero = {k for k, v in workload["per_layer"]["metrics"].items() if v["value"]}
        nonzero_other = {
            k for k, v in other["workloads"][name]["per_layer"]["metrics"].items() if v["value"]
        }
        assert nonzero == nonzero_other, f"{name}: layers entered differ between seeds"


def test_trace_files_are_spans(outdir, smokes):
    # each smoke run wrote one trace per workload next to its results.json
    traces = sorted((outdir / "first").glob("trace-*.ndjson"))
    assert len(traces) == len(spec.WORKLOADS)
    for path in traces:
        with open(path, encoding="utf-8") as fp:
            spans = [json.loads(line) for line in fp]
        assert spans, path
        for span in spans:
            assert set(span) == {"id", "name", "start", "end", "parent", "op"}
            assert span["end"] >= span["start"]
            assert span["parent"] < span["id"]
