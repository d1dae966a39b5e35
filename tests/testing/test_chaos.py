"""The chaos framework itself (repro.testing.chaos) — no sockets.

The live-daemon suites are too slow for tier 1; what runs here is the
part every suite shares: the sweep loop and report schema on a fake
suite, the driver's exit code, the write ledger's verdicts, and pins on
each suite's scenario enumeration so a refactor cannot silently drop one.
"""

import importlib.util
import json
import os

import pytest

from repro.obs.metrics import METRICS
from repro.testing.chaos import SUITES, InvariantViolation, Suite, crash, run
from repro.testing.chaos.harness import Ledger

REPORT_KEYS = {
    "suite", "mode", "scenarios", "passed", "failed", "failures", "results",
    "duration_s", "meta",
}


def _fake_suite() -> Suite:
    def passes(root):
        return {"root": os.path.basename(root)}

    def violates(root):
        raise InvariantViolation("acked write lost")

    def falls_over(root):
        raise KeyError("harness bug")

    return Suite(
        "fake",
        build=lambda quick: [("a/pass", passes), ("b/violate", violates)]
        + ([] if quick else [("c/crash", falls_over), ("d/pass", passes)]),
        negative_control=("negative-control/fake", violates),
        meta=lambda: {"answer": 42},
    )


class TestRunner:
    def test_report_schema_and_failure_accounting(self, tmp_path):
        seen = []
        report = run(
            _fake_suite(), str(tmp_path),
            progress=lambda done, total, result: seen.append((done, total, result.ok)),
        )
        assert set(report) == REPORT_KEYS
        assert report["suite"] == "fake" and report["mode"] == "full"
        assert report["meta"] == {"answer": 42}
        assert (report["scenarios"], report["passed"], report["failed"]) == (4, 2, 2)
        # one failure does not stop the sweep: the scenario after both ran
        assert seen == [(1, 4, True), (2, 4, False), (3, 4, False), (4, 4, True)]
        assert [r["name"] for r in report["results"]] == [
            "a/pass", "b/violate", "c/crash", "d/pass",
        ]
        assert [f["name"] for f in report["failures"]] == ["b/violate", "c/crash"]
        assert report["failures"][0]["detail"] == "InvariantViolation: acked write lost"
        assert report["failures"][1]["detail"].startswith("KeyError")
        # each scenario got its own scratch directory
        assert report["results"][0]["checks"] == {"root": "s000"}
        assert report["results"][3]["checks"] == {"root": "s003"}
        json.dumps(report)  # the report is the JSON artifact

    def test_modes_and_counters(self, tmp_path):
        ran = METRICS.counter("chaos.fake.scenarios", "")
        broke = METRICS.counter("chaos.fake.failures", "")
        before = (ran.value, broke.value)
        quick = run(_fake_suite(), str(tmp_path), quick=True)
        assert (quick["mode"], quick["scenarios"], quick["failed"]) == ("quick", 2, 1)
        control = run(_fake_suite(), str(tmp_path), negative_control=True)
        assert control["mode"] == "negative-control"
        assert [r["name"] for r in control["results"]] == ["negative-control/fake"]
        assert control["failed"] == 1
        assert (ran.value - before[0], broke.value - before[1]) == (3, 2)


class TestDriver:
    @pytest.fixture
    def sim(self, monkeypatch):
        path = os.path.join(os.path.dirname(__file__), "..", "..", "scripts", "sim.py")
        spec = importlib.util.spec_from_file_location("sim_driver", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setitem(module.SUITES, "fake", _fake_suite())
        return module

    def test_failures_exit_one_and_report_is_written(self, sim, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert sim.main(["--suite", "fake", "--json", str(out)]) == 1
        assert json.loads(out.read_text())["failed"] == 2
        assert "2 FAILURES" in capsys.readouterr().out

    def test_clean_sweep_exits_zero(self, sim, monkeypatch, capsys):
        clean = Suite(
            "fake", lambda quick: [("only", lambda root: {})],
            negative_control=_fake_suite().negative_control,
        )
        monkeypatch.setitem(sim.SUITES, "fake", clean)
        assert sim.main(["--suite", "fake", "--verbose"]) == 0
        assert sim.main(["--suite", "fake", "--negative-control"]) == 1
        assert "-> OK" in capsys.readouterr().out

    def test_only_the_five_flags(self, sim, capsys):
        with pytest.raises(SystemExit):
            sim.main(["--help"])
        usage = capsys.readouterr().out
        for flag in ("--suite", "--quick", "--negative-control", "--json", "--verbose"):
            assert flag in usage
        for gone in ("--page-size", "--modes", "--no-fsck"):
            assert gone not in usage


class TestLedger:
    def test_acked_value_or_a_later_attempt_is_fine(self):
        ledger = Ledger()
        for value in (1, 2, 3):
            ledger.attempt("k", value)
        ledger.ack("k", 2)
        assert ledger.check({"k": 2}, "node") == 1
        assert ledger.check({"k": 3}, "node") == 1  # durable but its ack was lost

    def test_rolled_back_missing_and_foreign_values_are_violations(self):
        ledger = Ledger()
        for value in (1, 2):
            ledger.attempt("k", value)
        ledger.ack("k", 2)
        with pytest.raises(InvariantViolation, match="acked write lost.*last acked was 2"):
            ledger.check({"k": 1}, "node")
        with pytest.raises(InvariantViolation, match="acked write lost.*missing"):
            ledger.check({}, "node")
        with pytest.raises(InvariantViolation, match="no attempt ever wrote"):
            ledger.check({"k": 9}, "node")

    def test_unacked_keys_are_not_judged(self):
        ledger = Ledger()
        ledger.attempt("maybe", 1)
        assert ledger.check({}, "node") == 0


class TestEnumeration:
    """Scenario counts at the commit that unified the harnesses; a change
    here must be deliberate."""

    @pytest.mark.parametrize(
        "name, full, quick",
        [
            ("replication", 226, 43),
            ("sharding", 35, 11),
            ("exhaustion", 35, 12),
            ("recovery", 8, 4),
        ],
    )
    def test_scenario_counts(self, name, full, quick):
        suite = SUITES[name]
        for want, is_quick in ((full, False), (quick, True)):
            names = [scenario_name for scenario_name, _ in suite.build(is_quick)]
            assert len(names) == want
            assert len(set(names)) == want  # names are the replay handle

    def test_crash_is_every_io_op_in_every_mode(self):
        suite = SUITES["crash"]
        io_ops = suite.meta()["io_ops_per_run"]
        names = {name for name, _ in suite.build(False)}
        assert names == {
            f"{mode}/op{k:03d}" for mode in crash.MODES for k in range(io_ops)
        }
        assert len(suite.build(True)) == io_ops * 4  # no reduced grid

    def test_every_suite_has_exactly_one_negative_control(self):
        assert sorted(SUITES) == [
            "crash", "exhaustion", "recovery", "replication", "sharding",
        ]
        for key, suite in SUITES.items():
            assert suite.name == key
            name, thunk = suite.negative_control
            assert name.startswith("negative-control/") and callable(thunk)
            for quick in (False, True):
                assert not [n for n, _ in suite.build(quick) if "negative" in n]
