"""Tests for the whole-image audit (``python -m repro audit``)."""

import json

import pytest

from repro.analysis.audit import audit_image
from repro.analysis.facts import FactStore
from repro.cli import main
from repro.lang import TLError, TycoonSystem
from repro.store.heap import ObjectHeap
from scripts.audit_negative_control import flip_one_bit

SRC = """
module t
export fact main
let fact(n: Int): Int = if n < 2 then 1 else n * fact(n - 1) end
let main(): Int = fact(10)
end
"""

SRC_V2 = """
module t
export fact main
let fact(n: Int): Int = if n < 3 then n else n * fact(n - 1) end
let main(): Int = fact(10)
end
"""


def _build(path, source=SRC):
    system = TycoonSystem(heap=ObjectHeap(path))
    system.compile(source)
    system.persist("t")
    system.heap.commit()
    system.heap.close()


@pytest.fixture()
def image(tmp_path):
    path = str(tmp_path / "img.db")
    _build(path)
    return path


class TestColdWarm:
    def test_cold_audit_is_clean_and_analyzes_everything(self, image):
        report = audit_image(image)
        assert report.ok
        assert report.errors == 0
        assert report.modules >= 2  # user module + persisted stdlib
        assert report.functions > 0
        assert report.analyzed == report.functions
        assert report.reused == 0
        assert "t.fact" in report.summaries
        assert report.summaries["t.fact"].result == "int"

    def test_warm_audit_reuses_every_fact(self, image):
        audit_image(image)
        warm = audit_image(image)
        assert warm.ok
        assert warm.analyzed == 0
        assert warm.reused == warm.functions

    def test_facts_survive_reopen(self, image):
        audit_image(image)
        heap = ObjectHeap(image)
        store = FactStore()
        assert store.attach(heap) > 0
        heap.close()

    def test_no_update_keeps_audit_cold(self, image):
        audit_image(image, update_facts=False)
        second = audit_image(image, update_facts=False)
        assert second.reused == 0
        assert second.analyzed == second.functions


class TestInvalidation:
    def test_redefinition_reanalyzes_only_the_dirty_slice(self, image):
        audit_image(image)
        _build(image, SRC_V2)  # fact's body (and hash) moved; main's did not
        report = audit_image(image)
        assert report.ok
        # fact itself plus its dependent main — nothing else
        assert set(report.pruned) == {"t.fact", "t.main"}
        assert report.analyzed == 2
        assert report.reused == report.functions - 2

    def test_third_audit_is_fully_warm_again(self, image):
        audit_image(image)
        _build(image, SRC_V2)
        audit_image(image)
        third = audit_image(image)
        assert third.analyzed == 0
        assert third.reused == third.functions


def _flip_ptml(path):
    """Flip one bit of ``t.fact``'s stored PTML: its parameter ``n``
    becomes a continuation variable and the tree is no longer well-formed."""
    flip_one_bit(path, "t", "fact")


def _refusals(report):
    return [(d.code, d.subject) for d in report.diagnostics if d.is_error]


class TestNegativeControl:
    def test_bit_flipped_ptml_fails_the_audit(self, image):
        # the module cannot be regenerated, so the audit must go red
        _flip_ptml(image)
        report = audit_image(image)
        assert not report.ok
        assert _refusals(report) == [("TAM113", "t")]
        assert any("t.fact" in d.message for d in report.diagnostics)

    def test_tampered_function_gets_no_fact(self, image):
        self.test_bit_flipped_ptml_fails_the_audit(image)
        heap = ObjectHeap(image)
        store = FactStore()
        store.attach(heap)
        graph_keys = set(store.keys())
        heap.close()
        # the broken function's hash must not be vouched for
        report = audit_image(image)
        assert "t.fact" not in {
            store.lookup(k).name for k in graph_keys if store.lookup(k)
        }
        assert not report.ok

    def test_a_warm_audit_still_verifies_every_function(self, image, capsys):
        warm = audit_image(image)
        assert warm.ok and warm.analyzed > 0  # facts for t.fact installed
        _flip_ptml(image)
        report = audit_image(image)
        assert not report.ok
        assert _refusals(report) == [("TAM113", "t")]
        # every function that still loads is reused; t's are gone
        assert report.reused == report.functions == warm.functions - 2
        assert main(["audit", image]) == 1
        assert "TAM113" in capsys.readouterr().out

    def test_a_failing_function_loses_its_record(self, image):
        audit_image(image)
        _flip_ptml(image)
        audit_image(image)
        heap = ObjectHeap(image)
        store = FactStore()
        store.attach(heap)
        heap.close()
        names = {store.lookup(key).name for key in store.keys()}
        # a module that does not load keeps no record for any function
        assert "int.add" in names
        assert not {"t.fact", "t.main"} & names

    def test_load_after_an_audit_still_verifies(self, image):
        audit_image(image)
        _flip_ptml(image)
        system = TycoonSystem(heap=ObjectHeap(image))
        facts = FactStore()
        facts.attach(system.heap)
        try:
            with pytest.raises(TLError, match="t.fact: stored PTML refused"):
                system.load("t")
            # no fact record can be handed in to stand for the check
            with pytest.raises(TypeError):
                system.load("t", facts=facts)
        finally:
            system.heap.close()


class TestCli:
    def test_audit_exits_zero_on_clean_image(self, image, capsys):
        assert main(["audit", image]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_audit_writes_json_report(self, image, tmp_path, capsys):
        out_path = str(tmp_path / "audit.json")
        assert main(["audit", image, "--json", out_path]) == 0
        capsys.readouterr()
        data = json.loads(open(out_path).read())
        assert data["schema"] == "repro.audit/v1"
        assert data["ok"] is True
        assert data["counts"]["error"] == 0
        assert "t.fact" in data["summaries"]

    def test_audit_exits_nonzero_on_corrupt_image(self, image, capsys):
        TestNegativeControl().test_bit_flipped_ptml_fails_the_audit(image)
        assert main(["audit", image]) == 1
        assert "TAM113" in capsys.readouterr().out

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        path = str(tmp_path / "warn.db")
        system = TycoonSystem(heap=ObjectHeap(path))
        system.compile(
            "module u export top "
            "let helper(x: Int): Int = x + 1 "
            "let top(x: Int): Int = x end"
        )
        system.persist("u")
        system.heap.commit()
        system.heap.close()
        # helper is unexported and uncalled: TAM110 warning, no error
        assert main(["audit", path]) == 0
        assert main(["audit", path, "--strict"]) == 1
        out = capsys.readouterr().out
        assert "TAM110" in out
