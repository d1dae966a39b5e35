"""Tests for the persisted analysis-fact cache (heap root ``analysis:facts``)."""

from repro.analysis.absint import Summary
from repro.analysis.facts import FACTS_ROOT, FactRecord, FactStore
from repro.store.heap import ObjectHeap


def _record(key="k1", name="m.f", deps=()):
    return FactRecord(
        key=key,
        name=name,
        summary=Summary(name=name, arity=3, is_proc=True, result="int",
                        raises="str", effect="pure", ret_deltas=(0,)),
        deps=tuple(deps),
    )


class TestStaleness:
    def test_valid_while_deps_match(self):
        record = _record(deps=[("m.f", "k1"), ("m.g", "k2")])
        assert record.valid_for({"m.f": "k1", "m.g": "k2"})

    def test_moved_dependency_invalidates(self):
        record = _record(deps=[("m.f", "k1"), ("m.g", "k2")])
        assert not record.valid_for({"m.f": "k1", "m.g": "k9"})

    def test_vanished_dependency_invalidates(self):
        record = _record(deps=[("m.g", "k2")])
        assert not record.valid_for({"m.f": "k1"})

    def test_lookup_with_current_rejects_stale(self):
        store = FactStore()
        store.install(_record(deps=[("m.g", "k2")]))
        assert store.lookup("k1") is not None
        assert store.lookup("k1", current={"m.g": "other"}) is None


class TestStoreOps:
    def test_install_lookup_invalidate(self):
        store = FactStore()
        assert store.lookup("k1") is None
        store.install(_record())
        assert store.lookup("k1").name == "m.f"
        assert store.invalidate("k1")
        assert not store.invalidate("k1")  # already gone
        assert store.lookup("k1") is None

    def test_prune_drops_dead_and_stale(self):
        store = FactStore()
        store.install(_record(key="k1", name="m.f", deps=[("m.f", "k1")]))
        store.install(_record(key="dead", name="m.old", deps=[("m.old", "dead")]))
        pruned = store.prune({"m.f": "k1"})
        assert pruned == ["m.old"]
        assert store.keys() == ["k1"]


class TestImageResidence:
    def test_flush_and_attach_roundtrip(self, tmp_path):
        image = str(tmp_path / "facts.db")
        heap = ObjectHeap(image)
        store = FactStore()
        store.install(_record(key="k1", deps=[("m.f", "k1"), ("m.g", "k2")]))
        store.flush(heap)
        heap.commit()
        heap.close()

        heap = ObjectHeap(image)
        warm = FactStore()
        assert warm.attach(heap) == 1
        record = warm.lookup("k1")
        assert record.summary.result == "int"
        assert record.deps == (("m.f", "k1"), ("m.g", "k2"))
        heap.close()

    def test_flush_is_noop_when_clean(self, tmp_path):
        heap = ObjectHeap(str(tmp_path / "facts.db"))
        store = FactStore()
        store.flush(heap)  # nothing installed: no root created
        assert heap.root(FACTS_ROOT) is None
        heap.close()

    def test_an_older_record_with_a_verified_bit_still_reads(self):
        data = _record().as_dict()
        assert "verified" not in data
        record = FactRecord.from_dict({**data, "verified": True})
        assert record.summary.result == "int"
        assert not hasattr(record, "verified")

    def test_unknown_schema_records_skipped(self, tmp_path):
        heap = ObjectHeap(str(tmp_path / "facts.db"))
        oid = heap.store({"k1": {"schema": "something/else"}})
        heap.set_root(FACTS_ROOT, oid)
        heap.commit()
        store = FactStore()
        assert store.attach(heap) == 0
        heap.close()
