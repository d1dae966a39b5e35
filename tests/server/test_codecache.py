"""Code resolution in the daemon: links in ``TycoonSystem.linked``, the
audit's one record per PTML hash under ``analysis:facts``, and the
``cache`` field plus ``server.codecache.{hits,misses}`` counters a ``call``
reports."""

import base64

from repro.analysis.absint import Summary
from repro.analysis.facts import FACTS_ROOT, FactRecord, FactStore
from repro.lang import TycoonSystem
from repro.reflect.optimize import DYNAMIC_CONFIG, config_fingerprint
from repro.server import ReproServer, ServerConfig, connect
from repro.store.heap import ObjectHeap
from repro.store.ptml import ptml_key

PROGRAM = """
module demo export double halve
let double(x: Int): Int = x + x
let halve(x: Int): Int = x / 2
end"""

LIB = "module lib export f let f(n: Int): Int = n + {} end"
APP = "module app export g import lib let g(n: Int): Int = lib.f(n) + lib.f(n) end"

#: the roots images written before the one fact store carry
LEGACY_ROOTS = ("server:code-cache", "reflect:attributes")


def _stored_system(path):
    heap = ObjectHeap(path)
    system = TycoonSystem(heap=heap)
    system.compile(PROGRAM)
    system.persist("demo")
    heap.commit()
    return system, heap


def _config(**overrides):
    return ServerConfig(workers=2, lock_timeout=30.0, pgo_interval=None, **overrides)


def test_key_is_ptml_content_hash(tmp_path):
    system, heap = _stored_system(str(tmp_path / "a.tyc"))
    closure = system.closure("demo", "double")
    key = ptml_key(closure.code, heap)
    assert key is not None and len(key) == 64  # sha256 hex
    # deterministic: same code, same key
    assert ptml_key(closure.code, heap) == key
    # a different function has a different PTML, hence a different key
    other = ptml_key(system.closure("demo", "halve").code, heap)
    assert other != key
    heap.close()


def test_key_of_code_without_ptml_is_none():
    class Bare:
        ptml_ref = None

    assert ptml_key(Bare()) is None


def test_install_lookup_invalidate(tmp_path):
    """A link is installed by the first resolve, found by the next, and
    dropped by recompiling the module."""
    server = ReproServer(str(tmp_path / "b.tyc"), _config())
    try:
        assert "demo" not in server.system.linked
        server.system.compile(PROGRAM)
        first, hit = server.resolve("demo", "double")
        assert not hit and "demo" in server.system.linked
        again, hit = server.resolve("demo", "double")
        assert hit and again is first
        server.system.compile(PROGRAM)
        assert "demo" not in server.system.linked
        assert server.resolve("demo", "double")[1] is False
    finally:
        server.stop()


def test_flush_and_attach_roundtrip(tmp_path):
    """A summary lives on the record of the code's PTML hash and comes back
    with it in a fresh process."""
    path = str(tmp_path / "c.tyc")
    system, heap = _stored_system(path)
    key = ptml_key(system.closure("demo", "double").code, heap)
    facts = FactStore()
    summary = Summary(name="demo.double", arity=3, is_proc=True, result="int",
                      raises="str", effect="pure", ret_deltas=(0,))
    facts.install(FactRecord(key, "demo.double", summary))
    facts.flush(heap)
    heap.commit()
    heap.close()

    reopened = ObjectHeap(path)
    warm = FactStore()
    assert warm.attach(reopened) == 1
    record = warm.lookup(key)
    assert record.summary.as_dict() == summary.as_dict()
    assert all(reopened.root(root) is None for root in LEGACY_ROOTS)
    reopened.close()


def test_flush_without_changes_is_noop(tmp_path):
    path = str(tmp_path / "d.tyc")
    system, heap = _stored_system(path)
    FactStore().flush(heap)  # nothing installed, nothing dirty
    assert heap.root(FACTS_ROOT) is None
    heap.close()


def test_attach_on_empty_image_is_zero(tmp_path):
    heap = ObjectHeap(str(tmp_path / "e.tyc"))
    assert FactStore().attach(heap) == 0
    heap.close()


def test_a_call_sees_a_library_redefined_under_its_importer(tmp_path):
    """A call observes the newest committed definition of every function it
    reaches, the same as a restart would give."""
    server = ReproServer(str(tmp_path / "f.tyc"), _config())
    server.start()
    try:
        with connect(server.port) as db:
            db.run(LIB.format(1))
            db.run(APP)
            assert db.call("app", "g", [1]) == 4
            db.run(LIB.format(100))
            reply = db.call("app", "g", [1], full=True)
        assert (reply["value"], reply["cache"]) == (202, "miss")
    finally:
        server.stop()


#: the ``server:code-cache`` table as its last writer stored it: PTML hash
#: -> the TAM code object of ``demo.double``, whose PTML is OID 36 in an
#: image built like :func:`_stored_system`'s.  Code objects are no longer
#: stored values, so the payload is kept as written.
CODE_CACHE_PAYLOAD = base64.b64decode(
    "DAEEQDEzZGI3MWQxNmRhNTBhNjY2NzhmNjBlNTQyNGJjOWRlYTcyYjNmYWI4N2VlNWEx"
    "MGViM2NmNWM2ZjBlYWU2MjUPC2RlbW8uZG91YmxlCwMOAXgAAA4CY2UBAQ4CY2MCAQQL"
    "AgsDBARmcmVlAwYDAAsDBAh0YWlsY2FsbAMGCwQDAAMAAwIDBAsAAAsBDgdpbnQuYWRk"
    "AwABBiQ="
)


def _legacy_image(path):
    """An image carrying both retired roots, written the way they were:
    PTML hash -> CodeObject, and ``function@fingerprint`` -> attributes."""
    system, heap = _stored_system(path)
    fingerprint = config_fingerprint(DYNAMIC_CONFIG)
    heap.set_root("reflect:attributes", heap.store({
        f"demo.double@{fingerprint}": {
            "function": "demo.double", "fingerprint": fingerprint,
            "cost_before": 9, "cost_after": 4, "entities": 3, "code_size": 12,
        }
    }))
    heap.commit()
    oid = max(heap.committed_oids()) + 1
    heap.apply_changes([(oid, CODE_CACHE_PAYLOAD)], {"server:code-cache": oid}, [], oid + 1)
    oids = {heap.root(root) for root in LEGACY_ROOTS}
    heap.close()
    return oids


def _record_writes(heap) -> list:
    """Every root and OID ``heap.set_root`` / ``heap.update`` touch from now on."""
    written = []
    set_root, update = heap.set_root, heap.update

    def recording_set_root(name, oid):
        written.append(name)
        return set_root(name, oid)

    def recording_update(oid, value):
        written.append(oid)
        return update(oid, value)

    heap.set_root, heap.update = recording_set_root, recording_update
    return written


def test_an_image_with_retired_roots_serves_audits_and_keeps_them(tmp_path, capsys):
    from repro.cli import main

    path = str(tmp_path / "legacy.tyc")
    legacy = _legacy_image(path) | set(LEGACY_ROOTS)
    server = ReproServer(path, _config())
    written = _record_writes(server.heap)
    server.start()
    try:
        with connect(server.port) as db:
            for _ in range(3):
                assert db.call("demo", "double", [300]) == 600
            assert [e["function"] for e in db.pgo(top=1)["optimized"]] == ["demo.double"]
            assert db.call("demo", "double", [300]) == 600
    finally:
        server.stop()
    assert legacy.isdisjoint(written)
    assert "module:demo" in written  # the round did write the image

    assert main(["audit", path]) == 0
    assert "0 error(s)" in capsys.readouterr().out
    heap = ObjectHeap(path)
    try:
        kept = heap.committed_payload(heap.root("server:code-cache"))
        assert kept == CODE_CACHE_PAYLOAD
        assert len(heap.load_root("reflect:attributes")) == 1
    finally:
        heap.close()
