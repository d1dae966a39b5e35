"""Server integration of the analysis-fact cache (daemon + PGO + audit)."""

from repro.analysis.audit import audit_heap
from repro.server import ReproServer, ServerConfig, connect
from repro.store.ptml import ptml_key

BENCH = """
module bench export work idle
let idle(x: Int): Int = x
let work(n: Int): Int =
  var s := 0 in var i := 0 in
  begin while i < n do begin s := s + i; i := i + 1 end end; s end
end"""

BENCH_V2 = """
module bench export work idle
let idle(x: Int): Int = x + 0
let work(n: Int): Int =
  var s := 0 in var i := 0 in
  begin while i < n do begin s := s + i; i := i + 1 end end; s end
end"""


def _config():
    return ServerConfig(workers=2, lock_timeout=30.0, pgo_interval=None)


def test_stats_reports_the_fact_store(tmp_path):
    server = ReproServer(str(tmp_path / "img.tyc"), _config())
    server.start()
    try:
        with connect(server.port) as db:
            stats = db.stats()
            assert "facts" in stats
            assert set(stats["facts"]) >= {"entries", "hits", "invalidations"}
    finally:
        server.stop()


def test_facts_persist_across_daemon_restart(tmp_path):
    """Acceptance: a warm restart reuses the audited facts from the image."""
    path = str(tmp_path / "img.tyc")
    server = ReproServer(path, _config())
    server.start()
    try:
        with connect(server.port) as db:
            db.run(BENCH)
        # audit through the live daemon's heap: facts land in its store
        with server.txns.write():
            report = audit_heap(server.heap, facts=server.fact_store)
        assert report.ok and report.analyzed > 0
        entries = server.fact_store.stats()["entries"]
        assert entries > 0
    finally:
        server.stop()  # flushes the fact store into the image

    reborn = ReproServer(path, _config())
    reborn.start()
    try:
        assert reborn.fact_store.stats()["entries"] >= entries
        # warm audit over the reborn daemon re-verifies nothing
        with reborn.txns.write():
            warm = audit_heap(reborn.heap, facts=reborn.fact_store)
        assert warm.analyzed == 0
        assert warm.reused == warm.functions
    finally:
        reborn.stop()


def test_redefinition_invalidates_the_functions_fact(tmp_path):
    path = str(tmp_path / "img.tyc")
    server = ReproServer(path, _config())
    server.start()
    try:
        with connect(server.port) as db:
            db.run(BENCH)
        with server.txns.write():
            audit_heap(server.heap, facts=server.fact_store)
        invalidations = server.fact_store.stats()["invalidations"]
        with connect(server.port) as db:
            db.run(BENCH_V2)  # redefines bench.idle
        assert server.fact_store.stats()["invalidations"] > invalidations
        # the next audit recomputes only the dirty slice
        with server.txns.write():
            report = audit_heap(server.heap, facts=server.fact_store)
        assert report.ok
        assert report.analyzed >= 1  # bench.idle (at least) recomputed
        assert report.reused == report.functions - report.analyzed
        assert "bench.idle" in report.summaries
    finally:
        server.stop()


def test_pgo_round_persists_attributes_on_the_functions_record(tmp_path):
    """The optimizer's costs land on the record of the code it optimized,
    beside the audited summary, and a restart finds them there."""
    path = str(tmp_path / "img.tyc")
    server = ReproServer(path, _config())
    server.start()
    try:
        with connect(server.port) as db:
            db.run(BENCH)
        with server.txns.write():
            audit_heap(server.heap, facts=server.fact_store)
        key = ptml_key(server.system.closure("bench", "work").code, server.heap)
        invalidations = server.fact_store.stats()["invalidations"]
        with connect(server.port) as db:
            for _ in range(3):
                db.call("bench", "work", [300])
            (optimized,) = db.pgo(top=1)["optimized"]
        # the stored module still carries that code: its record stays
        assert server.fact_store.stats()["invalidations"] == invalidations
    finally:
        server.crash()  # only the round's own commit reaches the image

    reborn = ReproServer(path, _config())
    try:
        record = reborn.fact_store.lookup(key)
        assert record.summary is not None
        (attributes,) = record.attributes.values()
        assert (attributes["cost_before"], attributes["cost_after"]) == (
            optimized["cost_before"], optimized["cost_after"],
        )
        # nothing the round did made the audit's facts stale
        with reborn.txns.write():
            assert audit_heap(reborn.heap, facts=reborn.fact_store).analyzed == 0
    finally:
        reborn.stop()
