"""The audit's fact cache and PGO's variants in a daemon's image."""

from repro.analysis.audit import audit_heap
from repro.server import ReproServer, ServerConfig, connect

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


def test_facts_persist_across_daemon_restart(tmp_path):
    """Acceptance: a warm restart reuses the audited facts from the image."""
    path = str(tmp_path / "img.tyc")
    server = ReproServer(path, _config())
    server.start()
    try:
        with connect(server.port) as db:
            db.run(BENCH)
        # audit through the live daemon's heap: the write commits its facts
        with server.txns.write():
            report = audit_heap(server.heap)
        assert report.ok and report.analyzed > 0
    finally:
        server.stop()

    reborn = ReproServer(path, _config())
    reborn.start()
    try:
        # warm audit over the reborn daemon re-analyzes nothing
        with reborn.txns.write():
            warm = audit_heap(reborn.heap)
        assert warm.analyzed == 0
        assert warm.reused == warm.functions == report.functions
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
            audit_heap(server.heap)
        with connect(server.port) as db:
            db.run(BENCH_V2)  # redefines bench.idle
        # the next audit drops the record of the replaced code and
        # recomputes only the dirty slice
        with server.txns.write():
            report = audit_heap(server.heap)
        assert report.ok
        assert "bench.idle" in report.pruned
        assert report.analyzed >= 1  # bench.idle (at least) recomputed
        assert report.reused == report.functions - report.analyzed
        assert "bench.idle" in report.summaries
    finally:
        server.stop()


def test_pgo_round_persists_attributes_on_the_functions_record(tmp_path):
    """The optimizer's costs land on the variant in the optimized function's
    module record, and a restart finds them there."""
    path = str(tmp_path / "img.tyc")
    server = ReproServer(path, _config())
    server.start()
    try:
        with connect(server.port) as db:
            db.run(BENCH)
        with server.txns.write():
            audit_heap(server.heap)
        with connect(server.port) as db:
            for _ in range(3):
                db.call("bench", "work", [300])
            (optimized,) = db.pgo(top=1)["optimized"]
    finally:
        server.crash()  # only the round's own commit reaches the image

    reborn = ReproServer(path, _config())
    try:
        variant = reborn.system.compiled["bench"].functions["work"].variant
        assert (variant.attributes["cost_before"], variant.attributes["cost_after"]) == (
            optimized["cost_before"], optimized["cost_after"],
        )
        # the round left every stored function's PTML as it was: the
        # audit's facts are all still valid
        with reborn.txns.write():
            assert audit_heap(reborn.heap).analyzed == 0
    finally:
        reborn.stop()
