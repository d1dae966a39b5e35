"""Metrics registry: counters, gauges, histograms, deterministic snapshots."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_inc_and_snapshot():
    registry = MetricsRegistry()
    c = registry.counter("vm.test", "test counter")
    c.inc()
    c.inc(41)
    assert c.value == 42
    assert registry.snapshot()["vm.test"] == {"type": "counter", "value": 42}


def test_counter_get_or_create_returns_same_object():
    registry = MetricsRegistry()
    a = registry.counter("x", "first")
    b = registry.counter("x")
    assert a is b


def test_metric_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("m", "a counter")
    with pytest.raises(TypeError):
        registry.gauge("m")


def test_gauge_set_inc_dec():
    registry = MetricsRegistry()
    g = registry.gauge("depth")
    g.set(7)
    g.inc(2)
    g.dec()
    assert registry.snapshot()["depth"]["value"] == 8


def test_histogram_buckets_power_of_two():
    h = Histogram("sizes")
    values = (0, 1, 2, 3, 4, 1000, 1 << 40)
    for value in values:
        h.observe(value)
    snap = h.snapshot()
    assert snap["count"] == 7
    assert snap["min"] == 0
    assert snap["max"] == 1 << 40
    assert snap["total"] == sum(values)
    # small values get exact one-integer buckets; a value past the last
    # fixed bound goes to the +inf overflow bucket
    assert snap["buckets"]["0"] == 1
    assert snap["buckets"]["1"] == 1
    assert snap["buckets"]["+inf"] == 1
    assert h.mean == sum(values) / len(values)


def test_histogram_snapshot_deterministic():
    a, b = Histogram("a"), Histogram("b")
    for h in (a, b):
        for value in (3, 17, 17, 260):
            h.observe(value)
    assert a.snapshot() == b.snapshot()


def test_snapshot_sorted_and_repeatable():
    registry = MetricsRegistry()
    registry.counter("z.last").inc()
    registry.counter("a.first").inc(3)
    registry.histogram("m.sizes").observe(5)
    snap1 = registry.snapshot()
    snap2 = registry.snapshot()
    assert snap1 == snap2
    assert list(snap1) == sorted(snap1)


def test_reset_clears_values_keeps_registration():
    registry = MetricsRegistry()
    c = registry.counter("n", "described")
    c.inc(9)
    h = registry.histogram("h")
    h.observe(12)
    registry.reset()
    assert c.value == 0
    assert h.count == 0 and h.min is None
    assert [row[0] for row in registry.describe()] == ["h", "n"]
    assert dict((name, kind) for name, kind, _ in registry.describe()) == {
        "n": "counter",
        "h": "histogram",
    }


def test_global_vm_counters_track_execution():
    from repro.lang import TycoonSystem
    from repro.machine import vm as vm_mod

    system = TycoonSystem()
    system.compile(
        """
module m export f
let f(x: Int): Int = x + 1
end"""
    )
    before = vm_mod._VM_INSTRUCTIONS.value
    runs_before = vm_mod._VM_RUNS.value
    result = system.vm().call(system.closure("m", "f"), [1])
    assert result.value == 2
    assert vm_mod._VM_RUNS.value == runs_before + 1
    assert vm_mod._VM_INSTRUCTIONS.value - before == result.instructions


def test_a_reentrant_run_is_counted_once():
    """A ``select`` calls its predicate back once per row; those runs are
    part of the run around them, not top-level runs of their own."""
    from repro.lang import TycoonSystem
    from repro.machine import vm as vm_mod
    from repro.query import Relation

    system = TycoonSystem()
    rows = Relation("rows", ["id", "v"])
    rows.insert_many([(i, i * 3) for i in range(12)])
    system.compile(
        """
module q export odd
type Row = tuple id: Int, v: Int end
let odd(rows) = select r from rows as r : Row where r.v % 2 == 1 end
end"""
    )
    before = vm_mod._VM_INSTRUCTIONS.value
    runs_before = vm_mod._VM_RUNS.value
    result = system.vm().call(system.closure("q", "odd"), [rows])
    assert len(result.value) == 6
    assert vm_mod._VM_RUNS.value == runs_before + 1
    assert vm_mod._VM_INSTRUCTIONS.value - before == result.instructions


def test_standalone_counter_and_gauge():
    c = Counter("c")
    c.inc(2)
    assert c.snapshot()["value"] == 2
    g = Gauge("g")
    g.set(-3)
    assert g.snapshot()["value"] == -3
