"""repro.obs — unified tracing, metrics and profiling.

Three pieces, one package:

* :mod:`repro.obs.metrics` — always-on process-wide counters/gauges/
  histograms (``METRICS``), incremented inline by the store, the rewrite
  pipeline and the VM;
* :mod:`repro.obs.trace` — opt-in structured spans/events (``TRACER``),
  disabled by default with a near-zero no-op path;
* :mod:`repro.obs.profile` — VM execution profiles: per-closure evidence
  (:class:`ClosureProfile`), consumed by ``repro.reflect.pgo`` for
  profile-guided reoptimization, and per-opcode detail on top of it
  (:class:`VMProfiler`).

Exporters (:mod:`repro.obs.exporters`) serialize traces as NDJSON and
metric/bench snapshots as JSON.  See ``docs/observability.md``.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    submod_attrs={
        ".exporters": [
            "ListRecorder", "NdjsonRecorder", "SCHEMA_VERSION", "TraceSchemaError",
            "event_from_dict", "event_to_dict", "read_ndjson", "validate_event",
            "write_metrics_json",
        ],
        ".history": ["HISTORY_ROOT", "MetricsHistory", "read_history", "sanitize_snapshot"],
        ".metrics": [
            "METRICS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
            "metrics_disabled", "metrics_enabled", "set_metrics_enabled",
        ],
        ".profile": ["ClosureProfile", "ClosureStats", "VMProfiler", "profile_call"],
        ".slowlog": ["SlowLog"],
        ".trace": [
            "NULL_SPAN", "Span", "TRACER", "TraceContext", "TraceEvent", "Tracer",
            "new_span_id", "new_trace_id",
        ],
    },
)
