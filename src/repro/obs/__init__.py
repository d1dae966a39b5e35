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

from repro.obs.exporters import (
    ListRecorder,
    NdjsonRecorder,
    SCHEMA_VERSION,
    TraceSchemaError,
    event_from_dict,
    event_to_dict,
    read_ndjson,
    validate_event,
    write_metrics_json,
)
from repro.obs.history import (
    HISTORY_ROOT,
    MetricsHistory,
    read_history,
    sanitize_snapshot,
)
from repro.obs.metrics import (
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_disabled,
    metrics_enabled,
    set_metrics_enabled,
)
from repro.obs.profile import ClosureProfile, ClosureStats, VMProfiler, profile_call
from repro.obs.slowlog import SlowLog
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    TraceContext,
    TraceEvent,
    Tracer,
    TRACER,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics_enabled",
    "set_metrics_enabled",
    "metrics_disabled",
    "TRACER",
    "Tracer",
    "TraceEvent",
    "TraceContext",
    "Span",
    "NULL_SPAN",
    "new_trace_id",
    "new_span_id",
    "SlowLog",
    "MetricsHistory",
    "HISTORY_ROOT",
    "read_history",
    "sanitize_snapshot",
    "ListRecorder",
    "NdjsonRecorder",
    "SCHEMA_VERSION",
    "TraceSchemaError",
    "event_to_dict",
    "event_from_dict",
    "read_ndjson",
    "validate_event",
    "write_metrics_json",
    "ClosureProfile",
    "ClosureStats",
    "VMProfiler",
    "profile_call",
]
