"""Observability: span tracing, metrics, and trace/stats export.

The instrumentation substrate every perf PR reports against (see
``docs/OBSERVABILITY.md``):

- :mod:`repro.obs.tracer` (imported here as ``trace``) — process-global
  span tracing, a no-op singleton unless enabled via ``trace.enable()``,
  the ``--trace`` CLI flag, or ``$REPRO_TRACE``;
- :mod:`repro.obs.metrics` — always-on labeled counters/gauges and
  log-bucketed percentile histograms;
- :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (open in
  ``chrome://tracing`` or Perfetto) and flat JSON stats summaries;
- :mod:`repro.obs.openmetrics` — OpenMetrics text exporter, validator,
  and periodic snapshot writer;
- :mod:`repro.obs.events` — typed structured event log and the flight
  recorder dumped on degraded runs.
"""

from repro.obs import tracer as trace
from repro.obs.events import (
    EVENT_FIELDS,
    EventLog,
    dump_flight,
    get_event_log,
    record,
    reset_events,
    set_flight_tag,
    validate_event_stream,
)
from repro.obs.export import (
    chrome_trace,
    format_stats,
    stats_summary,
    validate_chrome_trace,
    write_chrome_trace,
    write_stats,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    get_metrics,
    reset_metrics,
)
from repro.obs.openmetrics import (
    openmetrics_text,
    parse_openmetrics,
    validate_openmetrics,
    write_openmetrics,
)
from repro.obs.tracer import (
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "trace",
    "Tracer",
    "NullTracer",
    "Span",
    "span",
    "get_tracer",
    "tracing_enabled",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "get_metrics",
    "reset_metrics",
    "chrome_trace",
    "write_chrome_trace",
    "stats_summary",
    "write_stats",
    "format_stats",
    "validate_chrome_trace",
    "openmetrics_text",
    "write_openmetrics",
    "parse_openmetrics",
    "validate_openmetrics",
    "EVENT_FIELDS",
    "EventLog",
    "get_event_log",
    "reset_events",
    "record",
    "set_flight_tag",
    "dump_flight",
    "validate_event_stream",
]
