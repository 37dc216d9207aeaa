"""Observability: spans and metrics, and their two exporters.

The instrumentation substrate every perf PR reports against (see
``docs/OBSERVABILITY.md``):

- :mod:`repro.obs.tracer` (imported here as ``trace``) — process-global
  span tracing, a no-op singleton unless enabled via ``trace.enable()``,
  the ``--trace`` CLI flag, or ``$REPRO_TRACE``;
- :mod:`repro.obs.metrics` — always-on labeled counters/gauges and
  log-bucketed percentile histograms;
- :mod:`repro.obs.export` — spans as Chrome ``trace_event`` JSON (open
  in ``chrome://tracing`` or Perfetto);
- :mod:`repro.obs.openmetrics` — metrics as OpenMetrics text, plus its
  parser and validator.
"""

from repro.obs import tracer as trace
from repro.obs.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
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
    "validate_chrome_trace",
    "openmetrics_text",
    "write_openmetrics",
    "parse_openmetrics",
    "validate_openmetrics",
]
