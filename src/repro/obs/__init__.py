"""repro.obs — request-lifecycle tracing, metrics and exporters.

The serving stack (``repro.serve`` / ``repro.sched``) makes every
latency- and energy-relevant decision on a simulated clock; this
package makes those decisions *observable* without perturbing them:

- :mod:`repro.obs.tracer` — the :class:`Tracer` protocol and the span
  events every layer emits across the request lifecycle (``arrive ->
  admit/drop -> enqueue -> batch_open -> dispatch -> lane_start ->
  lane_finish -> respond``), with a :class:`NullTracer` default whose
  absence-of-effect is pinned by byte-identical report goldens, and a
  bridge for :mod:`repro.sram.tracer`'s program-level detail.
- :mod:`repro.obs.registry` — counters / gauges / histograms keyed by
  ``subsystem.name`` with tenant/kind/lane labels; the serve report is
  a view over these instruments.
- :mod:`repro.obs.exporters` — JSONL event logs, Chrome-trace JSON
  (open in Perfetto: lanes as tracks, batches as slices) and a
  Prometheus text dump.
- :mod:`repro.obs.summary` — ``repro.cli trace``: per-stage latency
  breakdown for the p50/p95/p99 requests and critical-path
  attribution.
- :mod:`repro.obs.stream` — streaming windowed aggregation
  (:class:`WindowedAggregator`): tumbling/sliding windows of rates,
  depth, occupancy and sketch-based latency quantiles in bounded
  memory, powering ``repro.cli watch``.
- :mod:`repro.obs.slo` — declarative :class:`SLOPolicy` evaluated on
  the window stream with multi-window burn-rate rules
  (:class:`SLOTracer`), emitting ``alert`` events into the trace.
- :mod:`repro.obs.sampling` — tail-based :class:`SamplingTracer`:
  head-samples normal traffic, always keeps dropped / deadline-missed
  / alert-overlapping / slowest-percentile request spans.

The disassembly/trace utilities of :mod:`repro.sram.tracer`
(:func:`disassemble`, :class:`TracingExecutor`) are re-exported here so
program-level and request-level tracing share one import surface.

Every name resolves on first use (:func:`repro.registry.lazy_exports`):
``import repro.obs`` imports none of the modules above, and a replay
loads only :mod:`~repro.obs.tracer` and :mod:`~repro.obs.registry`.
``from repro.obs import SLOPolicy`` imports :mod:`~repro.obs.slo` (and
what it needs) and nothing else.
"""

from repro.registry import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".exporters": ("JsonlExporter", "chrome_trace", "format_prometheus", "read_jsonl",
                   "to_jsonl", "write_chrome_trace", "write_jsonl", "write_prometheus"),
    ".registry": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    ".sampling": ("SamplingTracer", "format_sampling_stats"),
    ".slo": ("Alert", "BurnRateRule", "SLOPolicy", "SLOTracer", "format_alerts"),
    ".stream": ("QuantileSketch", "StageStats", "TenantFrame", "WindowedAggregator",
                "WindowFrame", "WindowSpec", "format_watch_table"),
    ".summary": ("STAGES", "RequestTimeline", "load_timelines", "summarize_trace"),
    ".tracer": ("AUX_PHASES", "LIFECYCLE_PHASES", "NULL_TRACER", "NullTracer",
                "RecordingTracer", "TraceEvent", "Tracer", "program_events"),
    "repro.sram.tracer": ("TracingExecutor", "disassemble"),
})
