"""Exporters: JSONL event logs, Chrome-trace JSON, Prometheus text.

Three consumers, three formats, one event stream:

- :func:`to_jsonl` / :func:`write_jsonl` — the raw
  :class:`~repro.obs.tracer.TraceEvent` stream, one JSON object per
  line, in emission order.  The machine-readable ground truth;
  ``repro.cli trace`` reads it back.  :class:`JsonlExporter` is the
  streaming flavor: a tracer that appends each event as it is emitted,
  for replays too long to buffer.
- :func:`chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format JSON that Perfetto / ``chrome://tracing`` loads: lanes are
  tracks (pid 0, one tid per lane) carrying batch slices and nested
  program-level slices; requests are async spans (pid 1) whose begin /
  instant / end events mark the lifecycle phases.  Timestamps are the
  replay's simulated microseconds.  :func:`write_chrome_trace` encodes
  the document with :func:`repro.utils.jsonout.iterencode` (the bytes
  of ``json.dump(doc, indent=1)``) and streams it with
  ``handle.writelines``, one string per ``traceEvents`` element, so the
  file text is never held whole.
- :func:`format_prometheus` / :func:`write_prometheus` — the registry's
  instruments as a Prometheus text-format dump (``# HELP``/``# TYPE``
  headers, spec-escaped label values, ``_bucket``/``_sum``/``_count``
  for histograms).

All writers are pure functions over the recorded events/instruments;
they run after the replay, so exporting can never perturb it.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence

from repro.errors import ParameterError
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import TraceEvent
from repro.utils import jsonout

# -- JSONL -------------------------------------------------------------------


_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def _event_line(event: TraceEvent) -> str:
    """One event as compact JSON, built from its fields (no deep copy)."""
    return _LINE_ENCODER.encode(event._asdict())


def to_jsonl(events: Sequence[TraceEvent]) -> str:
    """One compact JSON object per event, in emission order."""
    return "\n".join(_event_line(e) for e in events)


def write_jsonl(events: Sequence[TraceEvent], path) -> None:
    """One line per event; no events, an empty file."""
    with open(path, "w") as handle:
        handle.writelines(_event_line(e) + "\n" for e in events)


class JsonlExporter:
    """Streaming JSONL writer: a tracer that appends as events arrive.

    Where :func:`write_jsonl` needs the whole recorded stream in
    memory, this sink writes each event the moment it is emitted —
    constant memory no matter how long the replay — flushing to disk
    every ``flush_every`` events (and always on :meth:`finish`/close),
    so a crashed or interrupted replay still leaves a readable prefix.
    Composes like every other tracer: pass ``inner`` to tee the stream
    (e.g. into a :class:`~repro.obs.stream.WindowedAggregator`).  The
    file it produces is byte-identical to a ``write_jsonl`` dump of the
    same events and reads back with :func:`read_jsonl`.
    """

    enabled = True

    def __init__(self, path, *, inner=None, flush_every: int = 256):
        if flush_every < 1:
            raise ParameterError(
                f"flush_every must be >= 1, got {flush_every}"
            )
        self.path = path
        self.inner = inner
        self.flush_every = flush_every
        self.events_written = 0
        self._handle = open(path, "w")
        self._closed = False

    def emit(self, event: TraceEvent) -> None:
        self._handle.write(_event_line(event) + "\n")
        self.events_written += 1
        if self.events_written % self.flush_every == 0:
            self._handle.flush()
        if self.inner is not None and self.inner.enabled:
            self.inner.emit(event)

    def finish(self) -> None:
        """Flush and close the file (idempotent); propagates to inner."""
        if not self._closed:
            self._closed = True
            self._handle.flush()
            self._handle.close()
        if self.inner is not None:
            inner_finish = getattr(self.inner, "finish", None)
            if inner_finish is not None:
                inner_finish()

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.finish()


def read_jsonl(path) -> List[TraceEvent]:
    """Parse a JSONL event log back into :class:`TraceEvent` records."""
    with open(path) as handle:
        return [TraceEvent(**json.loads(line)) for line in handle if line.strip()]


# -- Chrome trace format -----------------------------------------------------

_US = 1e6  # trace-event timestamps are microseconds


def chrome_trace(events: Sequence[TraceEvent]) -> Dict[str, object]:
    """The Trace Event Format document for one recorded replay.

    Layout:

    - pid 0 (``lanes``): one thread per lane.  Every batch is a
      complete-event slice from its ``lane_start`` to ``lane_finish``,
      named after the batch and parameter set, with size / occupancy /
      energy in ``args``.  ``program`` events (bridged subarray detail)
      render as sub-slices on the same thread.
    - pid 1 (``requests``): one async span per request id, begun at
      ``arrive``, ended at ``respond`` (or ``drop``), with the
      intermediate phases as async instants.  The end event's ``args``
      carry the stage timestamps (``dispatched_s``, ``start_s``) so a
      summary can rebuild the full latency breakdown from this file
      alone.
    """
    trace_events: List[Dict[str, object]] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": "lanes"}},
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
         "args": {"name": "requests"}},
    ]
    lanes_seen: Dict[int, None] = {}
    # One pass: lane_start/lane_finish/dispatch join on batch_id into
    # batch slices; the other outputs keep their emission order.
    lane_start: Dict[int, TraceEvent] = {}
    lane_finish: Dict[int, TraceEvent] = {}
    dispatch: Dict[int, TraceEvent] = {}
    programs: List[Dict[str, object]] = []
    alerts: List[Dict[str, object]] = []
    requests: List[Dict[str, object]] = []
    for e in events:
        phase = e.phase
        if phase == "lane_start" and e.batch_id is not None:
            lane_start[e.batch_id] = e
        elif phase == "lane_finish" and e.batch_id is not None:
            lane_finish[e.batch_id] = e
        elif phase == "dispatch" and e.batch_id is not None:
            dispatch[e.batch_id] = e
        elif phase == "program":
            # Subarray detail under a lane slice.
            lane = e.lane if e.lane is not None else 0
            lanes_seen.setdefault(lane, None)
            programs.append({
                "name": str(e.attrs.get("text", "instruction")),
                "cat": "program",
                "ph": "X",
                "ts": e.t_s * _US,
                "dur": float(e.attrs.get("duration_s", 0.0)) * _US,
                "pid": 0,
                "tid": lane,
                "args": {k: v for k, v in e.attrs.items()
                         if k not in ("text", "duration_s")},
            })
        elif phase == "alert":
            # SLO fire/resolve as global instants on the requests track,
            # so incidents line up with the spans they explain.
            state = e.attrs.get("state", "")
            rule = e.attrs.get("rule", "")
            alerts.append({
                "name": f"alert {state} {e.tenant} {rule}".strip(),
                "cat": "alert",
                "ph": "i",
                "s": "g",
                "ts": e.t_s * _US,
                "pid": 1,
                "tid": 0,
                "args": {**e.attrs, "tenant": e.tenant},
            })
        if e.request_id is None or phase == "profile":
            continue
        # Request lifecycle as async spans keyed by request id.
        base: Dict[str, object] = {
            "cat": "request",
            "id": e.request_id,
            "pid": 1,
            "tid": 0,
            "ts": e.t_s * _US,
        }
        if phase == "arrive":
            base.update(ph="b", name="request",
                        args={"kind": e.kind, "tenant": e.tenant})
        elif phase in ("respond", "drop"):
            args = dict(e.attrs)
            args["phase"] = phase
            if e.batch_id is not None:
                args["batch_id"] = e.batch_id
            if e.lane is not None:
                args["lane"] = e.lane
            base.update(ph="e", name="request", args=args)
        else:
            base.update(ph="n", name=phase, args=dict(e.attrs))
        requests.append(base)

    for batch_id, start in sorted(lane_start.items()):
        finish = lane_finish.get(batch_id)
        if finish is None:
            continue
        meta = dispatch.get(batch_id)
        args = {"batch_id": batch_id}
        name = f"batch {batch_id}"
        if meta is not None:
            args.update(meta.attrs)
            params = meta.attrs.get("params", "")
            op = meta.attrs.get("op", "")
            if params:
                name = f"batch {batch_id} {params}.{op}"
        lane = start.lane if start.lane is not None else 0
        lanes_seen.setdefault(lane, None)
        trace_events.append({
            "name": name,
            "cat": "batch",
            "ph": "X",
            "ts": start.t_s * _US,
            "dur": max((finish.t_s - start.t_s) * _US, 0.0),
            "pid": 0,
            "tid": lane,
            "args": args,
        })
    trace_events += programs + alerts + requests

    for lane in sorted(lanes_seen):
        trace_events.append({
            "ph": "M", "pid": 0, "tid": lane, "name": "thread_name",
            "args": {"name": f"lane {lane}"},
        })

    return {"displayTimeUnit": "ms", "traceEvents": trace_events}


def write_chrome_trace(events: Sequence[TraceEvent], path) -> None:
    """The :func:`chrome_trace` document, streamed one event at a time."""
    with open(path, "w") as handle:
        handle.writelines(jsonout.iterencode(chrome_trace(events), indent=1))
        handle.write("\n")


# -- Prometheus text format --------------------------------------------------


#: ``# HELP`` text for the serving stack's well-known series; anything
#: not listed falls back to its dotted source name.
METRIC_HELP: Dict[str, str] = {
    "serve.requests": "Requests served, by kind.",
    "serve.latency_ms": "End-to-end request latency in milliseconds.",
    "serve.queue_s": "Seconds spent queued before dispatch.",
    "serve.service_s": "Seconds of engine service time.",
    "serve.energy_nj": "Energy per request in nanojoules.",
    "serve.energy_total_nj": "Total replay energy in nanojoules.",
    "serve.tenant_served": "Requests served, by tenant.",
    "serve.tenant_dropped": "Requests dropped, by tenant and reason.",
    "serve.tenant_latency_ms": "Per-tenant end-to-end latency in ms.",
    "serve.tenant_energy_nj": "Per-tenant energy per request in nJ.",
    "serve.deadline_offered": "Requests that carried an SLO deadline.",
    "serve.deadline_met": "Deadline-carrying requests that met it.",
    "serve.dropped": "Requests dropped, by reason.",
    "serve.span_s": "Replay span from first arrival to last finish.",
    "serve.utilization": "Engine-lane busy fraction over the span.",
    "serve.throughput_rps": "Served requests per second of span.",
    "sched.batches": "Batches dispatched, by parameter set.",
    "sched.batch_occupancy": "Batch fill fraction at dispatch.",
    "sched.padded_slots": "Batch slots dispatched empty.",
    "sched.batch_slots": "Batch slots dispatched in total.",
    "sched.lanes": "Engine lanes available to the scheduler.",
    "sched.busy_s": "Total lane-busy seconds.",
    "sched.queue_depth": "Waiting requests sampled over time.",
}


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_escape_label(value: str) -> str:
    """Label-value escaping per the text-format spec: ``\\``, ``"``, LF."""
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _prom_escape_help(text: str) -> str:
    """HELP text escaping: only backslash and newline are special."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _prom_labels(labels, extra: Optional[Dict[str, str]] = None) -> str:
    pairs = list(labels) + sorted((extra or {}).items())
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_prom_escape_label(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _prom_number(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def format_prometheus(registry: MetricsRegistry) -> str:
    """The registry as a Prometheus text-format exposition."""
    lines: List[str] = []
    typed: Dict[str, None] = {}
    for inst in registry.collect():
        name = _prom_name(inst.name)
        if name not in typed:
            typed[name] = None
            help_text = METRIC_HELP.get(inst.name, inst.name)
            lines.append(f"# HELP {name} {_prom_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {inst.kind}")
        if isinstance(inst, (Counter, Gauge)):
            lines.append(f"{name}{_prom_labels(inst.labels)} "
                         f"{_prom_number(inst.value)}")
        elif isinstance(inst, Histogram):
            for bound, count in inst.bucket_counts():
                le = _prom_number(bound)
                lines.append(f"{name}_bucket{_prom_labels(inst.labels, {'le': le})} "
                             f"{count}")
            lines.append(f"{name}_sum{_prom_labels(inst.labels)} "
                         f"{_prom_number(inst.sum)}")
            lines.append(f"{name}_count{_prom_labels(inst.labels)} "
                         f"{inst.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricsRegistry, path) -> None:
    with open(path, "w") as handle:
        handle.write(format_prometheus(registry))
