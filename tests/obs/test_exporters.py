"""Exporter tests: JSONL roundtrip, Chrome-trace structure, Prometheus."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scenarios import SCENARIO_BUILDERS

from repro.obs import (
    LIFECYCLE_PHASES,
    JsonlExporter,
    RecordingTracer,
    chrome_trace,
    format_prometheus,
    read_jsonl,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.exporters import _event_line
from repro.obs.tracer import AUX_PHASES, TraceEvent


@pytest.fixture(scope="module")
def traced_tiny():
    tracer = RecordingTracer()
    report = SCENARIO_BUILDERS["tiny"](tracer=tracer)
    return tracer, report


class TestJsonl:
    def test_roundtrip_preserves_every_event(self, traced_tiny, tmp_path):
        tracer, _ = traced_tiny
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer.events, path)
        back = read_jsonl(path)
        assert back == tracer.events

    def test_one_object_per_line_in_emission_order(self, traced_tiny):
        tracer, _ = traced_tiny
        lines = to_jsonl(tracer.events).splitlines()
        assert len(lines) == len(tracer.events)
        for line, event in zip(lines, tracer.events):
            rec = json.loads(line)
            assert rec["phase"] == event.phase
            assert rec["t_s"] == event.t_s


#: Attribute values the emitting layers use: JSON scalars (floats
#: including NaN and +-inf, non-ASCII text) and nested lists such as a
#: program event's ``rows``.
_ATTR_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)

_EVENTS = st.builds(
    TraceEvent,
    phase=st.sampled_from(LIFECYCLE_PHASES + AUX_PHASES),
    t_s=st.floats(allow_nan=True, allow_infinity=True),
    request_id=st.none() | st.integers(),
    batch_id=st.none() | st.integers(),
    lane=st.none() | st.integers(),
    kind=st.text(max_size=6),
    tenant=st.text(max_size=6),
    attrs=st.dictionaries(st.text(max_size=8), _ATTR_VALUES, max_size=5),
)


class TestEventLine:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(events=st.lists(_EVENTS, max_size=5))
    def test_matches_asdict_dumps_and_round_trips(self, events, tmp_path):
        lines = [_event_line(e) for e in events]
        assert lines == [
            json.dumps(e._asdict(), separators=(",", ":"), sort_keys=True)
            for e in events
        ]
        path = tmp_path / "events.jsonl"
        write_jsonl(events, path)
        back = read_jsonl(path)
        # Re-encoding compares NaN and tuple-vs-list values exactly.
        assert [_event_line(e) for e in back] == lines
        assert [(e.phase, e.request_id, e.kind, e.tenant) for e in back] \
            == [(e.phase, e.request_id, e.kind, e.tenant) for e in events]

    @pytest.mark.parametrize("count", [0, 1])
    def test_both_writers_agree_on_short_streams(self, count, tmp_path):
        # No events: an empty file from both, not a lone newline.
        events = [TraceEvent(phase="arrive", t_s=0.0, request_id=0)][:count]
        buffered = tmp_path / "buffered.jsonl"
        streamed = tmp_path / "streamed.jsonl"
        write_jsonl(events, buffered)
        with JsonlExporter(streamed) as exporter:
            for event in events:
                exporter.emit(event)
        expected = "".join(_event_line(e) + "\n" for e in events).encode()
        assert buffered.read_bytes() == streamed.read_bytes() == expected
        assert read_jsonl(buffered) == events


class TestChromeTrace:
    def test_document_shape(self, traced_tiny):
        tracer, _ = traced_tiny
        doc = chrome_trace(tracer.events)
        assert doc["displayTimeUnit"] == "ms"
        assert isinstance(doc["traceEvents"], list)
        # Round-trips through JSON (what Perfetto actually parses).
        json.loads(json.dumps(doc))

    def test_batch_slices_live_on_lane_threads(self, traced_tiny):
        tracer, report = traced_tiny
        doc = chrome_trace(tracer.events)
        slices = [e for e in doc["traceEvents"]
                  if e.get("cat") == "batch" and e["ph"] == "X"]
        assert len(slices) == len(report.batches)
        for s in slices:
            assert s["pid"] == 0
            assert s["dur"] >= 0
            assert "batch_id" in s["args"]
            assert "params" in s["args"]  # joined from the dispatch event

    def test_request_spans_cover_every_served_request(self, traced_tiny):
        tracer, report = traced_tiny
        doc = chrome_trace(tracer.events)
        spans = [e for e in doc["traceEvents"] if e.get("cat") == "request"]
        begins = {e["id"] for e in spans if e["ph"] == "b"}
        ends = {e["id"] for e in spans if e["ph"] == "e"}
        assert len(begins) == len(report.responses) + len(report.drops)
        assert begins == ends  # tiny scenario drops nothing
        for e in spans:
            assert e["pid"] == 1

    def test_end_events_carry_stage_timestamps(self, traced_tiny):
        tracer, _ = traced_tiny
        doc = chrome_trace(tracer.events)
        ends = [e for e in doc["traceEvents"]
                if e.get("cat") == "request" and e["ph"] == "e"]
        for e in ends:
            assert "dispatched_s" in e["args"]
            assert "start_s" in e["args"]

    def test_thread_metadata_names_every_lane(self, traced_tiny):
        tracer, _ = traced_tiny
        doc = chrome_trace(tracer.events)
        lanes = {e["tid"] for e in doc["traceEvents"]
                 if e.get("cat") == "batch"}
        named = {e["tid"]: e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("ph") == "M" and e["name"] == "thread_name"}
        for lane in lanes:
            assert named[lane] == f"lane {lane}"
        procs = {e["pid"]: e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("ph") == "M" and e["name"] == "process_name"}
        assert procs == {0: "lanes", 1: "requests"}

    def test_every_lifecycle_instant_survives_export(self, traced_tiny):
        tracer, _ = traced_tiny
        doc = chrome_trace(tracer.events)
        instants = {e["name"] for e in doc["traceEvents"]
                    if e.get("cat") == "request" and e["ph"] == "n"}
        # Request-side phases between arrive (b) and respond/drop (e)
        # become async instants; batch_open/dispatch/lane_* are
        # batch-level and render on the lane tracks instead.
        assert {"admit", "enqueue"} <= instants
        assert set(LIFECYCLE_PHASES) >= instants

    def test_write_chrome_trace_is_loadable(self, traced_tiny, tmp_path):
        tracer, _ = traced_tiny
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer.events, path)
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc


class TestPrometheus:
    def test_text_format(self, traced_tiny):
        _, report = traced_tiny
        text = format_prometheus(report.registry)
        lines = text.rstrip("\n").split("\n")
        # One TYPE header per metric name, emitted once.
        type_lines = [ln for ln in lines if ln.startswith("# TYPE ")]
        assert len(type_lines) == len({ln.split()[2] for ln in type_lines})
        assert "# TYPE serve_requests counter" in text
        assert "# TYPE serve_latency_ms histogram" in text
        assert "# TYPE sched_queue_depth gauge" in text
        # Histogram exposition: buckets end at +Inf, with _sum/_count.
        assert 'serve_latency_ms_bucket{le="+Inf"}' in text
        assert "serve_latency_ms_sum" in text
        assert "serve_latency_ms_count" in text

    def test_labeled_series_and_counts(self, traced_tiny):
        _, report = traced_tiny
        text = format_prometheus(report.registry)
        assert 'serve_requests{kind="tiny"} 10' in text
        assert 'serve_tenant_served{tenant="a"} 5' in text
        assert 'serve_tenant_served{tenant="b"} 5' in text

    def test_empty_registry_exports_empty(self):
        from repro.obs.registry import MetricsRegistry

        assert format_prometheus(MetricsRegistry()) == ""


# -- text-format spec conformance (HELP/TYPE + escaping) ---------------------

_LABEL_ESCAPES = {"\\\\": "\\", '\\"': '"', "\\n": "\n"}


def _unescape_label(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        pair = value[i:i + 2]
        if pair in _LABEL_ESCAPES:
            out.append(_LABEL_ESCAPES[pair])
            i += 2
        else:
            assert value[i] != "\\", f"stray backslash in {value!r}"
            assert value[i] != '"', f"unescaped quote in {value!r}"
            out.append(value[i])
            i += 1
    return "".join(out)


def _parse_prometheus(text: str):
    """A deliberately strict text-format line parser.

    Accepts exactly the subset the spec guarantees every scraper can
    read: ``# HELP``/``# TYPE`` headers and ``name{labels} value``
    samples with spec-escaped label values.  Anything else fails the
    test — that is the point.
    """
    import re

    name_re = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
    sample_re = re.compile(
        rf"^({name_re})(?:\{{(.*)\}})? (\S+)$")
    label_re = re.compile(rf'({name_re})="((?:[^"\\]|\\.)*)"(?:,|$)')
    helps, types, samples = {}, {}, []
    for line in text.rstrip("\n").split("\n"):
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            assert re.fullmatch(name_re, name), line
            helps[name] = help_text
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            assert kind in ("counter", "gauge", "histogram"), line
            types[name] = kind
        else:
            match = sample_re.match(line)
            assert match, f"unparseable sample line: {line!r}"
            name, label_body, value = match.groups()
            labels = {}
            if label_body:
                consumed = 0
                for m in label_re.finditer(label_body):
                    labels[m.group(1)] = _unescape_label(m.group(2))
                    consumed = m.end()
                assert consumed == len(label_body), \
                    f"trailing junk in labels: {label_body!r}"
            float(value)  # every sample value must parse as a number
            samples.append((name, labels, value))
    return helps, types, samples


class TestPrometheusSpec:
    def test_every_metric_has_help_and_type(self, traced_tiny):
        _, report = traced_tiny
        helps, types, samples = _parse_prometheus(
            format_prometheus(report.registry))
        sample_families = set()
        for name, _, _ in samples:
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[:-len(suffix)] in types:
                    family = name[:-len(suffix)]
            sample_families.add(family)
        assert sample_families <= set(types)
        assert set(types) == set(helps)
        # HELP came before TYPE for each family, and before any sample.
        text = format_prometheus(report.registry)
        for family in types:
            assert text.index(f"# HELP {family} ") \
                < text.index(f"# TYPE {family} ")

    def test_known_series_carry_curated_help(self, traced_tiny):
        _, report = traced_tiny
        helps, _, _ = _parse_prometheus(format_prometheus(report.registry))
        assert helps["serve_latency_ms"] == \
            "End-to-end request latency in milliseconds."
        assert helps["sched_queue_depth"] == \
            "Waiting requests sampled over time."

    def test_label_values_are_spec_escaped(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        hostile = 'a"b\\c\nd'
        registry.counter("serve.requests", {"kind": hostile}).inc(3)
        text = format_prometheus(registry)
        assert "\n\n" not in text  # the newline did not split the line
        _, _, samples = _parse_prometheus(text)
        (sample,) = samples
        assert sample[0] == "serve_requests"
        assert sample[1] == {"kind": hostile}  # round-trips exactly
        assert sample[2] == "3"

    def test_unknown_metric_falls_back_to_dotted_name(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        registry.gauge("custom.depth").set(1)
        helps, _, _ = _parse_prometheus(format_prometheus(registry))
        assert helps["custom_depth"] == "custom.depth"

    def test_full_golden_registry_parses_strictly(self, traced_tiny):
        _, report = traced_tiny
        helps, types, samples = _parse_prometheus(
            format_prometheus(report.registry))
        assert samples and types["serve_latency_ms"] == "histogram"


class TestJsonlExporter:
    """Streaming append mode: incremental writes, flush boundaries,
    read_jsonl parity with the buffered writer."""

    def test_stream_matches_buffered_dump(self, traced_tiny, tmp_path):
        from repro.obs import JsonlExporter

        tracer, _ = traced_tiny
        buffered = tmp_path / "buffered.jsonl"
        streamed = tmp_path / "streamed.jsonl"
        write_jsonl(tracer.events, buffered)
        exporter = JsonlExporter(streamed)
        for event in tracer.events:
            exporter.emit(event)
        exporter.finish()
        assert streamed.read_bytes() == buffered.read_bytes()
        assert read_jsonl(streamed) == tracer.events

    def test_incremental_flush_boundaries(self, tmp_path):
        from repro.obs import JsonlExporter
        from repro.obs.tracer import TraceEvent

        path = tmp_path / "incremental.jsonl"
        exporter = JsonlExporter(path, flush_every=4)
        events = [TraceEvent(phase="arrive", t_s=i * 1e-3, request_id=i)
                  for i in range(10)]
        for i, event in enumerate(events):
            exporter.emit(event)
            on_disk = len(read_jsonl(path))
            # Everything up to the last flush boundary is durable
            # mid-stream; the tail may still sit in the buffer.
            assert on_disk >= ((i + 1) // 4) * 4
            assert on_disk <= i + 1
        assert len(read_jsonl(path)) >= 8  # two boundaries crossed
        exporter.finish()
        assert read_jsonl(path) == events

    def test_live_replay_through_exporter(self, tmp_path):
        from repro.obs import JsonlExporter, RecordingTracer
        from scenarios import SCENARIO_BUILDERS

        path = tmp_path / "live.jsonl"
        recorder = RecordingTracer()
        exporter = JsonlExporter(path, inner=recorder)
        SCENARIO_BUILDERS["tiny"](tracer=exporter)
        # The simulator's finish hook closed the file; the stream on
        # disk is the recorded stream, byte-for-byte.
        assert read_jsonl(path) == recorder.events
        assert exporter.events_written == len(recorder.events)

    def test_finish_is_idempotent_and_context_managed(self, tmp_path):
        from repro.obs import JsonlExporter
        from repro.obs.tracer import TraceEvent

        path = tmp_path / "ctx.jsonl"
        with JsonlExporter(path) as exporter:
            exporter.emit(TraceEvent(phase="arrive", t_s=0.0, request_id=0))
        exporter.finish()  # second finish is a no-op
        assert len(read_jsonl(path)) == 1

    def test_bad_flush_every_rejected(self, tmp_path):
        from repro.errors import ParameterError
        from repro.obs import JsonlExporter

        with pytest.raises(ParameterError):
            JsonlExporter(tmp_path / "x.jsonl", flush_every=0)


class TestChromeAlerts:
    def test_alert_events_render_as_global_instants(self):
        from scenarios import overload_replay

        tracer = RecordingTracer()
        overload_replay(tracer=tracer)
        alerts = [e for e in tracer.events if e.phase == "alert"]
        assert alerts, "overload scenario stopped firing alerts"
        doc = chrome_trace(tracer.events)
        instants = [e for e in doc["traceEvents"] if e.get("cat") == "alert"]
        assert len(instants) == len(alerts)
        for marker, event in zip(instants, alerts):
            assert marker["ph"] == "i" and marker["s"] == "g"
            assert marker["ts"] == event.t_s * 1e6
            assert marker["args"]["state"] in ("fire", "resolve")
            assert marker["args"]["tenant"] == event.tenant
            assert event.attrs["rule"] in marker["name"]
