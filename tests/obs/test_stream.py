"""Windowed streaming aggregation: sketches, windows, and registry parity.

The headline test replays every golden scenario through a
:class:`WindowedAggregator` and pins :meth:`totals` — the merge of all
stride buckets — against the exact :class:`MetricsRegistry` numbers the
report is a view over: counts exactly, float sums to 1e-9 relative,
quantiles within the sketch's documented relative error.
"""

import math

import pytest

from repro.errors import ParameterError
from repro.obs import (
    QuantileSketch,
    RecordingTracer,
    TraceEvent,
    WindowedAggregator,
    WindowSpec,
)
from repro.obs.registry import percentile
from repro.serve import serialize_report
from scenarios import SCENARIO_BUILDERS, golden_path


class TestWindowSpec:
    def test_tumbling_default(self):
        spec = WindowSpec(0.01)
        assert spec.stride_s == 0.01
        assert spec.label == "10ms"
        assert spec.buckets_per_window == 1

    def test_sliding(self):
        spec = WindowSpec(0.02, 0.005, label="slide")
        assert spec.buckets_per_window == 4
        assert spec.label == "slide"

    @pytest.mark.parametrize("width,stride", [
        (0.0, None), (-1e-3, None),       # bad width
        (0.01, 0.0), (0.01, -0.005),      # bad stride
        (0.01, 0.02),                     # stride wider than window
        (0.01, 0.003),                    # width not a stride multiple
        (math.nan, None), (math.inf, None),         # non-finite width
        (0.01, math.nan), (math.inf, math.inf),     # non-finite stride
    ])
    def test_bad_geometry_rejected(self, width, stride):
        with pytest.raises(ParameterError):
            WindowSpec(width, stride)


class TestQuantileSketch:
    def test_exact_phase_matches_nearest_rank(self):
        values = [((i * 37) % 101) / 10.0 + 0.1 for i in range(100)]
        sketch = QuantileSketch(exact_cap=128)
        for v in values:
            sketch.observe(v)
        assert not sketch.collapsed
        for q in (0, 25, 50, 95, 99, 100):
            assert sketch.quantile(q) == percentile(values, q)
        assert sketch.count == 100
        assert sketch.total == pytest.approx(sum(values))
        assert sketch.mean == pytest.approx(sum(values) / 100)

    def test_collapse_bounds_relative_error(self):
        values = [0.01 * 1.07 ** i for i in range(400)]
        sketch = QuantileSketch(exact_cap=64, gamma=1.05)
        for v in values:
            sketch.observe(v)
        assert sketch.collapsed
        assert sketch.count == 400
        assert sketch.total == pytest.approx(sum(values))
        for q in (10, 50, 90, 99):
            exact = percentile(values, q)
            assert abs(sketch.quantile(q) - exact) <= \
                exact * sketch.relative_error + 1e-12

    def test_merge_exact_and_collapsed(self):
        a = QuantileSketch(exact_cap=8)
        b = QuantileSketch(exact_cap=8)
        left = [1.0, 2.0, 3.0]
        right = [float(v) for v in range(4, 24)]  # forces b to collapse
        for v in left:
            a.observe(v)
        for v in right:
            b.observe(v)
        assert not a.collapsed and b.collapsed
        a.merge(b)
        values = left + right
        assert a.count == len(values)
        assert a.total == pytest.approx(sum(values))
        exact = percentile(values, 50)
        assert abs(a.quantile(50) - exact) <= exact * a.relative_error + 1e-12

    def test_merge_mismatched_bins_rejected(self):
        with pytest.raises(ParameterError):
            QuantileSketch(gamma=1.05).merge(QuantileSketch(gamma=1.1))

    def test_copy_is_independent(self):
        sketch = QuantileSketch()
        sketch.observe(1.0)
        clone = sketch.copy()
        clone.observe(100.0)
        assert sketch.count == 1 and clone.count == 2
        assert sketch.quantile(100) == 1.0

    def test_empty_quantile_is_nan(self):
        sketch = QuantileSketch()
        assert math.isnan(sketch.quantile(50))
        assert math.isnan(sketch.mean)

    def test_tiny_values_pin_to_min_value(self):
        sketch = QuantileSketch(exact_cap=1, min_value=1e-6)
        for _ in range(3):
            sketch.observe(0.0)
        assert sketch.collapsed
        assert sketch.quantile(50) == sketch.min_value

    @pytest.mark.parametrize("kwargs", [
        dict(exact_cap=0), dict(gamma=1.0), dict(min_value=0.0),
    ])
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            QuantileSketch(**kwargs)

    def test_negative_value_rejected(self):
        with pytest.raises(ParameterError):
            QuantileSketch().observe(-1.0)

    def test_bad_q_rejected(self):
        sketch = QuantileSketch()
        sketch.observe(1.0)
        with pytest.raises(ParameterError):
            sketch.quantile(101)


def _request_events(request_id, *, arrive_s, respond_s, tenant="t",
                    deadline_s=None):
    """A minimal arrive -> enqueue -> respond lifecycle."""
    return [
        TraceEvent(phase="arrive", t_s=arrive_s, request_id=request_id,
                   tenant=tenant,
                   attrs={} if deadline_s is None
                   else {"deadline_s": deadline_s}),
        TraceEvent(phase="admit", t_s=arrive_s, request_id=request_id,
                   tenant=tenant),
        TraceEvent(phase="enqueue", t_s=arrive_s, request_id=request_id,
                   tenant=tenant),
        TraceEvent(phase="respond", t_s=respond_s, request_id=request_id,
                   tenant=tenant,
                   attrs={"dispatched_s": arrive_s, "start_s": arrive_s}),
    ]


class TestWindowedAggregator:
    def test_requires_a_window(self):
        with pytest.raises(ParameterError):
            WindowedAggregator(())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ParameterError):
            WindowedAggregator((WindowSpec(0.01), WindowSpec(0.01)))

    def test_mismatched_strides_rejected(self):
        # 3 ms is not a multiple of the finest stride (2 ms).
        with pytest.raises(ParameterError):
            WindowedAggregator((WindowSpec(0.002), WindowSpec(0.003)))

    def test_tumbling_frames_split_by_arrival_time(self):
        agg = WindowedAggregator((WindowSpec(0.01),))
        for rid, t in enumerate((0.001, 0.002, 0.013)):
            for event in _request_events(rid, arrive_s=t, respond_s=t + 1e-3):
                agg.emit(event)
        agg.finish()
        frames = agg.frames()
        assert [f.arrivals for f in frames] == [2, 1]
        assert [(f.start_s, f.end_s) for f in frames] == \
            [(0.0, 0.01), (0.01, 0.02)]
        assert all(f.complete for f in frames)
        first = frames[0]
        assert first.served == 2
        assert first.stages["e2e"].count == 2
        assert first.stages["e2e"].p50_ms == pytest.approx(1.0)
        assert first.arrival_rate == pytest.approx(200.0)

    def test_respond_lands_in_its_finish_window(self):
        # A request arriving at 9 ms and finishing at 11 ms is an
        # arrival of window [0, 10) but a serve of window [10, 20).
        agg = WindowedAggregator((WindowSpec(0.01),))
        for event in _request_events(0, arrive_s=0.009, respond_s=0.011):
            agg.emit(event)
        agg.finish()
        frames = agg.frames()
        assert [f.arrivals for f in frames] == [1, 0]
        assert [f.served for f in frames] == [0, 1]
        assert frames[1].stages["e2e"].p50_ms == pytest.approx(2.0)

    def test_sliding_windows_overlap(self):
        agg = WindowedAggregator((WindowSpec(0.02, 0.01, label="w"),))
        for rid, t in enumerate((0.001, 0.011, 0.021)):
            for event in _request_events(rid, arrive_s=t, respond_s=t):
                agg.emit(event)
        agg.finish()
        frames = agg.frames("w")
        # Ends at 10, 20, 30 ms; each 20 ms window sees two arrivals
        # except the first (half-open start before t=0).
        assert [f.arrivals for f in frames] == [1, 2, 2]
        assert frames[1].start_s == pytest.approx(0.0)
        assert frames[2].start_s == pytest.approx(0.01)

    def test_on_frame_streams_in_order(self):
        seen = []
        agg = WindowedAggregator((WindowSpec(0.01),),
                                 on_frame=lambda f: seen.append(f.end_s))
        for rid in range(4):
            t = rid * 0.01 + 0.001
            for event in _request_events(rid, arrive_s=t, respond_s=t):
                agg.emit(event)
        # The watermark at 31 ms has closed the first three windows;
        # the fourth needs the finish() flush.
        assert seen == pytest.approx([0.01, 0.02, 0.03])
        agg.finish()
        assert seen == pytest.approx([0.01, 0.02, 0.03, 0.04])
        assert len(agg) == 4

    def test_snapshot_includes_partial_window(self):
        agg = WindowedAggregator((WindowSpec(0.01),))
        for event in _request_events(0, arrive_s=0.002, respond_s=0.003):
            agg.emit(event)
        assert agg.frames() == ()
        frames = agg.snapshot()
        assert len(frames) == 1
        assert not frames[0].complete
        assert frames[0].arrivals == 1 and frames[0].served == 1

    def test_unknown_label_rejected(self):
        agg = WindowedAggregator((WindowSpec(0.01),))
        with pytest.raises(ParameterError):
            agg.frames("nope")

    def test_deadline_outcomes_per_tenant(self):
        agg = WindowedAggregator((WindowSpec(0.01),))
        events = (
            _request_events(0, arrive_s=0.001, respond_s=0.002, tenant="a",
                            deadline_s=0.005)            # met
            + _request_events(1, arrive_s=0.001, respond_s=0.009, tenant="a",
                              deadline_s=0.005)          # missed
            + _request_events(2, arrive_s=0.002, respond_s=0.003, tenant="b")
        )
        for event in events:
            agg.emit(event)
        # A shed deadline request counts as offered-and-missed.
        agg.emit(TraceEvent(phase="arrive", t_s=0.004, request_id=3,
                            tenant="a", attrs={"deadline_s": 0.006}))
        agg.emit(TraceEvent(phase="drop", t_s=0.004, request_id=3,
                            tenant="a", attrs={"reason": "queue_full"}))
        agg.finish()
        (frame,) = agg.frames()
        assert frame.deadline_offered == 3 and frame.deadline_met == 1
        assert frame.attainment == pytest.approx(1 / 3)
        a, b = frame.tenants["a"], frame.tenants["b"]
        assert (a.arrivals, a.served, a.dropped) == (3, 2, 1)
        assert (a.deadline_offered, a.deadline_met) == (3, 1)
        assert a.deadline_missed == 2
        assert a.attainment == pytest.approx(1 / 3)
        # No deadlines offered -> vacuous 100%, mirroring the report.
        assert b.attainment == 1.0 and b.miss_rate == 0.0

    def test_queue_depth_last_write_wins(self):
        agg = WindowedAggregator((WindowSpec(0.01),))
        t = 0.001
        for rid in range(3):  # three enqueues at the same instant
            agg.emit(TraceEvent(phase="arrive", t_s=t, request_id=rid))
            agg.emit(TraceEvent(phase="enqueue", t_s=t, request_id=rid))
        agg.emit(TraceEvent(phase="dispatch", t_s=0.002, batch_id=0,
                            attrs={"size": 2, "capacity": 4,
                                   "energy_nj": 10.0}))
        agg.finish()
        (frame,) = agg.frames()
        # The instant t=1ms settles at depth 3 (not three samples of
        # 1, 2, 3); the dispatch drains two.
        assert frame.queue_depth_max == 3
        assert frame.queue_depth_last == 1
        assert frame.batches == 1
        assert frame.batch_size == 2 and frame.batch_slots == 4
        assert frame.batch_occupancy == pytest.approx(0.5)
        assert frame.energy_nj == pytest.approx(10.0)

    def test_quiet_window_keeps_previous_depth(self):
        agg = WindowedAggregator((WindowSpec(0.01),))
        agg.emit(TraceEvent(phase="arrive", t_s=0.001, request_id=0))
        agg.emit(TraceEvent(phase="enqueue", t_s=0.001, request_id=0))
        # A quiet middle window, then another arrival far out.
        agg.emit(TraceEvent(phase="arrive", t_s=0.025, request_id=1))
        agg.finish()
        frames = agg.frames()
        assert [f.arrivals for f in frames] == [1, 0, 1]
        assert frames[1].queue_depth_last == 1  # carried forward

    def test_lane_busy_apportioned_across_buckets(self):
        agg = WindowedAggregator((WindowSpec(0.01),))
        agg.emit(TraceEvent(phase="arrive", t_s=0.001, request_id=0))
        agg.emit(TraceEvent(phase="lane_start", t_s=0.005, lane=0,
                            batch_id=0))
        agg.emit(TraceEvent(phase="lane_finish", t_s=0.015, lane=0,
                            batch_id=0))
        agg.emit(TraceEvent(phase="arrive", t_s=0.021, request_id=1))
        agg.finish()
        frames = agg.frames()
        assert frames[0].lane_busy_s == pytest.approx(0.005)
        assert frames[1].lane_busy_s == pytest.approx(0.005)
        assert frames[0].lanes == 1
        assert frames[0].lane_occupancy == pytest.approx(0.5)

    def test_inner_tracer_sees_every_event(self):
        inner = RecordingTracer()
        agg = WindowedAggregator((WindowSpec(0.01),), inner=inner)
        events = _request_events(0, arrive_s=0.001, respond_s=0.002)
        for event in events:
            agg.emit(event)
        agg.finish()
        assert inner.events == events

    def test_live_requests_tracks_in_flight(self):
        agg = WindowedAggregator((WindowSpec(0.01),))
        agg.emit(TraceEvent(phase="arrive", t_s=0.001, request_id=0))
        agg.emit(TraceEvent(phase="arrive", t_s=0.001, request_id=1))
        assert agg.live_requests == 2
        agg.emit(TraceEvent(phase="respond", t_s=0.002, request_id=0))
        agg.emit(TraceEvent(phase="drop", t_s=0.002, request_id=1))
        assert agg.live_requests == 0


class TestGoldenParity:
    """totals() vs the exact registry, plus report non-perturbation."""

    @pytest.fixture(scope="class", params=sorted(SCENARIO_BUILDERS))
    def traced(self, request):
        name = request.param
        agg = WindowedAggregator(
            (WindowSpec(0.002), WindowSpec(0.01, 0.002, label="slide")))
        report = SCENARIO_BUILDERS[name](tracer=agg)
        agg.finish()
        return name, agg, report

    def test_report_matches_golden(self, traced):
        # Attaching the aggregator must not perturb the replay: the
        # serialized report stays byte-identical to the checked-in
        # golden produced under a plain recording tracer.
        name, _, report = traced
        golden = golden_path(name).read_text().rstrip("\n")
        assert serialize_report(report) == golden

    def test_counts_exact(self, traced):
        _, agg, report = traced
        totals = agg.totals()
        registry = report.registry
        assert totals.served == report.count
        assert totals.served == registry.get("serve.requests").value
        assert totals.drops == len(report.drops)
        assert totals.arrivals == report.offered
        assert totals.batches == len(report.batches)
        slots = registry.get("sched.batch_slots")
        padded = registry.get("sched.padded_slots")
        assert totals.batch_slots == slots.value
        assert totals.batch_size == slots.value - padded.value
        offered = sum(
            inst.value
            for inst in registry.series("serve.deadline_offered"))
        met = sum(
            inst.value for inst in registry.series("serve.deadline_met"))
        assert totals.deadline_offered == offered
        assert totals.deadline_met == met
        assert totals.depth_max == report.max_queue_depth

    def test_float_sums_close(self, traced):
        # Accumulation order differs (per-bucket then merge vs one
        # left-to-right pass), so sums agree to 1e-9 relative.
        _, agg, report = traced
        totals = agg.totals()
        registry = report.registry
        energy = registry.get("serve.energy_total_nj")
        assert totals.energy_nj == pytest.approx(energy.value, rel=1e-9)
        assert totals.busy_s == pytest.approx(
            registry.get("sched.busy_s").value, rel=1e-9, abs=1e-12)
        latency = registry.get("serve.latency_ms")
        e2e = totals.stages["e2e"]
        assert e2e.count == latency.count
        assert e2e.total == pytest.approx(latency.sum, rel=1e-9)

    def test_quantiles_within_sketch_error(self, traced):
        _, agg, report = traced
        latency = report.registry.get("serve.latency_ms")
        e2e = agg.totals().stages["e2e"]
        for q in (50, 95, 99):
            exact = latency.percentile(q)
            assert abs(e2e.quantile(q) - exact) <= \
                exact * e2e.relative_error + 1e-12

    def test_tenant_totals_match_report(self, traced):
        _, agg, report = traced
        totals = agg.totals()
        by_tenant = {t.tenant: t for t in report.by_tenant}
        assert set(totals.tenants) == set(by_tenant)
        registry = report.registry
        for name, cell in totals.tenants.items():
            row = by_tenant[name]
            assert cell.served == row.served
            assert cell.dropped == row.dropped
            assert cell.served + cell.dropped == row.offered
            labels = {"tenant": name}
            offered = registry.get("serve.deadline_offered", labels)
            met = registry.get("serve.deadline_met", labels)
            assert cell.deadline_offered == \
                (offered.value if offered is not None else 0)
            assert cell.deadline_met == \
                (met.value if met is not None else 0)

    def test_sliding_and_tumbling_agree_in_total(self, traced):
        # Every tumbling frame's arrivals sum to the run's offered
        # count, and each sliding window end matches the sum of the
        # tumbling strides it covers.
        _, agg, report = traced
        tumbling = agg.frames()
        assert sum(f.arrivals for f in tumbling) == report.offered
        assert sum(f.served for f in tumbling) == report.count
        by_end = {f.end_s: f for f in tumbling}
        for frame in agg.frames("slide"):
            covered = [
                by_end[end].arrivals for end in
                (frame.start_s + (i + 1) * 0.002 for i in range(5))
                if end in by_end
            ]
            if len(covered) == 5:
                assert frame.arrivals == sum(covered)
