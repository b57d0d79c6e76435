"""Percentiles, aggregation invariants, and report formatting."""

import math

import pytest

from repro.errors import ParameterError
from repro.obs.registry import percentile
from repro.serve import BatchPolicy, ServingSimulator, format_serve_report
from repro.serve.metrics import DropRecord, aggregate


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 11))  # 1..10
        assert percentile(values, 50) == 5
        assert percentile(values, 95) == 10
        assert percentile(values, 99) == 10
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 10

    def test_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_single_element(self):
        assert percentile([42.0], 99) == 42.0

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            percentile([], 50)

    def test_bad_q_rejected(self):
        with pytest.raises(ParameterError):
            percentile([1.0], 101)


class TestAggregate:
    @pytest.fixture
    def report(self, tiny_pool, tiny_request):
        simulator = ServingSimulator(tiny_pool, BatchPolicy(max_wait_s=1e-3))
        trace = (
            [tiny_request(i, arrival_s=i * 2e-4) for i in range(6)]
            + [tiny_request(10 + i, op="intt", arrival_s=i * 2e-4) for i in range(3)]
        )
        return simulator.replay(trace)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            aggregate([], [], total_lanes=1, busy_s=0.0)

    def test_counts_and_span(self, report):
        assert report.count == 9
        assert report.throughput_rps == pytest.approx(9 / report.span_s)
        assert 0 < report.utilization <= 1
        assert 0 < report.mean_occupancy <= 1

    def test_by_kind_rows(self, report):
        kinds = [k.kind for k in report.by_kind]
        assert kinds == ["intt", "ntt", "all"]
        assert report.overall.kind == "all"
        assert sum(k.count for k in report.by_kind[:-1]) == report.count

    def test_padding_fraction(self, report):
        live = sum(b.size for b in report.batches)
        slots = sum(b.capacity for b in report.batches)
        assert report.padding_fraction == pytest.approx(1 - live / slots)

    def test_energy_conserved(self, report):
        per_request = sum(r.energy_nj for r in report.responses)
        assert per_request == pytest.approx(report.total_energy_nj)

    def test_percentiles_ordered(self, report):
        overall = report.overall
        assert overall.p50_ms <= overall.p95_ms <= overall.p99_ms

    def test_format(self, report):
        text = format_serve_report(report)
        assert "p50(ms)" in text and "p99(ms)" in text
        assert "engine utilization" in text
        assert "mean occupancy" in text
        for kind in ("intt", "ntt", "all"):
            assert any(line.startswith(kind) for line in text.splitlines())


def drop(request_id, *, tenant="t", arrival_s=0.0, reason="queue_full",
         had_deadline=True):
    return DropRecord(request_id=request_id, tenant=tenant, kind="ntt",
                      arrival_s=arrival_s, reason=reason,
                      had_deadline=had_deadline)


class TestOverloadEdgeCases:
    """Attainment and tenant stats when serving collapses entirely."""

    def test_all_deadline_traffic_dropped_is_zero_attainment(self):
        # Shedding 100% of the deadline traffic must read as 0%
        # attainment, never as a vacuous 100%.
        drops = [drop(i, arrival_s=i * 1e-3) for i in range(4)]
        report = aggregate([], [], total_lanes=2, busy_s=0.0, drops=drops)
        assert report.count == 0
        assert report.offered == 4
        assert report.drop_rate == 1.0
        assert report.slo_attainment == 0.0

    def test_all_dropped_span_is_the_drop_window(self):
        # With nothing served, the span falls back to the drop arrivals
        # (and survives a single-instant window via the epsilon floor).
        drops = [drop(i, arrival_s=0.2 + i * 0.1) for i in range(3)]
        report = aggregate([], [], total_lanes=2, busy_s=0.0, drops=drops)
        assert report.span_s == pytest.approx(0.2)
        assert report.throughput_rps == 0.0
        assert report.utilization == 0.0
        instant = aggregate([], [], total_lanes=1, busy_s=0.0,
                            drops=[drop(0), drop(1)])
        assert instant.span_s > 0  # no division by zero downstream

    def test_all_dropped_overall_row_is_zeroed(self):
        report = aggregate([], [], total_lanes=1, busy_s=0.0, drops=[drop(0)])
        assert [k.kind for k in report.by_kind] == ["all"]
        assert report.overall.count == 0
        assert report.overall.p99_ms == 0.0
        text = format_serve_report(report)
        assert "dropped 1/1" in text

    def test_tenant_with_zero_served_requests(self):
        # A tenant whose every request was shed still gets a stats row:
        # NaN latency/energy (no data, NOT a zero that reads as
        # "instant"), full drop accounting, 0% attainment.  The text
        # report renders the NaN cells as dashes and the serialized
        # report spells them null (NaN is not strict JSON).
        drops = [drop(i, tenant="shed") for i in range(3)]
        report = aggregate([], [], total_lanes=1, busy_s=0.0, drops=drops)
        (tenant,) = report.by_tenant
        assert tenant.tenant == "shed"
        assert (tenant.offered, tenant.served, tenant.dropped) == (3, 0, 3)
        assert tenant.drop_rate == 1.0
        assert math.isnan(tenant.mean_ms) and math.isnan(tenant.p99_ms)
        assert math.isnan(tenant.energy_per_request_nj)
        assert tenant.slo_attainment == 0.0
        text = format_serve_report(report)
        (row,) = [line for line in text.splitlines()
                  if line.startswith("shed")]
        assert "nan" not in row and row.count("-") >= 3
        import json

        from repro.serve import serialize_report

        payload = json.loads(serialize_report(report))
        (trow,) = payload["by_tenant"]
        assert trow["mean_ms"] is None and trow["p99_ms"] is None

    def test_best_effort_drops_do_not_fake_attainment(self):
        # Dropped requests that never carried a deadline leave
        # attainment at its vacuous 1.0 — only deadline traffic counts.
        drops = [drop(0, had_deadline=False), drop(1, had_deadline=False)]
        report = aggregate([], [], total_lanes=1, busy_s=0.0, drops=drops)
        assert report.slo_attainment == 1.0
        (tenant,) = report.by_tenant
        assert tenant.slo_attainment == 1.0

    def test_mixed_tenants_one_all_dropped(self, tiny_pool, tiny_request):
        # End-to-end shape: tenant "b"'s only request is shed while the
        # served tenant ("ntt", the request's default) keeps its row;
        # b's row must not inherit the served tenant's latency numbers.
        simulator = ServingSimulator(tiny_pool, BatchPolicy(max_wait_s=1e-3))
        report = simulator.replay([tiny_request(0)])
        merged = aggregate(
            report.responses, report.batches, total_lanes=2,
            busy_s=0.0, drops=[drop(99, tenant="b")],
        )
        stats = {t.tenant: t for t in merged.by_tenant}
        assert stats["ntt"].served == 1 and stats["ntt"].dropped == 0
        assert stats["b"].served == 0 and stats["b"].dropped == 1
        assert math.isnan(stats["b"].mean_ms)
        assert stats["ntt"].mean_ms > 0.0


class TestTimelineEdges:
    """Queue-depth and occupancy corners, pinned against the registry
    rewrite: the report must stay a faithful view over the instruments
    even when nothing was admitted or a lane has exactly one slot."""

    def test_zero_admitted_requests_keep_the_depth_timeline(self):
        # Every request shed at admission: the queue never forms, but
        # the sampled depth trajectory still belongs in the report.
        depth = [(0.0, 1), (1e-3, 2), (2e-3, 0)]
        report = aggregate(
            [], [], total_lanes=1, busy_s=0.0,
            drops=[drop(i, arrival_s=i * 1e-3) for i in range(3)],
            queue_depth=depth,
        )
        assert report.queue_depth == depth
        assert report.max_queue_depth == 2
        gauge = report.registry.get("sched.queue_depth")
        assert gauge is not None and gauge.samples == depth
        assert report.registry.get("serve.requests") is None
        assert report.throughput_rps == 0.0
        assert report.overall.count == 0

    def test_zero_admitted_empty_timeline(self):
        report = aggregate([], [], total_lanes=1, busy_s=0.0,
                           drops=[drop(0)])
        assert report.queue_depth == []
        assert report.max_queue_depth == 0

    def test_simulator_depth_samples_win_over_backfill(self):
        # The simulator samples its own gauge during the replay; a
        # late queue_depth= argument must not overwrite that timeline.
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        registry.gauge("sched.queue_depth").sample(0.0, 7)
        report = aggregate(
            [], [], total_lanes=1, busy_s=0.0, drops=[drop(0)],
            queue_depth=[(0.0, 1)], registry=registry,
        )
        assert report.queue_depth == [(0.0, 7)]
        assert report.max_queue_depth == 7

    def test_capacity_one_batch_occupancy(self):
        # A one-slot invocation is always fully occupied — the
        # occupancy histogram must observe exactly 1.0, no padding.
        from repro.serve.metrics import BatchRecord

        batch = BatchRecord(batch_id=0, key=("p", "ntt", None), size=1,
                            capacity=1, dispatched_s=0.0, start_s=0.0,
                            finish_s=1e-3, lane=0, energy_nj=5.0)
        assert batch.occupancy == 1.0
        report = aggregate([], [batch], total_lanes=1, busy_s=1e-3,
                           drops=[drop(0)])
        assert report.mean_occupancy == 1.0
        assert report.padding_fraction == 0.0
        hist = report.registry.get("sched.batch_occupancy")
        assert hist.values == [1.0]
        assert report.registry.get("sched.padded_slots").value == 0
        assert report.registry.get("sched.batch_slots").value == 1


class TestSerializeWork:
    """``serialize_report`` summarizes each distinct batch key once."""

    def test_each_distinct_key_is_summarized_once(self, tiny_pool,
                                                  tiny_request, monkeypatch):
        from repro.serve import metrics

        operands = [[(5 * k + i) % 97 for i in range(16)] for k in range(2)]
        # Each request builds its own key object from a fresh operand
        # tuple; only the values repeat.
        trace = [tiny_request(i, op="polymul", operand=list(operands[i % 2]),
                              arrival_s=i * 1e-4) for i in range(12)]
        trace += [tiny_request(i, arrival_s=i * 1e-4) for i in range(12, 16)]
        assert len({id(r.batch_key) for r in trace}) == len(trace)
        report = ServingSimulator(
            tiny_pool, BatchPolicy(max_wait_s=1e-3)).replay(trace)
        expected = metrics.serialize_report(report)
        summarized = []
        summarize = metrics._key_summary

        def counting(key):
            summarized.append(key)
            return summarize(key)

        monkeypatch.setattr(metrics, "_key_summary", counting)
        assert metrics.serialize_report(report) == expected
        assert len(summarized) == len(set(summarized)) == 3
        assert set(summarized) == {r.batch_key for r in trace}
        # A second call summarizes afresh: nothing is cached across calls.
        metrics.serialize_report(report)
        assert len(summarized) == 6
