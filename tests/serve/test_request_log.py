"""The request log: each served request recorded once, as columns.

A replay appends one row per served request to a
:class:`~repro.serve.metrics.RequestLog` at dispatch; ``aggregate``
fills the per-request ``serve.*`` series from it, and
``report.responses`` builds a :class:`Response` only when read.  The
oracles here are today's per-request recording, written out as a
test-local reference (every request observed into every series in
record order), today's payload dict dumped by the stdlib ``json``, and
the ``respond`` events of a traced replay.
"""

import json
import math
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ntt.params import STANDARD_PARAMS, NTTParams
from repro.obs import RecordingTracer
from repro.obs.exporters import format_prometheus
from repro.obs.registry import Histogram, MetricsRegistry
from repro.serve import (
    BatchPolicy,
    EnginePool,
    PoolConfig,
    ReplayConfig,
    ServingSimulator,
)
from repro.serve import config as config_module
from repro.serve import request as request_module
from repro.serve.metrics import (
    _key_summary,
    aggregate,
    format_serve_report,
    serialize_report,
)
from repro.serve.request import Request, Response

RING = "tiny-request-log"
RING_N = 16
RING_Q = 97
KINDS = ("k0", "k1")
TENANTS = ("t0", "t1", "t2")
OPERANDS = (None, 0, 1)
GAPS_S = (0.0, 0.0, 1e-6, 5e-6, 5e-5, 2e-4)
DEADLINES_S = (None, 2e-6, 1e-5, 1e-4, 1e-3)
SCHEDULERS = ("fifo", "slo", "adaptive", "cluster:fifo")
#: The series a served request is recorded into.
PER_REQUEST = frozenset({
    "serve.requests", "serve.latency_ms", "serve.queue_s",
    "serve.service_s", "serve.energy_nj", "serve.tenant_served",
    "serve.tenant_latency_ms", "serve.tenant_energy_nj",
    "serve.deadline_offered", "serve.deadline_met",
})


def operand(key: int) -> tuple:
    return tuple((key * 5 + j * 3 + 1) % RING_Q for j in range(RING_N))


@pytest.fixture(scope="module")
def pool():
    STANDARD_PARAMS[RING] = NTTParams(n=RING_N, q=RING_Q,
                                      name="request log ring")
    yield EnginePool(PoolConfig(size=2, rows=32, cols=32))
    STANDARD_PARAMS.pop(RING, None)


def make_trace(draws) -> list:
    trace, t_s = [], 0.0
    for i, (gap, key, kind, tenant, budget) in enumerate(draws):
        t_s += gap
        trace.append(Request(
            request_id=i, op="ntt" if key is None else "polymul",
            params_name=RING,
            payload=tuple((i * 7 + j) % RING_Q for j in range(RING_N)),
            operand=None if key is None else operand(key),
            arrival_s=t_s, kind=kind, tenant=tenant,
            deadline_s=None if budget is None else t_s + budget))
    return trace


traces = st.lists(
    st.tuples(st.sampled_from(GAPS_S), st.sampled_from(OPERANDS),
              st.sampled_from(KINDS), st.sampled_from(TENANTS),
              st.sampled_from(DEADLINES_S)),
    min_size=1, max_size=40).map(make_trace)


def replay(pool, scheduler, trace, *, tracer=None):
    options = {"chips": 2} if scheduler.startswith("cluster:") else {}
    if scheduler in ("slo", "cluster:slo"):
        options["queue_limit"] = 4
    simulator = ServingSimulator(pool, BatchPolicy(max_wait_s=2e-5),
                                 scheduler=scheduler,
                                 scheduler_options=options)
    return simulator.replay(trace, tracer=tracer)


def reference_registry(report) -> MetricsRegistry:
    """The per-request series as observing each request in turn fills them."""
    registry = MetricsRegistry()
    for r in report.responses:
        request = r.request
        latency_ms = (r.finish_s - request.arrival_s) * 1e3
        queue_s = r.start_s - request.arrival_s
        service_s = r.finish_s - r.start_s
        for labels in (None, {"kind": request.kind}):
            registry.counter("serve.requests", labels).inc()
            for name, value in (("latency_ms", latency_ms),
                                ("queue_s", queue_s),
                                ("service_s", service_s),
                                ("energy_nj", r.energy_nj)):
                registry.histogram(f"serve.{name}", labels).observe(value)
        tenant = {"tenant": request.tenant}
        registry.counter("serve.tenant_served", tenant).inc()
        registry.histogram("serve.tenant_latency_ms", tenant).observe(
            latency_ms)
        registry.histogram("serve.tenant_energy_nj", tenant).observe(
            r.energy_nj)
        if request.deadline_s is not None:
            registry.counter("serve.deadline_offered", tenant).inc()
            if r.finish_s <= request.deadline_s:
                registry.counter("serve.deadline_met", tenant).inc()
    for d in report.drops:
        if d.had_deadline:
            registry.counter("serve.deadline_offered",
                             {"tenant": d.tenant}).inc()
    return registry


def per_request_part(registry: MetricsRegistry) -> MetricsRegistry:
    part = MetricsRegistry()
    for inst in registry.collect():
        if inst.name in PER_REQUEST:
            part._instruments[inst.name, inst.labels] = inst
    return part


def bits(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def today_payload(report) -> dict:
    """The payload dict ``serialize_report`` dumped before the log."""
    def jsonable(value):
        if isinstance(value, (list, tuple)):
            return [jsonable(v) for v in value]
        if isinstance(value, dict):
            return {str(k): jsonable(v) for k, v in value.items()}
        if isinstance(value, float) and value != value:
            return None
        return value

    fields = ("batch_id", "key", "size", "capacity", "dispatched_s",
              "start_s", "finish_s", "lane", "energy_nj")
    return {
        "scheduler": report.scheduler,
        "span_s": report.span_s,
        "throughput_rps": report.throughput_rps,
        "utilization": report.utilization,
        "mean_occupancy": report.mean_occupancy,
        "padding_fraction": report.padding_fraction,
        "total_energy_nj": report.total_energy_nj,
        "count": report.count,
        "offered": report.offered,
        "drop_rate": report.drop_rate,
        "slo_attainment": report.slo_attainment,
        "max_queue_depth": report.max_queue_depth,
        "queue_depth": jsonable(list(report.queue_depth)),
        "by_kind": [jsonable(vars(k)) for k in report.by_kind],
        "by_tenant": [jsonable(vars(t)) for t in report.by_tenant],
        "drops": [jsonable(asdict(d)) for d in report.drops],
        "batches": [
            jsonable({**{name: getattr(b, name) for name in fields},
                      "key": _key_summary(b.key)})
            for b in report.batches
        ],
        **({"alerts": [jsonable(vars(a)) for a in report.alerts]}
           if report.alerts else {}),
        "responses": [
            {
                "request_id": r.request.request_id,
                "kind": r.request.kind,
                "tenant": r.request.tenant,
                "key": _key_summary(r.request.batch_key),
                "start_s": r.start_s,
                "finish_s": r.finish_s,
                "energy_nj": r.energy_nj,
                "engine_index": r.engine_index,
                "batch_size": r.batch_size,
                "batch_padding": r.batch_padding,
            }
            for r in report.responses
        ],
    }


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scheduler=st.sampled_from(SCHEDULERS), trace=traces)
def test_log_filled_series_equal_per_request_observation(pool, scheduler,
                                                          trace):
    report = replay(pool, scheduler, trace)
    registry, reference = report.registry, reference_registry(report)
    names = [(inst.name, inst.labels) for inst in registry.collect()
             if inst.name in PER_REQUEST]
    assert names == [(inst.name, inst.labels)
                     for inst in reference.collect()]
    for name, labels in names:
        inst = registry.get(name, dict(labels))
        want = reference.get(name, dict(labels))
        if isinstance(want, Histogram):
            assert inst.count == want.count
            assert bits(inst.sum) == bits(want.sum)
            assert list(inst.values) == want.values
            assert [bits(p) for p in inst.percentiles(50, 95, 99)] == \
                [bits(want.percentile(q)) for q in (50, 95, 99)]
            assert inst.bucket_counts() == want.bucket_counts()
        else:
            assert bits(inst.value) == bits(want.value)
    assert format_prometheus(per_request_part(registry)) == \
        format_prometheus(reference)
    # The canonical text is the stdlib dump of today's payload dict.
    assert serialize_report(report) == json.dumps(
        today_payload(report), indent=2, sort_keys=True)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_responses_equal_the_list_the_respond_events_describe(pool,
                                                              scheduler):
    trace = make_trace([(gap, key, kind, tenant, None)
                        for gap, key, kind, tenant in zip(
                            GAPS_S * 4, OPERANDS * 8, KINDS * 12,
                            TENANTS * 8)])
    tracer = RecordingTracer()
    report = replay(pool, scheduler, trace, tracer=tracer)
    by_id = {request.request_id: request for request in trace}
    expected = [
        Response(request=by_id[e.request_id], result=(), start_s=e.attrs[
            "start_s"], finish_s=e.t_s, energy_nj=e.attrs["energy_nj"],
            engine_index=e.lane, batch_size=e.attrs["batch_size"],
            batch_padding=report.responses[index].batch_padding)
        for index, e in enumerate(tracer.by_phase("respond"))
    ]
    assert report.responses == expected and expected == report.responses
    assert list(report.responses) == expected
    assert report.responses[-1] == expected[-1]
    assert report.responses[1:4] == expected[1:4]
    with pytest.raises(IndexError):
        report.responses[len(expected)]
    # A standalone list aggregates to the same report.
    lanes = report.registry.get("sched.lanes").value
    again = aggregate(list(report.responses), report.batches,
                      total_lanes=lanes,
                      busy_s=report.registry.get("sched.busy_s").value,
                      drops=report.drops, queue_depth=report.queue_depth,
                      scheduler=report.scheduler)
    assert again == report
    assert serialize_report(again) == serialize_report(report)


def test_reports_build_responses_only_when_read(pool, monkeypatch):
    built = []
    init = Response.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Response, "__init__", counting)
    trace = make_trace([(gap, key, kind, tenant, budget)
                        for gap, key, kind, tenant, budget in zip(
                            GAPS_S * 4, OPERANDS * 8, KINDS * 12,
                            TENANTS * 8, DEADLINES_S * 5)])
    report = replay(pool, "slo", trace)
    serialize_report(report)
    format_serve_report(report)
    assert math.isfinite(report.slo_attainment)
    assert report.count and built == []
    response = report.responses[report.count // 2]
    assert len(built) == 1
    assert response.result is not None and len(built) == 1


def test_a_histogram_view_turns_into_a_list_when_observed(pool):
    report = replay(pool, "fifo", make_trace([(0.0, None, "k0", "t0", None)]
                                             * 3))
    latency = report.registry.histogram("serve.latency_ms")
    values = list(latency.values)
    latency.observe(1.5)
    assert latency.values == values + [1.5]
    assert type(latency.values) is list


def test_the_slo_overlay_shares_packed_words_and_keys(monkeypatch):
    base = ReplayConfig(scenario="kyber", rate=2000.0, duration=0.01,
                        seed=3)
    trace = base.build_trace()
    monkeypatch.setattr(config_module, "poisson_trace",
                        lambda *args, **kwargs: list(trace))
    overlaid = ReplayConfig(scenario="kyber", rate=2000.0, duration=0.01,
                            seed=3, slo_ms=2.0).build_trace()
    assert len(overlaid) == len(trace)
    for before, after in zip(trace, overlaid):
        assert after._packed is before._packed
        assert after.batch_key is before.batch_key
        assert after.deadline_s == before.arrival_s + 2.0 * 1e-3
        assert after.payload == before.payload
        assert after == Request(
            request_id=before.request_id, op=before.op,
            params_name=before.params_name, payload=before.payload,
            operand=before.operand, arrival_s=before.arrival_s,
            kind=before.kind, tenant=before.tenant,
            deadline_s=after.deadline_s)


def test_the_slo_overlay_decodes_nothing(monkeypatch):
    decoded = []
    unpack = request_module.unpack_words

    def counting(*args):
        decoded.append(1)
        return unpack(*args)

    monkeypatch.setattr(request_module, "unpack_words", counting)
    ReplayConfig(scenario="kyber", rate=2000.0, duration=0.01, seed=3,
                 slo_ms=2.0).build_trace()
    assert decoded == []
