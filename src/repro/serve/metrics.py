"""Aggregation and report formatting for serving runs.

Per-request latencies aggregate into the numbers a serving system is
judged by: tail percentiles (nearest-rank p50/p95/p99), throughput,
engine utilization, batch occupancy and energy per request — plus,
since schedulers arrived (``repro.sched``), the overload numbers: the
drop set and drop rate, SLO attainment against per-request deadlines,
per-tenant breakdowns, and the queue-depth timeline.  The text report
follows the fixed-width style of
:func:`repro.analysis.tables.format_table1` so serve output sits next
to the paper artifacts.

Every number flows through a :class:`~repro.obs.registry.MetricsRegistry`:
a :class:`MetricsRecorder` records each response, drop and batch into
labeled instruments at dispatch, and :func:`aggregate` computes the
report *from the instruments* — the :class:`ServeReport` is a view over
the registry it carries, which the Prometheus exporter dumps.  The
instruments keep left-to-right sums and raw-value nearest-rank
percentiles, so the numbers equal the plain list arithmetic exactly.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ParameterError
from repro.obs.registry import Histogram, Instrument, MetricsRegistry
from repro.obs.slo import Alert, format_alerts
from repro.serve.request import Request, Response
from repro.utils import jsonout


@dataclass(frozen=True)
class BatchRecord:
    """One dispatched batch, as the simulator saw it."""

    batch_id: int
    key: tuple
    size: int
    capacity: int
    dispatched_s: float
    start_s: float
    finish_s: float
    lane: int
    energy_nj: float

    @property
    def occupancy(self) -> float:
        """Live fraction of the invocation's slots."""
        return self.size / self.capacity


@dataclass(frozen=True)
class DropRecord:
    """One request the scheduler refused, and why.

    ``had_deadline`` records whether the request carried an SLO — a
    shed deadline request counts as a *missed* SLO in attainment, so
    dropping all the deadline traffic cannot read as 100% attainment.
    """

    request_id: int
    tenant: str
    kind: str
    arrival_s: float
    reason: str
    had_deadline: bool = False


@dataclass(frozen=True)
class KindStats:
    """Latency/energy aggregate for one traffic kind."""

    kind: str
    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_queue_ms: float
    mean_service_ms: float
    energy_per_request_nj: float


@dataclass(frozen=True)
class TenantStats:
    """Serving outcome for one tenant: volume, drops, tail, attainment."""

    tenant: str
    offered: int
    served: int
    dropped: int
    mean_ms: float
    p99_ms: float
    slo_attainment: float
    energy_per_request_nj: float

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0


@dataclass(frozen=True)
class ServeReport:
    """Everything :class:`~repro.serve.simulator.ServingSimulator` measured."""

    responses: List[Response]
    batches: List[BatchRecord]
    span_s: float
    throughput_rps: float
    utilization: float
    mean_occupancy: float
    padding_fraction: float
    total_energy_nj: float
    by_kind: List[KindStats]
    drops: List[DropRecord] = field(default_factory=list)
    by_tenant: List[TenantStats] = field(default_factory=list)
    queue_depth: List[Tuple[float, int]] = field(default_factory=list)
    scheduler: str = "fifo"
    #: SLO burn-rate alerts fired during the replay (populated only
    #: when an :class:`~repro.obs.slo.SLOTracer` watched the run).
    alerts: List[Alert] = field(default_factory=list)
    #: The instruments every scalar above was computed from.  Excluded
    #: from equality: two replays are the same replay when their
    #: measured numbers agree, whichever registry they flowed through.
    registry: Optional[MetricsRegistry] = field(
        default=None, compare=False, repr=False
    )

    @property
    def count(self) -> int:
        return len(self.responses)

    @property
    def offered(self) -> int:
        """Requests the trace presented: served plus dropped."""
        return len(self.responses) + len(self.drops)

    @property
    def drop_rate(self) -> float:
        return len(self.drops) / self.offered if self.offered else 0.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of deadline-carrying requests that finished on time.

        Dropped deadline requests count as misses (shed load is not
        met load).  ``1.0`` when no request carried a deadline.
        """
        served = [r for r in self.responses if r.request.deadline_s is not None]
        offered = len(served) + sum(1 for d in self.drops if d.had_deadline)
        if not offered:
            return 1.0
        met = sum(1 for r in served if r.finish_s <= r.request.deadline_s)
        return met / offered

    @property
    def max_queue_depth(self) -> int:
        return max((depth for _, depth in self.queue_depth), default=0)

    @property
    def overall(self) -> KindStats:
        """The all-traffic row (always last in ``by_kind``)."""
        return self.by_kind[-1]


class MetricsRecorder:
    """Keeps a replay's records and records each into the registry.

    The simulator hands every drop and batch over as it happens, and
    every served request at dispatch (:meth:`served`), keeping its
    :class:`Response` once the event loop is done; :func:`aggregate` feeds
    standalone record lists through :meth:`response` and the rest.
    Each ``(name, labels)`` handle is resolved once, on first use, so a
    series exists only once something was recorded into it, and
    :meth:`served` resolves its handles once per ``(kind, tenant)``.
    Observation order is record order, so every histogram's running
    sum reproduces ``sum(list)`` float-for-float.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = MetricsRegistry() if registry is None else registry
        self.responses: List[Response] = []
        self.batches: List[BatchRecord] = []
        self.drops: List[DropRecord] = []
        self._handles: Dict[tuple, Instrument] = {}
        # (kind, tenant) -> the bound inc/observe methods served() calls.
        self._served: Dict[Tuple[str, str], tuple] = {}

    def _handle(self, factory: str, name: str, label: str = "", value=None):
        handle = self._handles.get((name, label, value))
        if handle is None:
            handle = self._handles[name, label, value] = getattr(
                self.registry, factory)(name, {label: value} if label else None)
        return handle

    def response(self, r: Response) -> None:
        self.responses.append(r)
        self.served(r.request, r.start_s, r.finish_s, r.energy_nj)

    def served(self, request: Request, start_s: float, finish_s: float,
               energy_nj: float) -> None:
        """Record a served request into the registry alone.

        The simulator calls this at dispatch and keeps the
        :class:`Response` once the event loop is done; :meth:`response` does
        both at once.  The timings are :class:`Response`'s properties,
        computed the same way.
        """
        tenant = request.tenant
        handles = self._served.get((request.kind, tenant))
        if handles is None:
            handles = self._served_handles(request.kind, tenant)
        counters, latency, queue, service, energy = handles
        latency_ms = (finish_s - request.arrival_s) * 1e3
        queue_s = start_s - request.arrival_s
        service_s = finish_s - start_s
        for inc in counters:
            inc()
        for observe in latency:
            observe(latency_ms)
        for observe in queue:
            observe(queue_s)
        for observe in service:
            observe(service_s)
        for observe in energy:
            observe(energy_nj)
        if request.deadline_s is not None:
            self._handle("counter", "serve.deadline_offered", "tenant",
                         tenant).inc()
            if finish_s <= request.deadline_s:
                self._handle("counter", "serve.deadline_met", "tenant",
                             tenant).inc()

    def _served_handles(self, kind: str, tenant: str) -> tuple:
        """The bound ``inc``/``observe`` methods :meth:`served` calls for
        one ``(kind, tenant)``, grouped by the value each takes.

        Each new series registers here, when the pair's first request
        is served, in the order named below: series order follows first
        use, as everywhere else in the recorder.
        """
        handle = self._handle
        # One row per label, transposed into one tuple per value.
        counters, latency, queue, service, energy = zip(*(
            (handle("counter", "serve.requests", *label).inc,
             *(handle("histogram", f"serve.{name}", *label).observe
               for name in ("latency_ms", "queue_s", "service_s",
                            "energy_nj")))
            for label in (("", None), ("kind", kind))))
        served, tenant_latency, tenant_energy = (
            handle(factory, f"serve.tenant_{name}", "tenant", tenant)
            for factory, name in (("counter", "served"),
                                  ("histogram", "latency_ms"),
                                  ("histogram", "energy_nj")))
        handles = self._served[kind, tenant] = (
            (*counters, served.inc), (*latency, tenant_latency.observe),
            queue, service, (*energy, tenant_energy.observe))
        return handles

    def drop(self, d: DropRecord) -> None:
        self.drops.append(d)
        self._handle("counter", "serve.dropped").inc()
        self._handle("counter", "serve.dropped", "reason", d.reason).inc()
        self._handle("counter", "serve.tenant_dropped", "tenant", d.tenant).inc()
        if d.had_deadline:
            # A shed deadline request is an offered-and-missed SLO.
            self._handle("counter", "serve.deadline_offered", "tenant",
                         d.tenant).inc()

    def batch(self, b: BatchRecord) -> None:
        self.batches.append(b)
        handle = self._handle
        handle("counter", "sched.batches").inc()
        handle("counter", "sched.batches", "lane", b.lane).inc()
        handle("histogram", "sched.batch_occupancy").observe(b.occupancy)
        handle("counter", "sched.padded_slots").inc(b.capacity - b.size)
        handle("counter", "sched.batch_slots").inc(b.capacity)
        handle("counter", "serve.energy_total_nj").inc(b.energy_nj)


def _kind_view(registry: MetricsRegistry, kind: str,
               labels: Optional[Dict[str, str]]) -> KindStats:
    """One ``by_kind`` row, read entirely from the instruments."""
    lat = registry.histogram("serve.latency_ms", labels)
    queue = registry.histogram("serve.queue_s", labels)
    service = registry.histogram("serve.service_s", labels)
    energy = registry.histogram("serve.energy_nj", labels)
    def mean_of(histogram: Histogram, scale: float = 1.0) -> float:
        # NaN, not a crash, for a zero-observation series.
        if not histogram.count:
            return float("nan")
        return histogram.sum / histogram.count * scale

    return KindStats(
        kind=kind,
        count=lat.count,
        mean_ms=mean_of(lat),
        p50_ms=lat.percentile(50),
        p95_ms=lat.percentile(95),
        p99_ms=lat.percentile(99),
        mean_queue_ms=mean_of(queue, 1e3),
        mean_service_ms=mean_of(service, 1e3),
        energy_per_request_nj=mean_of(energy),
    )


def _tenant_view(registry: MetricsRegistry, tenant: str) -> TenantStats:
    """One ``by_tenant`` row, read entirely from the instruments."""
    labels = {"tenant": tenant}

    def count_of(name: str) -> int:
        inst = registry.get(name, labels)
        return int(inst.value) if inst is not None else 0

    served = count_of("serve.tenant_served")
    dropped = count_of("serve.tenant_dropped")
    offered_deadlines = count_of("serve.deadline_offered")
    met = count_of("serve.deadline_met")
    lat = registry.get("serve.tenant_latency_ms", labels)
    energy = registry.get("serve.tenant_energy_nj", labels)
    return TenantStats(
        tenant=tenant,
        offered=served + dropped,
        served=served,
        dropped=dropped,
        mean_ms=(lat.sum / served if isinstance(lat, Histogram) and served
                 else float("nan")),
        p99_ms=(lat.percentile(99) if isinstance(lat, Histogram)
                else float("nan")),
        slo_attainment=(met / offered_deadlines if offered_deadlines else 1.0),
        energy_per_request_nj=(
            energy.sum / served
            if isinstance(energy, Histogram) and served else float("nan")
        ),
    )


def aggregate(responses: List[Response], batches: List[BatchRecord], *,
              total_lanes: int, busy_s: float,
              drops: Sequence[DropRecord] = (),
              queue_depth: Sequence[Tuple[float, int]] = (),
              scheduler: str = "fifo",
              alerts: Sequence[Alert] = (),
              registry: Optional[MetricsRegistry] = None,
              recorder: Optional[MetricsRecorder] = None) -> ServeReport:
    """Roll a replay's raw records up into a :class:`ServeReport`.

    ``recorder`` has already recorded the records as they happened (the
    simulator's, queue-depth gauge included); without one, a fresh
    recorder over ``registry`` (a new one when not given) records them
    here, in list order.  Every report number is then computed *from
    the instruments*, so the returned report is a view over the
    registry it carries.
    """
    drops = list(drops)
    if not responses and not drops:
        raise ParameterError("cannot aggregate an empty replay")
    if responses:
        first_arrival = min(r.request.arrival_s for r in responses)
        last_finish = max(r.finish_s for r in responses)
    else:
        # Everything was dropped: the span is the drop window.
        first_arrival = min(d.arrival_s for d in drops)
        last_finish = max(d.arrival_s for d in drops)
    span = max(last_finish - first_arrival, 1e-12)
    if recorder is None:
        recorder = MetricsRecorder(registry)
        for records, record in ((responses, recorder.response),
                                (drops, recorder.drop), (batches, recorder.batch)):
            for item in records:
                record(item)
    registry = recorder.registry
    registry.gauge("sched.lanes").set(total_lanes)
    registry.gauge("sched.busy_s").set(busy_s)
    registry.gauge("serve.span_s").set(span)
    depth = registry.gauge("sched.queue_depth")
    if not depth.samples:
        # A recorder's gauge is already populated and wins untouched.
        for t_s, value in queue_depth:
            depth.sample(t_s, value)
    kinds = sorted(registry.label_values("serve.latency_ms", "kind"))
    by_kind = [_kind_view(registry, kind, {"kind": kind}) for kind in kinds]
    by_kind.append(
        _kind_view(registry, "all", None) if responses
        else KindStats("all", 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    )
    tenants = sorted(
        set(registry.label_values("serve.tenant_served", "tenant"))
        | set(registry.label_values("serve.tenant_dropped", "tenant"))
    )
    by_tenant = [_tenant_view(registry, tenant) for tenant in tenants]
    occupancy = registry.get("sched.batch_occupancy")
    padded = registry.get("sched.padded_slots")
    slots = registry.get("sched.batch_slots")
    energy_total = registry.get("serve.energy_total_nj")
    utilization = busy_s / (total_lanes * span)
    throughput = len(responses) / span
    registry.gauge("serve.utilization").set(utilization)
    registry.gauge("serve.throughput_rps").set(throughput)
    return ServeReport(
        responses=responses,
        batches=batches,
        span_s=span,
        throughput_rps=throughput,
        utilization=utilization,
        mean_occupancy=(
            occupancy.sum / occupancy.count
            if isinstance(occupancy, Histogram) and occupancy.count else 0.0
        ),
        padding_fraction=(
            padded.value / slots.value
            if padded is not None and slots is not None and slots.value
            else 0.0
        ),
        total_energy_nj=energy_total.value if energy_total is not None else 0.0,
        by_kind=by_kind,
        drops=drops,
        by_tenant=by_tenant,
        queue_depth=list(registry.gauge("sched.queue_depth").samples),
        scheduler=scheduler,
        alerts=list(alerts),
        registry=registry,
    )


def _fmt_stat(value: float, width: int, digits: int = 3) -> str:
    """One numeric table cell; a dash for NaN (zero-observation series)."""
    if value != value:
        return f"{'-':>{width}}"
    return f"{value:>{width}.{digits}f}"


def format_serve_report(report: ServeReport) -> str:
    """Render the serving report as a fixed-width text table."""
    header = (
        f"{'Kind':<10} {'Count':>6} {'Mean(ms)':>9} {'p50(ms)':>8} "
        f"{'p95(ms)':>8} {'p99(ms)':>8} {'Queue(ms)':>10} "
        f"{'Svc(ms)':>8} {'E/req(nJ)':>10}"
    )
    lines = [header, "-" * len(header)]
    for k in report.by_kind:
        lines.append(
            f"{k.kind:<10} {k.count:>6} {_fmt_stat(k.mean_ms, 9)} "
            f"{_fmt_stat(k.p50_ms, 8)} {_fmt_stat(k.p95_ms, 8)} "
            f"{_fmt_stat(k.p99_ms, 8)} {_fmt_stat(k.mean_queue_ms, 10)} "
            f"{_fmt_stat(k.mean_service_ms, 8)} "
            f"{_fmt_stat(k.energy_per_request_nj, 10, 2)}"
        )
    lines.append("")
    lines.append(
        f"served {report.count} requests in {report.span_s * 1e3:.2f} ms "
        f"({report.throughput_rps:,.0f} req/s)"
    )
    lines.append(
        f"batches: {len(report.batches)}  mean occupancy "
        f"{report.mean_occupancy:.1%}  padding {report.padding_fraction:.1%}"
    )
    lines.append(
        f"engine utilization {report.utilization:.1%}  total energy "
        f"{report.total_energy_nj / 1e3:.2f} uJ"
    )
    has_deadlines = any(r.request.deadline_s is not None for r in report.responses)
    if report.drops or has_deadlines:
        lines.append("")
        lines.append(
            f"scheduler {report.scheduler}: dropped {len(report.drops)}/"
            f"{report.offered} ({report.drop_rate:.1%})  "
            f"SLO attainment {report.slo_attainment:.1%}  "
            f"max queue depth {report.max_queue_depth}"
        )
        tenant_header = (
            f"{'Tenant':<12} {'Offered':>7} {'Served':>6} {'Dropped':>7} "
            f"{'Mean(ms)':>9} {'p99(ms)':>8} {'Attain':>7} {'E/req(nJ)':>10}"
        )
        lines.append(tenant_header)
        lines.append("-" * len(tenant_header))
        for t in report.by_tenant:
            lines.append(
                f"{t.tenant:<12} {t.offered:>7} {t.served:>6} {t.dropped:>7} "
                f"{_fmt_stat(t.mean_ms, 9)} {_fmt_stat(t.p99_ms, 8)} "
                f"{t.slo_attainment:>7.1%} "
                f"{_fmt_stat(t.energy_per_request_nj, 10, 2)}"
            )
    if report.alerts:
        active = sum(1 for a in report.alerts if a.active)
        lines.append("")
        lines.append(
            f"SLO alerts: {len(report.alerts)} fired, {active} still active"
        )
        lines.append(format_alerts(report.alerts))
    return "\n".join(lines)


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, float) and value != value:
        return None  # NaN (zero-observation stat) has no strict-JSON spelling
    return value


def _key_summary(key: tuple):
    """A batch key with the operand compacted to a stable digest.

    Full operands are whole polynomials (kilobytes each in a golden
    file); their length + CRC pins identity just as hard for the
    parity comparison.
    """
    params_name, op, operand = key
    if operand is None:
        return [params_name, op, None]
    digest = zlib.crc32(repr(operand).encode())
    return [params_name, op, {"len": len(operand), "crc32": digest}]


def serialize_report(report: ServeReport) -> str:
    """Canonical JSON for a report — the golden-file comparison form.

    Every measured number is included (responses and batches down to
    per-request start/finish/energy), floats via ``repr`` round-trip,
    keys sorted — so two byte-identical replays serialize to the same
    string, and the tracing-parity goldens can pin a whole report in
    one checked-in file.  The registry is deliberately excluded: it is
    *how* the numbers were computed, not a measurement of its own.
    Each distinct batch key is summarized once per call.  The text is
    written by :func:`repro.utils.jsonout.dumps`, byte-identical to
    ``json.dumps(payload, indent=2, sort_keys=True)`` but filling each
    response and batch dict into a template built once per call.
    """
    summarize = functools.cache(_key_summary)
    payload = {
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
        "queue_depth": _jsonable(report.queue_depth),
        "by_kind": [_jsonable(vars(k)) for k in report.by_kind],
        "by_tenant": [_jsonable(vars(t)) for t in report.by_tenant],
        "drops": [_jsonable(vars(d)) for d in report.drops],
        "batches": [
            _jsonable({**vars(b), "key": summarize(b.key)})
            for b in report.batches
        ],
        # "alerts" appears only when an SLO policy watched the run, so
        # policy-free reports (the pre-existing goldens) are unchanged.
        **({"alerts": [_jsonable(vars(a)) for a in report.alerts]}
           if report.alerts else {}),
        "responses": [
            {
                "request_id": r.request.request_id,
                "kind": r.request.kind,
                "tenant": r.request.tenant,
                "key": summarize(r.request.batch_key),
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
    return jsonout.dumps(payload, indent=2, sort_keys=True)
