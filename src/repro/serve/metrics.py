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

Every number flows through a :class:`~repro.obs.registry.MetricsRegistry`.
The simulator keeps each record once: each served request as a row of
a :class:`RequestLog`, appended at dispatch, and each drop and batch as
a record.  :func:`aggregate` fills every labeled series at once from
them, then computes the report *from the instruments* — the
:class:`ServeReport` is a view over the registry it carries, which the
Prometheus exporter dumps.  The instruments keep left-to-right sums and
raw-value nearest-rank percentiles, so the numbers equal the plain list
arithmetic exactly.
"""

from __future__ import annotations

import functools
import zlib
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import add, attrgetter, eq, mul, sub
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ParameterError
from repro.obs.registry import Histogram, MetricsRegistry, SequenceView
from repro.obs.slo import Alert, format_alerts
from repro.serve.pool import BatchResults
from repro.serve.request import Request, Response, ResultSlot
from repro.utils import jsonout


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


class RequestLog(SequenceView):
    """Every served request of a replay, recorded once, as columns.

    One row per served request, in record order (the simulator records
    each batch at dispatch).  What a batch gives all of its requests
    (start, finish, energy per request, lane, batch size, padding and
    result sequence) is stored once per *run* of rows.  As a sequence
    the log reads as the replay's :class:`Response` list, built on each
    read; a result still computes only when it is read.
    """

    __slots__ = ("requests", "_ends", "_start", "_finish", "_energy",
                 "_lane", "_size", "_padding", "_results", "_base")

    def __init__(self) -> None:
        self.requests: List[Request] = []
        # Per run: the row one past its last, then its shared fields.
        self._ends = array("q")
        self._start: List[float] = []
        self._finish: List[float] = []
        self._energy: List[float] = []
        self._lane: List[int] = []
        self._size: List[int] = []
        self._padding: List[int] = []
        # Per run: the result sequence its rows index, from ``_base`` on.
        self._results: List[Optional[Sequence[Tuple[int, ...]]]] = []
        self._base = array("q")

    @classmethod
    def of(cls, responses: Sequence[Response]) -> "RequestLog":
        """The log of a standalone response list, one run per response."""
        log = cls()
        for r in responses:
            result = r._result
            if type(result) is ResultSlot:
                results, base = result.results, result.index
            else:
                results, base = (result,), 0
            log.record((r.request,), r.start_s, r.finish_s, r.energy_nj,
                       r.engine_index, r.batch_size, r.batch_padding,
                       results, base)
        return log

    def record(self, requests: Sequence[Request], start_s: float,
               finish_s: float, energy_nj: float, lane: int,
               batch_size: int, padding: int,
               results: Optional[Sequence[Tuple[int, ...]]] = None,
               base: int = 0) -> None:
        """Append ``requests`` as one run; ``energy_nj`` is per request.

        Row ``i`` of the run reads ``results[base + i]``; a run recorded
        before its results exist gets them from :meth:`set_results`.
        """
        self.requests.extend(requests)
        self._ends.append(len(self.requests))
        self._start.append(start_s)
        self._finish.append(finish_s)
        self._energy.append(energy_nj)
        self._lane.append(lane)
        self._size.append(batch_size)
        self._padding.append(padding)
        self._results.append(results)
        self._base.append(base)

    def set_results(self, results: Sequence[Sequence[Tuple[int, ...]]]
                    ) -> None:
        """Each run's result sequence, in run order.

        A span of a pending group is kept as the group and the span's
        first row, so the log holds no per-batch view object.
        """
        if len(results) != len(self._ends):
            raise ParameterError(
                f"{len(results)} result sequences for {len(self._ends)} runs")
        for run, rows in enumerate(results):
            if type(rows) is BatchResults:
                self._results[run] = rows.group
                self._base[run] = rows.span.start
            else:
                self._results[run] = rows

    def __len__(self) -> int:
        return len(self.requests)

    def _response(self, run: int, row: int, first: int) -> Response:
        return Response(
            self.requests[row],
            ResultSlot(self._results[run], self._base[run] + row - first),
            self._start[run], self._finish[run], self._energy[run],
            self._lane[run], self._size[run], self._padding[run])

    def __getitem__(self, index):
        row = range(len(self.requests))[index]
        if isinstance(row, range):
            return [self[i] for i in row]
        run = bisect_right(self._ends, row)
        return self._response(run, row, self._ends[run - 1] if run else 0)

    def __iter__(self) -> Iterator[Response]:
        first = 0
        for run, end in enumerate(self._ends):
            for row in range(first, end):
                yield self._response(run, row, first)
            first = end

    def _rows(self, per_run) -> Iterator:
        """A per-run column repeated once per row of each run."""
        counts = map(sub, self._ends, chain((0,), self._ends))
        return chain.from_iterable(map(repeat, per_run, counts))

    def series(self, metric: str, label: Optional[str] = None,
               value: Optional[str] = None) -> List[float]:
        """One per-request metric in record order, as :class:`Response`'s
        properties compute it: ``latency_ms``, ``queue_s``,
        ``service_s`` or ``energy_nj``.  With ``label`` (``"kind"`` or
        ``"tenant"``), only the rows whose request's label reads ``value``
        as the registry spells labels (``str``).
        """
        if metric in ("latency_ms", "queue_s"):
            arrivals = map(attrgetter("arrival_s"), self.requests)
            edge = self._finish if metric == "latency_ms" else self._start
            values = map(sub, self._rows(edge), arrivals)
            if metric == "latency_ms":
                values = map(mul, values, repeat(1e3))
        elif metric == "service_s":
            values = self._rows(map(sub, self._finish, self._start))
        elif metric == "energy_nj":
            values = self._rows(self._energy)
        else:
            raise ParameterError(f"unknown request-log metric {metric!r}")
        if label is None:
            return list(values)
        labels = map(str, map(attrgetter(label), self.requests))
        return list(compress(values, map(eq, labels, repeat(value))))

    def deadline_counts(self) -> Tuple[Counter, Counter]:
        """Per tenant, served requests that carried a deadline and those
        that met it."""
        offered: Counter = Counter()
        met: Counter = Counter()
        for request, finish in zip(self.requests, self._rows(self._finish)):
            if request.deadline_s is not None:
                offered[request.tenant] += 1
                met[request.tenant] += finish <= request.deadline_s
        return offered, met


class _Series(SequenceView):
    """A histogram's values kept elsewhere: ``compute()`` lists them
    anew on each read, and ``count`` is how many there are."""

    __slots__ = ("compute", "count")

    def __init__(self, compute, count: int):
        self.compute = compute
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[float]:
        return iter(self.compute())

    def __getitem__(self, index):
        return self.compute()[index]


@dataclass(frozen=True)
class ServeReport:
    """Everything :class:`~repro.serve.simulator.ServingSimulator` measured.

    ``responses`` is the replay's :class:`RequestLog`, which reads as a
    list of :class:`Response`.
    """

    responses: RequestLog
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
    queue_depth: Sequence[Tuple[float, int]] = field(default_factory=list)
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
        served, met = (sum(counts.values())
                       for counts in self.responses.deadline_counts())
        offered = served + sum(1 for d in self.drops if d.had_deadline)
        if not offered:
            return 1.0
        return met / offered

    @property
    def max_queue_depth(self) -> int:
        return max((depth for _, depth in self.queue_depth), default=0)

    @property
    def overall(self) -> KindStats:
        """The all-traffic row (always last in ``by_kind``)."""
        return self.by_kind[-1]


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

    p50, p95, p99 = lat.percentiles(50, 95, 99)
    return KindStats(
        kind=kind,
        count=lat.count,
        mean_ms=mean_of(lat),
        p50_ms=p50,
        p95_ms=p95,
        p99_ms=p99,
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


#: The per-request histograms, all filled from the log's columns.
_SERIES = ("latency_ms", "queue_s", "service_s", "energy_nj")
_TENANT_SERIES = ("latency_ms", "energy_nj")


def _counts(registry: MetricsRegistry, name: str, label: str,
            counts: Dict) -> None:
    """Add each ``value: count`` of ``counts`` to ``name{label=value}``."""
    for value, count in counts.items():
        if count:
            registry.counter(name, {label: value}).inc(count)


def _fill(registry: MetricsRegistry, log: RequestLog,
          drops: List[DropRecord], batches: List[BatchRecord]
          ) -> List[Tuple[Histogram, _Series]]:
    """Record a replay's records into the registry, each series at once.

    Every histogram gets its values in record order and its sum folded
    left to right from ``0.0`` (never ``sum()``, which compensates from
    Python 3.12 on): what observing each record in turn gives.  Returns
    each histogram filled from empty with a :class:`_Series` view that
    recomputes its values, to hold in their place once they are read.
    """
    views: List[Tuple[Histogram, _Series]] = []

    def histogram(name, labels, values, compute) -> None:
        series = registry.histogram(name, labels)
        if not series.values:  # else it holds earlier values
            views.append((series, _Series(compute, len(values))))
        series.extend(values)

    requests = log.requests
    columns = {metric: log.series(metric) for metric in _SERIES}
    by_label = {label: list(map(str, map(attrgetter(label), requests)))
                for label in ("kind", "tenant")}
    for label, metrics, counter, prefix in (
            (None, _SERIES, "serve.requests", "serve."),
            ("kind", _SERIES, "serve.requests", "serve."),
            ("tenant", _TENANT_SERIES, "serve.tenant_served",
             "serve.tenant_")):
        for value in (dict.fromkeys(by_label[label]) if label
                      else [None] if requests else []):
            labels = {label: value} if label else None
            mask = list(map(eq, by_label[label], repeat(value))) \
                if label else None
            registry.counter(counter, labels).inc(
                sum(mask) if label else len(requests))
            for metric in metrics:
                histogram(prefix + metric, labels,
                          list(compress(columns[metric], mask)) if label
                          else columns[metric],
                          functools.partial(log.series, metric, label,
                                            value))
    offered, met = log.deadline_counts()
    offered.update(d.tenant for d in drops if d.had_deadline)
    _counts(registry, "serve.deadline_offered", "tenant", offered)
    _counts(registry, "serve.deadline_met", "tenant", met)
    if drops:
        registry.counter("serve.dropped").inc(len(drops))
        _counts(registry, "serve.dropped", "reason",
                Counter(d.reason for d in drops))
        _counts(registry, "serve.tenant_dropped", "tenant",
                Counter(d.tenant for d in drops))
    if batches:
        registry.counter("sched.batches").inc(len(batches))
        _counts(registry, "sched.batches", "lane",
                Counter(b.lane for b in batches))
        for name, amounts in (
                ("sched.padded_slots", (b.capacity - b.size for b in batches)),
                ("sched.batch_slots", (b.capacity for b in batches)),
                ("serve.energy_total_nj", (b.energy_nj for b in batches))):
            registry.counter(name).inc(functools.reduce(add, amounts, 0.0))
        histogram("sched.batch_occupancy", None,
                  [b.occupancy for b in batches],
                  lambda: [b.occupancy for b in batches])
    return views


def aggregate(responses: Sequence[Response], batches: List[BatchRecord], *,
              total_lanes: int, busy_s: float,
              drops: Sequence[DropRecord] = (),
              queue_depth: Sequence[Tuple[float, int]] = (),
              scheduler: str = "fifo",
              alerts: Sequence[Alert] = (),
              registry: Optional[MetricsRegistry] = None) -> ServeReport:
    """Roll a replay's raw records up into a :class:`ServeReport`.

    ``responses`` is a :class:`RequestLog` or a list of responses.  The
    records are recorded into ``registry`` (a new one when not given),
    each series at once, and every report number is then computed *from
    the instruments*, so the returned report is a view over the
    registry it carries.  A queue-depth gauge the registry already has
    (the simulator samples one as it goes) wins over ``queue_depth``.
    """
    log = responses if isinstance(responses, RequestLog) \
        else RequestLog.of(responses)
    drops = list(drops)
    if not log and not drops:
        raise ParameterError("cannot aggregate an empty replay")
    if log:
        first_arrival = min(map(attrgetter("arrival_s"), log.requests))
        last_finish = max(log._finish)
    else:
        # Everything was dropped: the span is the drop window.
        first_arrival = min(d.arrival_s for d in drops)
        last_finish = max(d.arrival_s for d in drops)
    span = max(last_finish - first_arrival, 1e-12)
    registry = MetricsRegistry() if registry is None else registry
    views = _fill(registry, log, drops, batches)
    registry.gauge("sched.lanes").set(total_lanes)
    registry.gauge("sched.busy_s").set(busy_s)
    registry.gauge("serve.span_s").set(span)
    depth = registry.gauge("sched.queue_depth")
    if not depth.samples:
        for t_s, value in queue_depth:
            depth.sample(t_s, value)
    kinds = sorted(registry.label_values("serve.latency_ms", "kind"))
    by_kind = [_kind_view(registry, kind, {"kind": kind}) for kind in kinds]
    by_kind.append(
        _kind_view(registry, "all", None) if log
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
    throughput = len(log) / span
    registry.gauge("serve.utilization").set(utilization)
    registry.gauge("serve.throughput_rps").set(throughput)
    # The report is read: the series now recompute their values on read.
    for histogram, view in views:
        histogram.use_view(view)
    return ServeReport(
        responses=log,
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
        queue_depth=registry.gauge("sched.queue_depth").samples,
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
    has_deadlines = any(r.deadline_s is not None
                        for r in report.responses.requests)
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


def _dict_template(keys: Sequence[str]) -> str:
    """The indent-2 text of a dict with these sorted plain keys as an
    item of a top-level array, one ``%s`` per value."""
    return "{\n      " + ",\n      ".join(f'"{key}": %s' for key in keys) \
        + "\n    }"


_BATCH_FIELDS = ("batch_id", "capacity", "dispatched_s", "energy_nj",
                 "finish_s", "key", "lane", "size", "start_s")
_BATCH_ROW = _dict_template(_BATCH_FIELDS)
_DROP_ROW = _dict_template(
    ("arrival_s", "had_deadline", "kind", "reason", "request_id", "tenant"))
_RESPONSE_ROW = _dict_template(
    ("batch_padding", "batch_size", "energy_nj", "engine_index", "finish_s",
     "key", "kind", "request_id", "start_s", "tenant"))
#: One ``[t, depth]`` sample of the queue-depth timeline.
_DEPTH_ROW = "[\n      %s,\n      %s\n    ]"
#: Where each rendered array goes in the text of the rest.
_SPLICED = ("queue_depth", "batches", "responses", "drops")


def serialize_report(report: ServeReport) -> str:
    """Canonical JSON for a report — the golden-file comparison form.

    Every measured number is included (responses and batches down to
    per-request start/finish/energy), floats via ``repr`` round-trip,
    keys sorted — so two byte-identical replays serialize to the same
    string, and the tracing-parity goldens can pin a whole report in
    one checked-in file.  The registry is deliberately excluded: it is
    *how* the numbers were computed, not a measurement of its own.

    The text is byte-identical to ``json.dumps(payload, indent=2,
    sort_keys=True)`` of the payload dict (NaN written ``null`` outside
    the responses), without building that dict's long arrays: each
    response, batch, drop and queue-depth row is one fill of a template,
    written from the log's columns, the batch and drop records and the
    timeline, and each distinct batch-key summary, kind and tenant is
    encoded once per call.  The rest goes through
    :func:`repro.utils.jsonout.encoder`.
    """
    encode = jsonout.encoder(2, sort_keys=True)

    def scalar(value) -> str:
        kind = type(value)
        if kind is int:
            return int.__repr__(value)
        if kind is float and value - value == 0.0:  # finite
            return float.__repr__(value)
        return encode(value, 3)

    def jsonable(value) -> str:
        return "null" if isinstance(value, float) and value != value \
            else scalar(value)

    text = functools.cache(scalar)
    key_text = functools.cache(lambda key: encode(_key_summary(key), 3))
    batches = [
        _BATCH_ROW % (jsonable(b.batch_id), jsonable(b.capacity),
                      jsonable(b.dispatched_s), jsonable(b.energy_nj),
                      jsonable(b.finish_s), key_text(b.key),
                      jsonable(b.lane), jsonable(b.size),
                      jsonable(b.start_s))
        for b in report.batches
    ]
    log = report.responses
    requests = log.requests
    responses: List[str] = []
    first, key, key_str = 0, None, ""
    for run, end in enumerate(log._ends):
        padding, size, energy, lane, finish, start = (
            scalar(column[run]) for column in (
                log._padding, log._size, log._energy, log._lane,
                log._finish, log._start))
        for request in requests[first:end]:
            if request.batch_key is not key:
                key = request.batch_key
                key_str = key_text(key)
            responses.append(_RESPONSE_ROW % (
                padding, size, energy, lane, finish, key_str,
                text(request.kind), scalar(request.request_id), start,
                text(request.tenant)))
        first = end
    depth = [_DEPTH_ROW % (jsonable(t_s), jsonable(value))
             for t_s, value in report.queue_depth]
    drops = [_DROP_ROW % (jsonable(d.arrival_s), scalar(d.had_deadline),
                          text(d.kind), text(d.reason),
                          scalar(d.request_id), text(d.tenant))
             for d in report.drops]
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
        "by_kind": [_jsonable(vars(k)) for k in report.by_kind],
        "by_tenant": [_jsonable(vars(t)) for t in report.by_tenant],
        # "alerts" appears only when an SLO policy watched the run, so
        # policy-free reports (the pre-existing goldens) are unchanged.
        **({"alerts": [_jsonable(vars(a)) for a in report.alerts]}
           if report.alerts else {}),
        # Placeholders, replaced below by the rendered rows.
        **dict.fromkeys(_SPLICED, ()),
    }
    out = encode(payload, 0)
    for name, rows in zip(_SPLICED, (depth, batches, responses, drops)):
        if rows:
            head, tail = out.split(f'\n  "{name}": []', 1)
            out = (f'{head}\n  "{name}": [\n    ' + ",\n    ".join(rows)
                   + "\n  ]" + tail)
    return out
