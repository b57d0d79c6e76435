"""Streaming windowed aggregation over the trace-event stream.

:mod:`repro.obs.registry` materializes *every* observation and answers
exact queries after the replay; that is the right tool for goldens, but
a million-request replay (ROADMAP item 2) cannot afford O(all events)
memory, and the autoscaler-to-be needs rolling signals *during* the
run.  This module is the streaming half of the observability layer:

- :class:`QuantileSketch` — a bounded-memory latency digest: exact
  nearest-rank under a size cap, fixed log-spaced bins over it (known
  relative error, mergeable).
- :class:`WindowedAggregator` — a :class:`~repro.obs.tracer.Tracer`
  that consumes the event stream incrementally and maintains tumbling
  and sliding windows (configurable width/stride) of arrival rate,
  admit/drop rate, queue depth, lane busy time, batch occupancy,
  energy, per-tenant SLO outcomes and per-stage latency sketches.
  Memory is O(windows + live requests), never O(events).
- :class:`WindowFrame` — one frozen window row; :meth:`snapshot`
  returns them, ``on_frame`` streams them as windows complete, and
  :meth:`totals` merges every bucket back into whole-run aggregates
  (parity-pinned against the exact :class:`MetricsRegistry` numbers on
  the obs goldens in ``tests/obs/test_stream.py``).

Window completion uses a watermark: phases emitted at the simulator's
*current* clock (``arrive``/``admit``/``drop``/``enqueue``/
``batch_open``/``dispatch``) are monotone in emission order, and every
future-dated phase (``respond``, ``lane_start``, ``lane_finish``)
carries ``t_s >= now`` at emission — so once the watermark passes a
window's end, no event belonging to it can still appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ParameterError
from repro.obs.registry import percentile
from repro.obs.summary import STAGES
from repro.obs.tracer import NULL_TRACER, TraceEvent, Tracer

#: Phases whose ``t_s`` is the simulator's current clock — the
#: watermark that closes windows (see module docs).
NOW_PHASES = frozenset(
    {"arrive", "admit", "drop", "enqueue", "batch_open", "dispatch"}
)

#: Per-request latency stages tracked per window, in lifecycle order:
#: end-to-end, then :data:`repro.obs.summary.STAGES`.
STREAM_STAGES = ("e2e", *(name for name, _, _ in STAGES))


# -- bounded-memory quantiles ------------------------------------------------


class QuantileSketch:
    """Streaming quantiles in bounded memory.

    Values are held exactly (and queried by the same nearest-rank
    arithmetic as :func:`repro.obs.registry.percentile`) until
    ``exact_cap`` observations, then collapsed into fixed log-spaced
    bins of ratio ``gamma``; further inserts are O(1) into the bins.
    A bin's representative is its geometric midpoint, so quantile
    answers after collapse carry a relative error of at most
    ``sqrt(gamma) - 1`` (:attr:`relative_error`).  ``count`` and
    ``total`` stay exact either way, and two sketches merge without
    losing those guarantees.
    """

    __slots__ = ("exact_cap", "gamma", "min_value", "count", "total",
                 "_exact", "_bins", "_low")

    def __init__(self, exact_cap: int = 128, gamma: float = 1.05,
                 min_value: float = 1e-6):
        if exact_cap < 1:
            raise ParameterError(f"exact_cap must be >= 1, got {exact_cap}")
        if gamma <= 1.0:
            raise ParameterError(f"gamma must be > 1, got {gamma}")
        if min_value <= 0.0:
            raise ParameterError(f"min_value must be > 0, got {min_value}")
        self.exact_cap = exact_cap
        self.gamma = gamma
        self.min_value = min_value
        self.count = 0
        self.total = 0.0
        self._exact: Optional[List[float]] = []
        self._bins: Dict[int, int] = {}
        self._low = 0  # observations <= min_value (bin "below zero")

    @property
    def relative_error(self) -> float:
        """Worst-case relative quantile error after bin collapse."""
        return math.sqrt(self.gamma) - 1.0

    @property
    def collapsed(self) -> bool:
        """Whether the exact buffer has been folded into bins."""
        return self._exact is None

    def _bin_index(self, value: float) -> int:
        return int(math.floor(math.log(value / self.min_value)
                              / math.log(self.gamma)))

    def _bin_value(self, index: int) -> float:
        # Geometric midpoint of [min * gamma^i, min * gamma^(i+1)).
        return self.min_value * self.gamma ** (index + 0.5)

    def _collapse(self) -> None:
        for value in self._exact or ():
            self._insert_binned(value)
        self._exact = None

    def _insert_binned(self, value: float) -> None:
        if value <= self.min_value:
            self._low += 1
        else:
            index = self._bin_index(value)
            self._bins[index] = self._bins.get(index, 0) + 1

    def observe(self, value: float) -> None:
        if value < 0:
            raise ParameterError(f"sketch values must be >= 0, got {value}")
        self.count += 1
        self.total += value
        if self._exact is not None:
            self._exact.append(value)
            if len(self._exact) > self.exact_cap:
                self._collapse()
        else:
            self._insert_binned(value)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile (q in [0, 100]); NaN when empty."""
        if not 0 <= q <= 100:
            raise ParameterError(f"quantile q must be in [0, 100], got {q}")
        if self.count == 0:
            return float("nan")
        if self._exact is not None:
            return percentile(self._exact, q)
        rank = max(1, -(-self.count * q // 100))  # ceil without floats
        if rank <= self._low:
            return self.min_value
        seen = self._low
        for index in sorted(self._bins):
            seen += self._bins[index]
            if seen >= rank:
                return self._bin_value(index)
        return self._bin_value(max(self._bins))  # pragma: no cover - guard

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` in (sketch parameters must match)."""
        if (other.gamma != self.gamma or other.min_value != self.min_value):
            raise ParameterError("cannot merge sketches with different bins")
        self.count += other.count
        self.total += other.total
        if self._exact is not None and other._exact is not None:
            self._exact.extend(other._exact)
            if len(self._exact) > self.exact_cap:
                self._collapse()
            return
        if self._exact is not None:
            self._collapse()
        self._low += other._low
        for index, count in other._bins.items():
            self._bins[index] = self._bins.get(index, 0) + count
        if other._exact is not None:
            for value in other._exact:
                self._insert_binned(value)

    def copy(self) -> "QuantileSketch":
        fresh = QuantileSketch(self.exact_cap, self.gamma, self.min_value)
        fresh.merge(self)
        return fresh


# -- window configuration and frames -----------------------------------------


@dataclass(frozen=True)
class WindowSpec:
    """One window geometry: ``width_s`` wide, advancing by ``stride_s``.

    ``stride_s == width_s`` (the default) is a tumbling window; a
    smaller stride slides.  ``width_s`` must be an integer multiple of
    ``stride_s`` so windows merge cleanly from stride-grained buckets.
    """

    width_s: float
    stride_s: Optional[float] = None
    label: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.width_s) and self.width_s > 0):
            raise ParameterError(
                f"window width must be finite and > 0, got {self.width_s}")
        stride = self.stride_s if self.stride_s is not None else self.width_s
        if not 0 < stride <= self.width_s:  # also nan, and inf > width
            raise ParameterError(
                f"stride must be in (0, width={self.width_s:g}], got {stride}"
            )
        ratio = self.width_s / stride
        if abs(ratio - round(ratio)) > 1e-9:
            raise ParameterError(
                f"width {self.width_s:g}s must be an integer multiple of "
                f"stride {stride:g}s"
            )
        object.__setattr__(self, "stride_s", stride)
        if not self.label:
            object.__setattr__(self, "label", f"{self.width_s * 1e3:g}ms")

    @property
    def buckets_per_window(self) -> int:
        return int(round(self.width_s / self.stride_s))


@dataclass(frozen=True)
class StageStats:
    """One latency stage inside one window (milliseconds)."""

    count: int
    sum_ms: float
    p50_ms: float
    p95_ms: float

    @property
    def mean_ms(self) -> float:
        return self.sum_ms / self.count if self.count else float("nan")


@dataclass(frozen=True)
class TenantFrame:
    """One tenant's window outcome — the SLO monitor's raw signal."""

    tenant: str
    arrivals: int
    served: int
    dropped: int
    deadline_offered: int
    deadline_met: int

    @property
    def deadline_missed(self) -> int:
        return self.deadline_offered - self.deadline_met

    @property
    def attainment(self) -> float:
        """Met / offered deadlines; 1.0 when none were offered."""
        if not self.deadline_offered:
            return 1.0
        return self.deadline_met / self.deadline_offered

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.attainment


@dataclass(frozen=True)
class WindowFrame:
    """One frozen window of the stream — what ``snapshot()`` returns."""

    label: str
    start_s: float
    end_s: float
    complete: bool
    arrivals: int
    admits: int
    drops: int
    served: int
    batches: int
    batch_size: int
    batch_slots: int
    energy_nj: float
    lane_busy_s: float
    lanes: int
    queue_depth_last: int
    queue_depth_max: int
    deadline_offered: int
    deadline_met: int
    stages: Mapping[str, StageStats] = field(default_factory=dict)
    tenants: Mapping[str, TenantFrame] = field(default_factory=dict)

    @property
    def width_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def arrival_rate(self) -> float:
        return self.arrivals / self.width_s

    @property
    def throughput_rps(self) -> float:
        return self.served / self.width_s

    @property
    def drop_rate(self) -> float:
        """Drops per arrival in the window (0.0 when nothing arrived)."""
        return self.drops / self.arrivals if self.arrivals else 0.0

    @property
    def lane_occupancy(self) -> float:
        """Busy-seconds over lane-seconds available in the window."""
        if not self.lanes:
            return 0.0
        return self.lane_busy_s / (self.lanes * self.width_s)

    @property
    def batch_occupancy(self) -> float:
        """Live slots over dispatched slots (0.0 with no batches)."""
        return self.batch_size / self.batch_slots if self.batch_slots else 0.0

    @property
    def attainment(self) -> float:
        if not self.deadline_offered:
            return 1.0
        return self.deadline_met / self.deadline_offered


# -- internal accumulators ---------------------------------------------------


class _TenantCell:
    __slots__ = ("arrivals", "served", "dropped", "deadline_offered",
                 "deadline_met")

    def __init__(self) -> None:
        self.arrivals = 0
        self.served = 0
        self.dropped = 0
        self.deadline_offered = 0
        self.deadline_met = 0

    def merge(self, other: "_TenantCell") -> None:
        self.arrivals += other.arrivals
        self.served += other.served
        self.dropped += other.dropped
        self.deadline_offered += other.deadline_offered
        self.deadline_met += other.deadline_met


class _Bucket:
    """Stride-grained accumulator; windows merge runs of these."""

    __slots__ = ("arrivals", "admits", "drops", "served", "batches",
                 "batch_size", "batch_slots", "occupancy_sum", "energy_nj",
                 "busy_s", "depth_last", "depth_max", "deadline_offered",
                 "deadline_met", "stages", "tenants")

    def __init__(self, sketch_factory: Callable[[], QuantileSketch]):
        self.arrivals = 0
        self.admits = 0
        self.drops = 0
        self.served = 0
        self.batches = 0
        self.batch_size = 0
        self.batch_slots = 0
        self.occupancy_sum = 0.0
        self.energy_nj = 0.0
        self.busy_s = 0.0
        self.depth_last: Optional[int] = None
        self.depth_max = 0
        self.deadline_offered = 0
        self.deadline_met = 0
        self.stages: Dict[str, QuantileSketch] = {
            name: sketch_factory() for name in STREAM_STAGES
        }
        self.tenants: Dict[str, _TenantCell] = {}

    def tenant(self, name: str) -> _TenantCell:
        cell = self.tenants.get(name)
        if cell is None:
            cell = self.tenants[name] = _TenantCell()
        return cell

    def merge(self, other: "_Bucket") -> None:
        self.arrivals += other.arrivals
        self.admits += other.admits
        self.drops += other.drops
        self.served += other.served
        self.batches += other.batches
        self.batch_size += other.batch_size
        self.batch_slots += other.batch_slots
        self.occupancy_sum += other.occupancy_sum
        self.energy_nj += other.energy_nj
        self.busy_s += other.busy_s
        if other.depth_last is not None:
            self.depth_last = other.depth_last
        self.depth_max = max(self.depth_max, other.depth_max)
        self.deadline_offered += other.deadline_offered
        self.deadline_met += other.deadline_met
        for name, sketch in other.stages.items():
            self.stages[name].merge(sketch)
        for name, cell in other.tenants.items():
            self.tenant(name).merge(cell)


class _PendingRequest:
    __slots__ = ("arrive_s", "enqueue_s", "deadline_s", "tenant")

    def __init__(self, arrive_s: float, deadline_s: Optional[float],
                 tenant: str):
        self.arrive_s = arrive_s
        self.enqueue_s: Optional[float] = None
        self.deadline_s = deadline_s
        self.tenant = tenant


# -- the aggregator ----------------------------------------------------------


class WindowedAggregator:
    """A tracer that folds the event stream into rolling windows.

    Usable three ways, all composable:

    - as the replay's tracer directly (``sim.replay(trace,
      tracer=agg)``), optionally forwarding every event to ``inner``
      (e.g. a :class:`~repro.obs.RecordingTracer`);
    - as an offline sink — feed :func:`repro.obs.read_jsonl` events
      through :meth:`emit` (what ``repro.cli watch --from-jsonl``
      does);
    - as the window source for :class:`repro.obs.slo.SLOTracer`, which
      evaluates burn-rate rules on the frames.

    ``on_frame(frame)`` fires as each window completes (watermark
    order); :meth:`snapshot` returns the finalized frames plus the
    in-progress partial, and :meth:`totals` merges every bucket into
    whole-run aggregates.
    """

    enabled = True

    def __init__(self, windows: Sequence[WindowSpec] = (WindowSpec(0.01),), *,
                 inner: Optional[Tracer] = None,
                 on_frame: Optional[Callable[[WindowFrame], None]] = None,
                 exact_cap: int = 128, gamma: float = 1.05):
        if not windows:
            raise ParameterError("need at least one WindowSpec")
        labels = [spec.label for spec in windows]
        if len(set(labels)) != len(labels):
            raise ParameterError(f"duplicate window labels: {labels}")
        self.windows = tuple(windows)
        self.inner = NULL_TRACER if inner is None else inner
        self.on_frame = on_frame
        self._grain = min(spec.stride_s for spec in self.windows)
        for spec in self.windows:
            ratio = spec.stride_s / self._grain
            if abs(ratio - round(ratio)) > 1e-9:
                raise ParameterError(
                    f"window {spec.label!r}: stride {spec.stride_s:g}s is "
                    f"not a multiple of the finest stride {self._grain:g}s"
                )
        self._sketch_factory = lambda: QuantileSketch(exact_cap, gamma)
        self._buckets: Dict[int, _Bucket] = {}
        self._pending: Dict[int, _PendingRequest] = {}
        self._lane_open: Dict[Tuple[Optional[int], Optional[int]], float] = {}
        self._lanes_seen: Dict[Optional[int], None] = {}
        self._waiting = 0
        #: Last depth change, uncommitted: the simulator's queue-depth
        #: gauge is last-write-wins per timestamp, so a bucket records
        #: an instant's depth only once no later event shares its t.
        self._depth_pending: Optional[Tuple[float, int]] = None
        self._watermark = float("-inf")
        self._started = False
        self._frames: Dict[str, List[WindowFrame]] = {
            spec.label: [] for spec in self.windows
        }
        #: Next window-end bucket index to finalize, per spec label.
        self._next_end: Dict[str, int] = {}

    # -- event intake ------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(frames) for frames in self._frames.values())

    def _bucket(self, t_s: float) -> _Bucket:
        index = int(math.floor(t_s / self._grain + 1e-12))
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = _Bucket(self._sketch_factory)
        return bucket

    def _record_depth(self, t_s: float) -> None:
        pending = self._depth_pending
        if pending is not None and pending[0] != t_s:
            self._commit_depth()
        self._depth_pending = (t_s, self._waiting)

    def _commit_depth(self) -> None:
        pending = self._depth_pending
        if pending is None:
            return
        bucket = self._bucket(pending[0])
        bucket.depth_last = pending[1]
        bucket.depth_max = max(bucket.depth_max, pending[1])
        self._depth_pending = None

    def _apportion_busy(self, start_s: float, finish_s: float) -> None:
        """Split one lane-busy interval across the buckets it covers."""
        if finish_s <= start_s:
            return
        index = int(math.floor(start_s / self._grain + 1e-12))
        cursor = start_s
        while cursor < finish_s:
            edge = (index + 1) * self._grain
            span = min(edge, finish_s) - cursor
            self._buckets.setdefault(
                index, _Bucket(self._sketch_factory)
            ).busy_s += span
            cursor = edge
            index += 1

    def emit(self, event: TraceEvent) -> None:
        if self.inner.enabled:
            self.inner.emit(event)
        phase = event.phase
        if phase == "arrive":
            if not self._started:
                self._started = True
            bucket = self._bucket(event.t_s)
            bucket.arrivals += 1
            bucket.tenant(event.tenant).arrivals += 1
            if event.request_id is not None:
                self._pending[event.request_id] = _PendingRequest(
                    event.t_s, event.attrs.get("deadline_s"), event.tenant
                )
        elif phase == "admit":
            self._bucket(event.t_s).admits += 1
        elif phase == "drop":
            bucket = self._bucket(event.t_s)
            bucket.drops += 1
            cell = bucket.tenant(event.tenant)
            cell.dropped += 1
            pending = self._pending.pop(event.request_id, None) \
                if event.request_id is not None else None
            deadline = pending.deadline_s if pending is not None else None
            if deadline is not None:
                # A shed deadline request is an offered-and-missed SLO,
                # mirroring the exact report's attainment arithmetic.
                bucket.deadline_offered += 1
                cell.deadline_offered += 1
        elif phase == "enqueue":
            self._waiting += 1
            self._record_depth(event.t_s)
            if event.request_id is not None:
                pending = self._pending.get(event.request_id)
                if pending is not None:
                    pending.enqueue_s = event.t_s
        elif phase == "dispatch":
            attrs = event.attrs
            size = int(attrs.get("size", 0))
            bucket = self._bucket(event.t_s)
            bucket.batches += 1
            bucket.batch_size += size
            capacity = int(attrs.get("capacity", 0))
            bucket.batch_slots += capacity
            if capacity:
                bucket.occupancy_sum += size / capacity
            bucket.energy_nj += float(attrs.get("energy_nj", 0.0))
            self._waiting -= size
            self._record_depth(event.t_s)
        elif phase == "respond":
            self._record_respond(event)
        elif phase == "lane_start":
            self._lanes_seen.setdefault(event.lane, None)
            self._lane_open[(event.lane, event.batch_id)] = event.t_s
        elif phase == "lane_finish":
            start = self._lane_open.pop((event.lane, event.batch_id), None)
            if start is not None:
                self._apportion_busy(start, event.t_s)
        # profile/program/alert events carry no window signal.
        if phase in NOW_PHASES and event.t_s > self._watermark:
            self._watermark = event.t_s
            self._advance()

    def _record_respond(self, event: TraceEvent) -> None:
        finish = event.t_s
        bucket = self._bucket(finish)
        bucket.served += 1
        pending = self._pending.pop(event.request_id, None) \
            if event.request_id is not None else None
        cell = bucket.tenant(event.tenant)
        cell.served += 1
        attrs = event.attrs
        dispatched = attrs.get("dispatched_s")
        start = attrs.get("start_s")
        arrive = pending.arrive_s if pending is not None else None
        enqueue = pending.enqueue_s if pending is not None else None
        deadline = pending.deadline_s if pending is not None else None
        if deadline is not None:
            bucket.deadline_offered += 1
            cell.deadline_offered += 1
            if finish <= deadline:
                bucket.deadline_met += 1
                cell.deadline_met += 1

        instants = {"arrive_s": arrive, "enqueue_s": enqueue,
                    "dispatched_s": dispatched, "start_s": start,
                    "finish_s": finish}
        for name, first, last in (("e2e", "arrive_s", "finish_s"), *STAGES):
            a, b = instants[first], instants[last]
            if a is not None and b is not None:
                bucket.stages[name].observe(max(b - a, 0.0) * 1e3)

    # -- window finalization -----------------------------------------------

    def _advance(self) -> None:
        """Finalize every window whose end the watermark has passed."""
        pending = self._depth_pending
        if pending is not None and pending[0] < self._watermark:
            # No later event can share that timestamp now.
            self._commit_depth()
        for spec in self.windows:
            label = spec.label
            stride_buckets = int(round(spec.stride_s / self._grain))
            end = self._next_end.setdefault(label, stride_buckets)
            while end * self._grain <= self._watermark + 1e-12:
                self._freeze(spec, end, complete=True)
                end += stride_buckets
                self._next_end[label] = end

    def _freeze(self, spec: WindowSpec, end_index: int, *,
                complete: bool) -> None:
        width_buckets = int(round(spec.width_s / self._grain))
        start_index = end_index - width_buckets
        merged = _Bucket(self._sketch_factory)
        for index in range(start_index, end_index):
            bucket = self._buckets.get(index)
            if bucket is not None:
                merged.merge(bucket)
        if merged.depth_last is None and not complete \
                and self._depth_pending is not None:
            # Live partial window: show the as-of-now depth.
            merged.depth_last = self._depth_pending[1]
            merged.depth_max = max(merged.depth_max, merged.depth_last)
        if merged.depth_last is None:
            # Quiet window: the queue kept its previous level.
            previous = self._frames[spec.label]
            merged.depth_last = previous[-1].queue_depth_last if previous else 0
            merged.depth_max = max(merged.depth_max, merged.depth_last)
        frame = WindowFrame(
            label=spec.label,
            start_s=start_index * self._grain,
            end_s=end_index * self._grain,
            complete=complete,
            arrivals=merged.arrivals,
            admits=merged.admits,
            drops=merged.drops,
            served=merged.served,
            batches=merged.batches,
            batch_size=merged.batch_size,
            batch_slots=merged.batch_slots,
            energy_nj=merged.energy_nj,
            lane_busy_s=merged.busy_s,
            lanes=len(self._lanes_seen),
            queue_depth_last=merged.depth_last,
            queue_depth_max=merged.depth_max,
            deadline_offered=merged.deadline_offered,
            deadline_met=merged.deadline_met,
            stages={
                name: StageStats(
                    count=sketch.count,
                    sum_ms=sketch.total,
                    p50_ms=sketch.quantile(50),
                    p95_ms=sketch.quantile(95),
                )
                for name, sketch in merged.stages.items()
            },
            tenants={
                name: TenantFrame(
                    tenant=name,
                    arrivals=cell.arrivals,
                    served=cell.served,
                    dropped=cell.dropped,
                    deadline_offered=cell.deadline_offered,
                    deadline_met=cell.deadline_met,
                )
                for name, cell in sorted(merged.tenants.items())
            },
        )
        if complete:
            self._frames[spec.label].append(frame)
            if self.on_frame is not None:
                self.on_frame(frame)
        else:
            self._partial = frame

    def finish(self) -> None:
        """Flush: future-dated events (responds, lane finishes) may sit
        past the watermark; advance it to the last bucket so every
        window containing data is finalized.  Propagates downstream."""
        self._commit_depth()
        if self._buckets:
            last_edge = (max(self._buckets) + 1) * self._grain
            if last_edge > self._watermark:
                self._watermark = last_edge
                self._advance()
        inner_finish = getattr(self.inner, "finish", None)
        if inner_finish is not None:
            inner_finish()

    # -- queries -----------------------------------------------------------

    def frames(self, label: Optional[str] = None) -> Tuple[WindowFrame, ...]:
        """Finalized frames of one window spec (default: the first)."""
        if label is None:
            label = self.windows[0].label
        if label not in self._frames:
            known = ", ".join(sorted(self._frames))
            raise ParameterError(f"unknown window {label!r}; known: {known}")
        return tuple(self._frames[label])

    def snapshot(self, label: Optional[str] = None) -> Tuple[WindowFrame, ...]:
        """Finalized frames plus the in-progress partial window."""
        if label is None:
            label = self.windows[0].label
        frames = list(self.frames(label))
        spec = next(s for s in self.windows if s.label == label)
        if self._buckets:
            stride_buckets = int(round(spec.stride_s / self._grain))
            end = self._next_end.get(label, stride_buckets)
            last = max(self._buckets)
            if last >= end - stride_buckets:
                self._partial: Optional[WindowFrame] = None
                self._freeze(spec, last + 1, complete=False)
                if self._partial is not None:
                    frames.append(self._partial)
        return tuple(frames)

    def totals(self) -> _Bucket:
        """Every bucket merged: the whole run as one window.

        The returned accumulator carries exact counts and sums (floats
        may differ from the registry's left-to-right order only by
        accumulation order) and merged per-stage sketches — what the
        parity test pins against :class:`MetricsRegistry`.
        """
        self._commit_depth()
        merged = _Bucket(self._sketch_factory)
        for index in sorted(self._buckets):
            merged.merge(self._buckets[index])
        return merged

    @property
    def live_requests(self) -> int:
        """Requests currently in flight (the O(live) memory term)."""
        return len(self._pending)


# -- watch rendering ---------------------------------------------------------

_WATCH_COLUMNS = (
    f"{'window(ms)':>14} {'arr/s':>8} {'drop%':>6} {'served':>6} "
    f"{'depth':>5} {'occ%':>5} {'batch%':>6} {'p50(ms)':>8} {'p95(ms)':>8} "
    f"{'svc p95':>8} {'attain':>7} {'alerts':>6}"
)


def _fmt_ms(value: float) -> str:
    return "     -" if value != value else f"{value:.3f}"  # NaN-safe


def format_frame_row(frame: WindowFrame, *, active_alerts: int = 0) -> str:
    """One live table row for a completed window."""
    e2e = frame.stages.get("e2e")
    service = frame.stages.get("service")
    return (
        f"{frame.start_s * 1e3:6.1f}-{frame.end_s * 1e3:<7.1f} "
        f"{frame.arrival_rate:>8.0f} {frame.drop_rate:>6.1%} "
        f"{frame.served:>6} {frame.queue_depth_last:>5} "
        f"{frame.lane_occupancy:>5.0%} {frame.batch_occupancy:>6.0%} "
        f"{_fmt_ms(e2e.p50_ms) if e2e else '-':>8} "
        f"{_fmt_ms(e2e.p95_ms) if e2e else '-':>8} "
        f"{_fmt_ms(service.p95_ms) if service else '-':>8} "
        f"{frame.attainment:>7.1%} {active_alerts:>6}"
    )


def format_watch_header() -> str:
    return "\n".join((_WATCH_COLUMNS, "-" * len(_WATCH_COLUMNS)))


def format_watch_table(frames: Sequence[WindowFrame], *,
                       last: Optional[int] = None,
                       alerts_at: Optional[Callable[[float], int]] = None) -> str:
    """The frames as one fixed-width table (``last`` most recent rows)."""
    rows = list(frames)
    if last is not None:
        rows = rows[-last:]
    lines = [format_watch_header()]
    for frame in rows:
        active = alerts_at(frame.end_s) if alerts_at is not None else 0
        lines.append(format_frame_row(frame, active_alerts=active))
    return "\n".join(lines)
