"""Metrics registry: counters, gauges and histograms with labels.

Instruments are keyed by a ``subsystem.name`` metric name plus a frozen
label set (``tenant=...``, ``kind=...``, ``lane=...``); asking for the
same (name, labels) pair twice returns the same instrument, so every
serving layer can increment shared series without coordination.  A
replay's records are filled into it once the replay is done
(:func:`repro.serve.metrics.aggregate`); the serve report is a view
over it and the Prometheus exporter dumps it.

Three deliberate departures from a production metrics client keep the
numbers exact:

- Histograms answer from their raw observations (these are
  replay-sized series, not unbounded production streams), so percentile
  queries use exact nearest-rank arithmetic.  Bucketing happens only at
  export time.  A series keeps a list of them, or a read-only view
  (:meth:`Histogram.use_view`) over values kept elsewhere, such as the
  serving simulator's request log.
- Counter/histogram sums accumulate left-to-right in observation
  order, float-for-float what a running ``+=`` gives.
- Gauges can carry a *timeline* (``sample(t, v)``): the queue-depth
  trajectory is a first-class series, with last-write-wins on equal
  timestamps exactly as the simulator recorded it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
from functools import reduce
from operator import add, eq
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.errors import ParameterError

#: A label set frozen for dict keying: sorted (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    if not values:
        raise ParameterError("percentile of an empty sequence")
    return _nearest_rank(sorted(values), q)


def _nearest_rank(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of sorted values; NaN when there are none."""
    if not 0 <= q <= 100:
        raise ParameterError(f"percentile q must be in [0, 100], got {q}")
    if not ordered:
        return float("nan")
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


class SequenceView(SequenceABC):
    """A read-only sequence that compares and prints as the list of its items."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other) -> bool:
        if not isinstance(other, (SequenceView, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))


class Timeline(SequenceView):
    """A gauge's ``(t, value)`` samples, kept as two columns."""

    __slots__ = ("times", "values")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.values: List[Union[int, float]] = []

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, Union[int, float]]]:
        return zip(self.times, self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(self.times[index], self.values[index]))
        return self.times[index], self.values[index]


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _check_name(name: str) -> str:
    if not name or any(c.isspace() for c in name):
        raise ParameterError(f"metric name must be non-empty, got {name!r}")
    return name


class Counter:
    """Monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ParameterError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge:
    """Point-in-time value, optionally with a timestamped timeline."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.samples = Timeline()

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def sample(self, t_s: float, value: Union[int, float]) -> None:
        """Record (t, value); same-timestamp samples overwrite (the
        last decision at an instant is the instant's state)."""
        self.value = value
        times = self.samples.times
        if times and times[-1] == t_s:
            self.samples.values[-1] = value
        else:
            times.append(t_s)
            self.samples.values.append(value)

    @property
    def max_sample(self) -> float:
        return max(self.samples.values, default=0.0)


#: Default export buckets (milliseconds-friendly decades); histograms
#: answer from raw values, so buckets only shape the Prometheus dump.
DEFAULT_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0)


class Histogram:
    """Raw-observation histogram with exact percentile queries.

    ``values`` is a list of the observations, or the read-only sequence
    given to :meth:`use_view`, which turns into a list on the next
    :meth:`observe`.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ParameterError(
                f"histogram {name} buckets must be strictly increasing"
            )
        self.name = name
        self.labels = labels
        self.buckets = tuple(buckets)
        self.values: Sequence[float] = []
        self.sum = 0.0

    def observe(self, value: Union[int, float]) -> None:
        if type(self.values) is not list:
            self.values = list(self.values)
        self.values.append(value)
        self.sum += value

    def extend(self, values: Sequence[float]) -> None:
        """Observe each of ``values``, in order, at once."""
        self.sum = reduce(add, values, self.sum)
        self.values = [*self.values, *values]

    def use_view(self, view: Sequence[float]) -> None:
        """Hold ``view``, a read-only sequence equal to the values and
        kept elsewhere, in their place: the series then holds no copy."""
        self.values = view

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.values else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the raw observations.

        NaN when nothing was observed — a zero-observation series (a
        tenant whose every request was shed, a stage no request
        reached) must render as "no data", not crash the report.
        """
        return self.percentiles(q)[0]

    def percentiles(self, *qs: float) -> List[float]:
        """:meth:`percentile` of each of ``qs``, from one sort."""
        ordered = sorted(self.values)
        return [_nearest_rank(ordered, q) for q in qs]

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative (upper-bound, count) pairs, ending with +inf.

        A bound counts the values ``<=`` it: one sort, then one bisection
        per bound.  NaN compares false with every bound, so it counts
        only in the closing ``+inf`` pair, which counts every value.
        """
        values = list(self.values)
        ordered = sorted(v for v in values if v == v)
        out = [(bound, bisect_right(ordered, bound) if bound == bound else 0)
               for bound in self.buckets]
        out.append((float("inf"), len(values)))
        return out


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """All instruments of one replay (or one process), keyed by name+labels."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], Instrument] = {}
        # Names already checked: a replay looks the same few names up
        # once per record, and the check scans every character.
        self._names: Set[str] = set()

    def __len__(self) -> int:
        return len(self._instruments)

    def _get(self, cls, name: str, labels: Optional[Mapping[str, str]],
             **kwargs) -> Instrument:
        if name not in self._names:
            self._names.add(_check_name(name))
        key = (name, _label_key(labels))
        existing = self._instruments.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ParameterError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"cannot re-register as {cls.kind}"
                )
            return existing
        instrument = cls(key[0], key[1], **kwargs)
        self._instruments[key] = instrument
        return instrument

    def counter(self, name: str,
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str,
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, str]] = None,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def collect(self) -> List[Instrument]:
        """Every instrument, sorted by (name, labels) for stable export."""
        return [
            self._instruments[key] for key in sorted(self._instruments)
        ]

    def get(self, name: str,
            labels: Optional[Mapping[str, str]] = None) -> Optional[Instrument]:
        """The instrument at (name, labels), or None if never touched."""
        return self._instruments.get((name, _label_key(labels)))

    def series(self, name: str) -> List[Instrument]:
        """Every labeled instrument of one metric name, label-sorted."""
        return [
            inst for (n, _), inst in sorted(self._instruments.items())
            if n == name
        ]

    def label_values(self, name: str, label: str) -> List[str]:
        """Distinct values one label takes across a metric's series."""
        seen: Dict[str, None] = {}
        for inst in self.series(name):
            for k, v in inst.labels:
                if k == label:
                    seen.setdefault(v, None)
        return list(seen)
