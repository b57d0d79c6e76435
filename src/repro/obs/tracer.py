"""The tracer seam: request-lifecycle span events with a free null path.

Every serving layer emits :class:`TraceEvent` records through a
:class:`Tracer` — the simulator (arrive/admit/drop/dispatch/respond),
the schedulers (enqueue), the batcher (batch_open), the lane pools
(lane_start/lane_finish) and the engine pool's pricing path (profile).
An event is a named tuple whose phase is checked when it is built, so
one replay can build thousands cheaply and every tracer reads the same
layout.  The contract is deliberately tiny:

- ``tracer.enabled`` is a plain attribute every call site checks
  *before* constructing an event, so the default :class:`NullTracer`
  costs one attribute read per potential event and the replay's
  simulated numbers are byte-identical with tracing off and on
  (asserted against checked-in goldens in ``tests/obs``).
- ``tracer.emit(event)`` records the event.  Tracers are passive:
  nothing in the serving stack ever *reads* a tracer, so no emission
  can perturb a scheduling or pricing decision.

:class:`RecordingTracer` is the in-memory implementation the exporters
(:mod:`repro.obs.exporters`) consume.  Program-level (subarray) detail
from :mod:`repro.sram.tracer` joins the same stream through
:func:`program_events`, so one trace file can show per-instruction
activity nested under the lane slice that ran the batch.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, Iterable, List, Optional, Protocol, runtime_checkable

from repro.errors import ParameterError

#: Request-lifecycle phases, in causal order.  ``admit`` and ``drop``
#: are alternatives; everything after ``admit`` only happens for
#: admitted requests.  ``batch_open``/``dispatch``/``lane_start``/
#: ``lane_finish`` are batch-scoped (their events carry ``batch_id``,
#: not ``request_id``); the rest are request-scoped.
LIFECYCLE_PHASES = (
    "arrive",
    "admit",
    "drop",
    "enqueue",
    "batch_open",
    "dispatch",
    "lane_start",
    "lane_finish",
    "respond",
)

#: Non-lifecycle phases sharing the stream: ``profile`` (a backend
#: priced a kernel), ``program`` (per-instruction subarray detail
#: bridged from :mod:`repro.sram.tracer`) and ``alert`` (an SLO
#: burn-rate rule fired or resolved — see :mod:`repro.obs.slo`).
AUX_PHASES = ("profile", "program", "alert")

_PHASES = frozenset(LIFECYCLE_PHASES + AUX_PHASES)


class TraceEvent(namedtuple("TraceEvent", "phase t_s request_id batch_id "
                                           "lane kind tenant attrs")):
    """One timestamped span event on the replay's simulated clock.

    A named tuple, validated on construction: an unknown ``phase``
    raises :class:`~repro.errors.ParameterError` whether the event is
    built by keyword or positionally, through :meth:`_make` or
    :meth:`_replace`, or unpickled.  Emit sites build it positionally,
    in field order, since the replay builds thousands per trace.

    Attributes:
        phase: one of :data:`LIFECYCLE_PHASES` or :data:`AUX_PHASES`.
        t_s: simulated time of the event (trace clock, seconds).
        request_id / batch_id / lane: the entity the event concerns;
            ``None`` where not applicable (e.g. ``batch_open`` has no
            request, ``arrive`` no batch).
        kind / tenant: traffic labels copied from the request so
            exporters can group without a join.
        attrs: phase-specific payload (drop reason, batch size, profile
            cycles, ...), a fresh ``{}`` when omitted.  Values must be
            JSON-serializable scalars or short strings — the JSONL
            exporter writes them verbatim.
    """

    __slots__ = ()

    def __new__(cls, phase: str, t_s: float, request_id: Optional[int] = None,
                batch_id: Optional[int] = None, lane: Optional[int] = None,
                kind: str = "", tenant: str = "",
                attrs: Optional[Dict[str, object]] = None) -> TraceEvent:
        if phase not in _PHASES:
            raise ParameterError(
                f"unknown trace phase {phase!r}; expected one of "
                f"{LIFECYCLE_PHASES + AUX_PHASES}"
            )
        return tuple.__new__(cls, (phase, t_s, request_id, batch_id, lane,
                                   kind, tenant, {} if attrs is None else attrs))

    @classmethod
    def _make(cls, iterable) -> TraceEvent:
        # The namedtuple ``_make`` (which ``_replace`` calls) would skip
        # the phase check.
        return cls(*iterable)


@runtime_checkable
class Tracer(Protocol):
    """Structural interface every emitting layer targets."""

    enabled: bool

    def emit(self, event: TraceEvent) -> None:
        """Record one event.  Must never raise for well-formed events."""
        ...  # pragma: no cover - protocol


class NullTracer:
    """The default tracer: observably absent.

    ``enabled`` is ``False`` so call sites skip event construction
    entirely; ``emit`` is a no-op for callers that don't bother
    checking.  One shared instance (:data:`NULL_TRACER`) serves the
    whole process.
    """

    enabled = False

    def emit(self, event: TraceEvent) -> None:
        pass


#: Process-wide default tracer instance.
NULL_TRACER = NullTracer()


class RecordingTracer:
    """Appends every event to an in-memory list, in emission order.

    The list is what the exporters consume; :meth:`by_phase` and
    :meth:`request_ids` are conveniences for tests and summaries.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def by_phase(self, phase: str) -> List[TraceEvent]:
        return [e for e in self.events if e.phase == phase]

    def request_ids(self) -> List[int]:
        """Distinct request ids seen, in first-appearance order."""
        seen: Dict[int, None] = {}
        for e in self.events:
            if e.request_id is not None:
                seen.setdefault(e.request_id, None)
        return list(seen)


def program_events(entries: Iterable, tech, *, base_t_s: float = 0.0,
                   lane: Optional[int] = None,
                   batch_id: Optional[int] = None) -> List[TraceEvent]:
    """Bridge :class:`repro.sram.tracer.TraceEntry` records into the stream.

    ``entries`` is a :class:`~repro.sram.tracer.TracingExecutor` ring
    buffer (or any iterable of its entries); ``tech`` converts each
    entry's cumulative cycle count to seconds on the simulated clock.
    ``base_t_s`` anchors instruction time zero — pass a batch's
    ``lane_start`` instant and the per-instruction slices nest under
    that lane slice in the Chrome-trace export.  Each event's ``attrs``
    carry the disassembled text, the rows the instruction wrote, and
    the start/end cycle of the instruction.
    """
    events: List[TraceEvent] = []
    cursor = 0
    for entry in entries:
        cost = getattr(entry, "cycle_cost", 0)
        events.append(
            TraceEvent(
                phase="program",
                t_s=base_t_s + tech.cycles_to_seconds(cursor),
                lane=lane,
                batch_id=batch_id,
                attrs={
                    "index": entry.index,
                    "text": entry.text,
                    "rows": list(entry.changed_rows),
                    "cycle_start": cursor,
                    "cycle_end": cursor + cost,
                    "duration_s": tech.cycles_to_seconds(cost),
                },
            )
        )
        cursor += cost
    return events
