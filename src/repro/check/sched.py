"""Scheduler conformance: race/invariant detection over trace events.

A third-party :class:`~repro.sched.base.Scheduler` can double-dispatch
a request, overlap two batches on one lane, or lose a request entirely
without any report-level golden noticing — the aggregates still add up.
This analyzer verifies the serving contract on the one artifact every
scheduler already produces, the :class:`~repro.obs.TraceEvent` stream:

- **Exactly-once disposition** (SCHED001-003): every ``arrive`` reaches
  exactly one of ``respond``/``drop``; no lifecycle event for a request
  that never arrived.
- **Lane exclusivity** (SCHED004-005): no two batches overlap in time
  on one lane, and every ``lane_start`` pairs with a ``lane_finish``.
  Lanes are grouped by ``(lane, params)`` by default because the fifo
  scheduler numbers lanes per parameter set (its lane 0 for Kyber and
  lane 0 for Dilithium are different hardware); pass
  ``shared_lanes=True`` for the global schedulers (slo/adaptive), whose
  :class:`~repro.sched.base.GlobalLanePool` indices are one namespace —
  the stronger check.
- **Batch containment** (SCHED006-007): no ``dispatch`` before its
  ``batch_open``; no request event after its ``respond``.
- **Monotone stages** (SCHED008): per request,
  ``arrive <= admit <= enqueue <= respond`` (and ``drop`` not before
  ``arrive``) on the simulated clock.
- **Conservation** (SCHED009): admitted = responded + in-flight; for a
  complete trace, in-flight must be empty.

Events are analyzed by *timestamp*, never by stream order: the
simulator legitimately emits ``respond`` at dispatch time (its ``t_s``
is the future finish instant) and both lane events at placement time.

:class:`CheckingTracer` runs the same rules live: it wraps any
:class:`~repro.obs.Tracer` (or none), buffers the stream with one list
append per event — cheap enough to leave on — and produces the findings
on :meth:`~CheckingTracer.finish`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.check.diagnostics import Diagnostic, error
from repro.obs.tracer import TraceEvent

#: Slack for float comparisons on the simulated clock.  Legitimate
#: back-to-back placements share exact floats (start = previous
#: finish), so anything past rounding noise is a real overlap.
_EPS = 1e-12

#: Request-scoped lifecycle phases, in causal order (batch-scoped
#: phases carry ``batch_id`` instead and are checked separately).
_STAGE_ORDER = ("arrive", "admit", "enqueue", "dispatch", "respond")


def check_trace(events: Iterable[TraceEvent], *, shared_lanes: bool = False,
                complete: bool = True) -> List[Diagnostic]:
    """Verify the serving contract over one replay's event stream.

    ``complete=True`` asserts end-of-replay invariants too (every
    admitted request responded); pass ``False`` for a truncated stream,
    e.g. a live tail.
    """
    diagnostics: List[Diagnostic] = []
    by_request: Dict[int, Dict[str, List[TraceEvent]]] = {}
    batches: Dict[int, Dict[str, List[TraceEvent]]] = {}

    for event in events:
        if event.request_id is not None:
            by_request.setdefault(event.request_id, {}) \
                .setdefault(event.phase, []).append(event)
        elif event.batch_id is not None and event.phase in (
                "batch_open", "dispatch", "lane_start", "lane_finish"):
            batches.setdefault(event.batch_id, {}) \
                .setdefault(event.phase, []).append(event)

    # -- exactly-once disposition + per-request ordering ---------------
    admitted = responded = 0
    in_flight: List[int] = []
    for request_id, phases in sorted(by_request.items()):
        where = f"request {request_id}"
        if "arrive" not in phases:
            present = ", ".join(sorted(phases))
            diagnostics.append(error(
                "SCHED003", where,
                f"lifecycle event(s) ({present}) for a request that never "
                f"arrived",
                hint="the scheduler invented or renamed a request id",
            ))
            continue
        responds = phases.get("respond", ())
        drops = phases.get("drop", ())
        if len(responds) + len(drops) > 1:
            diagnostics.append(error(
                "SCHED002", where,
                f"disposed {len(responds) + len(drops)} times "
                f"({len(responds)} respond, {len(drops)} drop); the "
                f"contract is exactly once",
                hint="a double dispatch or a drop after dispatch",
            ))
        if "admit" in phases:
            admitted += 1
        if responds:
            responded += 1
        elif not drops:
            if "admit" in phases:
                in_flight.append(request_id)
            if complete:
                diagnostics.append(error(
                    "SCHED001", where,
                    "arrived but was neither responded nor dropped",
                    hint="the scheduler lost the request (flush bug?)",
                ))

        # Monotone stage timestamps, judged on the simulated clock.
        last_t, last_phase = None, None
        for phase in _STAGE_ORDER:
            for event in phases.get(phase, ()):
                if last_t is not None and event.t_s < last_t - _EPS:
                    diagnostics.append(error(
                        "SCHED008", where,
                        f"{phase} at t={event.t_s:.9f}s precedes "
                        f"{last_phase} at t={last_t:.9f}s",
                        hint="stages must advance on the simulated clock",
                    ))
                last_t, last_phase = event.t_s, phase
        for event in phases.get("drop", ()):
            arrive_t = phases["arrive"][0].t_s
            if event.t_s < arrive_t - _EPS:
                diagnostics.append(error(
                    "SCHED008", where,
                    f"drop at t={event.t_s:.9f}s precedes arrive at "
                    f"t={arrive_t:.9f}s",
                    hint="stages must advance on the simulated clock",
                ))
        if responds:
            final_t = max(e.t_s for e in responds)
            for phase, phase_events in phases.items():
                if phase == "respond":
                    continue
                for event in phase_events:
                    if event.t_s > final_t + _EPS:
                        diagnostics.append(error(
                            "SCHED007", where,
                            f"{phase} at t={event.t_s:.9f}s is after the "
                            f"respond at t={final_t:.9f}s",
                            hint="nothing may happen to a responded request",
                        ))

    # -- batch containment + lane pairing ------------------------------
    lane_intervals: Dict[Tuple, List[Tuple[float, float, int]]] = {}
    for batch_id, phases in sorted(batches.items()):
        where = f"batch {batch_id}"
        opens = phases.get("batch_open", ())
        for event in phases.get("dispatch", ()):
            if not opens:
                diagnostics.append(error(
                    "SCHED006", where,
                    "dispatched but no batch_open was ever emitted",
                    hint="the batcher must open a batch before the "
                         "scheduler dispatches it",
                ))
            elif event.t_s < min(o.t_s for o in opens) - _EPS:
                diagnostics.append(error(
                    "SCHED006", where,
                    f"dispatch at t={event.t_s:.9f}s precedes batch_open "
                    f"at t={min(o.t_s for o in opens):.9f}s",
                    hint="a batch cannot run before it exists",
                ))
        starts = phases.get("lane_start", ())
        finishes = phases.get("lane_finish", ())
        if len(starts) != len(finishes):
            diagnostics.append(error(
                "SCHED005", where,
                f"{len(starts)} lane_start vs {len(finishes)} lane_finish",
                hint="every lane occupancy must open and close",
            ))
        for start, finish in zip(starts, finishes):
            if finish.t_s < start.t_s - _EPS:
                diagnostics.append(error(
                    "SCHED005", where,
                    f"lane_finish at t={finish.t_s:.9f}s precedes "
                    f"lane_start at t={start.t_s:.9f}s",
                    hint="negative service time",
                ))
                continue
            key: Tuple = (start.lane,) if shared_lanes else (
                start.lane, start.attrs.get("params"))
            lane_intervals.setdefault(key, []).append(
                (start.t_s, finish.t_s, batch_id))

    # -- lane-interval overlap -----------------------------------------
    for key, intervals in sorted(lane_intervals.items(), key=lambda i: str(i[0])):
        intervals.sort()
        for (s0, f0, b0), (s1, f1, b1) in zip(intervals, intervals[1:]):
            if s1 < f0 - _EPS:
                lane_name = key[0] if shared_lanes else f"{key[0]}/{key[1]}"
                diagnostics.append(error(
                    "SCHED004", f"lane {lane_name}",
                    f"batch {b1} starts at t={s1:.9f}s while batch {b0} "
                    f"runs until t={f0:.9f}s",
                    hint="the scheduler double-booked a lane",
                ))

    # -- conservation ---------------------------------------------------
    if complete and admitted != responded:
        shown = ", ".join(str(i) for i in in_flight[:5])
        more = f" (+{len(in_flight) - 5} more)" if len(in_flight) > 5 else ""
        diagnostics.append(error(
            "SCHED009", "replay",
            f"{admitted} admitted but {responded} responded; "
            f"in flight at end: {shown or 'unknown'}{more}",
            hint="admitted = responded + in-flight must hold, and a "
                 "finished replay leaves nothing in flight",
        ))
    return diagnostics


class CheckingTracer:
    """A :class:`~repro.obs.Tracer` that verifies the stream it records.

    Wraps an optional inner tracer (events are forwarded when the inner
    tracer is enabled) and buffers every event; the conformance rules
    run once, at :meth:`finish`, so the per-event cost is one list
    append.  A replay calls :meth:`finish` itself, so its time includes
    that one pass over the stream.

    Typical use::

        tracer = CheckingTracer()
        simulator.replay(trace, tracer=tracer)
        findings = tracer.finish()        # [] when the contract holds
    """

    enabled = True

    def __init__(self, inner=None, *, shared_lanes: bool = False):
        self.inner = inner
        self.shared_lanes = shared_lanes
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)
        inner = self.inner
        if inner is not None and inner.enabled:
            inner.emit(event)

    def __len__(self) -> int:
        return len(self.events)

    def finish(self, *, complete: bool = True) -> List[Diagnostic]:
        """Run the conformance rules over everything emitted so far."""
        return check_trace(self.events, shared_lanes=self.shared_lanes,
                           complete=complete)


def checked_replay(build, *, shared_lanes: bool = False,
                   tracer=None) -> Tuple[object, List[Diagnostic]]:
    """Run ``build(tracer=...)`` under a :class:`CheckingTracer`.

    ``build`` is any callable accepting a ``tracer`` keyword (the obs
    golden-scenario builders have this shape); returns ``(result,
    findings)``.  Used by ``tests/obs/scenarios.py --write`` to refuse
    re-pinning goldens over a broken invariant.
    """
    checking = CheckingTracer(tracer, shared_lanes=shared_lanes)
    result = build(tracer=checking)
    return result, checking.finish()
