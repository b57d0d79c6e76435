"""The per-chip tracer shim: namespaced events, built without a copy.

``_ChipTracer`` rewrites each inner scheduler's event for the cluster
stream: local batch ids on ``enqueue``/``batch_open``, local lanes on
``lane_start``/``lane_finish``, and a ``chip`` label on every event.
The property holds it to those rules, written out below as a
``_replace`` per event; the counting test holds a traced cluster replay
to building each event directly, with no ``dataclasses.replace``.
"""

import dataclasses
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.scheduler import ChipEvent, _ChipTracer
from repro.obs import AUX_PHASES, LIFECYCLE_PHASES, RecordingTracer, TraceEvent
from repro.serve import BatchPolicy, ServingSimulator


def namespaced(event, chip, chips):
    """The rewrite rules, one ``_replace`` per event."""
    changes = {"attrs": {**event.attrs, "chip": chip}}
    if event.phase in ("enqueue", "batch_open"):
        if event.batch_id is not None:
            changes["batch_id"] = event.batch_id * chips + chip
    elif event.phase in ("lane_start", "lane_finish"):
        changes["lane"] = event.lane * chips + chip
    return event._replace(**changes)


@st.composite
def chip_events(draw):
    phase = draw(st.sampled_from(LIFECYCLE_PHASES + AUX_PHASES))
    ids = st.none() | st.integers(min_value=0, max_value=10**6)
    lane = (st.integers(min_value=0, max_value=64)
            if phase in ("lane_start", "lane_finish") else ids)
    event = TraceEvent(
        phase, draw(st.floats(min_value=0.0, max_value=1.0)), draw(ids),
        draw(ids), draw(lane), draw(st.text(max_size=4)),
        draw(st.text(max_size=4)),
        draw(st.dictionaries(st.sampled_from(("size", "chip", "params")),
                             st.integers() | st.text(max_size=4),
                             max_size=3)))
    chips = draw(st.integers(min_value=1, max_value=64))
    return event, draw(st.integers(min_value=0, max_value=chips - 1)), chips


@settings(max_examples=300, deadline=None)
@given(case=chip_events())
def test_namespacing_follows_the_rewrite_rules(case):
    event, chip, chips = case
    before = dict(event.attrs)
    base = RecordingTracer()
    _ChipTracer(base, chip, chips).emit(event)
    (out,) = base.events
    assert out == namespaced(event, chip, chips)
    assert type(out) is TraceEvent
    # The inner event keeps its own attrs, untouched.
    assert event.attrs == before and out.attrs is not event.attrs


def calls_to(function, run):
    """How many times ``run()`` enters ``function``, by its code object."""
    code, calls = function.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return len(calls)


def test_a_traced_cluster_replay_makes_no_dataclass_copies(
        tiny_pool, operand_trace):
    trace = operand_trace(40)
    sim = ServingSimulator(tiny_pool, BatchPolicy(max_wait_s=1e-3),
                           scheduler="cluster:adaptive",
                           scheduler_options={"chips": 4})
    tracer = RecordingTracer()
    assert calls_to(dataclasses.replace,
                    lambda: sim.replay(trace, tracer=tracer)) == 0
    assert {"enqueue", "batch_open", "lane_start"} <= {
        e.phase for e in tracer.events if "chip" in e.attrs}
    # The probe sees a copy when there is one.
    assert calls_to(dataclasses.replace, lambda: dataclasses.replace(
        ChipEvent(0.0, 0, "drain"))) == 1
