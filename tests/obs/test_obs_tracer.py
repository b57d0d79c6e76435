"""Tracer seam unit tests: events, null path, recording, program bridge."""

import pickle

import pytest

from repro.errors import ParameterError
from repro.obs import (
    AUX_PHASES,
    LIFECYCLE_PHASES,
    NULL_TRACER,
    NullTracer,
    RecordingTracer,
    TraceEvent,
    Tracer,
    program_events,
    read_jsonl,
    to_jsonl,
    write_jsonl,
)
from repro.sram.energy import TECH_45NM
from repro.sram.executor import profile_program
from repro.sram.program import Program
from repro.sram.subarray import SRAMSubarray
from repro.sram.tracer import TracingExecutor


class TestTraceEvent:
    def test_all_declared_phases_construct(self):
        for phase in LIFECYCLE_PHASES + AUX_PHASES:
            assert TraceEvent(phase=phase, t_s=0.0).phase == phase

    def test_unknown_phase_rejected(self):
        with pytest.raises(ParameterError, match="unknown trace phase"):
            TraceEvent(phase="teleport", t_s=0.0)

    def test_defaults_are_entity_free(self):
        e = TraceEvent(phase="arrive", t_s=1.5)
        assert e.request_id is None and e.batch_id is None and e.lane is None
        assert e.kind == "" and e.tenant == "" and e.attrs == {}

    def test_frozen(self):
        e = TraceEvent(phase="arrive", t_s=0.0)
        with pytest.raises(AttributeError):
            e.t_s = 1.0

    def test_positional_is_keyword_and_attrs_are_fresh(self):
        e = TraceEvent("respond", 2.0, 7, 3, 1, "ntt", "t0", {"size": 4})
        assert e == TraceEvent(phase="respond", t_s=2.0, request_id=7,
                               batch_id=3, lane=1, kind="ntt", tenant="t0",
                               attrs={"size": 4})
        assert repr(e).startswith("TraceEvent(phase='respond', t_s=2.0, ")
        assert TraceEvent("admit", 0.0).attrs is not TraceEvent("admit", 0.0).attrs

    def test_every_way_in_checks_the_phase(self, tmp_path):
        e = TraceEvent("enqueue", 1.0, 4, 2, None, "ntt", "t0", {"k": 1})
        assert TraceEvent._make(e) == e
        assert e._replace(lane=3) == (*e[:4], 3, *e[5:])
        assert type(e._replace(lane=3)) is TraceEvent
        assert pickle.loads(pickle.dumps(e)) == e
        path = tmp_path / "events.jsonl"
        write_jsonl([e], path)
        assert read_jsonl(path) == [e]

        with pytest.raises(ParameterError, match="unknown trace phase"):
            TraceEvent("teleport", 0.0)
        with pytest.raises(ParameterError, match="unknown trace phase"):
            TraceEvent._make(("teleport", *e[1:]))
        with pytest.raises(ParameterError, match="unknown trace phase"):
            e._replace(phase="teleport")
        # A tuple built around the check is caught when it is unpickled.
        forged = tuple.__new__(TraceEvent, ("teleport", *e[1:]))
        with pytest.raises(ParameterError, match="unknown trace phase"):
            pickle.loads(pickle.dumps(forged))
        path.write_text(to_jsonl([e]).replace('"enqueue"', '"teleport"'))
        with pytest.raises(ParameterError, match="unknown trace phase"):
            read_jsonl(path)


class TestNullTracer:
    def test_disabled_and_silent(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.emit(TraceEvent(phase="arrive", t_s=0.0))  # no-op, no error

    def test_shared_singleton_is_a_tracer(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert isinstance(NULL_TRACER, Tracer)


class TestRecordingTracer:
    def test_records_in_emission_order(self):
        tracer = RecordingTracer()
        assert tracer.enabled is True
        for i, phase in enumerate(("arrive", "enqueue", "respond")):
            tracer.emit(TraceEvent(phase=phase, t_s=i * 1.0, request_id=7))
        assert len(tracer) == 3
        assert [e.phase for e in tracer.events] == \
            ["arrive", "enqueue", "respond"]
        assert isinstance(tracer, Tracer)

    def test_by_phase_and_request_ids(self):
        tracer = RecordingTracer()
        tracer.emit(TraceEvent(phase="arrive", t_s=0.0, request_id=2))
        tracer.emit(TraceEvent(phase="arrive", t_s=0.1, request_id=1))
        tracer.emit(TraceEvent(phase="batch_open", t_s=0.1, batch_id=0))
        tracer.emit(TraceEvent(phase="respond", t_s=0.2, request_id=2))
        assert len(tracer.by_phase("arrive")) == 2
        assert tracer.request_ids() == [2, 1]  # first-appearance order


class TestProgramEvents:
    def test_cycle_accounting_places_entries_back_to_back(self):
        sub = SRAMSubarray(8, 16, 8)
        ex = TracingExecutor(sub)
        from repro.sram.isa import SetFlags, Unary, UnaryOp

        sub.storage.write_row(0, 0xAA)
        program = Program("steps")
        program.emit(Unary(UnaryOp.COPY, 1, 0))
        program.emit(SetFlags(0b1))
        program.emit(Unary(UnaryOp.NOT, 2, 1))
        for instruction in program.instructions:
            ex.execute(instruction)
        entries = list(ex.trace)
        assert all(e.cycle_cost > 0 for e in entries)
        assert sum(e.cycle_cost for e in entries) == \
            profile_program(program, TECH_45NM).cycles

        events = program_events(entries, TECH_45NM, base_t_s=1.0,
                                lane=3, batch_id=42)
        assert len(events) == len(entries)
        cursor = 0
        for event, entry in zip(events, entries):
            assert event.phase == "program"
            assert event.lane == 3 and event.batch_id == 42
            assert event.t_s == 1.0 + TECH_45NM.cycles_to_seconds(cursor)
            assert event.attrs["cycle_start"] == cursor
            cursor += entry.cycle_cost
            assert event.attrs["cycle_end"] == cursor
            assert event.attrs["duration_s"] == \
                TECH_45NM.cycles_to_seconds(entry.cycle_cost)
            assert event.attrs["text"] == entry.text

    def test_total_duration_matches_executor_clock(self):
        sub = SRAMSubarray(8, 16, 8)
        ex = TracingExecutor(sub)
        from repro.sram.isa import SetFlags

        program = Program("flags")
        for i in range(5):
            program.emit(SetFlags(i % 2))
        for instruction in program.instructions:
            ex.execute(instruction)
        events = program_events(ex.trace, TECH_45NM)
        last = events[-1]
        assert last.attrs["cycle_end"] == \
            profile_program(program, TECH_45NM).cycles
