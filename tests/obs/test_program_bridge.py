"""Satellite: the sram program tracer feeds the obs layer.

``repro.sram.tracer`` predates the obs package; this suite pins the
bridge that makes its per-instruction detail a first-class trace
citizen — ``program_events`` converts TraceEntry cycle costs into
wall-clock ``program`` events that merge with a replay's lifecycle
stream and nest under the owning lane slice in the Chrome export.
"""

import json

from scenarios import SCENARIO_BUILDERS

import repro.obs
from repro.core.layout import DataLayout
from repro.core.modmul import emit_modmul
from repro.obs import RecordingTracer, chrome_trace, program_events
from repro.sram.energy import TECH_45NM
from repro.sram.executor import profile_program
from repro.sram.program import Program
from repro.sram.subarray import SRAMSubarray
from repro.sram.tracer import TracingExecutor


def _traced_program_run():
    """Execute a real emitted modmul kernel under the TracingExecutor."""
    layout = DataLayout(16, 32, 8, order=1)
    program = Program("bridge-modmul")
    emit_modmul(program, layout, 5, 0)
    sub = SRAMSubarray(layout.rows, layout.cols, layout.width)
    ex = TracingExecutor(sub, capacity=4096)
    for instruction in program.instructions:
        ex.execute(instruction)
    return program, ex


class TestReExports:
    def test_obs_is_the_one_import_surface(self):
        from repro.sram import tracer as sram_tracer

        assert repro.obs.TracingExecutor is sram_tracer.TracingExecutor
        assert repro.obs.disassemble is sram_tracer.disassemble
        assert repro.obs.program_events is program_events


class TestProgramEventsFromRealPrograms:
    def test_compiled_ntt_entries_carry_cycle_costs(self):
        program, ex = _traced_program_run()
        entries = list(ex.trace)
        assert entries
        assert all(e.cycle_cost >= 0 for e in entries)
        assert any(e.cycle_cost > 0 for e in entries)
        # The ring buffer holds the tail of the program; its cycles are
        # the price of that suffix, within the whole program's price.
        tail = Program("tail")
        tail.extend(program.instructions[-len(entries):])
        traced = sum(e.cycle_cost for e in entries)
        assert traced == profile_program(tail, TECH_45NM).cycles
        assert traced <= profile_program(program, TECH_45NM).cycles

    def test_events_are_contiguous_on_the_cycle_axis(self):
        _, ex = _traced_program_run()
        events = program_events(ex.trace, TECH_45NM)
        for prev, nxt in zip(events, events[1:]):
            assert nxt.attrs["cycle_start"] == prev.attrs["cycle_end"]
            assert nxt.t_s >= prev.t_s


class TestMergedTrace:
    def test_program_slices_nest_inside_their_lane_slice(self):
        # Record a replay, then anchor a program run at the first
        # batch's lane_start — the workflow a developer follows to see
        # subarray detail under a serving-layer batch.
        tracer = RecordingTracer()
        SCENARIO_BUILDERS["tiny"](tracer=tracer)
        start = tracer.by_phase("lane_start")[0]

        _, ex = _traced_program_run()
        bridged = program_events(
            ex.trace, TECH_45NM, base_t_s=start.t_s,
            lane=start.lane, batch_id=start.batch_id,
        )
        merged = list(tracer.events) + bridged
        doc = chrome_trace(merged)
        json.loads(json.dumps(doc))  # still a valid trace document

        lane_slices = [e for e in doc["traceEvents"]
                       if e.get("cat") == "batch"
                       and e["args"].get("batch_id") == start.batch_id]
        assert len(lane_slices) == 1
        lane_slice = lane_slices[0]
        program_slices = [e for e in doc["traceEvents"]
                          if e.get("cat") == "program"]
        assert len(program_slices) == len(ex.trace)
        for s in program_slices:
            assert s["pid"] == lane_slice["pid"] == 0
            assert s["tid"] == lane_slice["tid"]
            assert s["ts"] >= lane_slice["ts"]

    def test_bridged_events_survive_jsonl_roundtrip(self, tmp_path):
        from repro.obs import read_jsonl, write_jsonl

        _, ex = _traced_program_run()
        events = program_events(ex.trace, TECH_45NM, lane=0, batch_id=1)
        path = tmp_path / "program.jsonl"
        write_jsonl(events, path)
        assert read_jsonl(path) == events


class TestProfilePhase:
    def test_pool_pricing_emits_profile_events(self):
        # A fresh pool prices each (params, op) once; those pricings
        # surface as aux 'profile' events at t=0.
        tracer = RecordingTracer()
        SCENARIO_BUILDERS["tiny"](tracer=tracer)
        profiles = tracer.by_phase("profile")
        assert profiles
        for e in profiles:
            assert e.t_s == 0.0
            assert e.attrs["cycles"] > 0
            assert e.attrs["energy_nj"] > 0
            assert e.attrs["capacity"] >= 1
