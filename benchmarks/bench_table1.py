"""Table I: BP-NTT (measured on the simulator) vs every baseline.

Regenerates all ten rows — latency, throughput, energy, area,
throughput-per-area and throughput-per-power for a 256-point NTT — and
checks the paper's headline ordering.  The benchmark times the compiled
256-point NTT program executing on the subarray simulator.
"""

import pytest

from repro.analysis.tables import (
    BP_NTT_PAPER,
    build_table1,
    format_table1,
    headline_ratios,
    measure_bp_ntt,
)


@pytest.fixture(scope="module")
def measured():
    return measure_bp_ntt()


def test_table1_report(measured, artifact_writer, benchmark):
    model, report, engine = measured
    rows = build_table1(measured=model)

    lines = [format_table1(rows), ""]
    lines.append("Headline ratios (measured BP-NTT row vs baselines):")
    for name, r in headline_ratios(rows).items():
        ta = f"  TA x{r['ta_ratio']:.1f}" if "ta_ratio" in r else ""
        lines.append(f"  {name:<10} TP x{r['tp_ratio']:.1f}{ta}")
    lines.append("")
    lines.append(
        f"reproduction delta: latency {report.latency_s / BP_NTT_PAPER.latency_s:.2f}x "
        f"paper, batch {engine.batch} vs paper's implied 16 (256-pt spills to "
        f"2 tiles; see EXPERIMENTS.md)"
    )
    artifact_writer("table1", "\n".join(lines))

    # Shape assertions: who wins what.
    by_name = {r.name: r for r in rows}
    bp = by_name["BP-NTT (measured)"]
    assert all(
        bp.throughput_per_power > m.throughput_per_power
        for n, m in by_name.items()
        if not n.startswith("BP-NTT")
    ), "BP-NTT must win throughput-per-power outright"
    assert bp.area_mm2 == min(
        m.area_mm2 for m in rows if m.area_mm2 is not None
    ), "BP-NTT must have the smallest area"

    # Benchmark: one full 256-point batch NTT on the simulator.
    def run_ntt():
        engine.gang[0].subarray.reset_peripherals()
        return engine.gang[0].run(engine.compiled_program("ntt")).cycles

    cycles = benchmark.pedantic(run_ntt, rounds=1, iterations=1)
    assert cycles == report.cycles
