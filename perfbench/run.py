"""Host-time benchmark of the BP-NTT serving simulator.

Run from the root of a repository checkout (nothing to install: the
checkout's ``src/`` goes first on ``sys.path``)::

    python3 perfbench/run.py --workload cluster-64 --seed 2023 --seconds 10 --trace 0
    python3 perfbench/run.py --all       # every workload, each in a fresh interpreter

A run serves one workload in this interpreter, which must be fresh so
that set-up is cold and peak RSS belongs to the workload alone:

1. import the ``repro`` modules the run uses (``import_s``);
2. generate the seeded trace, untimed (``tracegen_s``);
3. build a fresh serving stack and price every distinct batch key, at
   least ``MIN_SETUPS`` and up to ``SETUP_REPEATS`` times while they fit
   in ``SETUP_BUDGET_S``; ``setup_s`` is the imports plus the median
   build.  The first stack serves one replay before the next is built,
   so the run replays on two fresh stacks;
4. replay warm on the last stack, each replay followed by its report
   output, until ``--seconds`` have passed and at least ``MIN_REPLAYS``
   ran in all; ``replay_rps`` and ``total_s`` come from the medians;
5. run the correctness gate (:mod:`perfbench.gate`).

Host times are reported at the reference machine's speed, read off
speed probes taken while each segment runs (:mod:`perfbench.clock`);
the run also prints the wall times.

``--trace 1`` instead makes one untraced pass and one host-traced pass
(set-up, replay, report output) and reports per-layer self time and
counts (:mod:`perfbench.layers`), writing the host spans as Chrome-trace
JSON under ``perfbench/out/``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from perfbench.clock import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

WORKLOADS = ("pqc-slo-cold", "cluster-64", "cluster-16-obs")

#: (name, unit) of every end-to-end metric a ``--trace 0`` run reports.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("replay_rps", "req/s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_throughput_rps", "req/s"),
    ("sim_p99_ms", "ms"),
    ("sim_nj_per_req", "nJ"),
)

SETUP_REPEATS = 5
MIN_SETUPS = 2
SETUP_BUDGET_S = 6.0
MIN_REPLAYS = 3


def use_checkout() -> None:
    """Put this checkout's ``src/`` first and its root last on ``sys.path``."""
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    sys.path.insert(0, str(SRC))


def _import_modules() -> None:
    import repro.backends.model  # noqa: F401
    import repro.cluster  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.sched.adaptive  # noqa: F401
    import repro.sched.fifo  # noqa: F401
    import repro.sched.slo  # noqa: F401
    import repro.serve  # noqa: F401


def import_repro(clock: Clock) -> float:
    """Import every product module a run uses; the reference seconds."""
    return clock.time(_import_modules)[2]


# -- one pass: set-up, replay, report output ---------------------------------


def _setup(workload, requests, backend: str):
    """A fresh serving stack with every distinct batch key priced."""
    server = workload.server(backend)
    for key in dict.fromkeys(request.batch_key for request in requests):
        server.pool.profile(key, backend=backend)
    return server


def _serve(workload, server, requests):
    """One replay; obs workloads record with the product's RecordingTracer."""
    from repro.obs import RecordingTracer

    recorder = RecordingTracer() if workload.records_obs else None
    return server.replay(requests, tracer=recorder), recorder


def _output(workload, report, recorder, out_dir: Path) -> str:
    """Report output: the canonical serialization, plus on obs workloads
    the exports ``serve --trace-out --metrics-out`` writes."""
    from repro.obs import exporters
    from repro.serve import metrics

    text = metrics.serialize_report(report)
    if recorder is not None:
        stem = out_dir / workload.name
        exporters.write_chrome_trace(recorder.events, f"{stem}.trace.json")
        exporters.write_jsonl(recorder.events, f"{stem}.trace.jsonl")
        exporters.write_prometheus(report.registry, f"{stem}.prom")
    return text


def _simulated(report) -> Dict[str, float]:
    overall = report.overall
    return {
        "sim_throughput_rps": report.throughput_rps,
        "sim_p99_ms": overall.p99_ms,
        "sim_nj_per_req": overall.energy_per_request_nj,
        "sim.mean_queue_ms": overall.mean_queue_ms,
        "sim.mean_occupancy": report.mean_occupancy,
        "sim.utilization": report.utilization,
        "sim.drop_frac": report.drop_rate,
        "sim.served": report.count,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(failed: int, attempted: int, values: Dict[str, float],
            declared: Sequence[Tuple[str, str]],
            lines: List[str]) -> Dict[str, Any]:
    failed = min(failed, attempted)
    lines.append(f"error_frac {failed / attempted:.6g} "
                 f"({failed} failed of {attempted} attempted)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared},
        "lines": lines,
    }


def _seconds(pairs: Sequence[Tuple[float, float]]) -> str:
    """Reference seconds with the wall seconds in parentheses."""
    return ", ".join(f"{ref:.3f} ({wall:.3f})" for wall, ref in pairs) + " s"


# -- the two run kinds --------------------------------------------------------


def _untraced(workload, requests, *, seed, seconds, quick, backend, pinned,
              clock, import_s, tracegen_s, out_dir) -> Dict[str, Any]:
    from perfbench import gate
    from perfbench.clock import PROBE_REF_S

    offered = len(requests)
    setups: List[Tuple[float, float]] = []  # (wall, reference) seconds
    replays: List[Tuple[float, float]] = []
    outputs: List[Tuple[float, float]] = []
    first_text: List[str] = []  # the first replay's report output
    diverged: List[int] = []  # replays whose output differs from it
    sim: Dict[str, float] = {}
    sample: list = []
    failed = 0

    def replay(server) -> None:
        nonlocal failed
        (report, recorder), wall, ref = clock.time(
            lambda: _serve(workload, server, requests))
        replays.append((wall, ref))
        text, wall, ref = clock.time(
            lambda: _output(workload, report, recorder, out_dir))
        outputs.append((wall, ref))
        failed += gate.conservation_failures(requests, report)
        if not first_text:
            first_text.append(text)
            sim.update(_simulated(report))
            sample.extend(gate.sample_responses(report, seed))
        elif text != first_text[0]:
            diverged.append(len(replays))

    server = None
    while len(setups) < MIN_SETUPS or (
            len(setups) < SETUP_REPEATS
            and sum(wall for wall, _ in setups) < SETUP_BUDGET_S):
        server = None  # release the previous stack before building the next
        gc.collect()
        server, wall, ref = clock.time(
            lambda: _setup(workload, requests, backend))
        setups.append((wall, ref))
        if len(setups) == 1:
            replay(server)
    loop_start = time.perf_counter()
    while (len(replays) < MIN_REPLAYS
           or time.perf_counter() - loop_start < seconds):
        replay(server)
    peak_rss_mb = _peak_rss_mb()

    attempted = offered * len(replays)
    failed += gate.result_failures(sample)
    found = gate.digest(first_text[0])
    expected = gate.pinned_digest(workload.name, seed=seed, quick=quick,
                                  pinned=pinned)
    if diverged or expected not in (None, found):
        failed = attempted
    setup_s = import_s + statistics.median(ref for _, ref in setups)
    values = {
        "setup_s": setup_s,
        "replay_rps": offered / statistics.median(ref for _, ref in replays),
        "total_s": setup_s + statistics.median(
            replay[1] + output[1] for replay, output in zip(replays, outputs)),
        "peak_rss_mb": peak_rss_mb,
        **sim,
    }
    served = int(sim["sim.served"])
    lines = [
        f"workload {workload.name}: {offered:,} requests from seed {seed} "
        f"(generated in {tracegen_s:.3f} s, untimed)",
        f"imports {import_s:.3f} s; {len(setups)} cold set-up(s) pricing "
        f"{len({r.batch_key for r in requests}):,} batch keys: "
        f"{_seconds(setups)}",
        f"{len(replays)} warm replay(s), the first on the first stack: "
        f"{_seconds(replays)}; report output: {_seconds(outputs)}",
        f"(reference seconds, then wall seconds; {len(clock.probes):,} "
        f"speed probes, median {statistics.median(clock.probes) * 1e3:.3f} "
        f"ms against {PROBE_REF_S * 1e3:.3f} ms on the reference machine)",
        f"sim_p99_ms over {served:,} served requests "
        f"({served - math.ceil(served * 0.99)} beyond p99)",
        f"serialize_report sha256 {found} "
        f"({'pinned' if expected is not None else 'no pin for this seed'})",
    ]
    if diverged:
        lines.append(f"replay(s) {diverged} serialized differently from "
                     f"the first")
    return _result(failed, attempted, values, END_TO_END, lines)


def _traced(workload, requests, *, seed, quick, backend, pinned, import_s,
            tracegen_s, out_dir) -> Dict[str, Any]:
    from perfbench import gate, layers
    from perfbench.spans import HostSpans

    start = time.perf_counter()
    server = _setup(workload, requests, backend)
    report, recorder = _serve(workload, server, requests)
    untraced_text = _output(workload, report, recorder, out_dir)
    untraced_s = time.perf_counter() - start
    del server, report, recorder
    gc.collect()

    spans = HostSpans()
    layers.install(spans)
    start = time.perf_counter()
    try:
        server = spans.call(layers.HARNESS, "setup",
                            lambda: _setup(workload, requests, backend))
        report, recorder = spans.call(
            layers.HARNESS, "replay",
            lambda: _serve(workload, server, requests))
        text = spans.call(layers.HARNESS, "report output",
                          lambda: _output(workload, report, recorder, out_dir))
    finally:
        traced_s = time.perf_counter() - start
        spans.restore()

    offered = len(requests)
    failed = (gate.conservation_failures(requests, report)
              + gate.result_failures(gate.sample_responses(report, seed)))
    found = gate.digest(text)
    expected = gate.pinned_digest(workload.name, seed=seed, quick=quick,
                                  pinned=pinned)
    if text != untraced_text or expected not in (None, found):
        failed = offered
    values = layers.layer_metrics(
        spans, offered=offered, traced_s=traced_s,
        obs_events=len(recorder.events) if recorder is not None else 0)
    values.update(
        import_s=import_s, tracegen_s=tracegen_s,
        trace_overhead_frac=traced_s / untraced_s - 1.0,
        **{name: value for name, value in _simulated(report).items()
           if name.startswith("sim.")},
    )
    trace_path = out_dir / f"{workload.name}.host-trace.json"
    spans.write_chrome_trace(trace_path)
    lines = [
        f"workload {workload.name}: {offered:,} requests from seed {seed}, "
        f"traced pass {traced_s:.3f} s vs untraced {untraced_s:.3f} s",
        layers.format_table(spans, traced_s),
        f"host spans: {trace_path} ({len(spans.spans):,} kept, "
        f"{spans.dropped:,} high-frequency spans counted but not kept)",
        f"serialize_report sha256 {found} "
        f"({'identical' if text == untraced_text else 'DIFFERS'} untraced)",
    ]
    return _result(failed, offered, values, layers.PER_LAYER, lines)


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 quick: bool = False, backend: str = "model",
                 pinned: Optional[str] = None,
                 clock: Optional[Clock] = None, import_s: float = 0.0,
                 out_dir: Path = OUT_DIR) -> Dict[str, Any]:
    """One benchmark run of workload ``name`` in this interpreter.

    ``import_s`` is the reference time :func:`import_repro` took on
    ``clock``.

    ``quick`` shrinks the trace, and ``backend``/``pinned`` swap in
    another serving backend or digest pin: the benchmark's own tests
    use them to prove the correctness gate fires.
    """
    from perfbench import workloads
    from perfbench.clock import Clock

    workload = workloads.WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    with workloads.tiny_ring():
        start = time.perf_counter()
        requests = workload.trace(seed, quick)
        tracegen_s = time.perf_counter() - start
        common = dict(seed=seed, quick=quick, backend=backend,
                      pinned=pinned, import_s=import_s,
                      tracegen_s=tracegen_s, out_dir=out_dir)
        if trace:
            return _traced(workload, requests, **common)
        return _untraced(workload, requests, seconds=seconds,
                         clock=clock or Clock(), **common)


# -- command line -------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:,.6g}"


def _summary(results: Dict[str, Optional[Dict[str, Any]]]) -> str:
    """One table: every metric (with error_frac) by workload."""
    first = next((result for result in results.values() if result), None)
    if first is None:
        return "no workload produced a result"
    header = f"{'metric':<36}" + "".join(f"{name:>16}" for name in results)
    rows = [header, "-" * len(header)]
    for metric, body in first["metrics"].items():
        cells = "".join(
            f"{_fmt(result['metrics'][metric]['value']) if result else 'FAILED':>16}"
            for result in results.values())
        rows.append(f"{metric + ' (' + body['unit'] + ')':<36}{cells}")
    cells = "".join(
        f"{_fmt(result['failed'] / result['attempted']) if result else 'FAILED':>16}"
        for result in results.values())
    rows.append(f"{'error_frac (fraction)':<36}{cells}")
    return "\n".join(rows)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    results: Dict[str, Optional[Dict[str, Any]]] = {}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1]) if proc.returncode == 0 \
                else None
        except (IndexError, json.JSONDecodeError):
            results[name] = None
    print()
    print(_summary(results))
    return 0 if all(result and result["correct"]
                    for result in results.values()) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in a fresh "
                             "interpreter, and print one table")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="warm-replay measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer host time from a traced "
                             "pass instead of the end-to-end metrics")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        parser.exit(2, f"error: no repro package under {SRC}; run from a "
                       "repository checkout\n")
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    use_checkout()
    from perfbench.clock import Clock

    clock = Clock()
    import_s = import_repro(clock)
    result = run_workload(args.workload, seed=args.seed,
                          seconds=args.seconds, trace=bool(args.trace),
                          clock=clock, import_s=import_s)
    print("\n".join(result.pop("lines")))
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {_fmt(metric['value']):>16} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
