"""Command-line interface: regenerate any paper artifact.

Usage::

    python -m repro.cli table1            # Table I
    python -m repro.cli fig1              # roofline data
    python -m repro.cli fig6              # worked modmul example
    python -m repro.cli fig7              # footprint comparison
    python -m repro.cli fig8a             # bitwidth sweep
    python -m repro.cli fig8b             # order sweep
    python -m repro.cli verify            # differential campaigns
    python -m repro.cli breakdown         # butterfly cycle breakdown
    python -m repro.cli serve             # request-level serving simulation
    python -m repro.cli trace t.json      # per-stage latency breakdown
    python -m repro.cli watch             # windowed telemetry of a replay
    python -m repro.cli backends          # registered execution backends
    python -m repro.cli hedepth           # HE noise per multiplicative level
    python -m repro.cli check             # static analyzers (repro.check)

Replays: one frozen :class:`repro.serve.ReplayConfig` describes a
replay, and its fields are the replay flags.
:func:`repro.serve.config.add_replay_flags` generates ``--scenario``,
``--rate``, ``--backend``, ``--scheduler``, ``--chips``, ``--router``
and the rest from the field table, reading choices from the scenario,
backend, scheduler and router registries when the parser is built.
``serve`` takes every replay flag; ``watch`` takes all but the
``--trace-out``/``--metrics-out`` sinks, with live defaults of its own
(``mixed-slo`` bursty traffic under ``slo``); ``check trace`` takes
``--scheduler``, ``--chips`` and ``--seed``.  Each builds its replay
through :meth:`~repro.serve.ReplayConfig.from_args`.

``serve --chips N`` shards the replay across N chips behind one front
door (:mod:`repro.cluster`): the router places each request on a chip,
whose scheduler batches it; a cluster of one replays byte-identically
to the single-chip path.  ``serve --scenario he-mul`` replays BFV-lite
ciphertext products; ``hedepth`` charts the noise they accumulate per
multiplicative level on the paper's three HE parameter sets.

Observability (:mod:`repro.obs`): ``serve --trace-out t.json`` writes
the request lifecycle as a Chrome trace (``.jsonl``: raw events),
``--metrics-out m.prom`` the metrics registry in Prometheus text, and
``--slo-policy policy.json`` adds per-tenant burn-rate alerts to the
report.  ``trace <file>`` prints the per-stage latency breakdown of a
recorded trace; ``watch`` renders the windowed metric stream of a live
replay or a ``--from-jsonl`` recording as a refreshing table; ``bench
compare baseline/ fresh/`` diffs ``BENCH_*.json`` artifacts and exits
non-zero on regression (the CI trend gate).

Static checks (:mod:`repro.check`): ``check program`` verifies compiled
instruction streams, ``check he`` bounds multiply-chain noise, ``check
trace`` runs the scheduler-conformance rules over a recorded JSONL
trace or a live ``--scenario`` replay (``--chips N`` adds the cluster
routing rules), ``check registry`` detects registry drift, and ``check
all`` runs everything plus any user-registered rules.  ``--json`` emits
machine-readable findings; the exit code is 1 when any error-severity
diagnostic fires and ``--catalog`` lists every rule id.

All output goes to stdout; the heavy targets (table1, serve with HE
traffic) run the cycle-level simulator or compile large programs and
take some seconds.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_table1(_: argparse.Namespace) -> None:
    from repro.analysis.tables import build_table1, format_table1

    print(format_table1(build_table1()))


def _cmd_fig1(_: argparse.Namespace) -> None:
    from repro.analysis.roofline import format_roofline, lattice_kernel_profiles
    from repro.ntt.params import get_params

    for name in ("dilithium", "kyber-v1"):
        params = get_params(name)
        print(f"[{params.name}]")
        print(format_roofline(lattice_kernel_profiles(params)))
        print()


def _cmd_fig6(_: argparse.Namespace) -> None:
    from repro.mont.bitparallel import bp_modmul_traced, format_trace

    print(format_trace(bp_modmul_traced(4, 3, 7, 3)))


def _cmd_fig7(_: argparse.Namespace) -> None:
    from repro.analysis.footprint import fig7_comparison, format_fig7

    print(format_fig7(fig7_comparison()))


def _cmd_fig8a(_: argparse.Namespace) -> None:
    from repro.analysis.sweeps import format_sweep, sweep_bitwidths

    print(format_sweep(sweep_bitwidths(), "bitwidth"))


def _cmd_fig8b(_: argparse.Namespace) -> None:
    from repro.analysis.sweeps import format_sweep, sweep_orders

    print(format_sweep(sweep_orders(), "order"))


def _cmd_verify(args: argparse.Namespace) -> None:
    from repro.core.verify import (
        verify_backend_results,
        verify_engine_roundtrips,
        verify_modmul_widths,
    )

    modmul = verify_modmul_widths(trials_per_width=args.trials)
    print(modmul)
    engine = verify_engine_roundtrips()
    print(engine)
    backend = verify_backend_results(args.backend)
    print(backend)
    if not (modmul.passed and engine.passed and backend.passed):
        for mismatch in modmul.mismatches + engine.mismatches + backend.mismatches:
            print(f"  {mismatch.description} (seed {mismatch.seed})")
        sys.exit(1)


def _cmd_scaling(_: argparse.Namespace) -> None:
    from repro.analysis.scaling import format_scaling, scale_design_point
    from repro.analysis.tables import measure_bp_ntt

    model, report, engine = measure_bp_ntt()
    points = scale_design_point(
        cycles=report.cycles,
        energy_j=model.energy_j,
        area_mm2=model.area_mm2,
        batch=int(model.batch),
    )
    print("BP-NTT operating point projected across technology nodes:")
    print(format_scaling(points))


def _cmd_breakdown(_: argparse.Namespace) -> None:
    from repro.analysis.breakdown import (
        format_breakdown,
        phase_breakdown,
        sense_amp_ablation,
    )
    from repro.core.layout import DataLayout
    from repro.core.scheduler import compile_ntt
    from repro.ntt.params import get_params

    params = get_params("table1-14bit")
    layout = DataLayout(256, 256, 16, params.n)
    program = compile_ntt(layout, params)
    print("256-point 16-bit NTT, per-phase instruction breakdown:")
    print(format_breakdown(phase_breakdown(program)))
    ablation = sense_amp_ablation(program)
    saved = 1 - ablation["modified_sa_cycles"] / ablation["conventional_sa_cycles"]
    print()
    print(f"modified SA (Fig 5b latch): {ablation['modified_sa_cycles']:,} cycles")
    print(f"conventional SA            : {ablation['conventional_sa_cycles']:,} cycles")
    print(f"latch fusion saves         : {saved:.1%}")


def _replay(args: argparse.Namespace, tracer):
    """The config ``args`` describe and its replay's report under
    ``tracer``; exits 1 on an empty trace."""
    from repro.serve import ReplayConfig

    config = ReplayConfig.from_args(args)
    trace = config.build_trace()
    if not trace:
        print("trace is empty; raise --rate or --duration")
        sys.exit(1)
    return config, config.build_simulator().replay(trace, tracer=tracer)


def _cmd_serve(args: argparse.Namespace) -> None:
    from repro.errors import ReproError
    from repro.serve import format_serve_report

    try:
        tracer = None
        if args.trace_out is not None:
            from repro.obs import RecordingTracer

            tracer = RecordingTracer()
        replay_tracer = tracer
        if args.slo_policy is not None:
            from repro.obs import SLOPolicy, SLOTracer

            # Wrap whatever tracer is active: the SLO monitor feeds the
            # recording (alert events land in --trace-out files) and
            # surfaces its Alert history into the report.
            replay_tracer = SLOTracer(SLOPolicy.from_file(args.slo_policy),
                                      inner=tracer)
        config, report = _replay(args, replay_tracer)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
    print(config.describe())
    print()
    print(format_serve_report(report))
    if tracer is not None:
        from repro.obs import write_chrome_trace, write_jsonl

        if args.trace_out.endswith(".jsonl"):
            write_jsonl(tracer.events, args.trace_out)
        else:
            write_chrome_trace(tracer.events, args.trace_out)
        print(f"\nwrote {len(tracer.events)} trace events to {args.trace_out}")
    if args.metrics_out is not None:
        from repro.obs import write_prometheus

        write_prometheus(report.registry, args.metrics_out)
        print(f"wrote {len(report.registry)} metric series to {args.metrics_out}")


def _cmd_trace(args: argparse.Namespace) -> None:
    from repro.errors import ReproError
    from repro.obs import load_timelines, summarize_trace

    quantiles = tuple(args.quantiles) if args.quantiles else (50, 95, 99)
    try:
        timelines = load_timelines(args.path)
        print(summarize_trace(timelines, quantiles=quantiles))
    except (ReproError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)


#: ``watch``'s live replay defaults, where they differ from ``serve``'s.
_WATCH_DEFAULTS = {"scenario": "mixed-slo", "rate": 4000.0, "duration": 0.05,
                   "arrivals": "bursty", "scheduler": "slo"}


def _moved_replay_flags(args: argparse.Namespace) -> List[str]:
    """The replay flags ``watch`` was given away from their defaults.

    ``--slo-policy`` is not among them: it shapes a recorded view too.
    """
    from repro.serve.config import FLAG_FIELDS

    return ["--" + f.name.replace("_", "-") for f in FLAG_FIELDS
            if f.name not in ("trace_out", "metrics_out", "slo_policy")
            and getattr(args, f.name) != _WATCH_DEFAULTS.get(f.name,
                                                             f.default)]


def _cmd_watch(args: argparse.Namespace) -> None:
    from repro.errors import ReproError, require_count
    from repro.obs import WindowedAggregator, WindowSpec, format_alerts
    from repro.obs.stream import format_frame_row, format_watch_header

    # A tty gets a refreshing table (home + clear before each redraw);
    # pipes and tests get one appended line per completed window, which
    # is also what --no-refresh forces.
    refresh = sys.stdout.isatty() and not args.no_refresh
    header = format_watch_header()
    slo_tracer = None
    rows: List[str] = []

    def on_frame(frame) -> None:
        active = 0 if slo_tracer is None \
            else slo_tracer.active_alerts(frame.end_s)
        rows.append(format_frame_row(frame, active_alerts=active))
        if refresh:
            sys.stdout.write("\x1b[H\x1b[2J")
            print(header)
            print("\n".join(rows[-args.rows:]))
            sys.stdout.flush()
        else:
            print(rows[-1], flush=True)

    try:
        if not 0 < args.window_ms < float("inf"):  # also nan
            raise ReproError(
                f"--window-ms must be finite and > 0, got {args.window_ms:g}")
        require_count("--rows", args.rows)
        moved = [] if args.from_jsonl is None else _moved_replay_flags(args)
        if moved:
            raise ReproError(
                f"--from-jsonl streams a recorded trace, so the replay "
                f"flag(s) {', '.join(moved)} would be ignored")
        aggregator = WindowedAggregator(
            (WindowSpec(args.window_ms * 1e-3),), on_frame=on_frame)
        tracer = aggregator
        if args.slo_policy is not None:
            from repro.obs import SLOPolicy, SLOTracer

            slo_tracer = SLOTracer(SLOPolicy.from_file(args.slo_policy),
                                   inner=aggregator)
            tracer = slo_tracer
        if not refresh:
            print(header)
        if args.from_jsonl is not None:
            from repro.obs import read_jsonl

            for event in read_jsonl(args.from_jsonl):
                tracer.emit(event)
            tracer.finish()
        else:
            _replay(args, tracer)  # replay calls finish()
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
    frames = aggregator.frames()
    print(f"\n{len(frames)} completed window(s) of "
          f"{args.window_ms:g} ms")
    if slo_tracer is not None and slo_tracer.alerts:
        print()
        print(format_alerts(slo_tracer.alerts))


def _cmd_bench(args: argparse.Namespace) -> None:
    from repro.analysis.benchdiff import compare_bench, format_comparison
    from repro.errors import ReproError

    try:
        comparison = compare_bench(
            args.baseline, args.fresh,
            tolerance=args.tolerance, ignore=tuple(args.ignore or ()),
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
    print(format_comparison(comparison, verbose=args.verbose))
    if not comparison.ok:
        sys.exit(1)


#: The paper's HE security levels, in depth order.
_HE_PARAM_SETS = ("he-16bit", "he-21bit", "he-29bit")


def _cmd_hedepth(args: argparse.Namespace) -> None:
    import random

    from repro.crypto.he import (
        HEContext,
        default_relin_base,
        depth_profile,
        format_depth_table,
    )
    from repro.errors import ReproError
    from repro.ntt.params import get_params

    try:
        rows = []
        summaries = []
        for name in args.sets or _HE_PARAM_SETS:
            params = get_params(name)
            context = HEContext(
                params, plaintext_modulus=args.plaintext_modulus,
                rng=random.Random(args.seed),
            )
            records = depth_profile(context, max_levels=args.levels)
            rows.extend((name, record) for record in records)
            depth = sum(1 for r in records if r.within_budget)
            summaries.append(
                f"{name:<10} q={params.q:,} relin base "
                f"{default_relin_base(params.q)} -> {depth} multiplicative "
                f"level(s) within budget"
            )
        print(f"BFV-lite noise per multiplicative level "
              f"(t={args.plaintext_modulus}, seed {args.seed}):")
        print(format_depth_table(rows))
        print()
        for line in summaries:
            print(line)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)


def _check_program_suite(sets) -> List:
    """Compile and verify the ntt/intt/pointwise programs of each set."""
    from repro.check import check_program
    from repro.core.layout import DataLayout
    from repro.core.scheduler import (
        compile_intt,
        compile_ntt,
        compile_pointwise_mul,
    )
    from repro.core.tiles import container_width
    from repro.ntt.params import get_params

    diagnostics = []
    for name in sets:
        params = get_params(name)
        width = container_width(params.q)
        layout = DataLayout(256, 256, width, params.n)
        other_hat = [(i * 31 + 7) % params.q for i in range(params.n)]
        for program in (
            compile_ntt(layout, params),
            compile_intt(layout, params),
            compile_pointwise_mul(layout, params, other_hat),
        ):
            program.name = f"{name}:{program.name}"
            diagnostics.extend(check_program(
                program, rows=layout.rows, width=width,
                num_tiles=layout.num_tiles, modulus=params.q,
            ))
    return diagnostics


def _check_scenario_trace(scenario: str, args: argparse.Namespace) -> List:
    """Replay a workload scenario live under the conformance rules.

    ``args`` carries the replay flags ``check`` takes (``--scheduler``,
    ``--chips``, ``--seed``).  ``chips > 1`` replays the scenario
    through the cluster scheduler and layers
    :func:`repro.check.check_cluster_trace` (chip namespacing,
    dead-chip routing, per-chip SCHED rules) on top of the
    whole-stream conformance check.
    """
    import dataclasses

    from repro.check import CheckingTracer, check_cluster_trace
    from repro.serve import ReplayConfig

    # SLO scenarios get the slo scheduler and bursty arrivals (the
    # traffic they were designed for); everything else replays fifo.
    slo_flavored = "slo" in scenario
    scheduler = args.scheduler or ("slo" if slo_flavored else "fifo")
    # Lane-sharing semantics follow the *inner* scheduler even behind
    # the cluster namespace: fifo numbers lanes per parameter set.
    inner = scheduler.partition(":")[2] or scheduler
    shared_lanes = inner != "fifo"
    config = ReplayConfig.from_args(dict(
        vars(args), scenario=scenario, rate=400.0, duration=0.05,
        arrivals="bursty" if slo_flavored else "poisson",
        # The cluster front door adds the cluster: namespace itself.
        scheduler=inner if args.chips > 1 else scheduler,
        queue_limit=64 if inner == "slo" else None,
    ))
    tracer = CheckingTracer(shared_lanes=shared_lanes)
    config.build_simulator().replay(config.build_trace(), tracer=tracer)
    findings = tracer.finish()
    if config.chips > 1:
        findings += check_cluster_trace(
            tracer.events, chips=config.chips, shared_lanes=shared_lanes)
    return [
        dataclasses.replace(d, location=f"{scenario}: {d.location}")
        for d in findings
    ]


def _check_trace_file(path: str) -> List:
    """Run the conformance rules over a recorded JSONL event log."""
    import dataclasses

    from repro.check import check_trace
    from repro.errors import CheckError
    from repro.obs import read_jsonl

    try:
        events = read_jsonl(path)
    except (OSError, ValueError, TypeError) as exc:
        raise CheckError(
            f"cannot read {path!r} as a JSONL event log ({exc}); record one "
            f"with `serve --trace-out trace.jsonl` (the .json Chrome format "
            f"is lossy and not checkable)"
        ) from exc
    return [
        dataclasses.replace(d, location=f"{path}: {d.location}")
        for d in check_trace(events)
    ]


#: Parameter sets whose compiled kernels `check program` verifies by
#: default: the Table I reference point and the Kyber serving ring.
_CHECK_PROGRAM_SETS = ("table1-14bit", "kyber-v1")


def _cmd_check(args: argparse.Namespace) -> None:
    from repro import check as checklib
    from repro.errors import ReproError

    if args.catalog:
        print(checklib.format_rule_catalog())
        return
    diagnostics = []
    try:
        run_all = args.mode == "all"
        if run_all or args.mode == "program":
            diagnostics.extend(
                _check_program_suite(args.sets or _CHECK_PROGRAM_SETS))
        if run_all or args.mode == "he":
            for name in args.he_sets or checklib.HE_PARAM_SETS:
                diagnostics.extend(checklib.check_depth(
                    name, args.depth,
                    plaintext_modulus=args.plaintext_modulus,
                    seed=args.seed,
                ))
            if run_all:
                for scenario in ("he-mul", "mixed-deep"):
                    diagnostics.extend(checklib.check_scenario(
                        scenario, plaintext_modulus=args.plaintext_modulus,
                        seed=args.seed,
                    ))
        if run_all or args.mode == "trace":
            scenarios = args.scenarios or (
                ("kyber", "mixed-slo") if run_all else ())
            if not scenarios and not args.paths:
                raise checklib.CheckError(
                    "check trace needs a JSONL path or --scenario"
                )
            for path in args.paths:
                diagnostics.extend(_check_trace_file(path))
            for scenario in scenarios:
                diagnostics.extend(_check_scenario_trace(scenario, args))
        if run_all or args.mode == "registry":
            diagnostics.extend(checklib.check_registries())
        if run_all:
            diagnostics.extend(checklib.run_checkers())
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
    if args.json:
        print(checklib.diagnostics_json(diagnostics))
    else:
        print(checklib.format_diagnostics(diagnostics))
    if checklib.has_errors(diagnostics):
        sys.exit(1)


def _cmd_backends(_: argparse.Namespace) -> None:
    from repro.backends import available_backends, create_backend
    from repro.ntt.params import get_params

    params = get_params("table1-14bit")
    print(f"{'name':<8} {'lane state':<10} {'batch':>5} {'ops':<18} description")
    for name in available_backends():
        caps = create_backend(name, params).capabilities()
        lane_state = "stateful" if caps.stateful else "shared"
        ops = ",".join(caps.ops)
        print(f"{name:<8} {lane_state:<10} {caps.batch:>5} {ops:<18} {caps.description}")


_COMMANDS = {
    "table1": _cmd_table1,
    "fig1": _cmd_fig1,
    "fig6": _cmd_fig6,
    "fig7": _cmd_fig7,
    "fig8a": _cmd_fig8a,
    "fig8b": _cmd_fig8b,
    "verify": _cmd_verify,
    "breakdown": _cmd_breakdown,
    "scaling": _cmd_scaling,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "watch": _cmd_watch,
    "bench": _cmd_bench,
    "backends": _cmd_backends,
    "hedepth": _cmd_hedepth,
    "check": _cmd_check,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    from repro.backends import available_backends
    from repro.serve import available_scenarios
    from repro.serve.config import add_replay_flags

    backend_names = available_backends()
    scenario_names = available_scenarios()
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate BP-NTT paper artifacts from the reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        if name == "serve":
            cmd = sub.add_parser(
                name, help="simulate request-level serving over pooled engines"
            )
            add_replay_flags(cmd)
            continue
        if name == "watch":
            cmd = sub.add_parser(
                name, help="live windowed-telemetry table of a replay or "
                           "a recorded JSONL trace"
            )
            cmd.add_argument("--from-jsonl", default=None, metavar="PATH",
                             help="stream a recorded JSONL event log "
                                  "(from `serve --trace-out t.jsonl`) "
                                  "instead of replaying live")
            cmd.add_argument("--window-ms", type=float, default=2.0,
                             help="window width in ms (default 2)")
            cmd.add_argument("--rows", type=int, default=20,
                             help="visible rows in refresh mode (default 20)")
            cmd.add_argument("--no-refresh", action="store_true",
                             help="append one line per window even on a "
                                  "tty (the pipe/CI default)")
            add_replay_flags(cmd, exclude=("trace_out", "metrics_out"))
            cmd.set_defaults(**_WATCH_DEFAULTS)
            continue
        if name == "bench":
            cmd = sub.add_parser(
                name, help="compare BENCH_*.json artifacts; exit 1 on "
                           "regression"
            )
            cmd.add_argument("mode", choices=("compare",),
                             help="bench operation (only compare for now)")
            cmd.add_argument("baseline",
                             help="baseline BENCH_*.json file or directory")
            cmd.add_argument("fresh",
                             help="fresh BENCH_*.json file or directory")
            cmd.add_argument("--tolerance", type=float, default=0.05,
                             help="relative slack before a worse-direction "
                                  "delta regresses (default 0.05)")
            cmd.add_argument("--ignore", action="append", default=None,
                             metavar="METRIC",
                             help="metric excluded from the verdict "
                                  "(repeatable; use for host wall-clock "
                                  "measurements)")
            cmd.add_argument("--verbose", action="store_true",
                             help="show within-tolerance rows too")
            continue
        if name == "trace":
            cmd = sub.add_parser(
                name, help="per-stage latency breakdown of a recorded trace"
            )
            cmd.add_argument("path",
                             help="trace file from `serve --trace-out` "
                                  "(Chrome JSON or JSONL)")
            cmd.add_argument("--quantile", dest="quantiles", action="append",
                             type=int, default=None, metavar="Q",
                             help="latency percentile to break down "
                                  "(repeatable; default 50, 95, 99)")
            continue
        if name == "backends":
            sub.add_parser(name, help="list registered execution backends")
            continue
        if name == "check":
            cmd = sub.add_parser(
                name, help="static checks: program verifier, HE depth "
                           "pre-check, scheduler conformance, registry drift"
            )
            cmd.add_argument("mode", nargs="?", default="all",
                             choices=("program", "he", "trace", "registry",
                                      "all"),
                             help="which analyzer to run (default all)")
            cmd.add_argument("paths", nargs="*", default=[], metavar="PATH",
                             help="trace mode: JSONL event logs from "
                                  "`serve --trace-out t.jsonl`")
            cmd.add_argument("--set", dest="sets", action="append",
                             default=None, metavar="NAME",
                             help="program mode: parameter set whose "
                                  "compiled kernels to verify (repeatable; "
                                  f"default {', '.join(_CHECK_PROGRAM_SETS)})")
            cmd.add_argument("--he-set", dest="he_sets", action="append",
                             choices=_HE_PARAM_SETS, default=None,
                             help="he mode: ring to depth-check "
                                  "(repeatable; default all three)")
            cmd.add_argument("--depth", type=int, default=1,
                             help="he mode: multiplicative depth to admit "
                                  "(default 1, one ct x ct product)")
            cmd.add_argument("--plaintext-modulus", type=int, default=2)
            cmd.add_argument("--scenario", dest="scenarios", action="append",
                             choices=scenario_names, default=None,
                             help="trace mode: replay this workload scenario "
                                  "live under a CheckingTracer (repeatable; "
                                  "`check all` replays kyber and mixed-slo); "
                                  "without --scheduler, *slo* scenarios "
                                  "replay under slo, others under fifo, and "
                                  "--chips > 1 adds the CLUSTER rules")
            cmd.add_argument("--json", action="store_true",
                             help="emit findings as JSON instead of text")
            cmd.add_argument("--catalog", action="store_true",
                             help="print the rule catalog and exit")
            add_replay_flags(cmd, ("scheduler", "chips", "seed"))
            cmd.set_defaults(scheduler=None)  # chosen per --scenario
            continue
        if name == "hedepth":
            cmd = sub.add_parser(
                name, help="BFV-lite noise per multiplicative level"
            )
            cmd.add_argument("--set", dest="sets", action="append",
                             choices=_HE_PARAM_SETS, default=None,
                             help="HE parameter set to chart (repeatable; "
                                  "default: all three)")
            cmd.add_argument("--levels", type=int, default=4,
                             help="multiplicative levels to attempt (default 4)")
            cmd.add_argument("--plaintext-modulus", type=int, default=2,
                             help="plaintext modulus t (default 2, the "
                                  "deepest setting)")
            cmd.add_argument("--seed", type=int, default=2023)
            continue
        cmd = sub.add_parser(name, help=f"generate {name}")
        if name == "verify":
            cmd.add_argument("--trials", type=int, default=30,
                             help="trials per bitwidth (default 30)")
            cmd.add_argument("--backend", choices=backend_names,
                             default="model",
                             help="backend for the differential results "
                                  "campaign (default model)")
    return parser


def main(argv: Optional[List[str]] = None) -> None:
    """Entry point."""
    args = build_parser().parse_args(argv)
    _COMMANDS[args.command](args)


if __name__ == "__main__":
    main()
