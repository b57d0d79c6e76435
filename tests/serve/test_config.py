"""ReplayConfig: the one object that owns every serve knob."""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.backends.model import ModelBackend
from repro.cli import build_parser, main
from repro.core.engine import BPNTTEngine
from repro.errors import BackendError, ParameterError, SchedulerError
from repro.ntt.params import NTTParams
from repro.obs import (
    RecordingTracer,
    SLOPolicy,
    SLOTracer,
    format_prometheus,
    to_jsonl,
)
from repro.serve import BatchPolicy, PoolConfig, ReplayConfig, format_serve_report
from repro.serve.config import FLAG_FIELDS
from repro.serve.workload import bursty_trace, poisson_trace

INF, NAN = float("inf"), float("nan")
SRC = Path(__file__).resolve().parents[2] / "src"
TINY = NTTParams(n=16, q=97)
#: Scenarios on 256-point rings only, so a drawn replay compiles fast.
CHEAP_SCENARIOS = ("ntt", "kyber", "dilithium")
#: The config fields no CLI flag sets.
FLAGLESS = {"scheduler_options", "router_options"}
#: ``watch``'s own flags, which are not config fields.
WATCH_ONLY = {"from_jsonl", "window_ms", "rows", "no_refresh"}
POLICY = {"objective": 0.9,
          "rules": [{"short_s": 0.005, "long_s": 0.02, "threshold": 2.0,
                     "severity": "page"}]}


class TestRoundTrip:
    def test_to_dict_from_args_is_lossless(self):
        config = ReplayConfig(
            scenario="kyber", arrivals="bursty", rate=800.0, duration=0.1,
            seed=7, backend="sram", scheduler="slo",
            scheduler_options={"tenant_weights": {"a": 2.0}},
            pool_size=3, subarrays=2, max_wait_ms=1.5, max_batch=4,
            slo_ms=5.0, queue_limit=32, chips=4, router="round-robin",
            router_options={}, trace_out="t.jsonl", metrics_out="m.prom",
        )
        assert ReplayConfig.from_args(config.to_dict()) == config

    def test_defaults_round_trip(self):
        assert ReplayConfig.from_args(ReplayConfig().to_dict()) \
            == ReplayConfig()

    def test_from_args_accepts_a_namespace_and_ignores_extras(self):
        namespace = argparse.Namespace(
            command="serve", scenario="ntt", rate=400.0, duration=0.05,
            seed=5, pool_size=1, max_batch=None, func=print,
        )
        config = ReplayConfig.from_args(namespace)
        assert config.scenario == "ntt"
        assert config.pool_size == 1
        assert config.max_batch is None
        assert config.scheduler == "fifo"  # untouched default

    def test_none_values_fall_back_to_defaults(self):
        config = ReplayConfig.from_args({"rate": None, "scenario": "kyber"})
        assert config.rate == 200.0
        assert config.scenario == "kyber"


class TestValidation:
    def test_bad_arrivals_rejected(self):
        with pytest.raises(ParameterError, match="arrivals"):
            ReplayConfig(arrivals="uniform")

    def test_bad_chips_rejected(self):
        with pytest.raises(ParameterError, match="chips"):
            ReplayConfig(chips=0)

    def test_non_positive_slo_rejected(self):
        with pytest.raises(ParameterError, match="slo_ms"):
            ReplayConfig(slo_ms=0.0)

    def test_bad_pool_size_rejected(self):
        with pytest.raises(ParameterError, match="pool_size"):
            ReplayConfig(pool_size=0)

    @pytest.mark.parametrize("build", [
        lambda: ReplayConfig(scenario="ntt", rate=INF),
        lambda: ReplayConfig(scenario="ntt", rate=NAN),
        lambda: ReplayConfig(scenario="ntt", duration=INF),
        lambda: ReplayConfig(scenario="ntt", duration=NAN),
        lambda: ReplayConfig(pool_size=1.5),
        lambda: ReplayConfig(pool_size=True),
        lambda: ReplayConfig(subarrays=1.5),
        lambda: ReplayConfig(chips=True),
        lambda: PoolConfig(size=1.5),
        lambda: PoolConfig(size=True),
        lambda: PoolConfig(subarrays=1.5),
        lambda: ModelBackend(TINY, rows=32, cols=32, subarrays=1.5),
        lambda: BPNTTEngine(TINY, rows=32, cols=32, subarrays=True),
        lambda: poisson_trace("ntt", INF, 0.01),
        lambda: bursty_trace("ntt", 1000.0, NAN),
        lambda: BatchPolicy(max_wait_s=NAN),
        lambda: ReplayConfig(slo_ms=NAN),
        lambda: ReplayConfig(slo_ms=INF),
        lambda: ReplayConfig(max_batch=1.5),
        lambda: ReplayConfig(scheduler="slo", queue_limit=1.5),
        lambda: ReplayConfig(seed="x"),
        lambda: ReplayConfig(seed=1.5),
        lambda: ReplayConfig(seed=True),
        lambda: ReplayConfig(rate=True),
        lambda: ReplayConfig(duration=True),
        lambda: ReplayConfig(max_wait_ms=NAN),
        lambda: ReplayConfig(max_wait_ms=-1.0),
        lambda: ReplayConfig(scenario="kyber", rate=2000.0, duration=0.01,
                             slo_ms=True),
        lambda: ReplayConfig(scenario="kyber", rate=2000.0, duration=0.01,
                             max_wait_ms=True),
    ], ids=["rate-inf", "rate-nan", "duration-inf", "duration-nan",
            "pool_size-float", "pool_size-bool", "subarrays-float",
            "chips-bool", "pool-config-size-float", "pool-config-size-bool",
            "pool-config-subarrays-float", "model-subarrays-float",
            "engine-subarrays-bool", "poisson-rate-inf", "bursty-duration-nan",
            "max-wait-nan", "slo_ms-nan", "slo_ms-inf", "max_batch-float",
            "queue_limit-float", "seed-str", "seed-float", "seed-bool",
            "rate-bool", "duration-bool", "max_wait_ms-nan",
            "max_wait_ms-negative", "slo_ms-bool", "max_wait_ms-bool"])
    def test_boundary_inputs_raise_at_construction(self, build):
        """An infinite rate or duration would never end the arrival
        loop, a ``nan`` one would build an empty trace, a ``nan`` wait
        would never end the replay, a ``nan`` or infinite SLO would
        give every request a deadline nothing can meet or miss, a
        float or bool count would surface deep inside a replay, a
        ``bool`` SLO or wait would pass for 1 ms, and a str, float or
        bool seed would draw some other trace."""
        with pytest.raises(ParameterError):
            build()

    @pytest.mark.parametrize("kwargs, error, message", [
        ({"scheduler": "nope"}, SchedulerError, "unknown scheduler 'nope'"),
        ({"scheduler": "cluster:nope"}, SchedulerError,
         "unknown scheduler 'nope'"),
        ({"scheduler": "cluster:nope", "chips": 2}, SchedulerError,
         "cluster schedulers do not nest"),
        ({"router": "nope", "chips": 2}, SchedulerError,
         "unknown router 'nope'"),
        ({"backend": "nope"}, BackendError, "unknown backend 'nope'"),
        ({"scenario": "nope"}, ParameterError, "unknown scenario 'nope'"),
        ({"router": "nope"}, SchedulerError, "unknown router 'nope'"),
    ], ids=["scheduler", "cluster-inner", "cluster-nested", "router",
            "backend", "scenario", "router-one-chip"])
    def test_unknown_names_raise_at_construction(self, kwargs, error, message):
        """With the error and message a replay of them used to raise."""
        with pytest.raises(error, match=message):
            ReplayConfig(**kwargs)

    def test_name_lookups_import_no_factory(self):
        """Registered names construct without resolving a lazy spec
        (so without importing numpy or a scenario's module either)."""
        script = (
            "import sys\n"
            "from repro.serve import ReplayConfig\n"
            "before = set(sys.modules)\n"
            "ReplayConfig(scheduler='adaptive', backend='sram', chips=2,\n"
            "             router='round-robin', scenario='cluster-mixed')\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m.startswith(('numpy', 'repro.sched.',\n"
            "                              'repro.backends.', 'repro.core',\n"
            "                              'repro.cluster.workload'))))\n"
        )
        done = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_frozen_and_isolated_from_shared_dicts(self):
        options = {"queue_limit": 8}
        config = ReplayConfig(scheduler="slo", scheduler_options=options)
        options["queue_limit"] = 99  # caller mutates their dict
        assert config.scheduler_options == {"queue_limit": 8}
        with pytest.raises(Exception):
            config.rate = 1.0


class TestBuildHelpers:
    def test_effective_scheduler_options_folds_queue_limit(self):
        config = ReplayConfig(scheduler="slo", queue_limit=16)
        assert config.effective_scheduler_options() == {"queue_limit": 16}
        # An explicit option wins over the convenience knob.
        config = ReplayConfig(scheduler="slo", queue_limit=16,
                              scheduler_options={"queue_limit": 4})
        assert config.effective_scheduler_options() == {"queue_limit": 4}
        assert ReplayConfig().effective_scheduler_options() == {}

    def test_build_trace_overlays_uniform_slo(self):
        config = ReplayConfig(scenario="ntt", rate=400.0, duration=0.05,
                              seed=5, slo_ms=3.0)
        trace = config.build_trace()
        assert trace
        for request in trace:
            assert request.deadline_s == pytest.approx(
                request.arrival_s + 3e-3)

    def test_build_trace_keeps_scenario_deadlines(self):
        config = ReplayConfig(scenario="mixed-slo", rate=2000.0,
                              duration=0.02, seed=5, slo_ms=500.0)
        trace = config.build_trace()
        assert any(r.deadline_s - r.arrival_s < 0.1 for r in trace)

    def test_build_simulator_replays(self):
        config = ReplayConfig(scenario="ntt", rate=400.0, duration=0.05,
                              seed=5, pool_size=1)
        report = config.build_simulator().replay(config.build_trace())
        assert report.count > 0
        assert report.scheduler == "fifo"

    def test_build_simulator_honors_the_cluster_fields(self):
        config = ReplayConfig(chips=4, scenario="kyber", rate=2000.0,
                              duration=0.01)
        report = config.build_simulator().replay(config.build_trace())
        assert report.scheduler == "cluster:fifo"
        assert report.registry.gauge("cluster.chips").value == 4

    def test_bad_scheduler_options_still_fail_loudly(self):
        config = ReplayConfig(scenario="ntt", rate=400.0, duration=0.05,
                              seed=5, scheduler="adaptive", queue_limit=8)
        with pytest.raises(SchedulerError, match="unknown options"):
            config.build_simulator().replay(config.build_trace())

    def test_describe_header(self):
        assert ReplayConfig().describe() == (
            "scenario=mixed arrivals=poisson rate=200/s duration=1s "
            "pool=2x1 max-wait=2ms backend=model scheduler=fifo"
        )
        assert ReplayConfig(chips=4, router="round-robin").describe() \
            .endswith("chips=4 router=round-robin")


class TestFlags:
    """The config's fields are the replay flags of every front end."""

    @staticmethod
    def _dests(*argv):
        return set(vars(build_parser().parse_args(argv))) - {"command"}

    def test_every_field_is_a_serve_flag_or_flagless(self):
        fields = {f.name for f in dataclasses.fields(ReplayConfig)}
        assert {f.name for f in FLAG_FIELDS} == fields - FLAGLESS
        assert self._dests("serve") == fields - FLAGLESS

    def test_watch_takes_the_serve_flags_but_the_sinks(self):
        assert self._dests("watch") - WATCH_ONLY \
            == self._dests("serve") - {"trace_out", "metrics_out"}

    def test_check_takes_scheduler_chips_and_seed(self):
        assert {"scheduler", "chips", "seed"} <= self._dests("check")
        assert build_parser().parse_args(["check"]).scheduler is None

    def test_front_end_defaults(self):
        parse = build_parser().parse_args
        assert ReplayConfig.from_args(parse(["serve"])) == ReplayConfig()
        assert ReplayConfig.from_args(parse(["watch"])) == ReplayConfig(
            scenario="mixed-slo", rate=4000.0, duration=0.05,
            arrivals="bursty", scheduler="slo")

    def test_help_shows_each_front_ends_default(self, capsys):
        for command, default in (("serve", "default mixed;"),
                                 ("watch", "default mixed-slo;")):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            assert default in " ".join(capsys.readouterr().out.split())


@st.composite
def drawn_configs(draw):
    scheduler = draw(st.sampled_from(("fifo", "slo", "adaptive")))
    # ``he`` (a 1024-point ring) compiles and prices ~10x slower than the
    # cheap scenarios, so about one example in eight draws it.
    on_1024 = draw(st.integers(min_value=0, max_value=7)) == 7
    return ReplayConfig(
        scenario="he" if on_1024 else draw(st.sampled_from(CHEAP_SCENARIOS)),
        arrivals=draw(st.sampled_from(("poisson", "bursty"))),
        rate=draw(st.sampled_from((1000.0, 2500.0, 4000.0))),
        duration=draw(st.sampled_from((0.01, 0.02))),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        scheduler=scheduler,
        pool_size=draw(st.integers(min_value=1, max_value=2)),
        max_wait_ms=draw(st.sampled_from((0.5, 2.0))),
        max_batch=draw(st.sampled_from((None, 3))),
        slo_ms=draw(st.sampled_from((None, 0.5, 5.0))),
        # Only the slo scheduler takes a queue limit.
        queue_limit=draw(st.sampled_from((None, 4, 16)))
        if scheduler == "slo" else None,
        chips=draw(st.integers(min_value=1, max_value=4)),
        router=draw(st.sampled_from(("affinity", "round-robin"))),
    )


def _serve_argv(config):
    """``serve`` with one flag per set field, from the field table."""
    argv = ["serve"]
    for f in FLAG_FIELDS:
        value = getattr(config, f.name)
        if value is not None:
            argv += ["--" + f.name.replace("_", "-"), str(value)]
    return argv


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=drawn_configs(), with_policy=st.booleans())
# Every run covers the 1024-point ring, a 3-chip cluster and an SLO alert.
@example(config=ReplayConfig(
    scenario="he", arrivals="bursty", rate=2500.0, duration=0.02, seed=7,
    scheduler="slo", queue_limit=16, slo_ms=2.0, chips=3,
    router="round-robin"), with_policy=True)
def test_one_config_gives_one_set_of_bytes(config, with_policy):
    """``repro.cli serve`` prints and writes exactly what the Python API
    computes for the same config, and the config survives its dict."""
    assert ReplayConfig.from_args(config.to_dict()) == config
    trace = config.build_trace()
    assume(trace)
    with tempfile.TemporaryDirectory() as scratch:
        policy = None
        if with_policy:
            Path(scratch, "p.json").write_text(json.dumps(POLICY))
            policy = SLOPolicy.from_file(Path(scratch, "p.json"))
        config = dataclasses.replace(
            config, trace_out=str(Path(scratch, "t.jsonl")),
            metrics_out=str(Path(scratch, "m.prom")),
            slo_policy=str(Path(scratch, "p.json")) if with_policy else None)
        argv = _serve_argv(config)
        assert ReplayConfig.from_args(build_parser().parse_args(argv)) \
            == config
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            main(argv)
        written_trace = Path(config.trace_out).read_text()
        written_metrics = Path(config.metrics_out).read_text()

    # Traced first, on a cold pool: profile events only record misses.
    pool = config.build_pool()
    recorder = RecordingTracer()
    tracer = recorder if policy is None else SLOTracer(policy, inner=recorder)
    report = config.build_simulator(pool).replay(trace, tracer=tracer)
    if policy is None:
        # An untraced replay on the warm pool prints the same report.
        report = config.build_simulator(pool).replay(trace)
    assert stdout.getvalue() == (
        f"{config.describe()}\n\n{format_serve_report(report)}\n"
        f"\nwrote {len(recorder.events)} trace events to {config.trace_out}\n"
        f"wrote {len(report.registry)} metric series to "
        f"{config.metrics_out}\n")
    assert written_trace == to_jsonl(recorder.events) + "\n"
    assert written_metrics == format_prometheus(report.registry)
