"""ReplayConfig: the one object that owns every serve knob."""

import argparse

import pytest

from repro.errors import ParameterError, SchedulerError
from repro.serve import ReplayConfig


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
