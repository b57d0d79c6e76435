"""The host-time benchmark's own tests: the gate fires, the metrics are
complete, and the clock probes while a segment runs.

They run quick-sized cluster workloads (the tiny ring compiles in
milliseconds), so they stay within a few seconds.
"""

import dataclasses
import json
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from perfbench import gate, layers, run, workloads  # noqa: E402
from perfbench.clock import Clock  # noqa: E402
from repro.backends import register_backend, unregister_backend  # noqa: E402
from repro.backends.model import ModelBackend  # noqa: E402
from repro.core.engine import BPNTTEngine  # noqa: E402
from repro.serve import metrics  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WRONG = "perfbench-test-off-by-one"


class OffByOneBackend(ModelBackend):
    """The model backend with every result coefficient off by one."""

    name = WRONG

    def execute(self, kernel, payloads):
        q = self.params.q
        return [[(c + 1) % q for c in result]
                for result in super().execute(kernel, payloads)]


@pytest.fixture
def wrong_backend():
    register_backend(WRONG, OffByOneBackend)
    yield WRONG
    unregister_backend(WRONG)


def quick_run(out_dir, workload="cluster-64", *, trace=False,
              seed=gate.DEFAULT_SEED, **options):
    return run.run_workload(workload, seed=seed, seconds=0.0, trace=trace,
                            quick=True, out_dir=out_dir, **options)


def units(metrics):
    return {name: body["unit"] for name, body in metrics.items()}


def declared_units(section):
    return {metric["name"]: metric["unit"] for metric in DECLARED[section]}


def test_declaration_matches_the_harness():
    names = [workload["name"] for workload in DECLARED["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert declared_units("end_to_end") == dict(run.END_TO_END)
    assert declared_units("per_layer") == dict(layers.PER_LAYER)


@pytest.mark.parametrize("workload", ["cluster-64", "cluster-16-obs"])
def test_quick_run_passes_the_gate_and_emits_every_end_to_end_metric(
        tmp_path, workload):
    result = quick_run(tmp_path, workload)
    assert result["correct"], result["lines"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert units(result["metrics"]) == declared_units("end_to_end")
    assert all(body["value"] > 0 for body in result["metrics"].values())


def test_traced_quick_run_emits_every_per_layer_metric(tmp_path):
    result = quick_run(tmp_path, "cluster-16-obs", trace=True)
    assert result["correct"], result["lines"]
    metrics = result["metrics"]
    assert units(metrics) == declared_units("per_layer")
    assert metrics["obs.events"]["value"] > 0
    assert metrics["sched.calls"]["value"] > 0
    assert metrics["layer_coverage_frac"]["value"] > 0.9
    host_trace = json.loads(
        (tmp_path / "cluster-16-obs.host-trace.json").read_text())
    layers_seen = {event.get("cat") for event in host_trace["traceEvents"]}
    assert {"sched", "batcher", "cluster", "obs.export"} <= layers_seen


def test_clock_probes_during_a_segment_and_restores_the_handler():
    clock = Clock()
    before = signal.getsignal(signal.SIGALRM)
    result, wall, ref = clock.time(lambda: time.sleep(0.3) or "done")
    assert result == "done"
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.probes) >= 4  # before, after, and several in between
    assert wall > 0.25 and ref > 0


def test_wrong_result_backend_drives_error_frac_above_zero(
        tmp_path, wrong_backend):
    result = quick_run(tmp_path, backend=wrong_backend)
    assert not result["correct"]
    assert 0 < result["failed"] / result["attempted"] < 1


def test_corrupted_operand_transform_in_the_kernel_cache_is_caught(
        tmp_path, monkeypatch):
    """Served and pricing paths share the engine's compiled kernels, so
    only a reference that recomputes the product itself can see this."""
    compile_kernel = BPNTTEngine.compile

    def corrupted(self, op, operand=None):
        kernel = compile_kernel(self, op, operand)
        if kernel.operand_hat is None:
            return kernel
        q = self.params.q
        return dataclasses.replace(kernel, operand_hat=tuple(
            (c + 1) % q for c in kernel.operand_hat))

    monkeypatch.setattr(BPNTTEngine, "compile", corrupted)
    result = quick_run(tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] / result["attempted"] < 1


def test_perturbed_pinned_digest_fails_the_run(tmp_path):
    result = quick_run(tmp_path, pinned="0" * 64)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


@pytest.mark.parametrize("trace", [False, True])
def test_unpinned_seed_passes_when_fresh_stacks_agree(tmp_path, trace):
    result = quick_run(tmp_path, trace=trace, seed=7)
    assert result["correct"], result["lines"]


@pytest.mark.parametrize("trace", [False, True])
def test_unpinned_seed_fails_when_fresh_stacks_disagree(
        tmp_path, monkeypatch, trace):
    serialize = metrics.serialize_report
    calls = []

    def drifting(report):
        calls.append(None)
        return serialize(report) + "#" * len(calls)

    monkeypatch.setattr(metrics, "serialize_report", drifting)
    result = quick_run(tmp_path, trace=trace, seed=7)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
