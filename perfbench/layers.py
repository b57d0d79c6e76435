"""The layers a traced run measures: entry points, counting hooks, metrics.

Each layer is a set of public entry points of the product, wrapped
from the benchmark's own code by :class:`~perfbench.spans.HostSpans`;
the program itself carries no instrumentation.  Self time is charged
to the innermost wrapped call, so a layer's number is the host time
spent in its own code, not in the layers it calls.  Hooks count work
where it happens: programs and instructions built, kernels priced and
executed, pricing-cache hits.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from perfbench.spans import HostSpans

#: The benchmark's own root spans (set-up, replay, report output); their
#: self time is harness glue, outside every product layer.
HARNESS = "harness"

#: (name, unit) of every per-layer metric a ``--trace 1`` run reports.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("core.compile_s", "s"),
    ("core.compile_calls", "count"),
    ("core.compile_hit_ratio", "fraction"),
    ("core.instructions_built", "count"),
    ("backends.profile_s", "s"),
    ("backends.profile_calls", "count"),
    ("backends.instructions_priced", "count"),
    ("backends.priced_instr_per_s", "instr/s"),
    ("backends.execute_s", "s"),
    ("backends.execute_payloads", "count"),
    ("backends.execute_us_per_payload", "us/payload"),
    ("pool.profile_calls", "count"),
    ("pool.profile_hit_ratio", "fraction"),
    ("pool.serve_self_s", "s"),
    ("pool.self_s", "s"),
    ("batcher.self_s", "s"),
    ("batcher.next_deadline_calls", "count"),
    ("batcher.next_deadline_per_req", "calls/req"),
    ("sched.self_s", "s"),
    ("sched.calls", "count"),
    ("sched.next_event_calls", "count"),
    ("sched.us_per_req", "us/req"),
    ("cluster.self_s", "s"),
    ("cluster.route_s", "s"),
    ("cluster.route_calls", "count"),
    ("simulator.self_s", "s"),
    ("metrics.aggregate_s", "s"),
    ("metrics.serialize_s", "s"),
    ("obs.events", "count"),
    ("obs.emit_s", "s"),
    ("obs.export_s", "s"),
    ("import_s", "s"),
    ("tracegen_s", "s"),
    ("trace_overhead_frac", "fraction"),
    ("layer_coverage_frac", "fraction"),
    ("sim.mean_queue_ms", "ms"),
    ("sim.mean_occupancy", "fraction"),
    ("sim.utilization", "fraction"),
    ("sim.drop_frac", "fraction"),
    ("sim.served", "count"),
)

_SCHEDULER_METHODS = ("__init__", "admit", "enqueue", "poll", "flush",
                      "place", "next_event_s", "waiting", "lane_report")
_BATCHER_METHODS = ("__len__", "add", "open_batch", "open_items", "pop",
                    "next_deadline_s", "take_expired", "drain")


def install(spans: HostSpans) -> None:
    """Wrap every layer's entry points; ``spans.restore()`` undoes it."""
    import repro.cluster.router as cluster_router
    import repro.cluster.scheduler as cluster_scheduler
    import repro.cluster.simulator as cluster_simulator
    import repro.core.engine as engine
    import repro.obs.exporters as exporters
    import repro.obs.tracer as obs_tracer
    import repro.sched.adaptive as adaptive
    import repro.sched.fifo as fifo
    import repro.sched.slo as slo
    import repro.serve.batcher as batcher
    import repro.serve.metrics as serve_metrics
    import repro.serve.pool as pool
    import repro.serve.simulator as serve_simulator
    from repro.backends.model import ModelBackend

    counts = spans.counts
    spans.patch(engine.BPNTTEngine, "compile", "core",
                hook=_kernel_reuse(counts))
    for builder in ("compile_ntt", "compile_intt", "compile_pointwise_mul"):
        spans.patch(engine, builder, "core", hook=_programs_built(counts))
    # The model backend prices and computes through its template engine,
    # so only calls from outside a layer count as one pricing/execution.
    for backend in (ModelBackend, engine.BPNTTEngine):
        spans.patch(backend, "profile", "backends.profile",
                    hook=_priced(spans))
        spans.patch(backend, "execute", "backends.execute",
                    hook=_executed(spans))
    spans.patch(pool.EnginePool, "profile", "pool", fine=True,
                hook=_profile_hits(counts))
    spans.patch(pool.EnginePool, "serve", "pool")
    for method in ("capacity", "template", "backend_lanes"):
        spans.patch(pool.EnginePool, method, "pool", fine=True)
    for method in _BATCHER_METHODS:
        spans.patch(batcher.CoalescingBatcher, method, "batcher", fine=True)
    for scheduler in (fifo.FifoScheduler, slo.SLOScheduler,
                      adaptive.AdaptiveScheduler):
        for method in _SCHEDULER_METHODS:
            spans.patch(scheduler, method, "sched", fine=True)
    for method in _SCHEDULER_METHODS:
        spans.patch(cluster_scheduler.ClusterScheduler, method, "cluster",
                    fine=True)
    for router in (cluster_router.AffinityRouter,
                   cluster_router.RoundRobinRouter):
        spans.patch(router, "chip_for", "cluster.route", fine=True)
    for method in ("__init__", "replay"):
        spans.patch(cluster_simulator.ClusterSimulator, method, "cluster")
        spans.patch(serve_simulator.ServingSimulator, method, "simulator")
    spans.patch(serve_simulator, "aggregate", "metrics.aggregate")
    spans.patch(serve_metrics, "serialize_report", "metrics.serialize")
    # Emission includes the cluster's per-chip id-namespacing shim.
    spans.patch(obs_tracer.RecordingTracer, "emit", "obs.emit", fine=True)
    spans.patch(cluster_scheduler._ChipTracer, "emit", "obs.emit", fine=True)
    for writer in ("write_chrome_trace", "write_jsonl", "write_prometheus"):
        spans.patch(exporters, writer, "obs.export")


def _programs_built(counts) -> Callable:
    def hook(build):
        def built(*args, **kwargs):
            program = build(*args, **kwargs)
            counts["core.programs_built"] += 1
            counts["core.instructions_built"] += len(program)
            return program
        return built
    return hook


def _kernel_reuse(counts) -> Callable:
    """A compile call is a hit when it built no new program."""
    def hook(compile_kernel):
        def compile(self, *args, **kwargs):
            built = counts["core.programs_built"]
            kernel = compile_kernel(self, *args, **kwargs)
            if counts["core.programs_built"] == built:
                counts["core.compile_hits"] += 1
            return kernel
        return compile
    return hook


def _priced(spans: HostSpans) -> Callable:
    def hook(profile):
        def priced(self, kernel):
            if spans.parent_layer() != "backends.profile":
                spans.counts["backends.profile_calls"] += 1
                spans.counts["backends.instructions_priced"] += sum(
                    len(program) for program in kernel.programs)
            return profile(self, kernel)
        return priced
    return hook


def _executed(spans: HostSpans) -> Callable:
    def hook(execute):
        def executed(self, kernel, payloads):
            if spans.parent_layer() != "backends.execute":
                spans.counts["backends.execute_payloads"] += len(payloads)
            return execute(self, kernel, payloads)
        return executed
    return hook


def _profile_hits(counts) -> Callable:
    """A pool pricing call is a hit when no backend had to price."""
    def hook(profile):
        def cached(self, *args, **kwargs):
            priced = counts["backends.profile_calls"]
            result = profile(self, *args, **kwargs)
            if counts["backends.profile_calls"] == priced:
                counts["pool.profile_hits"] += 1
            return result
        return cached
    return hook


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: HostSpans, *, offered: int, traced_s: float,
                  obs_events: int) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced pass."""
    layer_s = spans.layer_self_s()
    layer_calls = spans.layer_calls()
    counts = spans.counts
    compile_calls = spans.calls_named("core", "BPNTTEngine.compile")
    profile_s = layer_s.get("backends.profile", 0.0)
    execute_s = layer_s.get("backends.execute", 0.0)
    payloads = counts["backends.execute_payloads"]
    pool_profiles = spans.calls_named("pool", "EnginePool.profile")
    deadline_calls = spans.calls_named("batcher", ".next_deadline_s")
    sched_s = layer_s.get("sched", 0.0)
    product_s = sum(seconds for layer, seconds in layer_s.items()
                    if layer != HARNESS)
    return {
        "core.compile_s": layer_s.get("core", 0.0),
        "core.compile_calls": compile_calls,
        "core.compile_hit_ratio": _ratio(counts["core.compile_hits"],
                                         compile_calls),
        "core.instructions_built": counts["core.instructions_built"],
        "backends.profile_s": profile_s,
        "backends.profile_calls": counts["backends.profile_calls"],
        "backends.instructions_priced": counts["backends.instructions_priced"],
        "backends.priced_instr_per_s": _ratio(
            counts["backends.instructions_priced"], profile_s),
        "backends.execute_s": execute_s,
        "backends.execute_payloads": payloads,
        "backends.execute_us_per_payload": _ratio(execute_s * 1e6, payloads),
        "pool.profile_calls": pool_profiles,
        "pool.profile_hit_ratio": _ratio(counts["pool.profile_hits"],
                                         pool_profiles),
        "pool.serve_self_s": spans.self_named("pool", "EnginePool.serve"),
        "pool.self_s": layer_s.get("pool", 0.0),
        "batcher.self_s": layer_s.get("batcher", 0.0),
        "batcher.next_deadline_calls": deadline_calls,
        "batcher.next_deadline_per_req": _ratio(deadline_calls, offered),
        "sched.self_s": sched_s,
        "sched.calls": layer_calls.get("sched", 0),
        "sched.next_event_calls": spans.calls_named("sched", ".next_event_s"),
        "sched.us_per_req": _ratio(sched_s * 1e6, offered),
        "cluster.self_s": layer_s.get("cluster", 0.0),
        "cluster.route_s": layer_s.get("cluster.route", 0.0),
        "cluster.route_calls": layer_calls.get("cluster.route", 0),
        "simulator.self_s": layer_s.get("simulator", 0.0),
        "metrics.aggregate_s": layer_s.get("metrics.aggregate", 0.0),
        "metrics.serialize_s": layer_s.get("metrics.serialize", 0.0),
        "obs.events": obs_events,
        "obs.emit_s": layer_s.get("obs.emit", 0.0),
        "obs.export_s": layer_s.get("obs.export", 0.0),
        "layer_coverage_frac": _ratio(product_s, traced_s),
    }


def format_table(spans: HostSpans, traced_s: float) -> str:
    """Per-layer self time with its share of the traced pass's wall time."""
    layer_s = spans.layer_self_s()
    layer_calls = spans.layer_calls()
    header = f"{'layer':<20} {'self(s)':>10} {'share':>7} {'calls':>11}"
    rows = [header, "-" * len(header)]
    for layer, seconds in sorted(layer_s.items(), key=lambda item: -item[1]):
        rows.append(f"{layer:<20} {seconds:>10.4f} "
                    f"{_ratio(seconds, traced_s):>7.1%} "
                    f"{layer_calls.get(layer, 0):>11,}")
    rows.append(f"{'traced wall time':<20} {traced_s:>10.4f} {1:>7.1%}")
    return "\n".join(rows)
