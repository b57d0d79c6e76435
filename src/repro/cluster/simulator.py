"""The cluster front door: one event clock multiplexed across N chips.

:class:`ClusterSimulator` consumes a whole
:class:`~repro.serve.config.ReplayConfig` and drives a plain
:class:`~repro.serve.simulator.ServingSimulator` with the
``cluster:<inner>`` scheduler — the simulator's single discrete-event
clock *is* the cluster clock, with per-chip wakeups interleaved through
:meth:`ClusterScheduler.next_event_s`.  After the replay it annotates
the report's metrics registry with per-chip gauges and the cross-shard
imbalance metric the scaling bench asserts on.

Imbalance is ``max(chip busy seconds) / mean(chip busy seconds)`` —
1.0 is a perfectly balanced cluster, 2.0 means the hottest shard does
double the average work.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import ParameterError
from repro.serve.config import ReplayConfig
from repro.serve.metrics import ServeReport
from repro.serve.pool import EnginePool
from repro.serve.simulator import ServingSimulator

__all__ = ["ClusterSimulator", "annotate_cluster_metrics", "cluster_imbalance"]


def _per_chip(report: ServeReport, chips: int) -> Tuple[List[float], List[int], List[int]]:
    """Busy seconds, requests served and batches dispatched, per chip."""
    busy, served, dispatched = [0.0] * chips, [0] * chips, [0] * chips
    for batch in report.batches:
        chip = batch.lane % chips
        busy[chip] += batch.finish_s - batch.start_s
        served[chip] += batch.size
        dispatched[chip] += 1
    return busy, served, dispatched


def _imbalance(busy: List[float]) -> float:
    mean = sum(busy) / max(1, len(busy))
    if mean <= 0.0:
        return 1.0
    return max(busy) / mean


def cluster_imbalance(report: ServeReport, chips: int) -> float:
    """``max / mean`` of per-chip busy seconds (1.0 = perfectly balanced)."""
    return _imbalance(_per_chip(report, chips)[0])


def annotate_cluster_metrics(report: ServeReport, chips: int) -> float:
    """Add per-chip gauges and the imbalance gauge to ``report.registry``.

    Lane ids are chip-namespaced (``chip = lane % chips``), so the
    per-chip breakdown is derivable from the batch records without any
    simulator plumbing.  Returns the imbalance value.
    """
    busy, served, dispatched = _per_chip(report, chips)
    imbalance = _imbalance(busy)
    registry = report.registry
    if registry is not None:
        for chip in range(chips):
            labels = {"chip": str(chip)}
            registry.gauge("cluster.chip_busy_s", labels).set(busy[chip])
            registry.gauge("cluster.chip_requests", labels).set(served[chip])
            registry.gauge("cluster.chip_batches", labels).set(dispatched[chip])
        registry.gauge("cluster.chips").set(chips)
        registry.gauge("cluster.imbalance").set(imbalance)
    return imbalance


class ClusterSimulator:
    """N simulated chips behind one front door, driven by one config."""

    def __init__(self, config: ReplayConfig, *,
                 pool: Optional[EnginePool] = None, admission_gate=None):
        if not isinstance(config, ReplayConfig):
            raise ParameterError(
                f"ClusterSimulator takes a ReplayConfig, got "
                f"{type(config).__name__}"
            )
        self.config = config
        self.chips = config.chips
        self.pool = pool if pool is not None else config.build_pool()
        self._options = config.effective_scheduler_options()
        self._options["chips"] = config.chips
        self._options["router"] = config.router
        if config.router_options:
            self._options["router_options"] = dict(config.router_options)
        self.simulator = ServingSimulator(
            self.pool,
            config.batch_policy(),
            backend=config.backend,
            scheduler=f"cluster:{config.scheduler}",
            scheduler_options=self._options,
            admission_gate=admission_gate,
        )

    def replay(self, requests: Sequence, *,
               chip_events: Sequence[Union[tuple, object]] = (),
               tracer=None) -> ServeReport:
        """Replay ``requests``, optionally under chip drain/fail events.

        The simulator builds a fresh scheduler per replay from its
        options dict, so chip events inject cleanly per call.
        """
        options = dict(self._options)
        if chip_events:
            options["chip_events"] = tuple(chip_events)
        self.simulator.scheduler_options = options
        report = self.simulator.replay(requests, tracer=tracer)
        annotate_cluster_metrics(report, self.chips)
        return report
