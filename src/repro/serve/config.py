"""One frozen config object for a serving replay, shared by every front end.

The serve entry points had grown 10+ loose keyword arguments threaded
three times over (``repro.cli serve``, ``repro.cli watch``, and ad-hoc
simulator construction in benches and tests).  :class:`ReplayConfig`
consolidates them: the CLI builds one from its parsed arguments
(:meth:`ReplayConfig.from_args` accepts an ``argparse.Namespace`` or
any mapping, ignoring keys it does not know), the cluster front door
(:class:`repro.cluster.ClusterSimulator`) takes one whole, and
:meth:`to_dict`/:meth:`from_args` round-trip losslessly so configs can
be persisted next to their reports.

Field names deliberately match the CLI's ``dest`` names, so
``ReplayConfig.from_args(args)`` is the entire serve-side argument
plumbing.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.backends.registry import require_backend
from repro.errors import ParameterError, SchedulerError, require_count
from repro.sched.registry import require_scheduler
from repro.serve.batcher import BatchPolicy
from repro.serve.pool import EnginePool, PoolConfig
from repro.serve.request import Request
from repro.serve.workload import bursty_trace, check_rate_duration, poisson_trace

__all__ = ["ReplayConfig"]

_ARRIVAL_PROCESSES = ("poisson", "bursty")


@dataclass(frozen=True)
class ReplayConfig:
    """Everything that determines a serving replay, in one place.

    Attributes mirror ``repro.cli serve`` flags: the workload
    (``scenario``/``arrivals``/``rate``/``duration``/``seed``), the
    machine (``backend``, ``pool_size``, ``subarrays``), batching
    (``max_wait_ms``, ``max_batch``), scheduling (``scheduler``,
    ``scheduler_options``, ``slo_ms``, ``queue_limit``), the cluster
    shape (``chips``, ``router``, ``router_options``), and the
    observability sinks (``trace_out``, ``metrics_out``,
    ``slo_policy``).
    """

    scenario: str = "mixed"
    arrivals: str = "poisson"
    rate: float = 200.0
    duration: float = 1.0
    seed: int = 2023
    backend: str = "model"
    scheduler: str = "fifo"
    scheduler_options: Dict[str, Any] = field(default_factory=dict)
    pool_size: int = 2
    subarrays: int = 1
    max_wait_ms: float = 2.0
    max_batch: Optional[int] = None
    slo_ms: Optional[float] = None
    queue_limit: Optional[int] = None
    chips: int = 1
    router: str = "affinity"
    router_options: Dict[str, Any] = field(default_factory=dict)
    trace_out: Optional[str] = None
    metrics_out: Optional[str] = None
    slo_policy: Optional[str] = None

    def __post_init__(self) -> None:
        if self.arrivals not in _ARRIVAL_PROCESSES:
            raise ParameterError(
                f"arrivals must be one of {_ARRIVAL_PROCESSES}, "
                f"got {self.arrivals!r}"
            )
        check_rate_duration(self.rate, self.duration)
        require_count("chips", self.chips)
        if self.slo_ms is not None and not (
                math.isfinite(self.slo_ms) and self.slo_ms > 0):
            raise ParameterError(
                f"slo_ms must be > 0 and finite, got {self.slo_ms:g}")
        for name in ("max_batch", "queue_limit"):
            if getattr(self, name) is not None:
                require_count(name, getattr(self, name))
        require_count("pool_size", self.pool_size)
        require_count("subarrays", self.subarrays)
        # Names are looked up here, with the errors a replay would raise
        # on them; the lookups resolve no lazy factory spec.
        if self.chips > 1:
            from repro.cluster.router import require_router

            if self.scheduler.startswith("cluster:"):
                raise SchedulerError("cluster schedulers do not nest")
            require_router(self.router)
        require_scheduler(self.scheduler)
        require_backend(self.backend)
        # Copy the dict fields so a shared kwargs dict can't mutate a
        # "frozen" config behind its back.
        object.__setattr__(self, "scheduler_options",
                           dict(self.scheduler_options))
        object.__setattr__(self, "router_options", dict(self.router_options))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_args(cls, source: Any) -> "ReplayConfig":
        """Build a config from an ``argparse.Namespace`` or mapping.

        Unknown keys are ignored (a CLI namespace carries ``command``
        and friends); ``None`` values fall back to the field defaults,
        which is exactly argparse's convention for unset options.
        """
        data = dict(source) if isinstance(source, Mapping) else vars(source)
        names = {f.name for f in dataclasses.fields(cls)}
        kwargs = {key: value for key, value in data.items()
                  if key in names and value is not None}
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict form; ``from_args(to_dict(cfg)) == cfg``."""
        return dataclasses.asdict(self)

    # -- derived build helpers --------------------------------------------

    def batch_policy(self) -> BatchPolicy:
        return BatchPolicy(max_wait_s=self.max_wait_ms * 1e-3,
                           max_batch=self.max_batch)

    def pool_config(self) -> PoolConfig:
        return PoolConfig(size=self.pool_size, subarrays=self.subarrays)

    def build_pool(self) -> EnginePool:
        return EnginePool(self.pool_config())

    def effective_scheduler_options(self) -> Dict[str, Any]:
        """``scheduler_options`` with the convenience knobs folded in.

        ``queue_limit`` forwards only when set: the slo scheduler
        consumes it, any other scheduler rejects it loudly (a silent
        no-op would fake a bounded queue).
        """
        options = dict(self.scheduler_options)
        if self.queue_limit is not None:
            options.setdefault("queue_limit", self.queue_limit)
        return options

    def build_trace(self) -> List[Request]:
        """The synthetic request trace this config describes.

        ``slo_ms`` overlays a uniform latency budget on requests that
        carry none; scenario-declared SLOs keep their own deadlines.
        """
        make_trace = poisson_trace if self.arrivals == "poisson" \
            else bursty_trace
        trace = make_trace(self.scenario, self.rate, self.duration,
                           seed=self.seed)
        if self.slo_ms is not None:
            trace = [
                r if r.deadline_s is not None else dataclasses.replace(
                    r, deadline_s=r.arrival_s + self.slo_ms * 1e-3)
                for r in trace
            ]
        return trace

    def build_simulator(self, pool: Optional[EnginePool] = None, *,
                        admission_gate=None):
        """The simulator this config describes.

        One chip gets a plain
        :class:`~repro.serve.simulator.ServingSimulator`; ``chips > 1``
        gets the :class:`repro.cluster.ClusterSimulator` front door,
        which also consumes the chip and router fields.
        """
        if self.chips > 1:
            from repro.cluster import ClusterSimulator

            return ClusterSimulator(self, pool=pool,
                                    admission_gate=admission_gate)
        from repro.serve.simulator import ServingSimulator

        return ServingSimulator(
            pool if pool is not None else self.build_pool(),
            self.batch_policy(),
            backend=self.backend,
            scheduler=self.scheduler,
            scheduler_options=self.effective_scheduler_options(),
            admission_gate=admission_gate,
        )

    def describe(self) -> str:
        """The one-line header the CLI prints above a report."""
        text = (
            f"scenario={self.scenario} arrivals={self.arrivals} "
            f"rate={self.rate:g}/s duration={self.duration:g}s "
            f"pool={self.pool_size}x{self.subarrays} "
            f"max-wait={self.max_wait_ms:g}ms backend={self.backend} "
            f"scheduler={self.scheduler}"
        )
        if self.chips > 1:
            text += f" chips={self.chips} router={self.router}"
        return text
