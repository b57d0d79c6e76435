"""One frozen config object for a serving replay, shared by every front end.

:class:`ReplayConfig` is the whole description of a replay, and its
fields *are* the CLI's replay flags.  A field that carries a ``help``
in its metadata is the flag ``--<name-with-dashes>``, with the field's
type and default; :func:`add_replay_flags` adds those flags to a
parser (``serve`` takes all of them, ``watch`` all but the two file
sinks, ``check trace`` its scheduler, chips and seed), reading choice
lists from the registries when the parser is built.
:meth:`ReplayConfig.from_args` is then the entire argument plumbing:
it accepts an ``argparse.Namespace`` or any mapping, ignoring keys it
does not know.  The cluster front door
(:class:`repro.cluster.ClusterSimulator`) takes a config whole, and
:meth:`to_dict`/:meth:`from_args` round-trip losslessly so configs can
be persisted next to their reports.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.backends.registry import available_backends, require_backend
from repro.errors import ParameterError, SchedulerError, require_count
from repro.sched.registry import available_schedulers, require_scheduler
from repro.serve.batcher import BatchPolicy
from repro.serve.pool import EnginePool, PoolConfig
from repro.serve.request import Request
from repro.serve.workload import (
    available_scenarios,
    bursty_trace,
    check_rate_duration,
    poisson_trace,
    require_scenario,
)

__all__ = ["FLAG_FIELDS", "ReplayConfig", "add_replay_flags"]

_ARRIVAL_PROCESSES = ("poisson", "bursty")


def _available_routers():
    # repro.cluster imports repro.serve, so its registry loads late.
    from repro.cluster.router import available_routers

    return available_routers()


def _flag(default, help: str, choices=None):
    """A field that is also a CLI flag; ``choices`` lists its names."""
    return field(default=default,
                 metadata={"help": help, "choices": choices})


@dataclass(frozen=True)
class ReplayConfig:
    """Everything that determines a serving replay, in one place.

    The workload (``scenario``/``arrivals``/``rate``/``duration``/
    ``seed``), the machine (``backend``, ``pool_size``, ``subarrays``),
    batching (``max_wait_ms``, ``max_batch``), scheduling
    (``scheduler``, ``scheduler_options``, ``slo_ms``,
    ``queue_limit``), the cluster shape (``chips``, ``router``,
    ``router_options``), and the observability sinks (``trace_out``,
    ``metrics_out``, ``slo_policy``).  Every field but the two option
    dicts is a flag of ``repro.cli serve``.
    """

    scenario: str = _flag(
        "mixed", "traffic mix (default %(default)s; any scenario "
        "registered in repro.serve.workload appears here)",
        available_scenarios)
    arrivals: str = _flag("poisson", "arrival process (default %(default)s)",
                          lambda: _ARRIVAL_PROCESSES)
    rate: float = _flag(200.0, "mean client calls per second "
                               "(default %(default)g)")
    duration: float = _flag(1.0, "trace length in seconds "
                                 "(default %(default)g)")
    seed: int = _flag(2023, "random seed (default %(default)s)")
    backend: str = _flag(
        "model", "execution backend (default %(default)s; "
        "`repro.cli backends` describes each)", available_backends)
    scheduler: str = _flag(
        "fifo", "serving scheduler (default %(default)s; any name "
        "registered in repro.sched appears here)", available_schedulers)
    scheduler_options: Dict[str, Any] = field(default_factory=dict)
    pool_size: int = _flag(2, "engines per parameter set "
                              "(default %(default)s)")
    subarrays: int = _flag(1, "data subarrays ganged per engine "
                              "(default %(default)s)")
    max_wait_ms: float = _flag(2.0, "batch coalescing window in ms "
                                    "(default %(default)g)")
    max_batch: Optional[int] = _flag(
        None, "cap requests per batch (default: capacity)")
    slo_ms: Optional[float] = _flag(
        None, "uniform latency budget (ms) for requests without a "
        "scenario-declared deadline")
    queue_limit: Optional[int] = _flag(
        None, "slo scheduler: max waiting requests before admission drops "
        "(scheduler default 64); rejected by schedulers that never drop")
    chips: int = _flag(
        1, "shard the replay across this many chips behind one front door "
        "(default %(default)s; the scheduler runs per chip, the router "
        "places requests)")
    router: str = _flag(
        "affinity", "cluster placement policy (default %(default)s; "
        "affinity is rendezvous-hashed key-material pinning; only used "
        "with --chips > 1)", _available_routers)
    router_options: Dict[str, Any] = field(default_factory=dict)
    trace_out: Optional[str] = _flag(
        None, "record the request lifecycle and write a Chrome-trace JSON "
        "here (Perfetto-loadable; a .jsonl extension writes raw JSONL "
        "events instead)")
    metrics_out: Optional[str] = _flag(
        None, "write the replay's metrics registry here in Prometheus "
        "text format")
    slo_policy: Optional[str] = _flag(
        None, "JSON SLO policy (objective, burn-rate rules); evaluates "
        "multi-window burn rates per tenant during the replay and "
        "reports the alert history")

    def __post_init__(self) -> None:
        if self.arrivals not in _ARRIVAL_PROCESSES:
            raise ParameterError(
                f"arrivals must be one of {_ARRIVAL_PROCESSES}, "
                f"got {self.arrivals!r}"
            )
        check_rate_duration(self.rate, self.duration)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ParameterError(f"seed must be an int, got {self.seed!r}")
        require_count("chips", self.chips)
        for name in ("slo_ms", "max_wait_ms"):
            if isinstance(getattr(self, name), bool):
                raise ParameterError(
                    f"{name} must be a number, got {getattr(self, name)!r}")
        if self.slo_ms is not None and not (
                math.isfinite(self.slo_ms) and self.slo_ms > 0):
            raise ParameterError(
                f"slo_ms must be > 0 and finite, got {self.slo_ms:g}")
        for name in ("max_batch", "queue_limit"):
            if getattr(self, name) is not None:
                require_count(name, getattr(self, name))
        require_count("pool_size", self.pool_size)
        require_count("subarrays", self.subarrays)
        self.batch_policy()  # its own check of max_wait_ms
        # Names are looked up here, with the errors a replay would raise
        # on them; the lookups resolve no lazy factory spec.
        from repro.cluster.router import require_router

        if self.chips > 1 and self.scheduler.startswith("cluster:"):
            raise SchedulerError("cluster schedulers do not nest")
        require_scenario(self.scenario)
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
        return cls(**{f.name: data[f.name] for f in _FIELDS
                      if data.get(f.name) is not None})

    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict form; ``from_args(to_dict(cfg)) == cfg``."""
        return {f.name: copy.deepcopy(getattr(self, f.name))
                for f in _FIELDS}

    # -- derived build helpers --------------------------------------------

    def batch_policy(self) -> BatchPolicy:
        return BatchPolicy(max_wait_s=self.max_wait_ms * 1e-3,
                           max_batch=self.max_batch)

    def build_pool(self) -> EnginePool:
        return EnginePool(PoolConfig(size=self.pool_size,
                                     subarrays=self.subarrays))

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
                r if r.deadline_s is not None else r.with_deadline(
                    r.arrival_s + self.slo_ms * 1e-3)
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


#: The field table :meth:`ReplayConfig.from_args`, :meth:`~ReplayConfig.to_dict`
#: and the CLI flags read.
_FIELDS = dataclasses.fields(ReplayConfig)
#: The fields that are CLI flags, in declaration order.
FLAG_FIELDS = tuple(f for f in _FIELDS if "help" in f.metadata)


def add_replay_flags(parser, names: Optional[Iterable[str]] = None, *,
                     exclude: Iterable[str] = ()) -> None:
    """Add a flag per :data:`FLAG_FIELDS` entry (or per one in ``names``,
    minus ``exclude``) to an argparse ``parser``.

    A front end with other defaults sets them with
    ``parser.set_defaults``; help texts show them through
    ``%(default)s``.
    """
    hints = typing.get_type_hints(ReplayConfig)
    for f in FLAG_FIELDS:
        if (names is not None and f.name not in names) or f.name in exclude:
            continue
        kind = hints[f.name]
        if typing.get_origin(kind) is typing.Union:  # Optional[X]
            kind = typing.get_args(kind)[0]
        choices = f.metadata["choices"]
        parser.add_argument(
            "--" + f.name.replace("_", "-"), type=kind, default=f.default,
            choices=choices() if choices else None,
            # The free-text string flags are the three file paths.
            metavar="PATH" if kind is str and not choices else None,
            help=f.metadata["help"])
