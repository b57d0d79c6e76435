"""String-keyed registry of scheduler factories.

The same plugin seam as :mod:`repro.backends.registry`, built on the
shared :class:`repro.registry.FactoryRegistry`: the serving simulator
resolves its ``scheduler=`` knob here, the CLI derives its
``--scheduler`` choices from :func:`available_schedulers`, and third
parties extend the system by registering a factory under a new name —
no layer above this module hardcodes the set of policies.

A *factory* is any callable with the uniform construction signature::

    factory(pool: EnginePool, policy: BatchPolicy, *,
            backend: str = "model", **options) -> Scheduler

``options`` are policy-specific knobs (e.g. ``queue_limit`` for the
``slo`` scheduler); a factory must raise
:class:`~repro.errors.SchedulerError` on options it does not know.
Factories may be registered lazily as ``"module.path:attribute"``
strings, resolved on first :func:`get_scheduler` — which is how the
built-ins avoid importing the serve layer until a replay needs them.
"""

from __future__ import annotations

from typing import Callable, Tuple, Union

from repro.errors import SchedulerError
from repro.registry import FactoryRegistry

_REGISTRY = FactoryRegistry("scheduler", SchedulerError)


def register_scheduler(name: str, factory: Union[str, Callable], *,
                       replace: bool = False) -> None:
    """Register a scheduler factory under ``name``.

    ``factory`` is either a callable with the uniform construction
    signature or a lazy ``"module.path:attribute"`` spec.  Registering
    an existing name raises :class:`~repro.errors.SchedulerError`
    unless ``replace=True``.
    """
    _REGISTRY.register(name, factory, replace=replace)


def unregister_scheduler(name: str) -> None:
    """Remove a scheduler (no-op when absent); used by tests and plugins."""
    _REGISTRY.unregister(name)


def require_scheduler(name: str) -> None:
    """Raise :func:`get_scheduler`'s error unless ``name`` is registered;
    imports nothing."""
    _REGISTRY.require(name)


def get_scheduler(name: str) -> Callable:
    """The factory registered under ``name`` (resolving lazy specs)."""
    return _REGISTRY.get(name)


def available_schedulers() -> Tuple[str, ...]:
    """Registered scheduler names, sorted (the CLI's ``--scheduler`` choices)."""
    return _REGISTRY.available()


def create_scheduler(name: str, pool, policy, **kwargs):
    """Construct a scheduler: ``get_scheduler(name)(pool, policy, **kwargs)``."""
    return get_scheduler(name)(pool, policy, **kwargs)


# The built-ins register lazily so importing the registry (e.g. from the
# CLI parser or the simulator) costs nothing until a replay resolves one.
register_scheduler("fifo", "repro.sched.fifo:FifoScheduler")
register_scheduler("slo", "repro.sched.slo:SLOScheduler")
register_scheduler("adaptive", "repro.sched.adaptive:AdaptiveScheduler")

# The cluster namespace derives a sharded variant of every base policy:
# ``cluster:<inner>`` wraps N per-chip ``<inner>`` instances behind the
# router front door (see repro.cluster.scheduler).
_REGISTRY.register_namespace("cluster", "repro.cluster.scheduler:cluster_factory")
