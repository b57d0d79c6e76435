"""String-keyed registry of execution-backend factories.

The registry is the seam the rest of the codebase dispatches through:
``repro.serve.pool`` resolves its execution mode here, the CLI derives
its ``--backend`` choices from :func:`available_backends`, and third
parties extend the system by registering a factory under a new name —
no layer above this module hardcodes the set of substrates.  The
mechanics (validation, lazy specs, listing) live in the shared
:class:`repro.registry.FactoryRegistry`, which
:mod:`repro.sched.registry` builds on too.

A *factory* is any callable with the uniform construction signature::

    factory(params: NTTParams, *, rows=256, cols=256, subarrays=1,
            tech=TECH_45NM, template=None, width=None) -> Backend

Factories may be registered lazily as ``"module.path:attribute"``
strings; the module is imported on first :func:`get_backend`, which is
how the built-ins avoid an import cycle with ``repro.core`` (and how a
backend with an optional dependency stays cheap to register).
"""

from __future__ import annotations

from typing import Callable, Tuple, Union

from repro.errors import BackendError
from repro.registry import FactoryRegistry

_REGISTRY = FactoryRegistry("backend", BackendError)


def register_backend(name: str, factory: Union[str, Callable], *,
                     replace: bool = False) -> None:
    """Register a backend factory under ``name``.

    ``factory`` is either a callable with the uniform construction
    signature or a lazy ``"module.path:attribute"`` spec.  Registering
    an existing name raises :class:`~repro.errors.BackendError` unless
    ``replace=True`` (duplicate registrations are almost always two
    modules fighting over a name).
    """
    _REGISTRY.register(name, factory, replace=replace)


def unregister_backend(name: str) -> None:
    """Remove a backend (no-op when absent); used by tests and plugins."""
    _REGISTRY.unregister(name)


def require_backend(name: str) -> None:
    """Raise :func:`get_backend`'s error unless ``name`` is registered;
    imports nothing."""
    _REGISTRY.require(name)


def get_backend(name: str) -> Callable:
    """The factory registered under ``name`` (resolving lazy specs)."""
    return _REGISTRY.get(name)


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted (the CLI's ``--backend`` choices)."""
    return _REGISTRY.available()


def create_backend(name: str, params, **kwargs):
    """Construct a backend instance: ``get_backend(name)(params, **kwargs)``."""
    return get_backend(name)(params, **kwargs)
