"""Chip placement policies for the cluster front door.

A router answers one question: *which live chip should this request
land on?*  The contract mirrors the scheduler seam — a string-keyed
:class:`~repro.registry.FactoryRegistry`, uniform construction
``factory(chips, **options)``, and :class:`~repro.errors.SchedulerError`
on misuse — so ``repro.cli serve --router <name>`` derives its choices
the same way ``--scheduler`` does.

The default :class:`AffinityRouter` implements key-material affinity:
requests whose batch key carries a fixed second operand (relin-key
halves, operand-ciphertext components, plaintext constants — the
long-lived coalescible operands from the HE trail) pin to a chip via
rendezvous hashing, so one operand's program cache and coalescing
window live on one shard and survive unrelated membership changes.
Operand-less kernels (bare ``ntt``/``intt``) have a single degenerate
batch key per ring; hashing those would pile every such request onto
one chip, so they spread round-robin instead.  Hot tenants can opt
into ``replicate={tenant: k}``: their keys own the top-``k`` rendezvous
chips and rotate among them.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, Iterator, Mapping, Tuple, Union

from repro.errors import SchedulerError
from repro.registry import FactoryRegistry
from repro.serve.request import Request

__all__ = ["AffinityRouter", "RoundRobinRouter", "available_routers",
           "create_router", "get_router", "register_router",
           "require_router", "unregister_router"]


def _key_digest(batch_key: tuple) -> bytes:
    """A stable 16-byte digest of a batch key (params, op, operand)."""
    return hashlib.blake2b(repr(batch_key).encode(), digest_size=16).digest()


def _rendezvous_ranked(digest: bytes, live: Tuple[int, ...]) -> Tuple[int, ...]:
    """Live chips ranked by highest-random-weight for this key digest.

    The rendezvous property is what makes affinity drain-stable: when a
    chip leaves, only the keys it owned move (each to its next-ranked
    chip); every other pin is untouched.
    """
    def weight(chip: int) -> bytes:
        return hashlib.blake2b(digest + chip.to_bytes(4, "big"),
                               digest_size=8).digest()

    return tuple(sorted(live, key=weight, reverse=True))


class AffinityRouter:
    """Rendezvous-hashed key-material affinity with hot-tenant replication."""

    name = "affinity"

    def __init__(self, chips: int, *,
                 replicate: Union[int, Mapping[str, int], None] = None):
        if chips < 1:
            raise SchedulerError(f"router needs chips >= 1, got {chips}")
        self.chips = chips
        if replicate is None:
            replicate = {}
        elif isinstance(replicate, int):
            replicate = {"": replicate}
        self._replicas: Dict[str, int] = {}
        for tenant, count in dict(replicate).items():
            if not isinstance(count, int) or count < 1:
                raise SchedulerError(
                    f"replicate counts must be ints >= 1, got "
                    f"{tenant!r}: {count!r}"
                )
            self._replicas[tenant] = count
        self._digests: Dict[tuple, bytes] = {}
        self._ranked: Dict[Tuple[bytes, Tuple[int, ...]], Tuple[int, ...]] = {}
        self._cursors: Dict[tuple, Iterator[int]] = {}
        self._pins: Dict[tuple, int] = {}

    def _replica_count(self, tenant: str) -> int:
        count = self._replicas.get(tenant, self._replicas.get("", 1))
        return max(1, count)

    def chip_for(self, request: Request, live: Tuple[int, ...]) -> int:
        if not live:
            raise SchedulerError("no live chips to route onto")
        key = request.batch_key
        if key[2] is None:
            # Operand-less kernel: one degenerate key per ring — spread.
            cursor = self._cursors.get(key)
            if cursor is None:
                cursor = self._cursors[key] = itertools.count()
            chip = live[next(cursor) % len(live)]
            self._pins[key] = chip
            return chip
        digest = self._digests.get(key)
        if digest is None:
            digest = self._digests[key] = _key_digest(key)
        ranked = self._ranked.get((digest, live))
        if ranked is None:
            ranked = self._ranked[(digest, live)] = _rendezvous_ranked(
                digest, live)
        replicas = min(self._replica_count(request.tenant), len(ranked))
        if replicas == 1:
            chip = ranked[0]
        else:
            cursor = self._cursors.get(key)
            if cursor is None:
                cursor = self._cursors[key] = itertools.count()
            chip = ranked[next(cursor) % replicas]
        self._pins[key] = chip
        return chip

    def pins(self) -> Dict[tuple, int]:
        """Last placement per batch key (introspection for tests/demos)."""
        return dict(self._pins)


class RoundRobinRouter:
    """Affinity-blind baseline: cycle over the live chips."""

    name = "round-robin"

    def __init__(self, chips: int):
        if chips < 1:
            raise SchedulerError(f"router needs chips >= 1, got {chips}")
        self.chips = chips
        self._cursor = itertools.count()
        self._pins: Dict[tuple, int] = {}

    def chip_for(self, request: Request, live: Tuple[int, ...]) -> int:
        if not live:
            raise SchedulerError("no live chips to route onto")
        chip = live[next(self._cursor) % len(live)]
        self._pins[request.batch_key] = chip
        return chip

    def pins(self) -> Dict[tuple, int]:
        """Last placement per batch key (introspection for tests/demos)."""
        return dict(self._pins)


_REGISTRY = FactoryRegistry("router", SchedulerError)


def register_router(name, factory, *, replace: bool = False) -> None:
    """Register a router factory (``factory(chips, **options) -> router``)."""
    _REGISTRY.register(name, factory, replace=replace)


def unregister_router(name: str) -> None:
    """Remove a router (no-op when absent); used by tests and plugins."""
    _REGISTRY.unregister(name)


def require_router(name: str) -> None:
    """Raise :func:`get_router`'s error unless ``name`` is registered;
    imports nothing."""
    _REGISTRY.require(name)


def get_router(name: str):
    """The factory registered under ``name`` (resolving lazy specs)."""
    return _REGISTRY.get(name)


def available_routers() -> Tuple[str, ...]:
    """Registered router names, sorted (the CLI's ``--router`` choices)."""
    return _REGISTRY.available()


def create_router(name: str, chips: int, **options):
    """Construct a router: ``get_router(name)(chips, **options)``."""
    try:
        return get_router(name)(chips, **options)
    except TypeError as error:
        raise SchedulerError(
            f"router {name!r} rejected its options: {error}"
        ) from error


register_router("affinity", AffinityRouter)
register_router("round-robin", RoundRobinRouter)
