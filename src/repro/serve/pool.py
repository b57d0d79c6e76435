"""Engine pool: lazily built, cached execution backends per parameter set.

One pool owns ``size`` *lanes* per parameter set.  A lane is one
execution backend resolved through the :mod:`repro.backends` registry,
built on first use and cached for the life of the pool so compiled
programs are reused across every batch it serves — the CTRL/CMD
subarray's "store the program once" story lifted to the serving layer.
The scheduler picks the lane of every batch (:mod:`repro.sched`).

Any registered backend can serve a batch (``repro.cli backends`` lists
them; :mod:`repro.backends` describes the built-ins ``model`` and
``sram``).  Each invocation is priced once per (backend, key) by a
cached :class:`ServiceProfile`: the cycle/energy totals of the kernel's
programs, statically costed through ``Backend.profile``.

Every lane is built over the pool's template engine for its parameter
set, so all lanes of all backends compile and price each program once.
Stateful backends (``sram``: real subarrays) get one private instance
per lane, all over the template's single program store; pure backends
share a single instance across every lane.

Serving splits in two.  :meth:`EnginePool.validate` checks and prices a
batch when it dispatches; :meth:`EnginePool.execute_batches` gives the
results of any number of validated batches later.  A replay calls it
once, after its event loop: a stateful backend runs each batch on its
lane then, in dispatch order, and a pure backend's batches are grouped
per kernel into a :class:`PendingGroup` whose rows run in chunks of at
most :data:`EXECUTE_CHUNK_COEFFS` coefficients, each chunk only when one
of its results is first read.  :meth:`EnginePool.serve` is both steps on
one batch, and reads its results before it returns.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.backends import get_backend
from repro.backends.base import Backend, CompiledKernel
from repro.core.engine import BPNTTEngine
from repro.errors import BackendError, ParameterError, require_count
from repro.ntt.params import NTTParams, get_params
from repro.obs.tracer import NULL_TRACER, TraceEvent
from repro.serve.batcher import PolyBatch
from repro.serve.request import word_rows
from repro.sram.cost import CostReport
from repro.sram.energy import TECH_45NM, TechnologyModel

#: Most payload coefficients one pure-backend ``execute`` call runs when
#: :meth:`EnginePool.execute_batches` chunks a kernel's rows: 64 rows of
#: a 1024-point ring, 256 of a 256-point one.
EXECUTE_CHUNK_COEFFS = 64 * 1024


def _checked(name: str, out: Sequence[Sequence[int]],
             rows: int) -> List[Tuple[int, ...]]:
    """``out`` as tuples, refused unless it holds one result per row."""
    out = list(map(tuple, out))
    if len(out) != rows:
        raise BackendError(
            f"backend {name!r} returned {len(out)} results for "
            f"{rows} payloads"
        )
    return out


class PendingGroup:
    """A pure backend's results for one kernel group, run a chunk at a time.

    ``backend`` and ``kernel`` run the rows: the pool's backend and
    kernel, or the copies its ``detach`` gives (which keep no compiled
    program alive).  ``rows`` are the packed payloads of the group's
    batches in dispatch order, on the ring ``params``.  They split into
    chunks of at most :data:`EXECUTE_CHUNK_COEFFS` coefficients, the
    bound in force when the group was made.  The first read of a row
    runs its chunk, once, through ``backend.execute`` on read-only views
    of the chunk's words (:func:`~repro.serve.request.word_rows`).  Once
    every chunk has run, the group keeps only the result tuples.
    Indexing the group reads a row's result.
    """

    __slots__ = ("name", "_backend", "_kernel", "_rows", "_params", "_step",
                 "_chunks")

    def __init__(self, name: str, backend: Backend, kernel: CompiledKernel,
                 rows: List[bytes], params: NTTParams):
        self.name = name
        self._backend = backend
        self._kernel = kernel
        self._rows = rows
        self._params = params
        self._step = max(1, EXECUTE_CHUNK_COEFFS // params.n)
        # Each chunk's result tuples, or None until it runs; the list is
        # made on the first read, so a group nobody reads holds none.
        self._chunks: Optional[List[Optional[List[Tuple[int, ...]]]]] = None

    def result(self, index: int) -> Tuple[int, ...]:
        """Row ``index``'s result tuple, running its chunk on first read."""
        chunk, offset = divmod(index, self._step)
        if self._chunks is None:
            self._chunks = [None] * len(range(0, len(self._rows), self._step))
        results = self._chunks[chunk]
        if results is None:
            start = chunk * self._step
            packed = self._rows[start:start + self._step]
            results = self._chunks[chunk] = _checked(
                self.name, self._backend.execute(self._kernel, word_rows(
                    packed, self._params.n, self._params.q)),
                len(packed))
            if None not in self._chunks:
                self._backend = self._kernel = self._rows = None
        return results[offset]

    __getitem__ = result


class BatchResults(Sequence):
    """One batch's results: the rows ``span`` of a :class:`PendingGroup`.

    Reading an item runs the group's chunk that holds it.
    """

    __slots__ = ("group", "span")

    def __init__(self, group: PendingGroup, start: int, stop: int):
        self.group = group
        self.span = range(start, stop)

    def __len__(self) -> int:
        return len(self.span)

    def __getitem__(self, index):
        where = self.span[index]
        if isinstance(where, range):
            return [self.group.result(i) for i in where]
        return self.group.result(where)


@dataclass(frozen=True)
class PoolConfig:
    """Shape of the pool.

    Attributes:
        size: lanes (independent backend instances) per parameter set.
        subarrays: data subarrays ganged per lane (1 = a bare
            subarray; more = a banked gang under one CTRL stream).
        rows / cols: subarray geometry.
        tech: technology model used for pricing and area.
    """

    size: int = 2
    subarrays: int = 1
    rows: int = 256
    cols: int = 256
    tech: TechnologyModel = TECH_45NM

    def __post_init__(self) -> None:
        require_count("pool size", self.size)
        require_count("subarrays", self.subarrays)


@dataclass(frozen=True)
class ServiceProfile:
    """Cycle-accurate price of one batch invocation for one batch key."""

    key: tuple
    cycles: int
    energy_nj: float
    latency_s: float
    capacity: int

    @property
    def params_name(self) -> str:
        return self.key[0]

    @property
    def op(self) -> str:
        return self.key[1]

    @classmethod
    def from_cost(cls, key: tuple, cost: CostReport, capacity: int) -> "ServiceProfile":
        """Wrap a backend's :class:`CostReport` with serving metadata."""
        return cls(
            key=key,
            cycles=cost.cycles,
            energy_nj=cost.energy_nj,
            latency_s=cost.latency_s,
            capacity=capacity,
        )


class EnginePool:
    """Cached backends and service profiles per parameter set."""

    def __init__(self, config: PoolConfig = PoolConfig()):
        self.config = config
        self._templates: Dict[str, BPNTTEngine] = {}
        self._lanes: Dict[Tuple[str, str], List[Backend]] = {}
        self._profiles: Dict[Tuple[str, tuple], ServiceProfile] = {}
        # The simulator binds the replay's tracer here; profile events
        # record each Backend.profile pricing (cache misses only —
        # profiles are cached for the life of the pool).
        self.tracer = NULL_TRACER

    # -- construction and caching ----------------------------------------

    def template(self, params_name: str) -> BPNTTEngine:
        """The pool's reference engine for a parameter set.

        Built lazily and kept for the life of the pool; it owns the
        program store (compiled programs, kernel handles and prices)
        every lane of every backend is built over.
        """
        if params_name not in self._templates:
            self._templates[params_name] = BPNTTEngine(
                get_params(params_name),
                rows=self.config.rows,
                cols=self.config.cols,
                tech=self.config.tech,
            )
        return self._templates[params_name]

    def _create_backend(self, backend: str, params_name: str) -> Backend:
        factory = get_backend(backend)
        return factory(
            get_params(params_name),
            rows=self.config.rows,
            cols=self.config.cols,
            subarrays=self.config.subarrays,
            tech=self.config.tech,
            template=self.template(params_name),
        )

    def backend_lanes(self, backend: str, params_name: str) -> List[Backend]:
        """All ``size`` lane instances of one backend (built on first use).

        Stateful backends get one instance per lane; pure backends are
        shared across all of them.
        """
        key = (backend, params_name)
        if key not in self._lanes:
            first = self._create_backend(backend, params_name)
            stateful = first.capabilities().stateful
            lanes: List[Backend] = [first]
            while len(lanes) < self.config.size:
                lanes.append(self._create_backend(backend, params_name)
                             if stateful else first)
            self._lanes[key] = lanes
        return self._lanes[key]

    @property
    def lane_count(self) -> int:
        return self.config.size

    def capacity(self, key: tuple, *, backend: Optional[str] = None) -> int:
        """Requests one invocation absorbs (all ganged subarrays).

        With ``backend`` given, the answer is capped by that backend's
        own :meth:`~repro.backends.base.Backend.capabilities` — a
        third-party backend may absorb less than the pool's template
        geometry, and the batcher must plan to the smaller number.
        """
        base = self.template(key[0]).batch * self.config.subarrays
        if backend is None:
            return base
        lane = self.backend_lanes(backend, key[0])[0]
        return min(base, lane.capabilities().batch)

    # -- pricing -----------------------------------------------------------

    def profile(self, key: tuple, *, backend: str = "model") -> ServiceProfile:
        """The cached cycle/energy price of one invocation for ``key``.

        Priced through ``Backend.profile`` and cached per (backend,
        key): a backend with its own cost model gets its own numbers.
        """
        cache_key = (backend, key)
        if cache_key not in self._profiles:
            params_name, op, operand = key
            lane = self.backend_lanes(backend, params_name)[0]
            cost = lane.profile(lane.compile(op, operand))
            profile = ServiceProfile.from_cost(
                key, cost, self.capacity(key, backend=backend)
            )
            self._profiles[cache_key] = profile
            if self.tracer.enabled:
                # Pricing has no place on the trace clock; profile
                # events sit at t=0 and carry the cost facts.
                self.tracer.emit(TraceEvent(
                    "profile", 0.0, None, None, None, "", "",
                    {"backend": backend, "params": params_name, "op": op,
                     "cycles": profile.cycles,
                     "energy_nj": profile.energy_nj,
                     "latency_s": profile.latency_s,
                     "capacity": profile.capacity},
                ))
        return self._profiles[cache_key]

    # -- serving -----------------------------------------------------------

    def validate(self, batch: PolyBatch, *, backend: Optional[str] = None,
                 lane: int) -> ServiceProfile:
        """Check that ``lane`` can run ``batch``; returns its price.

        Raises :class:`~repro.errors.ParameterError` for an unknown
        backend, a lane out of range, a batch over capacity or an op the
        backend does not advertise.  Nothing runs: results come from
        :meth:`execute_batches`.
        """
        name = backend if backend is not None else "model"
        get_backend(name)  # raises BackendError when the name is unknown
        params_name, op, _ = batch.key
        if not 0 <= lane < self.config.size:
            raise ParameterError(
                f"lane {lane} out of range for pool size {self.config.size}"
            )
        profile = self.profile(batch.key, backend=name)
        if batch.size > profile.capacity:
            raise ParameterError(
                f"batch of {batch.size} exceeds invocation capacity "
                f"{profile.capacity} for {params_name!r}"
            )
        caps = self.backend_lanes(name, params_name)[lane].capabilities()
        if op not in caps.ops:
            raise ParameterError(
                f"backend {name!r} does not support op {op!r}; "
                f"advertised ops: {caps.ops}"
            )
        # The profile already caps capacity to this backend's word; the
        # re-check guards batches built outside the pool's batcher.
        if batch.size > caps.batch:
            raise ParameterError(
                f"batch of {batch.size} exceeds backend {name!r} capacity "
                f"{caps.batch} for {params_name!r}"
            )
        return profile

    def execute_batches(self, pending: Sequence[Tuple[PolyBatch, int]], *,
                        backend: Optional[str] = None
                        ) -> List[Sequence[Tuple[int, ...]]]:
        """Results of validated ``(batch, lane)`` pairs, one sequence per batch.

        Each sequence holds one coefficient tuple per live request, in
        batch order.  A stateful backend runs one ``execute`` per batch
        on its lane now, in ``pending`` order, because a lane is a
        subarray the batch is loaded into.  A pure backend computes
        every row the same way whatever batch or call it rides in, so
        its batches are grouped per instance and batch key into a
        :class:`PendingGroup` that runs nothing until one of its results
        is read.  The group's payload rows split into chunks of at most
        :data:`EXECUTE_CHUNK_COEFFS` coefficients, and the first read of
        a row runs its chunk through one ``execute`` call: one call
        amortizes its fixed host cost over many batches, and the chunk
        bound keeps the arrays of a batched kernel small.  A caller that
        reads no result runs no math, and one that reads a sample runs
        only the chunks that hold it.  Either way ``execute`` gets
        read-only views of the requests' packed words.
        """
        name = backend if backend is not None else "model"
        results: List[Sequence[Tuple[int, ...]]] = [[] for _ in pending]
        groups: Dict[Tuple[int, tuple], List[int]] = {}
        for index, (batch, lane) in enumerate(pending):
            impl = self.backend_lanes(name, batch.key[0])[lane]
            if impl.capabilities().stateful:
                params = get_params(batch.key[0])
                _, op, operand = batch.key
                results[index] = _checked(
                    name, impl.execute(impl.compile(op, operand), word_rows(
                        [r._packed for r in batch.requests],
                        params.n, params.q)),
                    batch.size)
            else:
                groups.setdefault((id(impl), batch.key), []).append(index)
        for (_, key), indices in groups.items():
            impl = self.backend_lanes(name, key[0])[pending[indices[0]][1]]
            kernel = impl.compile(key[1], key[2])
            detach = getattr(impl, "detach", None)
            # The group holds each request's packed words (``Request``'s
            # private slot): nothing is decoded until a row is read.
            group = PendingGroup(
                name, *(detach(kernel) if detach is not None
                        else (impl, kernel)),
                [request._packed for index in indices
                 for request in pending[index][0].requests],
                get_params(key[0]))
            start = 0
            for index in indices:
                end = start + pending[index][0].size
                results[index] = BatchResults(group, start, end)
                start = end
        return results

    def serve(self, batch: PolyBatch, *, backend: Optional[str] = None,
              lane: int) -> Tuple[List[Tuple[int, ...]], ServiceProfile, int]:
        """Serve one batch on ``lane``; returns (results, profile, lane).

        :meth:`validate`, then :meth:`execute_batches` on this one
        batch: the replay's path, one batch at a time.  ``results`` is
        one coefficient tuple per live request, in batch order.
        ``backend`` names any registered execution backend (default
        ``"model"``).  All backends charge the same profile.
        """
        profile = self.validate(batch, backend=backend, lane=lane)
        results = list(self.execute_batches([(batch, lane)], backend=backend)[0])
        return results, profile, lane
