"""The execution-backend protocol: what every substrate must speak.

A *backend* is anything that can run the serving runtime's three kernel
ops — ``ntt``, ``intt``, ``polymul`` — on a batch of polynomials and
price the invocation with the paper's cycle/energy model.  The contract
is four methods, and one optional one:

- :meth:`Backend.capabilities` — static facts: batch capacity, the ops
  supported, and whether the instance holds per-lane state.
- :meth:`Backend.compile` — turn ``(op, operand)`` into a reusable
  :class:`CompiledKernel` handle (the CTRL/CMD "store the program once"
  story: handles are cached and shared across batches).
- :meth:`Backend.execute` — run one handle over a list of payload
  polynomials, returning one canonical coefficient list per payload.
  Each payload is a read-only sequence of canonical ints: the serving
  pool passes ``memoryview`` rows over the requests' packed words, and
  other callers pass lists or tuples.  A backend must not write to a
  row or keep it after the call.
  A replay never calls it per dispatch.  A stateful backend gets one
  batch per call after the event loop.  A pure backend
  (``stateful=False``) gets the rows of many batches of one kernel in
  chunks, and only when someone reads one of their results, so its
  results must not depend on which other rows share the call.
- :meth:`Backend.profile` — the handle's :class:`CostReport`: the
  static price of the kernel's instruction mix, which is what the
  executor's stats are, so every backend reports byte-identical cycles
  and energy for the same kernel (``model`` prices the schedule,
  ``sram`` its compiled programs).
- ``detach(kernel)`` (optional, pure backends) — a ``(backend,
  kernel)`` pair that executes as this backend and ``kernel`` do and
  keeps no compiled program alive.  A replay's pending results hold
  that pair when the method exists, and the backend and kernel
  themselves when it does not.

Backends are constructed by registry factories with the uniform
signature ``factory(params, *, rows, cols, subarrays, tech, template,
width)`` (see :mod:`repro.backends.registry`); ``template`` optionally
shares a caller-owned :class:`~repro.core.engine.BPNTTEngine`'s program
store, so every backend and every lane compiles and prices each program
once.

This module sits *below* ``repro.core``: it may import only the sram
layer, which is what lets the engines themselves implement the
protocol without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.sram.cost import CostReport
from repro.sram.energy import TechnologyModel
from repro.sram.executor import ExecutionStats, profile_program

if TYPE_CHECKING:
    from repro.sram.program import Program

#: Kernel operations every backend must support (the serving runtime's
#: request vocabulary; ``repro.serve.request`` re-exports this).
KERNEL_OPS = ("ntt", "intt", "polymul")


@dataclass(frozen=True)
class BackendCapabilities:
    """Static facts a pool or CLI can plan around.

    Attributes:
        name: the registry name this instance serves.
        description: one-line human summary for ``repro.cli backends``.
        batch: polynomials absorbed per invocation (all replicas).
        stateful: True when the instance owns mutable storage (a real
            subarray) and therefore needs one private instance per pool
            lane; False for pure substrates one instance can serve from
            every lane.
        ops: supported kernel operations.
    """

    name: str
    description: str
    batch: int
    stateful: bool = False
    ops: Tuple[str, ...] = KERNEL_OPS


@dataclass(frozen=True)
class CompiledKernel:
    """A backend's reusable handle for one ``(op, operand)`` kernel.

    Attributes:
        op: ``"ntt"``, ``"intt"`` or ``"polymul"``.
        operand: canonical coefficients of the fixed second polynomial
            (``polymul`` only).
        operand_hat: the operand's forward NTT, transformed once at
            compile time and reused by every batch.
        programs: the compiled instruction streams the invocation runs,
            in execution order, which ``sram`` executes and prices.  An
            engine's handle compiles them on their first read; a
            ``model`` handle holds none (``()``), since that backend
            prices the schedule.
        schedule: the same programs as their engine's program store
            keys them (``"ntt"``, ``"intt"``, ``("pointwise", hat)``):
            what a schedule pricer prices without compiling them.
    """

    op: str
    operand: Optional[Tuple[int, ...]]
    operand_hat: Optional[Tuple[int, ...]]
    programs: Sequence[Program]
    schedule: Tuple = ()


def price_programs(programs: Sequence[Program], tech: TechnologyModel,
                   *, replicas: int = 1,
                   memo: Optional[Dict[int, tuple]] = None) -> CostReport:
    """Price an instruction-stream sequence with the shared cost tables.

    This is the one pricing routine behind every ``Backend.profile``
    (and the analysis sweeps): statically profile each program, merge,
    convert to a :class:`CostReport`, and apply the ganged-subarray
    replication rule.  Keeping it single-sourced is what makes backend
    cost reports byte-identical.

    Each program is profiled once per call, or once per ``memo``: a
    caller-owned dict keyed on program identity, which
    :meth:`~repro.core.engine.BPNTTEngine.profile` keeps per engine.
    A compiled program is never mutated, so its price is a property of
    the program, and merging cached stats in program order gives
    byte-identical reports.
    """
    if memo is None:
        memo = {}
    return price_stats([memo_profile(p, tech, memo) for p in programs], tech,
                       replicas=replicas)


def price_stats(stats: Sequence[ExecutionStats], tech: TechnologyModel,
                *, replicas: int = 1) -> CostReport:
    """The :class:`CostReport` of programs with these stats, run in order
    on ``replicas`` ganged subarrays (:func:`price_programs`' back half)."""
    merged = ExecutionStats.merge(*stats)
    return CostReport.from_stats(merged, tech).replicate(replicas)


def memo_profile(program: Program, tech: TechnologyModel,
                 memo: Dict[int, tuple]) -> ExecutionStats:
    """``profile_program(program, tech)``, computed once per ``memo``.

    ``memo`` is keyed on program identity.  The returned stats are the
    memo's own: merge them, never change them in place.
    """
    entry = memo.get(id(program))
    if entry is None:
        # Holding the program keeps its id from being reused.
        entry = memo[id(program)] = (program, profile_program(program, tech))
    return entry[1]


@runtime_checkable
class Backend(Protocol):
    """Structural interface of an execution backend.

    ``BPNTTEngine`` implements this directly at any gang width; pure
    substrates (the gold model) wrap a template engine for pricing.
    """

    def capabilities(self) -> BackendCapabilities:
        """Static facts about this instance."""
        ...  # pragma: no cover - protocol

    def compile(self, op: str,
                operand: Optional[Sequence[int]] = None) -> CompiledKernel:
        """Build (or fetch the cached) handle for one kernel."""
        ...  # pragma: no cover - protocol

    def execute(self, kernel: CompiledKernel,
                payloads: Sequence[Sequence[int]]) -> List[List[int]]:
        """Run the kernel over ``payloads``, read-only int sequences;
        one result list each."""
        ...  # pragma: no cover - protocol

    def profile(self, kernel: CompiledKernel) -> CostReport:
        """The cycle/energy price of one invocation of ``kernel``."""
        ...  # pragma: no cover - protocol
