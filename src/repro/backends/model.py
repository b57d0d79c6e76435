"""The ``model`` backend: gold-model results, schedule pricing.

Results come from the reference transforms in
:mod:`repro.ntt.transform`.  The invocation is priced from the
compiler's schedule through a template
:class:`~repro.core.engine.BPNTTEngine`'s schedule pricer
(:meth:`~repro.core.engine.BPNTTEngine.schedule_profile`), which equals
statically profiling the compiled programs byte for byte without
building them.  Cost is fixed per instruction class, so the executor's
stats *are* this static price of the instruction mix: interpreting the
subarray reports the same cycles and energy, at many times the host
time.  A ``model`` kernel holds no program, and this backend compiles
none.  This is the serving runtime's default substrate.

The result math takes one of two bit-identical paths, picked once at
construction: the batched numpy schedules (one vectorized transform per
batch) for rings of ``n >= 64`` with moduli of at most 31 bits when
numpy imports, and the scalar per-polynomial loop otherwise — tiny rings
(where it is faster, and importing numpy would add about a fifth to a
small replay's peak memory), wider moduli, and installs without numpy.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.backends.base import BackendCapabilities, CompiledKernel
from repro.core.engine import BPNTTEngine
from repro.errors import require_count
from repro.ntt.params import NTTParams
from repro.ntt.transform import (
    BATCH_MAX_MODULUS_BITS,
    intt_negacyclic,
    intt_negacyclic_batch,
    ntt_negacyclic,
    ntt_negacyclic_batch,
)
from repro.sram.cost import CostReport
from repro.sram.energy import TECH_45NM, TechnologyModel

#: Smallest ring served by the batched schedules.  Below it the scalar
#: loop is faster per call.
BATCH_MIN_N = 64


def _numpy_importable() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


class ModelBackend:
    """Pure (stateless) backend: gold math, cycle-accurate pricing.

    ``batched`` tells which result path this instance runs.
    """

    name = "model"
    description = ("gold transforms for results (batched for n >= 64 and "
                   "q <= 31 bits), statically priced from the compiler's "
                   "schedule (cycle-identical to sram)")

    def __init__(
        self,
        params: NTTParams,
        *,
        rows: int = 256,
        cols: int = 256,
        subarrays: int = 1,
        tech: TechnologyModel = TECH_45NM,
        template: Optional[BPNTTEngine] = None,
        width: Optional[int] = None,
    ):
        require_count("subarrays", subarrays)
        self.params = params
        self.subarrays = subarrays
        self.template = template if template is not None else BPNTTEngine(
            params, width=width, rows=rows, cols=cols, tech=tech
        )
        self.tech = self.template.tech
        self.table = self.template.twiddle_table
        # Short-circuits so a tiny ring never imports numpy.
        self.batched = (params.n >= BATCH_MIN_N
                        and params.q.bit_length() <= BATCH_MAX_MODULUS_BITS
                        and _numpy_importable())
        self._capabilities = BackendCapabilities(
            name=self.name,
            description=self.description,
            batch=self.template.batch * self.subarrays,
            stateful=False,
        )

    # -- protocol ---------------------------------------------------------

    def capabilities(self) -> BackendCapabilities:
        return self._capabilities

    def compile(self, op: str,
                operand: Optional[Sequence[int]] = None) -> CompiledKernel:
        """The template engine's cached handle without its programs: op,
        canonical operand, ``operand_hat`` and ``schedule``, with
        ``programs=()``, so nothing ever compiles them."""
        kernel = self.template.compile(op, operand)
        return CompiledKernel(kernel.op, kernel.operand, kernel.operand_hat,
                              programs=(), schedule=kernel.schedule)

    def execute(self, kernel: CompiledKernel,
                payloads: Sequence[Sequence[int]]) -> List[List[int]]:
        if not self.batched:
            return [self._transform(kernel, list(payload))
                    for payload in payloads]
        if not payloads:
            return []
        # The pool's rows are memoryviews over packed words, which numpy
        # reads into the int64 batch through the buffer protocol.
        return self._transform_batch(kernel, payloads).tolist()

    def profile(self, kernel: CompiledKernel) -> CostReport:
        return self.template.schedule_profile(kernel).replicate(self.subarrays)

    def detach(self, kernel: CompiledKernel
               ) -> Tuple["ModelBackend", CompiledKernel]:
        """A backend that ``executes`` ``kernel`` as this one does, keeping
        no program store alive, and ``kernel`` itself (it holds no
        program).

        The backend is a copy of this one without its template engine
        (an instance of this class, so an override of ``execute`` still
        runs): what ``execute`` reads is the ring, its twiddle table and
        the kernel's op and operand.  The pool's pending results hold
        them, so a report can outlive the pool's program store.
        """
        view = object.__new__(type(self))
        view.__dict__.update(vars(self), template=None)
        return view, kernel

    # -- gold math --------------------------------------------------------

    def _transform(self, kernel: CompiledKernel, payload: List[int]) -> List[int]:
        table = self.table
        if kernel.op == "ntt":
            return ntt_negacyclic(payload, self.params, table)
        if kernel.op == "intt":
            return intt_negacyclic(payload, self.params, table)
        # polymul: forward-transform the payload, multiply pointwise by
        # the operand's compile-time NTT, and come back.
        q = self.params.q
        payload_hat = ntt_negacyclic(payload, self.params, table)
        product = [(a * b) % q for a, b in zip(payload_hat, kernel.operand_hat)]
        return intt_negacyclic(product, self.params, table)

    def _transform_batch(self, kernel: CompiledKernel,
                         payloads: Sequence[Sequence[int]]):
        table = self.table
        if kernel.op == "ntt":
            return ntt_negacyclic_batch(payloads, self.params, table)
        if kernel.op == "intt":
            return intt_negacyclic_batch(payloads, self.params, table)
        # The inverse reduces the raw pointwise products (< q**2 < 2**62).
        hat = ntt_negacyclic_batch(payloads, self.params, table)
        return intt_negacyclic_batch(hat * kernel.operand_hat, self.params,
                                     table)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.params!r}, "
                f"subarrays={self.subarrays})")
