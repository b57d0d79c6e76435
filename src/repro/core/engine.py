"""BPNTTEngine — the public face of the accelerator.

Wraps a gang of subarrays + layout + compiled programs behind a
polynomial-level API: load a batch, run ``ntt()`` / ``intt()`` /
``polymul_pointwise()``, read results, and collect a
:class:`NTTRunReport` with the cycle, latency, energy and derived
Table-I metrics.

An engine gangs ``subarrays`` data subarrays (§V-E: "larger subarray or
interconnection of multiple subarrays").  Each one runs the *same*
compiled program on its own polynomials in lockstep, so the gang
completes ``subarrays x per_subarray_batch`` transforms in one kernel
latency: throughput scales with area while latency stays flat.  The
data subarrays share one CTRL/CMD subarray (Fig 4b), which stores each
program once.  The engine compiles and prices a program once whatever
the gang width, and ``template`` extends that one program store over
several engines (the serving pool's lanes).  Area charges the CTRL/CMD
subarray once more than one data subarray shares it; per-transform
energy does not, matching the paper's accounting.

The engine also implements the :class:`repro.backends.base.Backend`
protocol (``capabilities`` / ``compile`` / ``execute`` / ``profile``)
and takes the registry's uniform factory signature, which is how the
serving pool drives it as the ``sram`` backend.

Example (a small ring so the doctest compiles in milliseconds):

    >>> from repro.core.engine import BPNTTEngine
    >>> from repro.ntt.params import NTTParams
    >>> from repro.ntt.transform import ntt_negacyclic
    >>> params = NTTParams(n=8, q=17)
    >>> engine = BPNTTEngine(params, width=8, rows=32, cols=32)
    >>> polys = [[i % params.q for i in range(params.n)]] * engine.batch
    >>> engine.load(polys)
    >>> report = engine.ntt()
    >>> engine.results() == [ntt_negacyclic(p, params) for p in polys]
    True
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.backends.base import (
    KERNEL_OPS,
    BackendCapabilities,
    CompiledKernel,
    memo_profile,
    price_programs,
    price_stats,
)
from repro.core.layout import DataLayout
from repro.core.pricing import SchedulePricer
from repro.core.scheduler import compile_intt, compile_ntt, compile_pointwise_mul
from repro.core.tiles import container_width
from repro.errors import CapacityError, ParameterError, VerificationError, require_count
from repro.ntt.params import NTTParams
from repro.ntt.twiddles import TwiddleTable
from repro.sram.cost import CostReport
from repro.sram.energy import TECH_45NM, TechnologyModel
from repro.sram.executor import ExecutionStats, Executor
from repro.sram.subarray import SRAMSubarray

if TYPE_CHECKING:
    from repro.sram.program import Program


@dataclass(frozen=True)
class NTTRunReport:
    """Performance report for one kernel execution (whole batch)."""

    kernel: str
    batch: int
    cycles: int
    instructions: int
    shift_count: int
    energy_nj: float
    latency_s: float
    section_cycles: dict

    @property
    def throughput_kntt_per_s(self) -> float:
        """Batch transforms per second, in KNTT/s (Table I units)."""
        return self.batch / self.latency_s / 1e3

    @property
    def energy_per_ntt_nj(self) -> float:
        """Energy divided across the batch."""
        return self.energy_nj / self.batch

    @property
    def power_w(self) -> float:
        """Average power: batch energy over batch latency."""
        return self.energy_nj * 1e-9 / self.latency_s

    def throughput_per_area(self, area_mm2: float) -> float:
        """KNTT/s per mm^2 — Table I's TA column."""
        return self.throughput_kntt_per_s / area_mm2

    @property
    def throughput_per_power(self) -> float:
        """KNTT per mJ — Table I's TP column (= batch / batch energy)."""
        return self.batch / (self.energy_nj * 1e-6) / 1e3

    @classmethod
    def from_cost(cls, kernel: str, batch: int, cost: CostReport) -> "NTTRunReport":
        """Build a run report from the shared cost report (the single
        place pj->nj and cycles->seconds are derived)."""
        return cls(
            kernel=kernel,
            batch=batch,
            cycles=cost.cycles,
            instructions=cost.instructions,
            shift_count=cost.shift_count,
            energy_nj=cost.energy_nj,
            latency_s=cost.latency_s,
            section_cycles=dict(cost.section_cycles),
        )


class BPNTTEngine:
    """A gang of subarrays configured as one batched NTT accelerator.

    ``gang`` holds one :class:`~repro.sram.executor.Executor` per data
    subarray (``gang[i].subarray`` is the storage); ``subarrays`` is
    its width.  ``template`` shares another engine's layout, twiddles,
    compiled programs, kernel handles, prices and schedule pricer, and
    must have the same ring, geometry and technology.
    """

    def __init__(
        self,
        params: NTTParams,
        *,
        rows: int = 256,
        cols: int = 256,
        subarrays: int = 1,
        tech: TechnologyModel = TECH_45NM,
        template: Optional["BPNTTEngine"] = None,
        width: Optional[int] = None,
    ):
        if not params.negacyclic:
            raise ParameterError("the in-SRAM engine implements negacyclic rings")
        require_count("subarrays", subarrays)
        self.params = params
        self.width = width or container_width(params.q)
        if self.width > cols:
            raise ParameterError(
                f"container width {self.width} exceeds subarray columns {cols}"
            )
        self.tech = tech
        self.physical_cols = cols
        self.subarrays = subarrays
        if template is None:
            self.layout = DataLayout(rows, cols, self.width, params.n)
            self._table = TwiddleTable(params)
            self._programs = {}
            # id(program) -> (program, ExecutionStats): each program in
            # the store is priced once (see profile and _execute).
            self._prices = {}
            self._kernels = {}
            # Prices programs from the compiler's schedule, without
            # compiling them (schedule_profile).
            self._pricer = SchedulePricer(self.layout, tech, params,
                                          self._table)
        else:
            ours = (params, rows, cols, self.width, tech)
            theirs = (template.params, template.layout.rows,
                      template.physical_cols, template.width, template.tech)
            if ours != theirs:
                raise ParameterError(
                    "template (params, rows, cols, width, tech) "
                    f"{theirs} does not match {ours}"
                )
            self.layout = template.layout
            self._table = template._table
            self._programs = template._programs
            self._prices = template._prices
            self._kernels = template._kernels
            self._pricer = template._pricer
        # Each subarray is built over the *used* columns; leftover columns
        # exist physically (and are charged in the area model) but hold
        # no tiles.
        self.gang: Tuple[Executor, ...] = tuple(
            Executor(SRAMSubarray(rows, self.layout.used_cols, self.width), tech)
            for _ in range(subarrays)
        )
        for executor in self.gang:
            executor.subarray.broadcast_word(self.layout.scratch.mod, params.q)
        self._loaded = False
        self._capabilities: Optional[BackendCapabilities] = None

    # -- capacity ---------------------------------------------------------

    @property
    def per_subarray_batch(self) -> int:
        """Polynomials one subarray holds."""
        return self.layout.batch

    @property
    def batch(self) -> int:
        """Polynomials processed per kernel invocation (whole gang)."""
        return self.layout.batch * self.subarrays

    @property
    def twiddle_table(self) -> TwiddleTable:
        """The engine's precomputed twiddles (shared with callers that
        need host-side transforms, e.g. the serving pool)."""
        return self._table

    @property
    def area_mm2(self) -> float:
        """Silicon area of the (physical) subarrays, plus the shared
        CTRL/CMD subarray of a gang."""
        per = self.tech.subarray_area_mm2(self.layout.rows, self.physical_cols)
        return per if self.subarrays == 1 else per * (self.subarrays + 1)

    # -- data movement ----------------------------------------------------

    def _slots(self) -> List[Tuple[SRAMSubarray, int]]:
        """(subarray, local slot) of every slot, in load order."""
        return [(executor.subarray, slot) for executor in self.gang
                for slot in range(self.layout.batch)]

    def load(self, polynomials: Sequence[Sequence[int]]) -> None:
        """Host-write a batch of polynomials into the gang.

        Slot ``s`` lands on subarray ``s // per_subarray_batch``.  Fewer
        than ``batch`` polynomials leaves the remaining slots
        zero-filled ("place coefficients from other polynomials in unused
        rows" is the paper's suggestion for the converse case).
        """
        if len(polynomials) > self.batch:
            raise CapacityError(
                f"{len(polynomials)} polynomials exceed the batch capacity {self.batch}"
            )
        q = self.params.q
        n = self.params.n
        layout = self.layout
        for index, (subarray, slot) in enumerate(self._slots()):
            coeffs = polynomials[index] if index < len(polynomials) else [0] * n
            if len(coeffs) != n:
                raise ParameterError(
                    f"polynomial {index} has {len(coeffs)} coefficients, expected {n}"
                )
            for position, coeff in enumerate(coeffs):
                subarray.write_word(layout.locate(position).row,
                                    layout.tile_of(slot, position), coeff % q)
        self._loaded = True

    def results(self) -> List[List[int]]:
        """Read every slot's polynomial back out of the gang."""
        layout = self.layout
        return [
            [subarray.read_word(layout.locate(position).row,
                                layout.tile_of(slot, position))
             for position in range(self.params.n)]
            for subarray, slot in self._slots()
        ]

    # -- kernels -----------------------------------------------------------

    def compiled_program(self, kernel: str) -> Program:
        """The cached instruction stream for ``"ntt"`` or ``"intt"``.

        Compilation happens once per program store; the CTRL/CMD
        subarray stores one program per kernel regardless of how many
        subarrays run it or batches it serves (the serving pool leans
        on this for program reuse).
        """
        if kernel not in self._programs:
            if kernel == "ntt":
                self._programs[kernel] = compile_ntt(self.layout, self.params, self._table)
            elif kernel == "intt":
                self._programs[kernel] = compile_intt(self.layout, self.params, self._table)
            else:
                raise ParameterError(f"unknown kernel {kernel!r}")
        return self._programs[kernel]

    def pointwise_program(self, other_hat: Sequence[int]) -> Program:
        """Cached pointwise-multiply program for one multiplier polynomial.

        The multiplier's (NTT-domain) coefficients are baked into the
        instruction stream as compile-time constants, so the cache is
        keyed by the canonical coefficient tuple.  Server-side traffic
        multiplies many batches by the same fixed polynomial (a public
        key, a plaintext operand), making recompilation the hot path
        this cache removes.
        """
        q = self.params.q
        key = ("pointwise", tuple(c % q for c in other_hat))
        if key not in self._programs:
            self._programs[key] = compile_pointwise_mul(
                self.layout, self.params, [c % q for c in other_hat]
            )
        return self._programs[key]

    def _execute(self, program: Program, live: Optional[int] = None) -> ExecutionStats:
        """Price ``program`` once, run it on the first ``live`` subarrays
        (all by default); returns one subarray's stats."""
        if not self._loaded:
            raise ParameterError("no data loaded; call load() first")
        price = memo_profile(program, self.tech, self._prices)
        for executor in self.gang[:live]:
            executor.subarray.reset_peripherals()
            executor.run(program, price)
        return ExecutionStats.merge(price)

    def _run(self, program: Program, kernel: str) -> NTTRunReport:
        return self._report(kernel, self._execute(program))

    def _report(self, kernel: str, stats: ExecutionStats) -> NTTRunReport:
        cost = CostReport.from_stats(stats, self.tech)
        return NTTRunReport.from_cost(kernel, self.batch,
                                      cost.replicate(self.subarrays))

    def ntt(self) -> NTTRunReport:
        """Run the forward NTT over the loaded batch (in place)."""
        return self._run(self.compiled_program("ntt"), "ntt")

    def intt(self) -> NTTRunReport:
        """Run the inverse NTT over the loaded batch (in place)."""
        return self._run(self.compiled_program("intt"), "intt")

    def pointwise_multiply(self, other_hat: Sequence[int]) -> NTTRunReport:
        """Multiply the (NTT-domain) batch pointwise by a fixed polynomial."""
        return self._run(self.pointwise_program(other_hat), "pointwise")

    def polymul_with_hat(self, other_hat: Sequence[int]) -> NTTRunReport:
        """As :meth:`polymul_with`, with the multiplier already in NTT
        domain (lets callers transform it once for many engines)."""
        stats = ExecutionStats.merge(
            self._execute(self.compiled_program("ntt")),
            self._execute(self.pointwise_program(other_hat)),
            self._execute(self.compiled_program("intt")),
        )
        return self._report("polymul", stats)

    def polymul_with(self, other: Sequence[int]) -> NTTRunReport:
        """Full negacyclic product of every slot with a fixed polynomial.

        Runs forward NTT, pointwise multiply by ``NTT(other)`` and the
        inverse NTT; returns a merged report.
        """
        from repro.ntt.transform import ntt_negacyclic

        return self.polymul_with_hat(
            ntt_negacyclic(list(other), self.params, self._table)
        )

    # -- the execution-backend protocol -------------------------------------
    #
    # The gang *is* the reference "sram" backend: the registry hands
    # instances of this class straight to the serving pool.

    backend_name = "sram"

    def capabilities(self) -> BackendCapabilities:
        """Backend-protocol facts: exact interpreter, one lane per instance.

        Built on the first call and kept: they are fixed per instance.
        """
        if self._capabilities is None:
            if self.subarrays == 1:
                description = "bitline-accurate subarray interpreter (exact, slow)"
            else:
                description = (f"bitline-accurate interpreter, {self.subarrays} "
                               "data subarrays in lockstep")
            self._capabilities = BackendCapabilities(
                name=self.backend_name,
                description=description,
                batch=self.batch,
                stateful=True,
            )
        return self._capabilities

    def compile(self, op: str, operand: Optional[Sequence[int]] = None) -> CompiledKernel:
        """The cached backend handle for one ``(op, operand)`` kernel.

        For ``polymul`` the operand is forward-transformed once here and
        its NTT baked into the handle, so every later batch skips the
        host transform and reuses the compiled pointwise program.  The
        handle names its programs (``schedule``) and compiles them into
        the program store on the first read of ``programs``, so a caller
        that prices the schedule instead (:meth:`schedule_profile`, the
        ``model`` backend) compiles none.
        """
        # The operand as given is looked up first, so a warm batch skips
        # reducing it; a miss canonicalizes and keys the kernel both ways.
        given_key = (op, None if operand is None else tuple(operand))
        kernel = self._kernels.get(given_key)
        if kernel is not None:
            return kernel
        q = self.params.q
        canonical = None if operand is None else tuple(c % q for c in operand)
        cache_key = (op, canonical)
        kernel = self._kernels.get(cache_key)
        if kernel is None:
            kernel = self._build_kernel(op, canonical)
            self._kernels[cache_key] = kernel
        self._kernels[given_key] = kernel
        return kernel

    def _build_kernel(self, op: str,
                      canonical: Optional[tuple]) -> CompiledKernel:
        if op in ("ntt", "intt"):
            if canonical is not None:
                raise ParameterError(f"{op} kernels take no second operand")
            hat = None
            schedule = (op,)
        elif op == "polymul":
            if canonical is None:
                raise ParameterError("polymul kernels need a second operand")
            from repro.ntt.transform import ntt_negacyclic

            hat = tuple(ntt_negacyclic(list(canonical), self.params, self._table))
            schedule = ("ntt", ("pointwise", hat), "intt")
        else:
            raise ParameterError(f"unknown op {op!r}; expected one of {KERNEL_OPS}")
        return CompiledKernel(op=op, operand=canonical, operand_hat=hat,
                              programs=_StoredPrograms(self._program, schedule),
                              schedule=schedule)

    def _program(self, key) -> Program:
        """The store's program for a ``schedule`` key, compiled on a miss."""
        if key in ("ntt", "intt"):
            return self.compiled_program(key)
        return self.pointwise_program(key[1])

    def execute(self, kernel: CompiledKernel,
                payloads: Sequence[Sequence[int]]) -> List[List[int]]:
        """Load ``payloads``, interpret the kernel on the subarrays that
        hold them (idle ones would only churn zeros), read back the live
        slots."""
        self.load(payloads)
        live = math.ceil(len(payloads) / self.per_subarray_batch)
        for program in kernel.programs:
            self._execute(program, live)
        return self.results()[: len(payloads)]

    def profile(self, kernel: CompiledKernel) -> CostReport:
        """Static price of one invocation (identical to executing it).

        Each program is priced once per program store: the shared
        ``ntt`` and ``intt`` programs of every ``polymul`` kernel reuse
        their first price, and only a new operand's pointwise program is
        profiled.  The price is one subarray's, replicated across the
        gang.
        """
        return price_programs(kernel.programs, self.tech,
                              replicas=self.subarrays, memo=self._prices)

    def schedule_profile(self, kernel: CompiledKernel) -> CostReport:
        """:meth:`profile` of ``kernel``'s programs, byte for byte, priced
        from the compiler's schedule without compiling them.

        Reads only ``kernel.schedule``, so it prices a handle whose
        ``programs`` were never read, or dropped.  Each program is priced
        once per program store (:class:`~repro.core.pricing.SchedulePricer`).
        """
        return price_stats(list(map(self._pricer.price, kernel.schedule)),
                           self.tech, replicas=self.subarrays)

    # -- verification -------------------------------------------------------

    def verify_against_gold(self, inputs: Sequence[Sequence[int]]) -> None:
        """Assert the gang's contents equal ``NTT(inputs)`` (gold model).

        Intended for tests and examples: call after :meth:`ntt` with the
        polynomials originally loaded.
        """
        from repro.ntt.transform import ntt_negacyclic

        measured = self.results()
        for slot, coeffs in enumerate(inputs):
            expected = ntt_negacyclic(list(coeffs), self.params, self._table)
            if measured[slot] != expected:
                raise VerificationError(
                    f"slot {slot} disagrees with the gold model "
                    f"(first mismatch at index "
                    f"{next(i for i, (a, b) in enumerate(zip(measured[slot], expected)) if a != b)})"
                )

    def __repr__(self) -> str:
        return (
            f"BPNTTEngine({self.params!r}, width={self.width}, "
            f"batch={self.batch}, subarrays={self.subarrays}, "
            f"spill={self.layout.uses_spill})"
        )


class _StoredPrograms(Sequence):
    """A kernel's programs, compiled through ``program`` (an engine's
    program store) on the first read of one of them."""

    __slots__ = ("_program", "_keys", "_programs")

    def __init__(self, program: Callable[[object], Program], keys: tuple):
        self._program = program
        self._keys = keys
        self._programs: Optional[Tuple[Program, ...]] = None

    def _compiled(self) -> Tuple[Program, ...]:
        if self._programs is None:
            self._programs = tuple(map(self._program, self._keys))
            self._program = None
        return self._programs

    def __getitem__(self, index):
        return self._compiled()[index]

    def __iter__(self):
        return iter(self._compiled())

    def __len__(self) -> int:
        return len(self._keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._compiled() == tuple(other)

    def __repr__(self) -> str:
        return repr(self._compiled())


def subarrays_needed(total_transforms: int, per_subarray_batch: int) -> int:
    """Data subarrays required to run a workload in one kernel latency."""
    if total_transforms <= 0 or per_subarray_batch <= 0:
        raise ParameterError("counts must be positive")
    return math.ceil(total_transforms / per_subarray_batch)
