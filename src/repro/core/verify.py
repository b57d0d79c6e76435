"""Differential verification campaigns (the §V-A validation machinery).

The paper validates the bit-parallel modular multiplication "for various
bitwidths" through simulation.  This module packages that methodology as
a reusable harness: randomized campaigns that run the same computation
through up to three independent implementations —

1. the functional Algorithm 2 (:func:`repro.mont.bitparallel.bp_modmul`),
2. the compiled microcode on the subarray simulator,
3. the mathematical definition (``a * b * R^-1 mod M``),

— and report every disagreement with a reproducible seed.  The engine
campaign does the same at the NTT level against the gold transform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.addsub import emit_cond_subtract, emit_resolve
from repro.core.engine import BPNTTEngine
from repro.core.layout import DataLayout
from repro.core.modmul import emit_modmul
from repro.errors import ParameterError
from repro.mont.bitparallel import bp_modmul, montgomery_expected, safe_modulus_bound
from repro.ntt.params import NTTParams
from repro.ntt.transform import ntt_negacyclic
from repro.sram.executor import Executor
from repro.sram.program import Program
from repro.sram.subarray import SRAMSubarray
from repro.utils.primes import find_ntt_prime


@dataclass(frozen=True)
class Mismatch:
    """One disagreement between implementations."""

    description: str
    seed: int


@dataclass
class CampaignReport:
    """Outcome of one verification campaign."""

    name: str
    trials: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def record(self, description: str, seed: int) -> None:
        self.mismatches.append(Mismatch(description, seed))

    def __repr__(self) -> str:
        status = "PASS" if self.passed else f"FAIL({len(self.mismatches)})"
        return f"CampaignReport({self.name!r}, trials={self.trials}, {status})"


def verify_modmul_widths(widths=(4, 6, 8, 12, 16, 24, 32), trials_per_width: int = 50,
                         seed: int = 0, run_in_sram: bool = True) -> CampaignReport:
    """Differentially test Algorithm 2 across bitwidths.

    For each width a random odd modulus under the safety bound is drawn,
    then ``trials_per_width`` random operand pairs are pushed through the
    functional model, (optionally) the compiled microcode, and the
    Montgomery definition.
    """
    report = CampaignReport(name="modmul-widths")
    rng = random.Random(seed)
    for width in widths:
        if width <= 3:
            raise ParameterError(f"Algorithm 2 needs width > 3 for a useful modulus, got {width}")
        modulus = (rng.randrange(3, safe_modulus_bound(width)) | 1)
        layout = None
        executor = None
        if run_in_sram:
            layout = DataLayout(16, 4 * width, width, order=1)
            subarray = SRAMSubarray(16, layout.used_cols, width)
            executor = Executor(subarray)
            subarray.broadcast_word(layout.scratch.mod, modulus)
        for _ in range(trials_per_width):
            report.trials += 1
            a = rng.randrange(modulus)
            b = rng.randrange(modulus)
            expected = montgomery_expected(a, b, modulus, width)
            functional = bp_modmul(a, b, modulus, width)
            if functional != expected:
                report.record(
                    f"functional w={width} M={modulus} a={a} b={b}: "
                    f"{functional} != {expected}",
                    seed,
                )
            if executor is not None:
                subarray = executor.subarray
                subarray.write_word(0, 0, b)
                program = Program("verify")
                emit_modmul(program, layout, a, 0)
                emit_resolve(program, layout)
                emit_cond_subtract(program, layout, layout.scratch.sum)
                subarray.reset_peripherals()
                executor.run(program)
                in_sram = subarray.read_word(layout.scratch.sum, 0)
                if in_sram != expected:
                    report.record(
                        f"in-SRAM w={width} M={modulus} a={a} b={b}: "
                        f"{in_sram} != {expected}",
                        seed,
                    )
    return report


def verify_backend_results(backend: str = "model", trials_per_config: int = 1,
                           seed: int = 0) -> CampaignReport:
    """Differentially test a registered execution backend against gold.

    Every op of the named backend (resolved through the
    :mod:`repro.backends` registry) runs a random full batch on three
    rings; results must match the gold transforms and the invocation
    must profile to a positive cycle count.  The 64-point ring with a
    31-bit modulus reaches the batched numpy kernels of ``model`` at
    the edge of their int64 bound.  On the 8-point ring the
    backend is also built with ``subarrays=2``: the gang's results must
    match gold too, and its price must be the single subarray's
    ``replicate(2)``.
    """
    from repro.backends import create_backend
    from repro.ntt.transform import intt_negacyclic, polymul_negacyclic

    configs = [NTTParams(n=8, q=17), NTTParams(n=16, q=97),
               NTTParams(n=64, q=find_ntt_prime(31, 64))]
    report = CampaignReport(name=f"backend-{backend}")
    rng = random.Random(seed)
    for params in configs:
        width = max(8, params.coeff_bits + 1)
        impls = [
            create_backend(backend, params, width=width, subarrays=subarrays,
                           rows=max(32, params.n + 8), cols=4 * width)
            for subarrays in ((1, 2) if params.n == 8 else (1,))
        ]
        for op in ("ntt", "intt", "polymul"):
            operand = None
            if op == "polymul":
                operand = [rng.randrange(params.q) for _ in range(params.n)]
            prices = []
            for subarrays, impl in enumerate(impls, start=1):
                kernel = impl.compile(op, operand)
                prices.append(impl.profile(kernel))
                for _ in range(trials_per_config):
                    report.trials += 1
                    payloads = [
                        [rng.randrange(params.q) for _ in range(params.n)]
                        for _ in range(impl.capabilities().batch)
                    ]
                    if op == "polymul":
                        expected = [polymul_negacyclic(p, operand, params)
                                    for p in payloads]
                    else:
                        gold = ntt_negacyclic if op == "ntt" else intt_negacyclic
                        expected = [gold(p, params) for p in payloads]
                    results = impl.execute(kernel, payloads)
                    if [list(r) for r in results] != expected:
                        report.record(f"{backend} x{subarrays} {op} mismatch "
                                      f"{params!r}", seed)
            if prices[0].cycles <= 0:
                report.record(f"{backend} {op} priced at zero cycles", seed)
            if prices[1:] and prices[1] != prices[0].replicate(2):
                report.record(
                    f"{backend} x2 {op} price is not the single subarray's "
                    f"replicate(2) {params!r}", seed)
    return report


def verify_engine_roundtrips(configs: Optional[List[NTTParams]] = None,
                             trials_per_config: int = 2,
                             seed: int = 0) -> CampaignReport:
    """Differentially test the engine's NTT/INTT against the gold model."""
    if configs is None:
        configs = [
            NTTParams(n=8, q=17),
            NTTParams(n=16, q=97),
            NTTParams(n=32, q=find_ntt_prime(10, 32)),
        ]
    report = CampaignReport(name="engine-roundtrips")
    rng = random.Random(seed)
    for params in configs:
        width = max(8, params.coeff_bits + 1)
        rows = max(32, params.n + 8)
        engine = BPNTTEngine(params, width=width, rows=rows, cols=4 * width)
        for _ in range(trials_per_config):
            report.trials += 1
            polys = [
                [rng.randrange(params.q) for _ in range(params.n)]
                for _ in range(engine.batch)
            ]
            engine.load(polys)
            engine.ntt()
            expected = [ntt_negacyclic(p, params) for p in polys]
            if engine.results() != expected:
                report.record(f"forward mismatch {params!r}", seed)
                continue
            engine.intt()
            if engine.results() != polys:
                report.record(f"roundtrip mismatch {params!r}", seed)
    return report
