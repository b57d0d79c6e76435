"""repro — a reproduction of BP-NTT (DAC 2023).

BP-NTT accelerates the Number Theoretic Transform inside standard 6T
SRAM subarrays using a carry-save, bit-parallel Montgomery modular
multiplication whose every step is a bitline AND/XOR/OR or a 1-bit
shift.  This library provides:

- the gold-model NTT substrate (:mod:`repro.ntt`),
- the bit-parallel algorithm, functional and traced (:mod:`repro.mont`),
- a cycle-level in-SRAM computing simulator (:mod:`repro.sram`),
- the BP-NTT engine compiling NTTs to SRAM microcode (:mod:`repro.core`),
- baseline accelerator models (:mod:`repro.baselines`),
- every table/figure generator of the paper (:mod:`repro.analysis`),
- PQC workloads exercising the public API (:mod:`repro.crypto`),
- a request-level serving runtime with async batching over pooled
  engines (:mod:`repro.serve`).

Quick start::

    from repro import BPNTTEngine, get_params

    params = get_params("table1-14bit")
    engine = BPNTTEngine(params, width=16)
    engine.load([[1] * params.n] * engine.batch)
    report = engine.ntt()
    print(report.throughput_kntt_per_s, "KNTT/s")

Importing ``repro`` loads only the gold transforms (for ``ntt``, see
below).  Every other name here, and in the re-exporting subpackages
(``repro.obs``, ``repro.crypto``, ...), resolves on first use through
:func:`repro.registry.lazy_exports`.  A replay therefore loads only the
modules it runs: ``import repro.serve`` pulls in no crypto scheme and
no offline tooling.
"""

from repro.registry import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core.engine": ("BPNTTEngine", "NTTRunReport"),
    ".errors": ("ReproError",),
    ".mont.bitparallel": ("bp_modmul", "bp_modmul_traced", "montgomery_expected"),
    ".ntt.params": ("NTTParams", "get_params", "list_param_names"),
    ".ntt.polynomial": ("Polynomial",),
    ".ntt.transform": ("intt", "polymul_negacyclic"),
})

# ``repro.ntt`` names both a subpackage and the forward transform.  The
# function is bound here, after the subpackage has been imported, so it
# is what ``repro.ntt`` reads, as it always was.
from repro.ntt.transform import ntt  # noqa: E402, F401

__all__ += ["ntt", "__version__"]
