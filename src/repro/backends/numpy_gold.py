"""The ``numpy`` backend: the ``model`` backend, always batched.

:class:`~repro.backends.model.ModelBackend` already runs the batched
numpy schedules of :mod:`repro.ntt.transform` for rings of ``n >= 64``
with moduli of at most 31 bits, and the scalar loop otherwise.  This
backend takes the batched path on every ring — one vectorized transform
per batch, bit-identical to the gold model — and refuses moduli past 31
bits rather than overflow ``int64`` silently.  Pricing is inherited: the
compiled programs of the template engine, charged from the shared cost
tables, so its :class:`~repro.sram.cost.CostReport` is byte-identical to
the ``model`` and ``sram`` backends'.
"""

from __future__ import annotations

from repro.backends.model import ModelBackend
from repro.errors import BackendError
from repro.ntt.params import NTTParams
from repro.ntt.transform import BATCH_MAX_MODULUS_BITS


class NumpyBackend(ModelBackend):
    """Vectorized negacyclic NTT gold model, cost-table priced."""

    name = "numpy"
    description = ("vectorized numpy negacyclic NTT over the whole batch, "
                   "priced by the same cost tables")

    def __init__(self, params: NTTParams, **kwargs):
        if params.q.bit_length() > BATCH_MAX_MODULUS_BITS:
            raise BackendError(
                f"numpy backend supports moduli up to {BATCH_MAX_MODULUS_BITS} "
                f"bits (int64 products); q={params.q} has "
                f"{params.q.bit_length()}"
            )
        super().__init__(params, **kwargs)
        self.batched = True
