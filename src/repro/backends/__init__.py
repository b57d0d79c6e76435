"""repro.backends — unified execution backends behind every layer.

The core library runs a kernel two ways: the bitline interpreter
(exact, slow) and the gold transforms with static pricing (fast,
cycle-identical).  This package turns that split into an API: a
:class:`~repro.backends.base.Backend` protocol (``capabilities`` /
``compile`` / ``execute`` / ``profile``), a string-keyed registry, and
a shared :class:`~repro.sram.cost.CostReport` every substrate prices
with.

Built-in backends:

- ``sram`` — the subarray interpreter: :class:`~repro.core.engine.BPNTTEngine`
  itself, a gang of ``subarrays`` data subarrays that implements the
  protocol natively and is registered as its own factory.  Exact, used
  to pin the others.
- ``model`` — gold transforms for results, compiled programs for
  pricing; cycle-identical to ``sram`` at a fraction of the host time.
  Results are batched (one vectorized numpy schedule per chunk of
  rows) for rings of ``n >= 64`` with moduli of at most 31 bits when
  numpy imports, and come from the scalar loop otherwise.

Write your own by registering a factory::

    from repro.backends import register_backend
    register_backend("mine", "my_package.backend:build")   # lazy, or
    register_backend("mine2", MyBackend)                   # eager

after which ``repro.cli serve --backend mine`` and
:meth:`EnginePool.serve` reach it with no further wiring.
"""

from repro.backends.base import (
    KERNEL_OPS,
    Backend,
    BackendCapabilities,
    CompiledKernel,
    price_programs,
    price_stats,
)
from repro.backends.registry import (
    available_backends,
    create_backend,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.errors import BackendError
from repro.sram.cost import CostReport

# Built-ins register lazily ("module:attr") so importing this package
# never imports repro.core — which is what lets the engines themselves
# import the protocol types above.
register_backend("model", "repro.backends.model:ModelBackend", replace=True)
register_backend("sram", "repro.core.engine:BPNTTEngine", replace=True)

__all__ = [
    "Backend",
    "BackendCapabilities",
    "BackendError",
    "CompiledKernel",
    "CostReport",
    "KERNEL_OPS",
    "available_backends",
    "create_backend",
    "get_backend",
    "price_programs",
    "price_stats",
    "register_backend",
    "unregister_backend",
]
