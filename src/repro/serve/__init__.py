"""repro.serve — a request-level serving runtime over pooled engines.

The core library exposes a *batch*-level accelerator: one
:class:`~repro.core.engine.BPNTTEngine` per subarray, each invocation
hand-loaded with a full batch.  Production traffic is the opposite
shape — millions of independent small requests arriving asynchronously.
This package supplies the missing layer between the two:

- :mod:`repro.serve.request` — typed request/response records for the
  kernel- and crypto-level operations.
- :mod:`repro.serve.batcher` — coalesces compatible requests into
  engine-capacity batches under a max-wait / max-batch policy.
- :mod:`repro.serve.pool` — lazily built, cached execution backends per
  parameter set (resolved through the :mod:`repro.backends` registry)
  with round-robin dispatch and compiled-program reuse.
- :mod:`repro.serve.simulator` — a discrete-event replay of a request
  trace, pricing every batch with the cycle-accurate latency model;
  every admit/dispatch/placement decision is delegated to a
  :mod:`repro.sched` scheduler (``scheduler="fifo"|"slo"|"adaptive"``
  or any registered name).
- :mod:`repro.serve.workload` — synthetic traffic generators (Poisson,
  bursty, mixed crypto scenarios).
- :mod:`repro.serve.metrics` — per-request latency aggregation and the
  text report (p50/p95/p99, utilization, energy per request).
"""

from repro.serve.batcher import BatchPolicy, CoalescingBatcher, PolyBatch
from repro.serve.config import ReplayConfig
from repro.serve.metrics import (
    DropRecord,
    ServeReport,
    TenantStats,
    format_serve_report,
    serialize_report,
)
from repro.serve.pool import EnginePool, PoolConfig
from repro.serve.request import (
    Request,
    Response,
    dilithium_ntt_request,
    gold_result,
    he_multiply_plain_requests,
    he_multiply_requests,
    kyber_polymul_request,
)
from repro.serve.simulator import ServingSimulator
from repro.serve.workload import (
    available_scenarios,
    bursty_trace,
    get_scenario,
    poisson_trace,
    register_scenario,
    unregister_scenario,
)

__all__ = [
    "BatchPolicy",
    "CoalescingBatcher",
    "DropRecord",
    "EnginePool",
    "PolyBatch",
    "PoolConfig",
    "ReplayConfig",
    "Request",
    "Response",
    "ServeReport",
    "ServingSimulator",
    "TenantStats",
    "available_scenarios",
    "bursty_trace",
    "dilithium_ntt_request",
    "format_serve_report",
    "get_scenario",
    "gold_result",
    "he_multiply_plain_requests",
    "he_multiply_requests",
    "kyber_polymul_request",
    "poisson_trace",
    "register_scenario",
    "serialize_report",
    "unregister_scenario",
]
