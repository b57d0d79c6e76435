"""Trace memory: bytes a generated request trace retains, per request.

Measures, under ``tracemalloc``, what two traces keep alive once built:

- ``mixed-slo``: the bursty 4000 calls/s ``mixed-slo`` trace that
  perfbench's ``pqc-slo-cold`` replays (Kyber, Dilithium and 1024-point
  HE payloads, each drawn fresh), over 1 s (~4,800 requests);
- ``cluster-sweep``: ``bench_cluster_scaling.build_trace(16, 160000)``,
  the largest trace of the 10^6-request sweep, whose payloads are a few
  shared tuples, so what it holds is the per-request overhead.

Each line reads ``<trace> <bytes> B/request (bound <bound>)``; the run
exits 1 when a trace retains more than its bound.  The bounds
are the ones the tier-1 suite asserts on smaller traces of the same
shapes (``tests/serve/test_packed_requests.py``).  Run from the
repository root::

    PYTHONPATH=src python benchmarks/trace_memory.py
"""

import gc
import sys
import tracemalloc
from typing import Callable, Sized

#: The ``mixed-slo`` bursty shape of perfbench's ``pqc-slo-cold``.
PQC_SHAPE = dict(
    scenario="mixed-slo", arrivals="bursty", rate=4000.0, scheduler="slo",
    queue_limit=64, scheduler_options={"tenant_weights": {"handshake": 2.0}},
    pool_size=2, subarrays=1, max_wait_ms=2.0)
#: Most bytes per request each trace may retain.
PQC_BYTES_PER_REQUEST = 2048
SWEEP_BYTES_PER_REQUEST = 250


def retained_bytes_per_request(make: Callable[[], Sized]) -> float:
    """Bytes ``make()``'s trace keeps allocated, over its length."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = make()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / len(trace)


def main() -> int:
    from bench_cluster_scaling import RING_N, RING_NAME, RING_Q, build_trace

    from repro.ntt.params import STANDARD_PARAMS, NTTParams
    from repro.serve import ReplayConfig

    STANDARD_PARAMS[RING_NAME] = NTTParams(n=RING_N, q=RING_Q,
                                           name="bench cluster ring")
    cases = [
        ("mixed-slo", ReplayConfig(**PQC_SHAPE, duration=1.0,
                                   seed=2023).build_trace,
         PQC_BYTES_PER_REQUEST),
        ("cluster-sweep", lambda: build_trace(16, 160_000),
         SWEEP_BYTES_PER_REQUEST),
    ]
    over = 0
    for name, make, bound in cases:
        per_request = retained_bytes_per_request(make)
        print(f"{name} {per_request:.0f} B/request (bound {bound})")
        over += per_request > bound
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
