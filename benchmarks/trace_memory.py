"""Trace memory: bytes a request trace and its report retain, per request.

Measures, under ``tracemalloc``, what two traces keep alive once built:

- ``mixed-slo``: the bursty 4000 calls/s ``mixed-slo`` trace that
  perfbench's ``pqc-slo-cold`` replays (Kyber, Dilithium and 1024-point
  HE payloads, each drawn fresh), over 1 s (~4,800 requests);
- ``cluster-sweep``: ``bench_cluster_scaling.build_trace(16, 160000)``,
  the largest trace of the 10^6-request sweep, whose payloads are a few
  shared tuples, so what it holds is the per-request overhead;

and what one report keeps alive:

- ``report``: the report of a replay of the ``mixed-slo`` trace above
  under its ``slo`` stack, with no result read.  The stack is priced by
  an earlier replay first, so what the measured replay leaves allocated
  is its report: the request log, the batch records, the registry and
  the pending results.

Each line reads ``<name> <bytes> B/request (bound <bound>)``; the run
exits 1 when one retains more than its bound.  The bounds are the ones
the tier-1 suite asserts on smaller traces of the same shapes
(``tests/serve/test_packed_requests.py``).  Run from the repository
root::

    PYTHONPATH=src python benchmarks/trace_memory.py
"""

import gc
import sys
import tracemalloc
from typing import Any, Callable, Sized, Tuple

#: The ``mixed-slo`` bursty shape of perfbench's ``pqc-slo-cold``.
PQC_SHAPE = dict(
    scenario="mixed-slo", arrivals="bursty", rate=4000.0, scheduler="slo",
    queue_limit=64, scheduler_options={"tenant_weights": {"handshake": 2.0}},
    pool_size=2, subarrays=1, max_wait_ms=2.0)
#: Most bytes per request each trace may retain.
PQC_BYTES_PER_REQUEST = 2048
SWEEP_BYTES_PER_REQUEST = 250
REPORT_BYTES_PER_REQUEST = 150


def retained_bytes(make: Callable[[], Any]) -> Tuple[int, Any]:
    """Bytes ``make()``'s result keeps allocated, and the result."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = make()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained, made


def retained_bytes_per_request(make: Callable[[], Sized]) -> float:
    """Bytes ``make()``'s trace keeps allocated, over its length."""
    retained, trace = retained_bytes(make)
    return retained / len(trace)


def report_bytes_per_request(config) -> float:
    """Bytes the report of a replay of ``config``'s trace keeps allocated,
    over the trace's length, with no result read."""
    trace = config.build_trace()
    simulator = config.build_simulator()
    simulator.replay(trace)  # prices the stack
    retained, _ = retained_bytes(lambda: simulator.replay(trace))
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
    readings = [(name, retained_bytes_per_request(make), bound)
                for name, make, bound in cases]
    readings.append(("report", report_bytes_per_request(ReplayConfig(
        **PQC_SHAPE, duration=1.0, seed=2023)), REPORT_BYTES_PER_REQUEST))
    over = 0
    for name, per_request, bound in readings:
        print(f"{name} {per_request:.0f} B/request (bound {bound})")
        over += per_request > bound
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
