"""The benchmark's workloads: seeded traces and the serving stacks that replay them.

Each workload is an open-loop arrival trace on the *simulated* clock,
generated from the run's seed before any timing starts (the program
under test only ever sees the finished request list), plus a builder
for the serving stack a ``repro.cli serve`` user would get for it.
Set-up time is that builder plus pricing every distinct batch key.

- ``pqc-slo-cold``: the ``mixed-slo`` golden shape (bursty 4000
  calls/s, ``slo`` scheduler, ``queue_limit=64``, handshake weight 2,
  model backend, pool 2x1) over a longer window.  Compiling and pricing
  the 1024-point HE programs dominate set-up, and gold NTT result math
  on those rings dominates the replay; scheduling is light.
- ``cluster-64``: the tiny ring and traffic shape of
  ``benchmarks/bench_cluster_scaling.py`` on 64 chips under
  ``cluster:fifo`` with the affinity router and its replication map.
  Compile, pricing and result math are nearly free, so the batcher
  scans of the event loop dominate, at the chip count where their
  per-request cost is worst.
- ``cluster-16-obs``: the same ring on 16 chips under
  ``cluster:adaptive``, through the :class:`~repro.cluster.ClusterSimulator`
  front door with a ``RecordingTracer`` on and the chrome-trace, JSONL
  and Prometheus exports after every replay (the ``serve --chips 16
  --trace-out --metrics-out`` path).  It loads the scheduler layer
  differently from ``cluster-64`` and is the only workload that runs
  ``repro.obs`` emission and export.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List

from repro.cluster import ClusterSimulator
from repro.ntt.params import STANDARD_PARAMS, NTTParams
from repro.serve import (
    BatchPolicy,
    EnginePool,
    PoolConfig,
    ReplayConfig,
    Request,
    ServingSimulator,
)

#: The 16-point ring both cluster workloads run on.
RING = "perfbench-ring"
RING_N = 16
RING_Q = 97

#: Distinct pinnable operand keys per chip: the scaling bench uses 96,
#: which makes set-up and the open-batch scans too slow for a run.
KEYS_PER_CHIP = 4
REPLICATE = {"": 3, "hot": 6}  # the scaling bench's replication map
CLUSTER_MAX_WAIT_MS = 0.2

PQC_CONFIG = dict(
    scenario="mixed-slo", arrivals="bursty", rate=4000.0, scheduler="slo",
    queue_limit=64, scheduler_options={"tenant_weights": {"handshake": 2.0}},
    pool_size=2, subarrays=1, max_wait_ms=2.0,
)
PQC_DURATION_S = 1.0           # ~4,800 requests
C64_CHIPS, C64_PER_CHIP, C64_RATE_PER_CHIP = 64, 40, 2e6     # 2,560 requests
C16_CHIPS, C16_PER_CHIP, C16_RATE_PER_CHIP = 16, 125, 2e6    # 2,000 requests
#: Trace sizes for the benchmark's own tests.
QUICK_PQC_DURATION_S = 0.02
QUICK_PER_CHIP = 2


@dataclass
class Server:
    """One serving stack: the pool set-up primes and the replay entry point."""

    pool: EnginePool
    replay: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``trace(seed, quick)`` -> the requests, in arrival order.
    trace: Callable[[int, bool], List[Request]]
    #: ``server(backend)`` -> a fresh serving stack.
    server: Callable[[str], Server]
    #: Replays record with the product's RecordingTracer and export.
    records_obs: bool = False


@contextlib.contextmanager
def tiny_ring() -> Iterator[None]:
    """Register the cluster workloads' ring for the duration of a run."""
    added = RING not in STANDARD_PARAMS
    if added:
        STANDARD_PARAMS[RING] = NTTParams(n=RING_N, q=RING_Q,
                                          name="perfbench ring")
    try:
        yield
    finally:
        if added:
            STANDARD_PARAMS.pop(RING, None)


def cluster_trace(chips: int, per_chip: int, rate_per_chip: float,
                  seed: int) -> List[Request]:
    """Mixed-tenant tiny-ring traffic with Poisson arrivals.

    The shape of ``bench_cluster_scaling.build_trace``: 40% operand-less
    ``ntt`` signing traffic, 60% ``polymul`` calls cycling over
    ``KEYS_PER_CHIP * chips`` operand keys, one in six of them from the
    replicated ``hot`` tenant.  The seed draws the coefficients and the
    inter-arrival gaps.
    """
    rng = random.Random(seed)
    rate = rate_per_chip * chips
    keys = KEYS_PER_CHIP * chips

    def poly():
        return tuple(rng.randrange(RING_Q) for _ in range(RING_N))

    payloads = [poly() for _ in range(8)]
    operands = [poly() for _ in range(keys)]
    trace = []
    t_s = 0.0
    for i in range(chips * per_chip):
        t_s += rng.expovariate(rate)
        if i % 5 >= 3:
            trace.append(Request(
                request_id=i, op="ntt", params_name=RING,
                payload=payloads[i % 8], arrival_s=t_s,
                tenant="signing", kind="ntt"))
        else:
            trace.append(Request(
                request_id=i, op="polymul", params_name=RING,
                payload=payloads[i % 8], operand=operands[(i * 7) % keys],
                arrival_s=t_s, tenant="hot" if i % 10 == 0 else "handshake",
                kind="mul"))
    return trace


def _pqc_trace(seed: int, quick: bool) -> List[Request]:
    duration = QUICK_PQC_DURATION_S if quick else PQC_DURATION_S
    return ReplayConfig(**PQC_CONFIG, duration=duration,
                        seed=seed).build_trace()


def _pqc_server(backend: str) -> Server:
    config = ReplayConfig(**PQC_CONFIG, backend=backend)
    pool = config.build_pool()
    return Server(pool, config.build_simulator(pool).replay)


def _c64_trace(seed: int, quick: bool) -> List[Request]:
    per_chip = QUICK_PER_CHIP if quick else C64_PER_CHIP
    return cluster_trace(C64_CHIPS, per_chip, C64_RATE_PER_CHIP, seed)


def _c64_server(backend: str) -> Server:
    pool = EnginePool(PoolConfig(size=2, rows=32, cols=32))
    simulator = ServingSimulator(
        pool, BatchPolicy(max_wait_s=CLUSTER_MAX_WAIT_MS * 1e-3),
        backend=backend, scheduler="cluster:fifo",
        scheduler_options={"chips": C64_CHIPS, "router": "affinity",
                           "router_options": {"replicate": dict(REPLICATE)}},
    )
    return Server(pool, simulator.replay)


def _c16_trace(seed: int, quick: bool) -> List[Request]:
    per_chip = QUICK_PER_CHIP if quick else C16_PER_CHIP
    return cluster_trace(C16_CHIPS, per_chip, C16_RATE_PER_CHIP, seed)


def _c16_server(backend: str) -> Server:
    front = ClusterSimulator(ReplayConfig(
        backend=backend, scheduler="adaptive", chips=C16_CHIPS,
        router="affinity", router_options={"replicate": dict(REPLICATE)},
        max_wait_ms=CLUSTER_MAX_WAIT_MS, pool_size=2,
    ))
    return Server(front.pool, front.replay)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("pqc-slo-cold", _pqc_trace, _pqc_server),
        Workload("cluster-64", _c64_trace, _c64_server),
        Workload("cluster-16-obs", _c16_trace, _c16_server, records_obs=True),
    )
}
