"""The cluster event loop's work per request stays flat in chip count.

The cluster caches each chip's next wake-up, so the simulator's event
loop asks a chip again only after a protocol call on that chip changed
it.  Counting the inner ``next_event_s`` calls pins that without a
clock: counts are deterministic, so the bound is CI-stable.  The
traffic is the host benchmark's cluster shape (tiny ring, 40 requests
per chip, Poisson arrivals at 2M/s per chip, 60% ``polymul`` over four
operand keys per chip, affinity routing with replication).
"""

import random

import pytest

from repro.ntt.params import STANDARD_PARAMS, NTTParams
from repro.sched.adaptive import AdaptiveScheduler
from repro.sched.fifo import FifoScheduler
from repro.serve import BatchPolicy, EnginePool, PoolConfig, ServingSimulator
from repro.serve.request import Request

RING = "tiny-cluster-loop"
RING_N = 16
RING_Q = 97
PER_CHIP = 40
KEYS_PER_CHIP = 4
RATE_PER_CHIP = 2e6
#: Inner next_event_s calls per request.  At 1 / 4 / 16 / 64 chips the
#: cache costs 1.43 / 1.79 / 1.83 / 1.83; scanning every chip on every
#: turn cost 1.2 / 6.65 / 27.2 / 108.8.
MAX_CALLS_PER_REQUEST = 2.5


@pytest.fixture(scope="module")
def pool():
    STANDARD_PARAMS[RING] = NTTParams(n=RING_N, q=RING_Q,
                                      name="cluster event-loop ring")
    yield EnginePool(PoolConfig(size=2, rows=32, cols=32))
    STANDARD_PARAMS.pop(RING, None)


def cluster_trace(chips, seed=2023):
    rng = random.Random(seed)
    keys = KEYS_PER_CHIP * chips

    def poly():
        return tuple(rng.randrange(RING_Q) for _ in range(RING_N))

    payloads = [poly() for _ in range(8)]
    operands = [poly() for _ in range(keys)]
    trace = []
    t_s = 0.0
    for i in range(chips * PER_CHIP):
        t_s += rng.expovariate(RATE_PER_CHIP * chips)
        if i % 5 >= 3:
            trace.append(Request(
                request_id=i, op="ntt", params_name=RING,
                payload=payloads[i % 8], arrival_s=t_s, tenant="signing"))
        else:
            trace.append(Request(
                request_id=i, op="polymul", params_name=RING,
                payload=payloads[i % 8], operand=operands[(i * 7) % keys],
                arrival_s=t_s,
                tenant="hot" if i % 10 == 0 else "handshake"))
    return trace


@pytest.mark.parametrize("chips", (1, 4, 16, 64))
@pytest.mark.parametrize("inner,scheduler_class", (
    ("fifo", FifoScheduler), ("adaptive", AdaptiveScheduler)))
def test_inner_wakeup_calls_per_request_are_flat(pool, monkeypatch, inner,
                                                 scheduler_class, chips):
    calls = []
    next_event_s = scheduler_class.next_event_s

    def counted(self):
        calls.append(None)
        return next_event_s(self)

    monkeypatch.setattr(scheduler_class, "next_event_s", counted)
    sim = ServingSimulator(
        pool, BatchPolicy(max_wait_s=2e-4), scheduler=f"cluster:{inner}",
        scheduler_options={"chips": chips, "router": "affinity",
                           "router_options": {"replicate": {"": 3,
                                                            "hot": 6}}})
    trace = cluster_trace(chips)
    report = sim.replay(trace)
    assert report.count == len(trace)
    assert len(calls) / len(trace) <= MAX_CALLS_PER_REQUEST
