"""The cluster event loop's work per request stays flat.

The cluster caches each chip's next wake-up, so the simulator's event
loop asks a chip again only after a protocol call on that chip changed
it; and a chip reads its next deadline from the batcher's index, so a
wake-up visits O(1) open batches however many are open.  Counting
calls pins both without a clock: counts are deterministic, so the
bounds are CI-stable.  The traffic is the host benchmark's cluster
shape (tiny ring, 40 requests per chip, Poisson arrivals at 2M/s per
chip, 60% ``polymul`` over four operand keys per chip, affinity routing
with replication).  A replay nobody reads results from runs no result
math at all, on any chip.
"""

import random

import pytest

from repro.backends.model import ModelBackend
from repro.ntt.params import STANDARD_PARAMS, NTTParams
from repro.sched.adaptive import AdaptiveScheduler
from repro.sched.fifo import FifoScheduler
from repro.serve import BatchPolicy, EnginePool, PoolConfig, ServingSimulator
from repro.serve.batcher import PolyBatch
from repro.serve.request import Request, gold_result

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
#: The per-batch deadline reads: a call of any of these visits one open
#: batch.
VISITS = ((PolyBatch, "deadline_s"), (AdaptiveScheduler, "_deadline_s"),
          (AdaptiveScheduler, "_eligible_at_s"))
#: Open-batch visits per dispatched batch, at 4 chips x 200 requests.
#: From 4 to 96 keys per chip the index visits 5.2 / 5.0 (fifo) and
#: 10.3 / 9.0 (adaptive) per batch, 1.4 / 3.5 and 2.8 / 6.3 per request
#: (batches get smaller); scanning every open batch on every wake-up
#: visited 56 / 251 and 115 / 603 per batch.
MAX_VISITS_PER_BATCH = 12
MAX_VISITS_PER_REQUEST = 8


@pytest.fixture(scope="module")
def pool():
    STANDARD_PARAMS[RING] = NTTParams(n=RING_N, q=RING_Q,
                                      name="cluster event-loop ring")
    yield EnginePool(PoolConfig(size=2, rows=32, cols=32))
    STANDARD_PARAMS.pop(RING, None)


def cluster_trace(chips, seed=2023, *, per_chip=PER_CHIP,
                  keys_per_chip=KEYS_PER_CHIP):
    rng = random.Random(seed)
    keys = keys_per_chip * chips

    def poly():
        return tuple(rng.randrange(RING_Q) for _ in range(RING_N))

    payloads = [poly() for _ in range(8)]
    operands = [poly() for _ in range(keys)]
    trace = []
    t_s = 0.0
    for i in range(chips * per_chip):
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
    trace = cluster_trace(chips)
    report = replay(pool, inner, chips, trace)
    assert report.count == len(trace)
    assert len(calls) / len(trace) <= MAX_CALLS_PER_REQUEST


@pytest.mark.parametrize("inner", ("fifo", "adaptive"))
def test_a_replay_nobody_reads_runs_no_result_math(pool, monkeypatch, inner):
    calls = []
    execute = ModelBackend.execute

    def counted(self, kernel, payloads):
        calls.append(len(payloads))
        return execute(self, kernel, payloads)

    monkeypatch.setattr(ModelBackend, "execute", counted)
    trace = cluster_trace(16)
    report = replay(pool, inner, 16, trace)
    assert report.count == len(trace)
    assert calls == []
    first = report.responses[0]
    assert list(first.result) == gold_result(first.request)
    assert 0 < sum(calls) < len(trace)


def replay(pool, inner, chips, trace):
    sim = ServingSimulator(
        pool, BatchPolicy(max_wait_s=2e-4), scheduler=f"cluster:{inner}",
        scheduler_options={"chips": chips, "router": "affinity",
                           "router_options": {"replicate": {"": 3,
                                                            "hot": 6}}})
    return sim.replay(trace)


@pytest.mark.parametrize("inner", ("fifo", "adaptive"))
def test_open_batch_visits_stay_flat_in_keys_per_chip(pool, monkeypatch,
                                                      inner):
    visits = []
    for owner, name in VISITS:
        def counted(*args, _method=getattr(owner, name)):
            visits.append(None)
            return _method(*args)
        monkeypatch.setattr(owner, name, counted)
    per_batch = {}
    for keys_per_chip in (4, 96):
        visits.clear()
        trace = cluster_trace(4, per_chip=200, keys_per_chip=keys_per_chip)
        report = replay(pool, inner, 4, trace)
        assert report.count == len(trace)
        assert len(visits) / len(trace) <= MAX_VISITS_PER_REQUEST
        per_batch[keys_per_chip] = len(visits) / len(report.batches)
        assert per_batch[keys_per_chip] <= MAX_VISITS_PER_BATCH
    # Flat: 24x the keys, no more visits per batch.
    assert per_batch[96] <= per_batch[4]
