"""Packed requests: payload words, the intern table and trace memory.

A :class:`~repro.serve.request.Request` stores its payload as packed
machine words and decodes a new tuple on each read.  These tests hold
the decoded payload to the canonical form requests kept before packing
(a copy of that function lives here), check what a trace's intern
table shares, bound what a trace retains per request under
``tracemalloc``, and count that a replay nobody reads decodes nothing.
"""

import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.ntt.params import STANDARD_PARAMS, NTTParams, get_params
from repro.serve import ReplayConfig
from repro.serve import pool as pool_module
from repro.serve import request as request_module
from repro.serve.request import Request, pack_words, unpack_words, word_rows
from repro.utils.primes import find_ntt_prime

#: Two-point rings whose ``q - 1`` sits at each word-size edge: 1, 2, 4
#: and 8 bytes, and past 64 bits the wide encoding.
EDGE_BITS = (3, 8, 9, 16, 17, 32, 33, 64, 70, 71)
REGISTERED = ("kyber-v1", "dilithium", "table1-14bit", "he-16bit",
              "he-29bit")
KINDS = ("canonical", "list", "negative", "over-q", "bool", "big", "short")

def canonical_before_packing(coeffs, params, label):
    """What ``Request.payload`` held before payloads were packed."""
    if len(coeffs) != params.n:
        raise ParameterError(
            f"{label} needs {params.n} coefficients, got {len(coeffs)}"
        )
    if (type(coeffs) is tuple and set(map(type, coeffs)) == {int}
            and min(coeffs) >= 0 and max(coeffs) < params.q):
        return coeffs
    return tuple(c % params.q for c in coeffs)


@lru_cache(maxsize=None)
def edge_params(bits):
    return NTTParams(n=2, q=find_ntt_prime(bits, 2), name=f"{bits}-bit edge")


@pytest.fixture
def edge_rings(monkeypatch):
    # The rings do not change between hypothesis inputs.
    for bits in EDGE_BITS:
        monkeypatch.setitem(STANDARD_PARAMS, f"edge-{bits}", edge_params(bits))


def payload_of(kind, params, rng):
    n, q = params.n, params.q
    canonical = [rng.randrange(q) for _ in range(n)]
    if kind == "canonical":
        return tuple(canonical)
    if kind == "list":
        return canonical
    if kind == "negative":
        return tuple(c - q * rng.randrange(1, 3) for c in canonical)
    if kind == "over-q":
        return tuple(c + q * rng.randrange(0, 3) for c in canonical[:-1]) + (q,)
    if kind == "bool":
        return tuple(bool(c & 1) for c in canonical)
    if kind == "big":
        return tuple(c + q * rng.getrandbits(200) for c in canonical)
    return tuple(canonical[:-1])  # "short": one coefficient missing


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ring=st.one_of(st.sampled_from([f"edge-{b}" for b in EDGE_BITS]),
                      st.sampled_from(REGISTERED)),
       kind=st.sampled_from(KINDS),
       seed=st.integers(0, 2**32),
       shared=st.booleans())
def test_payload_reads_as_the_canonical_tuple(edge_rings, ring, kind, seed,
                                              shared):
    params = get_params(ring)
    coeffs = payload_of(kind, params, random.Random(seed))
    try:
        expected = canonical_before_packing(coeffs, params, "payload")
    except ParameterError as error:
        with pytest.raises(ParameterError) as raised:
            Request(request_id=0, op="ntt", params_name=ring, payload=coeffs)
        assert str(raised.value) == str(error)
        return
    table = {} if shared else None
    for request_id in range(2 if shared else 1):  # the second hits the table
        r = Request(request_id=request_id, op="ntt", params_name=ring,
                    payload=coeffs, checked_operands=table)
        payload = r.payload
        assert type(payload) is tuple and payload == expected
        assert list(map(type, payload)) == list(map(type, expected))
        assert r.payload is not payload  # decoded on each read


@given(q=st.integers(2, 2**70), n=st.integers(0, 12), data=st.data())
def test_words_round_trip_for_every_modulus(q, n, data):
    coeffs = tuple(data.draw(st.lists(st.integers(0, q - 1), min_size=n,
                                      max_size=n)))
    packed = pack_words(coeffs, n, q)
    assert type(packed) is bytes
    assert unpack_words(packed, n, q) == coeffs
    assert pack_words(iter(coeffs), n, q) == packed
    # The word is the smallest of 1, 2, 4 or 8 bytes that holds q - 1.
    width = next((size for size in (1, 2, 4, 8)
                  if (q - 1).bit_length() <= 8 * size), None)
    if width is not None:
        assert len(packed) == n * width
    (row,) = word_rows([packed], n, q)
    assert list(row) == list(coeffs)
    if width is not None:
        assert type(row) is memoryview and row.readonly


class TestInternTable:
    def test_a_shared_payload_packs_once(self, tiny_name):
        payload = tuple(range(16))
        operand = tuple(range(1, 17))
        table = {}
        trace = [Request(request_id=i, op="polymul", params_name=tiny_name,
                         payload=payload, operand=operand,
                         checked_operands=table) for i in range(6)]
        assert len({id(r._packed) for r in trace}) == 1
        assert len({id(r.batch_key) for r in trace}) == 1
        assert all(r.operand is operand for r in trace)

    def test_without_a_table_each_request_packs_and_keys_its_own(
            self, tiny_name):
        payload = tuple(range(16))
        trace = [Request(request_id=i, op="ntt", params_name=tiny_name,
                         payload=payload) for i in range(3)]
        assert len({id(r._packed) for r in trace}) == 3
        assert len({id(r.batch_key) for r in trace}) == 3
        assert len({r.batch_key for r in trace}) == 1

    def test_keys_intern_per_kernel(self, tiny_name):
        operands = [tuple((k + j) % 97 for j in range(16)) for k in range(2)]
        table = {}
        trace = [Request(request_id=i, op=op, params_name=tiny_name,
                         payload=tuple(range(16)),
                         operand=operands[i % 2] if op == "polymul" else None,
                         checked_operands=table)
                 for i, op in enumerate(("ntt", "intt", "polymul") * 4)]
        by_key = {}
        for r in trace:
            assert by_key.setdefault(r.batch_key, r.batch_key) is r.batch_key
            assert r.batch_key[2] is r.operand
        assert len(by_key) == 4  # ntt, intt and one polymul per operand

    def test_a_materialized_trace_shares_one_key_per_kernel(self):
        from repro.serve.workload import poisson_trace

        trace = poisson_trace("mixed", 400.0, 0.05, seed=3)
        assert len({id(r.batch_key) for r in trace}) == \
            len({r.batch_key for r in trace}) < len(trace)


def test_a_replay_nobody_reads_decodes_no_payload(monkeypatch):
    decoded = []

    def counting(function):
        def wrapper(*args):
            decoded.append(function.__name__)
            return function(*args)
        return wrapper

    monkeypatch.setattr(request_module, "unpack_words",
                        counting(unpack_words))
    monkeypatch.setattr(pool_module, "word_rows", counting(word_rows))
    config = ReplayConfig(
        scenario="mixed-slo", arrivals="bursty", rate=4000.0,
        scheduler="slo", queue_limit=64, pool_size=2, max_wait_ms=2.0,
        duration=0.05, seed=2023)
    trace = config.build_trace()
    report = config.build_simulator(config.build_pool()).replay(trace)
    assert report.count > 100
    assert decoded == []
    # One read decodes its chunk's rows once, through ``word_rows``.
    assert report.responses[0].result is not None
    assert decoded == ["word_rows"]


@pytest.fixture
def trace_memory(monkeypatch):
    """``benchmarks/trace_memory.py``: the measurement and its bounds."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[2] / "benchmarks"))
    for name in ("trace_memory", "bench_cluster_scaling"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import trace_memory

    return trace_memory


class TestTraceMemory:
    """What a generated trace keeps alive, per request, under the bounds
    the CI "Trace memory" step applies to full-size traces."""

    def test_a_bursty_mixed_slo_trace(self, trace_memory):
        config = ReplayConfig(**trace_memory.PQC_SHAPE, duration=0.2,
                              seed=2023)
        assert trace_memory.retained_bytes_per_request(
            config.build_trace) <= trace_memory.PQC_BYTES_PER_REQUEST

    def test_the_cluster_sweep_trace(self, trace_memory, monkeypatch):
        import bench_cluster_scaling as bench

        monkeypatch.setitem(STANDARD_PARAMS, bench.RING_NAME, NTTParams(
            n=bench.RING_N, q=bench.RING_Q, name="bench cluster ring"))
        assert trace_memory.retained_bytes_per_request(
            lambda: bench.build_trace(4, 20_000)
        ) <= trace_memory.SWEEP_BYTES_PER_REQUEST


class TestReportMemory:
    """What a replay's report keeps alive, per request, with no result
    read: under the bound CI applies to the full 1 s trace, and flat in
    the trace's length."""

    def test_a_bursty_mixed_slo_report(self, trace_memory):
        per_request = [
            trace_memory.report_bytes_per_request(ReplayConfig(
                **trace_memory.PQC_SHAPE, duration=duration, seed=2023))
            for duration in (0.5, 1.0)]
        assert per_request[0] <= trace_memory.REPORT_BYTES_PER_REQUEST
        assert abs(per_request[1] / per_request[0] - 1.0) <= 0.10
