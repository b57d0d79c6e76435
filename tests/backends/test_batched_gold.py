"""The batched gold math of the ``model`` backend.

``ModelBackend`` runs the vectorized schedules of
:func:`~repro.ntt.transform.ntt_negacyclic_batch` /
:func:`~repro.ntt.transform.intt_negacyclic_batch` on rings of
``n >= 64`` with moduli of at most 31 bits when numpy imports, and the
scalar loop otherwise.  These tests hold both paths to the scalar
transforms at every registered ring size, and pin the fallbacks: wide
moduli, no numpy, unreduced coefficients, and a tiny ring that must
never import numpy, nor any module a replay never runs.  The lazy
butterflies of the batched kernels are also held to the scalar loops at
the edge of their int64 bound: 29- to 31-bit moduli with all-``q-1``,
alternating and "ladder" payloads and raw pointwise products, where a
bound one stage off would wrap silently.
"""

import json
import os
import random
import subprocess
import sys
from functools import lru_cache
from importlib.util import find_spec
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.backends import create_backend
from repro.backends.base import CompiledKernel
from repro.backends.model import BATCH_MIN_N, ModelBackend
from repro.errors import ParameterError
from repro.ntt.params import STANDARD_PARAMS, NTTParams, get_params
from repro.ntt.transform import (
    intt_negacyclic,
    intt_negacyclic_batch,
    ntt_negacyclic,
    ntt_negacyclic_batch,
    polymul_negacyclic,
)
from repro.ntt.twiddles import TwiddleTable
from repro.serve import EnginePool, PoolConfig
from repro.serve.batcher import PolyBatch
from repro.serve.request import Request, gold_result
from repro.utils.primes import find_ntt_prime

SRC = Path(__file__).resolve().parents[2] / "src"
OPS = ("ntt", "intt", "polymul")
RINGS = [name for name, params in STANDARD_PARAMS.items() if params.negacyclic]
needs_numpy = pytest.mark.skipif(find_spec("numpy") is None,
                                 reason="numpy is not installed")
#: Coefficients the scalar path reduces with Python's ``%``: negative,
#: past q, and past both int64 bounds.
UNREDUCED = (-1, -7681, 7681, 2 * 7681 + 3, 2**63 - 1, 2**63, 2**64 + 5,
             -2**63 - 1, 2**200, -2**70)
#: ``(bits, n)`` of the generated rings at the lazy bound's edge: the
#: largest ``bits``-bit NTT prime for each ring size.
EDGE_RINGS = [(bits, n) for bits in (29, 30, 31)
              for n in (64, 128, 256, 512, 1024)]
#: Payload rows that push the lazy butterflies towards their bound.  An
#: int kind ``k`` is a ladder to stage ``1 + k % log2(n)`` (see
#: ``_ladder_row``).
EDGE_ROWS = ("max", "alternating", "random")


def _operand(params, seed=99):
    rng = random.Random(seed)
    return [rng.randrange(params.q) for _ in range(params.n)]


def _kernel(params, op, operand=None):
    """A result-only kernel handle: the gold math never reads the
    programs, so the tests skip compiling the 1024-point ones."""
    if op != "polymul":
        return CompiledKernel(op=op, operand=None, operand_hat=None,
                              programs=())
    return CompiledKernel(
        op=op, operand=tuple(operand),
        operand_hat=tuple(ntt_negacyclic(operand, params)), programs=(),
    )


def _scalar(params, op, payload, operand=None):
    if op == "ntt":
        return ntt_negacyclic(payload, params)
    if op == "intt":
        return intt_negacyclic(payload, params)
    return polymul_negacyclic(payload, operand, params)


@needs_numpy
@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("ring", RINGS)
def test_batched_backends_match_the_scalar_transforms(ring, op):
    params = get_params(ring)
    model = ModelBackend(params)
    assert model.batched
    capacity = model.capabilities().batch
    rng = random.Random(ring)
    payloads = [[rng.randrange(params.q) for _ in range(params.n)]
                for _ in range(capacity)]
    operand = _operand(params)
    kernel = _kernel(params, op, operand)
    expected = [_scalar(params, op, payload, operand) for payload in payloads]
    for size in range(1, capacity + 1):
        assert model.execute(kernel, payloads[:size]) == expected[:size]


@needs_numpy
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ring=st.sampled_from(RINGS), op=st.sampled_from(OPS),
       size=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       overrides=st.lists(
           st.tuples(st.integers(min_value=0),
                     st.one_of(st.sampled_from(UNREDUCED),
                               st.integers(min_value=-2**80,
                                           max_value=2**80))),
           max_size=8))
def test_batched_model_matches_scalar_on_random_payloads(
        ring, op, size, seed, overrides):
    params = get_params(ring)
    rng = random.Random(seed)
    payloads = [[rng.randrange(params.q) for _ in range(params.n)]
                for _ in range(size)]
    for position, value in overrides:
        payloads[position % size][position % params.n] = value
    operand = _operand(params, seed)
    kernel = _kernel(params, op, operand)
    model = ModelBackend(params)
    assert model.batched
    assert model.execute(kernel, payloads) == [
        _scalar(params, op, payload, operand) for payload in payloads]


@lru_cache(maxsize=None)
def _edge_ring(bits, n):
    return NTTParams(n=n, q=find_ntt_prime(bits, n))


def _ladder_row(params, stage):
    """A row whose coefficient ``n >> stage`` grows by ``q-1`` in every
    forward stage before ``stage``, where it is the high half that
    multiplies the stage's first zeta: the largest twiddle operand the
    lazy bound allows on that block.

    Every other coefficient is zero except its earlier partners, each
    set so its twiddle product reduces to ``q-1``.
    """
    q, n = params.q, params.n
    forward = TwiddleTable(params).forward
    position = n >> stage
    row = [0] * n
    row[position] = q - 1
    for earlier in range(1, stage):
        # Block 0 of stage ``earlier`` pairs it with ``n >> earlier``
        # further on, under zeta[2**(earlier-1)].
        zeta = forward[1 << (earlier - 1)]
        row[position + (n >> earlier)] = (q - 1) * pow(zeta, -1, q) % q
    return row


def _edge_row(kind, params, rng):
    q, n = params.q, params.n
    if kind == "max":
        return [q - 1] * n
    if kind == "alternating":
        return [(q - 1) * (j % 2) for j in range(n)]
    if kind == "random":
        return [rng.randrange(q) for _ in range(n)]
    return _ladder_row(params, 1 + kind % (n.bit_length() - 1))


@needs_numpy
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ring=st.sampled_from(EDGE_RINGS),
       kinds=st.lists(st.one_of(st.sampled_from(EDGE_ROWS),
                                st.integers(min_value=0, max_value=9)),
                      min_size=1, max_size=8),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(ring=(31, 1024), kinds=["max"] * 8, seed=0)
@example(ring=(31, 64), kinds=["max", "alternating", 5], seed=0)
@example(ring=(31, 1024), kinds=[8, "random"], seed=1)
@example(ring=(30, 1024), kinds=["alternating", 7, "random"], seed=1)
@example(ring=(29, 512), kinds=["max", 8], seed=0)
def test_batched_transforms_hold_at_the_int64_edge(ring, kinds, seed):
    """Both batch transforms, and the inverse on raw pointwise products
    up to ``(q-1)**2``, equal the scalar loops on moduli of 29-31 bits.

    The ladder examples make the forward kernel's twiddle product reach
    ``2**63`` at the stage just before a guard fires, once the bound is
    counted one stage short."""
    params = _edge_ring(*ring)
    rng = random.Random(seed)
    payloads = [_edge_row(kind, params, rng) for kind in kinds]
    # Raw products, as ModelBackend's polymul feeds the inverse.
    products = [[a * b for a, b in zip(row, payloads[-1 - i])]
                for i, row in enumerate(payloads)]

    @lru_cache(maxsize=None)
    def scalar(transform, row):
        return transform(list(row), params)

    for transform, batched, batch in (
            (ntt_negacyclic, ntt_negacyclic_batch, payloads),
            (intt_negacyclic, intt_negacyclic_batch, payloads),
            (intt_negacyclic, intt_negacyclic_batch, products)):
        assert batched(batch, params).tolist() == [
            scalar(transform, tuple(row)) for row in batch]


class TestPathChoice:
    @needs_numpy
    def test_batched_from_64_points(self):
        small = NTTParams(n=BATCH_MIN_N // 2, q=find_ntt_prime(14, BATCH_MIN_N // 2))
        large = NTTParams(n=BATCH_MIN_N, q=find_ntt_prime(14, BATCH_MIN_N))
        assert not ModelBackend(small).batched
        assert ModelBackend(large).batched

    def test_wide_modulus_served_by_the_scalar_loop(self, monkeypatch):
        name = "wide-modulus-test"
        params = NTTParams(n=64, q=find_ntt_prime(33, 64), name="wide")
        monkeypatch.setitem(STANDARD_PARAMS, name, params)
        operand = tuple(_operand(params))
        pool = EnginePool(PoolConfig(size=1))
        for op in OPS:
            requests = [
                Request(request_id=i, op=op, params_name=name,
                        payload=tuple(_operand(params, seed=i)),
                        operand=operand if op == "polymul" else None)
                for i in range(3)
            ]
            batch = PolyBatch(key=requests[0].batch_key, capacity=3)
            for request in requests:
                batch.add(request)
            results, _, _ = pool.serve(batch, lane=0)
            assert [list(r) for r in results] == [
                gold_result(request) for request in requests]
        assert pool.backend_lanes("model", name)[0].batched is False

    def test_model_serves_without_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        params = get_params("kyber-v1")
        backend = ModelBackend(params)
        assert not backend.batched
        operand = _operand(params)
        payloads = [_operand(params, seed=i) for i in range(3)]
        for op in OPS:
            assert backend.execute(_kernel(params, op, operand), payloads) == [
                _scalar(params, op, payload, operand) for payload in payloads]


class TestInputHandling:
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("backend_name", ["model"])
    def test_unreduced_coefficients_reduce_like_the_scalar_path(
            self, backend_name, op):
        params = get_params("kyber-v1")
        backend = create_backend(backend_name, params)
        payloads = [list(UNREDUCED) * (params.n // len(UNREDUCED))
                    + list(UNREDUCED[:params.n % len(UNREDUCED)]),
                    [-c for c in _operand(params, seed=5)]]
        operand = _operand(params)
        assert backend.execute(_kernel(params, op, operand), payloads) == [
            _scalar(params, op, payload, operand) for payload in payloads]

    @pytest.mark.parametrize("ring", ["kyber-v1", "tiny"])
    @pytest.mark.parametrize("backend_name", ["model"])
    def test_wrong_length_payload_raises(self, backend_name, ring):
        params = NTTParams(n=16, q=97) if ring == "tiny" else get_params(ring)
        backend = create_backend(backend_name, params, rows=32, cols=32) \
            if ring == "tiny" else create_backend(backend_name, params)
        kernel = _kernel(params, "ntt")
        good = [0] * params.n
        for payloads in ([good[:-1]], [good, good + [0]]):
            with pytest.raises(ParameterError, match="coefficients"):
                backend.execute(kernel, payloads)

    @needs_numpy
    def test_batch_functions_leave_their_input_unchanged(self):
        """``np.asarray`` would pass an int64 ndarray through uncopied;
        the transforms reduce in place but must never write to it."""
        import numpy as np

        params = get_params("kyber-v1")
        canonical = np.array([_operand(params, seed=i) for i in range(3)],
                             dtype=np.int64)
        unreduced = canonical - 3 * params.q
        for batch in (canonical, unreduced):
            before = batch.copy()
            for transform in (ntt_negacyclic_batch, intt_negacyclic_batch):
                transform(batch, params)
                assert np.array_equal(batch, before)

    @needs_numpy
    def test_batch_functions_validate_their_input(self):
        params = get_params("kyber-v1")
        for batch in ([[0] * 255], [[0] * 256, [0] * 255], [0] * 256,
                      [[2**64] * 256, [0] * 255]):
            for transform in (ntt_negacyclic_batch, intt_negacyclic_batch):
                with pytest.raises(ParameterError, match="256 coefficients"):
                    transform(batch, params)
        wide = NTTParams(n=64, q=find_ntt_prime(33, 64))
        with pytest.raises(ParameterError, match="31 bits"):
            ntt_negacyclic_batch([[0] * 64], wide)


#: Modules a replay and its report never run, so must never import: the
#: crypto schemes, the obs modules past tracing and the registry, the
#: program-level tracer, the program type (the model backend prices
#: schedules and builds no program), and the offline analysis and check
#: tooling.
COLD_PATH_MODULES = (
    "repro.crypto", "repro.obs.stream", "repro.obs.slo", "repro.obs.sampling",
    "repro.obs.summary", "repro.obs.exporters", "repro.sram.tracer",
    "repro.sram.program", "repro.analysis", "repro.check", "repro.baselines",
)


def test_tiny_ring_replay_never_imports_numpy():
    """Importing numpy would raise a tiny ring's peak memory by a fifth,
    so the scalar path must keep it out of the process; and a replay and
    its report import none of :data:`COLD_PATH_MODULES` (or their
    submodules)."""
    script = """
import json
import sys
from repro.ntt.params import STANDARD_PARAMS, NTTParams
from repro.serve import BatchPolicy, EnginePool, PoolConfig, Request, ServingSimulator
from repro.serve import serialize_report

STANDARD_PARAMS["numpy-free-ring"] = NTTParams(n=16, q=97)
operand = tuple(range(16))
trace = [
    Request(request_id=i, op="polymul" if i % 3 else "ntt",
            params_name="numpy-free-ring",
            payload=tuple((7 * i + j) % 97 for j in range(16)),
            operand=operand if i % 3 else None, arrival_s=i * 1e-5)
    for i in range(48)
]
simulator = ServingSimulator(
    EnginePool(PoolConfig(size=2, rows=32, cols=32)),
    BatchPolicy(max_wait_s=2e-4), scheduler="cluster:fifo",
    scheduler_options={"chips": 4, "router": "affinity"})
report = simulator.replay(trace)
assert len(report.responses) == len(trace), report
serialize_report(report)
print(json.dumps(sorted(sys.modules)))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "numpy" not in loaded
    assert [name for name in loaded
            if any(name == cold or name.startswith(cold + ".")
                   for cold in COLD_PATH_MODULES)] == []
