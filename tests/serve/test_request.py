"""Request/response records, validation, and the crypto adapters."""

import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest

from repro.crypto.he import HEContext
from repro.errors import ParameterError
from repro.ntt.params import get_params
from repro.ntt.transform import intt_negacyclic, ntt_negacyclic, polymul_negacyclic
from repro.serve.request import (
    BatchKey,
    Request,
    Response,
    ResultSlot,
    dilithium_ntt_request,
    gold_result,
    he_multiply_plain_requests,
    he_multiply_requests,
    kyber_polymul_request,
)

TINY_N, TINY_Q = 16, 97  # mirrors the tiny ring in conftest.py


class TestValidation:
    def test_unknown_op_rejected(self, tiny_name):
        with pytest.raises(ParameterError, match="unknown op"):
            Request(request_id=0, op="fft", params_name=tiny_name,
                    payload=tuple(range(TINY_N)))

    def test_polymul_needs_operand(self, tiny_name):
        with pytest.raises(ParameterError, match="second operand"):
            Request(request_id=0, op="polymul", params_name=tiny_name,
                    payload=tuple(range(TINY_N)))

    def test_kernel_ops_take_no_operand(self, tiny_name):
        with pytest.raises(ParameterError, match="no second operand"):
            Request(request_id=0, op="ntt", params_name=tiny_name,
                    payload=tuple(range(TINY_N)), operand=tuple(range(TINY_N)))

    def test_wrong_length_rejected(self, tiny_name):
        with pytest.raises(ParameterError, match="coefficients"):
            Request(request_id=0, op="ntt", params_name=tiny_name,
                    payload=(1, 2, 3))

    def test_unknown_params_rejected(self):
        with pytest.raises(ParameterError, match="unknown parameter set"):
            Request(request_id=0, op="ntt", params_name="no-such-ring",
                    payload=(0,) * 16)

    def test_payload_canonicalized(self, tiny_name):
        r = Request(request_id=0, op="ntt", params_name=tiny_name,
                    payload=tuple(-1 for _ in range(TINY_N)))
        assert r.payload == (TINY_Q - 1,) * TINY_N


class TestBatchKey:
    def test_same_kernel_coalesces(self, tiny_request):
        assert tiny_request(0).batch_key == tiny_request(1).batch_key

    def test_ops_do_not_mix(self, tiny_request):
        assert tiny_request(0).batch_key != tiny_request(1, op="intt").batch_key

    def test_polymul_operand_in_key(self, tiny_request):
        a = tiny_request(0, op="polymul", operand=[1] * TINY_N)
        b = tiny_request(1, op="polymul", operand=[1] * TINY_N)
        c = tiny_request(2, op="polymul", operand=[2] * TINY_N)
        assert a.batch_key == b.batch_key
        assert a.batch_key != c.batch_key

    def test_default_kind_is_op(self, tiny_request):
        assert tiny_request(0).kind == "ntt"

    def test_key_is_built_once_and_shares_the_operand(self, tiny_request):
        r = tiny_request(0, op="polymul", operand=[3] * TINY_N)
        assert r.batch_key is r.batch_key
        assert r.batch_key[2] is r.operand

    def test_key_equals_hashes_and_reprs_like_the_plain_tuple(self, tiny_request):
        for r in (tiny_request(0),
                  tiny_request(1, op="polymul", operand=range(TINY_N))):
            plain = (r.params_name, r.op, r.operand)
            assert type(r.batch_key) is BatchKey
            assert r.batch_key == plain and plain == r.batch_key
            assert hash(r.batch_key) == hash(plain)
            assert repr(r.batch_key) == repr(plain)
            assert {plain: 1}[r.batch_key] == 1
            assert {r.batch_key: 1}[plain] == 1

    def test_pickles_carry_no_cached_hash(self, tiny_request):
        r = tiny_request(0, op="polymul", operand=[5] * TINY_N)
        for blob in (pickle.dumps(r.batch_key), pickle.dumps(r)):
            assert b"_hash" not in blob
        loaded = pickle.loads(pickle.dumps(r))
        assert loaded == r and loaded.batch_key == r.batch_key
        assert type(loaded.batch_key) is BatchKey
        assert loaded.batch_key[2] is loaded.operand

    def test_a_loaded_key_rehashes_in_another_process(self):
        # str hashes are salted per process: a hash carried through the
        # pickle would disagree with the loading process's tuple hash.
        r = kyber_polymul_request(range(256), range(256), request_id=0)
        script = (
            "import pickle, sys\n"
            "key = pickle.loads(sys.stdin.buffer.read())\n"
            "assert hash(key) == hash(tuple(key)), 'stale hash'\n"
            "print(type(key).__name__)\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            out = subprocess.run([sys.executable, "-c", script],
                                 input=pickle.dumps(r.batch_key), env=env,
                                 capture_output=True, check=True)
            assert out.stdout.strip() == b"BatchKey"

    def test_affinity_pins_unchanged(self):
        # Chips and digest recorded from the plain-tuple key: the router
        # hashes repr(batch_key), so a key that reprs differently would
        # move every pin.
        from repro.cluster.router import AffinityRouter, _key_digest

        q = get_params("kyber-v1").q
        router = AffinityRouter(16)
        chips = []
        for k in range(8):
            poly = tuple((k * 31 + j * 7) % q for j in range(256))
            chips.append(router.chip_for(
                kyber_polymul_request(poly, poly, request_id=k), tuple(range(16))))
        assert chips == [13, 9, 5, 10, 7, 11, 15, 1]
        key = kyber_polymul_request(range(256), range(256), request_id=0).batch_key
        assert _key_digest(key).hex() == "2d90ab9399886a2ae69b716886a113f9"


class TestCanonical:
    """A canonical int tuple is kept as given; anything else is reduced."""

    def make(self, tiny_name, coeffs):
        return Request(request_id=0, op="polymul", params_name=tiny_name,
                       payload=coeffs, operand=coeffs)

    def test_canonical_int_tuple_kept_by_identity(self, tiny_name):
        coeffs = tuple(range(TINY_N - 1)) + (TINY_Q - 1,)
        r = self.make(tiny_name, coeffs)
        # The payload is stored packed: each read is an equal new tuple.
        assert r.operand is coeffs and r.payload == coeffs

    @pytest.mark.parametrize("coeffs", [
        list(range(TINY_N)),                     # not a tuple
        tuple(range(-1, TINY_N - 1)),            # a negative
        tuple(range(TINY_N - 1)) + (TINY_Q,),    # a value >= q
        (True, False) * (TINY_N // 2),           # bools are ints, not canonical
        tuple(range(TINY_N - 1)) + (2 * TINY_Q + 3,),
    ], ids=["list", "negative", "q", "bool", "large"])
    def test_other_inputs_reduce_exactly_as_before(self, tiny_name, coeffs):
        r = self.make(tiny_name, coeffs)
        expected = tuple(c % TINY_Q for c in coeffs)
        for reduced in (r.payload, r.operand):
            assert reduced == expected and reduced is not coeffs
            assert list(map(type, reduced)) == list(map(type, expected))

    def test_shared_operand_is_checked_once(self, tiny_name, monkeypatch):
        import repro.serve.request as request_module

        scans = []

        def counting_set(iterable):
            scans.append(1)
            return set(iterable)

        monkeypatch.setattr(request_module, "set", counting_set, raising=False)
        operand = tuple(range(TINY_N))
        checked = {}
        requests = [
            Request(request_id=i, op="polymul", params_name=tiny_name,
                    payload=tuple(range(TINY_N)), operand=operand,
                    checked_operands=checked)
            for i in range(5)
        ]
        assert all(r.operand is operand for r in requests)
        assert len(scans) == 5 + 1  # every payload, the operand once
        assert "checked_operands" not in repr(requests[0])
        # The memo skips only the canonical check: a wrong length still
        # raises, and a non-canonical operand is reduced every time.
        with pytest.raises(ParameterError, match="operand needs"):
            Request(request_id=5, op="polymul", params_name=tiny_name,
                    payload=operand, operand=operand[:-1],
                    checked_operands=checked)
        loose = [TINY_Q + c for c in operand]
        reduced = [Request(request_id=i, op="polymul", params_name=tiny_name,
                           payload=operand, operand=loose,
                           checked_operands=checked).operand
                   for i in range(2)]
        assert reduced == [operand, operand] and reduced[0] is not reduced[1]

    def test_materialized_trace_scans_no_payload(self, monkeypatch):
        """Drawn payloads are canonical by construction and recorded as
        checked; only each distinct pool operand is scanned, once."""
        import repro.serve.request as request_module
        from repro.serve.workload import poisson_trace

        scans = []

        def counting_set(iterable):
            scans.append(1)
            return set(iterable)

        monkeypatch.setattr(request_module, "set", counting_set, raising=False)
        trace = poisson_trace("mixed", 400.0, 0.05, seed=3)
        operands = {id(r.operand) for r in trace if r.operand is not None}
        assert len(trace) > len(operands) > 0
        assert len(scans) == len(operands)

    def test_numpy_ints_reduce_exactly_as_before(self, tiny_name):
        np = pytest.importorskip("numpy")
        coeffs = tuple(np.arange(TINY_N, dtype=np.int64))
        r = self.make(tiny_name, coeffs)
        expected = tuple(c % TINY_Q for c in coeffs)
        assert r.operand == expected and repr(r.operand) == repr(expected)
        assert repr(r.batch_key) == repr((tiny_name, "polymul", expected))


class TestGoldResult:
    def test_ntt(self, tiny_request):
        r = tiny_request(3)
        params = get_params(r.params_name)
        assert gold_result(r) == ntt_negacyclic(list(r.payload), params)

    def test_intt_roundtrip(self, tiny_request):
        fwd = tiny_request(4)
        params = get_params(fwd.params_name)
        back = tiny_request(5, op="intt", payload=gold_result(fwd))
        assert gold_result(back) == intt_negacyclic(
            ntt_negacyclic(list(fwd.payload), params), params
        )

    def test_polymul(self, tiny_request):
        operand = [3] + [0] * (TINY_N - 1)
        r = tiny_request(6, op="polymul", operand=operand)
        params = get_params(r.params_name)
        assert gold_result(r) == polymul_negacyclic(
            list(r.payload), operand, params
        )


class TestAdapters:
    def test_kyber(self):
        params = get_params("kyber-v1")
        a = list(range(params.n))
        b = [1] + [0] * (params.n - 1)
        r = kyber_polymul_request(a, b, request_id=9, arrival_s=0.5)
        assert (r.op, r.params_name, r.kind) == ("polymul", "kyber-v1", "kyber")
        assert r.arrival_s == 0.5
        assert gold_result(r) == [c % params.q for c in a]

    def test_dilithium(self):
        params = get_params("dilithium")
        r = dilithium_ntt_request(list(range(params.n)), request_id=2)
        assert (r.op, r.params_name, r.kind) == ("ntt", "dilithium", "dilithium")

    def test_he_pair_shares_batch_key(self):
        params = get_params("he-16bit")
        u = [1] * params.n
        v = [2] * params.n
        plain = [3] * params.n
        pair = he_multiply_plain_requests(u, v, plain, request_id=10)
        assert [r.request_id for r in pair] == [10, 11]
        assert pair[0].batch_key == pair[1].batch_key
        assert all(r.kind == "he" for r in pair)
        assert pair[0].payload != pair[1].payload


class TestHEMultiplyAdapter:
    @pytest.fixture(scope="class")
    def trail(self):
        ctx = HEContext(get_params("he-16bit"), plaintext_modulus=2,
                        rng=random.Random(5))
        key = ctx.keygen()
        rlk = ctx.relin_keygen(key)
        ct2 = ctx.encrypt(key, [1] * ctx.params.n)  # long-lived operand ct
        fresh = [ctx.encrypt(key, [i % 2 for i in range(ctx.params.n)]),
                 ctx.encrypt(key, [0] * ctx.params.n)]
        calls = [
            he_multiply_requests(ctx, ct, ct2, rlk, request_id=100 * n,
                                 arrival_s=0.25 * n)
            for n, ct in enumerate(fresh)
        ]
        return ctx, rlk, ct2, calls

    def test_constituent_product_count_and_ids(self, trail):
        _, rlk, _, calls = trail
        for n, call in enumerate(calls):
            assert len(call) == 4 + 2 * rlk.digits
            assert [r.request_id for r in call] == \
                list(range(100 * n, 100 * n + len(call)))
            assert all(r.op == "polymul" for r in call)
            assert all(r.kind == "he-mul" for r in call)
            assert all(r.arrival_s == 0.25 * n for r in call)

    def test_tensor_products_ride_the_operand_ciphertext(self, trail):
        _, _, ct2, calls = trail
        u2, v2 = tuple(ct2.u.coeffs), tuple(ct2.v.coeffs)
        call = calls[0]
        assert [r.operand for r in call[:4]] == [v2, v2, u2, u2]
        ct1_u, ct1_v = call[1].payload, call[0].payload
        assert call[2].payload == ct1_v and call[3].payload == ct1_u

    def test_relin_products_pair_digits_with_key_halves(self, trail):
        ctx, rlk, _, calls = trail
        relin = calls[0][4:]
        for i, (a_i, b_i) in enumerate(rlk.components):
            pair = relin[2 * i: 2 * i + 2]
            # Both key halves multiply the same digit payload...
            assert pair[0].payload == pair[1].payload
            assert max(pair[0].payload) < rlk.base
            # ...and the operands are the key components themselves.
            assert pair[0].operand == tuple(a_i.coeffs)
            assert pair[1].operand == tuple(b_i.coeffs)

    def test_products_coalesce_across_calls(self, trail):
        # Two calls with different fresh ciphertexts produce the same
        # multiset of batch keys: every product rides key material.
        _, _, _, calls = trail
        keys = [sorted(r.batch_key for r in call) for call in calls]
        assert keys[0] == keys[1]
        payloads = [{r.payload for r in call} for call in calls]
        assert payloads[0] != payloads[1]

    def test_params_mismatch_rejected(self, trail):
        ctx, rlk, ct2, _ = trail
        with pytest.raises(ParameterError, match="does not match"):
            he_multiply_requests(ctx, ct2, ct2, rlk, request_id=0,
                                 params_name="he-29bit")

    def test_truncated_relin_key_rejected(self, trail):
        # A key the scheme itself would reject must not silently shrink
        # the trail (the report would undercount the call's products).
        from repro.crypto.he import RelinKey

        ctx, rlk, ct2, _ = trail
        truncated = RelinKey(base=rlk.base, components=rlk.components[:-1])
        with pytest.raises(ParameterError, match="digits"):
            he_multiply_requests(ctx, ct2, ct2, truncated, request_id=0)


class TestResponse:
    def test_timing_breakdown(self, tiny_request):
        r = tiny_request(0, arrival_s=1.0)
        resp = Response(request=r, result=r.payload, start_s=1.25, finish_s=1.5,
                        energy_nj=2.0, engine_index=0, batch_size=2,
                        batch_padding=2)
        assert resp.queue_s == pytest.approx(0.25)
        assert resp.service_s == pytest.approx(0.25)
        assert resp.latency_s == pytest.approx(0.5)
        assert type(resp.result) is tuple and resp.result == r.payload

    def test_a_result_slot_reads_through(self, tiny_request):
        r = tiny_request(0)
        payload = r.payload
        resp = Response(request=r, result=ResultSlot([(1,), payload], 1),
                        start_s=0.0, finish_s=1.0, energy_nj=1.0,
                        engine_index=0, batch_size=1, batch_padding=0)
        assert resp.result is payload
