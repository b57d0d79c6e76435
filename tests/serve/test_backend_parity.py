"""Backend parity: every registered backend returns identical results
and byte-identical cycle/energy reports for the conftest parameter set,
standalone and through the serving pool."""

import pytest

from repro.backends import available_backends, create_backend, register_backend, unregister_backend
from repro.backends.model import ModelBackend
from repro.ntt.params import get_params
from repro.serve.batcher import PolyBatch
from repro.serve.request import gold_result

TINY_N = 16
TINY_Q = 97
OPS = ("ntt", "intt", "polymul")


def _operand(op):
    return [3] + [0] * (TINY_N - 1) if op == "polymul" else None


def make_batch(tiny_request, ids, op):
    operand = _operand(op)
    requests = [tiny_request(i, op=op, operand=operand) for i in ids]
    batch = PolyBatch(key=requests[0].batch_key, capacity=4)
    for r in requests:
        batch.add(r)
    return batch


@pytest.mark.parametrize("op", OPS)
class TestStandaloneParity:
    """Backends built straight from the registry agree with each other."""

    def test_results_identical_across_backends(self, tiny_name, op):
        params = get_params(tiny_name)
        payloads = [[(7 * i + j) % TINY_Q for j in range(TINY_N)] for i in range(4)]
        results = {}
        for name in available_backends():
            backend = create_backend(name, params, rows=32, cols=32)
            kernel = backend.compile(op, _operand(op))
            results[name] = [list(r) for r in backend.execute(kernel, payloads)]
        reference = results.pop("sram")
        for name, got in results.items():
            assert got == reference, f"{name} disagrees with sram on {op}"

    def test_cost_reports_byte_identical(self, tiny_name, op):
        params = get_params(tiny_name)
        costs = {}
        for name in available_backends():
            backend = create_backend(name, params, rows=32, cols=32)
            costs[name] = backend.profile(backend.compile(op, _operand(op)))
        reference = costs.pop("sram")
        assert reference.cycles > 0 and reference.energy_pj > 0
        for name, cost in costs.items():
            # Dataclass equality covers every field: cycles, energy,
            # latency, instructions, shifts, section attribution.
            assert cost == reference, f"{name} prices {op} differently"


@pytest.mark.parametrize("op", OPS)
class TestPoolParity:
    """The pool serves identical gold results under every backend name."""

    def test_pool_results_and_profile_identity(self, tiny_pool, tiny_request, op):
        outputs = {}
        profiles = {}
        for name in available_backends():
            batch = make_batch(tiny_request, [0, 1, 2], op)
            results, profile, _ = tiny_pool.serve(batch, backend=name, lane=0)
            outputs[name] = [list(r) for r in results]
            profiles[name] = profile
            for request, result in zip(batch.requests, results):
                assert list(result) == gold_result(request)
        reference = outputs.pop("sram")
        for name, got in outputs.items():
            assert got == reference
        # The built-in backends price identically.
        assert len(set(profiles.values())) == 1


class TestDerivedModes:
    def test_registered_backend_appears_in_modes_and_serves(
            self, tiny_pool, tiny_request):
        class EchoBackend(ModelBackend):
            name = "echo-parity"
            description = "test double"

        register_backend("echo-parity", EchoBackend)
        try:
            assert "echo-parity" in available_backends()
            batch = make_batch(tiny_request, [0, 1], "ntt")
            results, profile, _ = tiny_pool.serve(batch, backend="echo-parity",
                                                  lane=0)
            for request, result in zip(batch.requests, results):
                assert list(result) == gold_result(request)
            assert profile.cycles > 0
        finally:
            unregister_backend("echo-parity")

    def test_removed_mode_keyword_rejected_everywhere(self, tiny_pool,
                                                      tiny_request):
        from repro.serve import BatchPolicy, ServingSimulator

        batch = make_batch(tiny_request, [0, 1], "ntt")
        with pytest.raises(TypeError):
            tiny_pool.serve(batch, mode="sram", lane=0)
        with pytest.raises(TypeError):
            ServingSimulator(tiny_pool, BatchPolicy(), mode="sram")


class TestThirdPartyBackendSafety:
    """A registered backend with its own cost model or a smaller batch
    must not inherit another backend's numbers or overflow."""

    def test_divergent_cost_backend_gets_own_profile(self, tiny_pool, tiny_request):
        from dataclasses import replace

        class PriceyBackend(ModelBackend):
            name = "pricey-test"
            description = "doubles the energy bill"

            def profile(self, kernel):
                cost = super().profile(kernel)
                return replace(cost, energy_pj=cost.energy_pj * 2)

        register_backend("pricey-test", PriceyBackend)
        try:
            batch = make_batch(tiny_request, [0, 1], "ntt")
            _, model_profile, _ = tiny_pool.serve(batch, backend="model", lane=0)
            _, pricey_profile, _ = tiny_pool.serve(batch, backend="pricey-test", lane=0)
            assert pricey_profile.energy_nj == pytest.approx(
                2 * model_profile.energy_nj
            )
            assert pricey_profile != model_profile
            _, sram_profile, _ = tiny_pool.serve(batch, backend="sram", lane=0)
            assert sram_profile == model_profile
        finally:
            unregister_backend("pricey-test")

    def test_small_capacity_backend_batched_to_its_size(
            self, tiny_pool, tiny_request):
        from repro.backends import BackendCapabilities
        from repro.errors import ParameterError
        from repro.serve import BatchPolicy, ServingSimulator

        class NarrowBackend(ModelBackend):
            name = "narrow-test"
            description = "one polynomial per invocation"

            def capabilities(self):
                caps = super().capabilities()
                return BackendCapabilities(
                    name=caps.name, description=caps.description,
                    batch=1, stateful=False,
                )

        register_backend("narrow-test", NarrowBackend)
        try:
            # The pool caps planning capacity to the backend's word ...
            key = tiny_request(0).batch_key
            assert tiny_pool.capacity(key, backend="narrow-test") == 1
            assert tiny_pool.capacity(key) == 4  # template geometry
            # ... so the simulator serves a multi-request trace in
            # single-request invocations instead of overflowing.
            simulator = ServingSimulator(tiny_pool, BatchPolicy(max_wait_s=1e-3),
                                         backend="narrow-test")
            report = simulator.replay([tiny_request(i) for i in range(3)])
            assert report.count == 3
            assert all(b.size == 1 for b in report.batches)
            for response in report.responses:
                assert list(response.result) == gold_result(response.request)
            # A hand-built oversized batch is still rejected loudly.
            batch = make_batch(tiny_request, [0, 1], "ntt")
            with pytest.raises(ParameterError, match="exceeds"):
                tiny_pool.serve(batch, backend="narrow-test", lane=0)
        finally:
            unregister_backend("narrow-test")

    def test_unsupported_op_rejected(self, tiny_pool, tiny_request):
        from repro.backends import BackendCapabilities
        from repro.errors import ParameterError

        class ForwardOnlyBackend(ModelBackend):
            name = "fwd-test"
            description = "forward NTT only"

            def capabilities(self):
                caps = super().capabilities()
                return BackendCapabilities(
                    name=caps.name, description=caps.description,
                    batch=caps.batch, stateful=False, ops=("ntt",),
                )

        register_backend("fwd-test", ForwardOnlyBackend)
        try:
            ntt_batch = make_batch(tiny_request, [0], "ntt")
            results, _, _ = tiny_pool.serve(ntt_batch, backend="fwd-test", lane=0)
            assert list(results[0]) == gold_result(ntt_batch.requests[0])
            intt_batch = make_batch(tiny_request, [0], "intt")
            with pytest.raises(ParameterError, match="does not support op"):
                tiny_pool.serve(intt_batch, backend="fwd-test", lane=0)
        finally:
            unregister_backend("fwd-test")


class TestModelBackendEdges:
    def test_model_empty_batch_on_the_batched_path(self):
        pytest.importorskip("numpy")
        from repro.backends.model import BATCH_MIN_N
        from repro.ntt.params import NTTParams
        from repro.utils.primes import find_ntt_prime

        params = NTTParams(n=BATCH_MIN_N, q=find_ntt_prime(14, BATCH_MIN_N))
        backend = create_backend("model", params)
        assert backend.batched
        kernel = backend.compile("ntt")
        assert backend.execute(kernel, []) == []
