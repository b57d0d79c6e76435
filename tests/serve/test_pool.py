"""Engine pool: lazy caching, pricing, and model/SRAM equivalence."""

import random

import pytest

import repro.core.engine as engine_module
import repro.core.pricing as pricing
from repro.backends import base as backends_base
from repro.core.butterfly import (
    emit_coefficient_scale,
    emit_ct_butterfly,
    emit_gs_butterfly,
)
from repro.core.scheduler import inverse_scales, pointwise_scales
from repro.errors import ParameterError
from repro.ntt.params import get_params
from repro.serve import EnginePool, PoolConfig, ServingSimulator
from repro.serve.batcher import PolyBatch
from repro.serve.request import gold_result
from repro.sram.executor import profile_program
from repro.sram.program import Program

TINY_N = 16
TINY_Q = 97


def make_batch(tiny_request, ids, **kwargs):
    requests = [tiny_request(i, **kwargs) for i in ids]
    batch = PolyBatch(key=requests[0].batch_key, capacity=4)
    for r in requests:
        batch.add(r)
    return batch


class TestConstruction:
    def test_bad_config_rejected(self):
        with pytest.raises(ParameterError):
            PoolConfig(size=0)
        with pytest.raises(ParameterError):
            PoolConfig(subarrays=0)

    def test_lanes_lazy_and_cached(self, tiny_pool, tiny_name):
        assert not tiny_pool._lanes
        lanes = tiny_pool.backend_lanes("sram", tiny_name)
        assert len(lanes) == 2
        assert tiny_pool.backend_lanes("sram", tiny_name) is lanes
        assert lanes[0] is not lanes[1]

    def test_lanes_share_the_template_program_store(self, tiny_pool, tiny_name):
        template = tiny_pool.template(tiny_name)
        for lane in tiny_pool.backend_lanes("sram", tiny_name):
            assert lane is not template  # each lane owns its subarrays
            assert lane._programs is template._programs
            assert lane._kernels is template._kernels
            assert lane._prices is template._prices

    def test_capacity(self, tiny_pool, tiny_request):
        assert tiny_pool.capacity(tiny_request(0).batch_key) == 4


class TestProfiles:
    def test_profile_cached(self, tiny_pool, tiny_request):
        key = tiny_request(0).batch_key
        assert tiny_pool.profile(key) is tiny_pool.profile(key)

    def test_profile_matches_executed_run(self, tiny_pool, tiny_request):
        """Static pricing is cycle- and energy-identical to execution."""
        key = tiny_request(0).batch_key
        profile = tiny_pool.profile(key)
        engine = tiny_pool.template(key[0])
        engine.load([list(tiny_request(0).payload)])
        stats = engine._execute(engine.compiled_program("ntt"))
        assert profile.cycles == stats.cycles
        assert profile.energy_nj == pytest.approx(stats.energy_nj)
        assert profile.latency_s == pytest.approx(stats.latency_s(engine.tech))

    def test_profile_program_equals_executor_stats(self, tiny_pool, tiny_request):
        """profile_program reproduces the executor's stats field-for-field."""
        engine = tiny_pool.template(tiny_request(0).params_name)
        program = engine.compiled_program("intt")
        static = profile_program(program, engine.tech)
        engine.load([list(tiny_request(1).payload)])
        executed = engine._execute(program)
        assert static == executed

    def test_polymul_profile_sums_three_kernels(self, tiny_pool, tiny_request):
        operand = tuple([2] + [0] * (TINY_N - 1))
        r = tiny_request(0, op="polymul", operand=operand)
        poly = tiny_pool.profile(r.batch_key)
        ntt = tiny_pool.profile((r.params_name, "ntt", None))
        intt = tiny_pool.profile((r.params_name, "intt", None))
        assert poly.cycles > ntt.cycles + intt.cycles

    def test_pointwise_program_cache(self, tiny_pool, tiny_request):
        engine = tiny_pool.template(tiny_request(0).params_name)
        hat = [3] * TINY_N
        assert engine.pointwise_program(hat) is engine.pointwise_program(list(hat))


class TestPricingWork:
    """``sram`` prices each compiled program once per pool; ``model``
    compiles nothing and records each distinct schedule piece once per
    pool."""

    #: The perfbench ``cluster-64`` set-up shape: 64 chips x 4 operand
    #: keys on the 16-point ring, plus the operand-less ntt key.
    CHIPS, KEYS_PER_CHIP = 64, 4

    def keys(self, tiny_request):
        rng = random.Random(2023)
        return [tiny_request(0).batch_key] + [
            tiny_request(i, op="polymul", operand=[
                rng.randrange(TINY_Q) for _ in range(TINY_N)]).batch_key
            for i in range(self.CHIPS * self.KEYS_PER_CHIP)]

    def set_up(self, tiny_request, backend="sram"):
        """A fresh pool with every batch key priced; the profile_program
        calls, and the programs compiled."""
        pool = EnginePool(PoolConfig(size=2, rows=32, cols=32))
        priced, built = [], []

        def counting(program, tech):
            priced.append(program)
            return profile_program(program, tech)

        def compiling(compile_program):
            def compiled(*args):
                built.append(compile_program(*args))
                return built[-1]
            return compiled

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backends_base, "profile_program", counting)
            for name in ("compile_ntt", "compile_intt", "compile_pointwise_mul"):
                patch.setattr(engine_module, name,
                              compiling(getattr(engine_module, name)))
            for key in self.keys(tiny_request):
                pool.profile(key, backend=backend)
        return pool, priced, built

    def test_set_up_prices_each_distinct_program_once(self, tiny_request):
        pool, priced, built = self.set_up(tiny_request)
        # ntt and intt are shared by every polymul kernel; each operand
        # key adds one pointwise program (1 + 3 * 256 = 769 calls if each
        # kernel priced its programs afresh).
        assert len({id(program) for program in priced}) == len(priced) == 2 + 256
        engine = pool.template(tiny_request(0).params_name)
        assert {id(program) for program in priced} == {
            id(program) for program in engine._programs.values()} == {
            id(program) for program in built}

    def test_a_fresh_pool_prices_cold_again(self, tiny_request):
        _, priced, _ = self.set_up(tiny_request)
        _, again, _ = self.set_up(tiny_request)
        assert len(again) == len(priced) == 258
        assert not {id(p) for p in again} & {id(p) for p in priced}

    @staticmethod
    def instructions(pool, tiny_request):
        """Every instruction slot of the template engine's programs."""
        engine = pool.template(tiny_request(0).params_name)
        return [i for program in engine._programs.values() for i in program.instructions]

    def test_set_up_builds_each_distinct_instruction_once(self, tiny_request):
        pool, _, _ = self.set_up(tiny_request)
        built = self.instructions(pool, tiny_request)
        # The 258 programs share one object per distinct instruction
        # value (109,242 objects if every emitter call built its own).
        assert len({id(i) for i in built}) == len(set(built)) == 230

    def test_a_fresh_pool_interns_cold_again(self, tiny_request):
        first, _, _ = self.set_up(tiny_request)
        second, _, _ = self.set_up(tiny_request)
        built = self.instructions(first, tiny_request)
        again = self.instructions(second, tiny_request)
        assert len(built) == 482780 and again == built
        assert not {id(i) for i in again} & {id(i) for i in built}

    def recorded(self, tiny_request, monkeypatch):
        """A fresh ``model`` set-up; the pieces its pricer recorded, by kind."""
        pieces = {"modmul": [], "split": []}
        modmul, split = pricing.emit_modmul, pricing.SchedulePricer._split
        monkeypatch.setattr(pricing, "emit_modmul", lambda sink, layout, twiddle, row: (
            pieces["modmul"].append(twiddle), modmul(sink, layout, twiddle, row)))
        monkeypatch.setattr(pricing.SchedulePricer, "_split", lambda self, key, *a: (
            pieces["split"].append(key), split(self, key, *a))[1])
        pool, priced, built = self.set_up(tiny_request, backend="model")
        assert priced == built == []
        return pool, pieces

    def test_model_set_up_records_each_distinct_piece_once(self, tiny_request,
                                                           monkeypatch):
        pool, pieces = self.recorded(tiny_request, monkeypatch)
        engine = pool.template(tiny_request(0).params_name)
        params, table = engine.params, engine.twiddle_table
        # Every multiplier the programs would hold: the forward and
        # inverse twiddles, n^-1, and each operand's pointwise scales.
        multipliers = {*table.forward_scaled(engine.width)[1:],
                       *table.inverse_scaled(engine.width)[1:],
                       *inverse_scales(engine.layout, params)}
        for key in self.keys(tiny_request)[1:]:
            hat = pool.backend_lanes("model", key[0])[0].compile(*key[1:]).operand_hat
            multipliers.update(pointwise_scales(engine.layout, params, hat))
        assert len(set(pieces["modmul"])) == len(pieces["modmul"])
        assert set(pieces["modmul"]) == multipliers
        # A resident ring: one CT, one scale and one GS piece, at tile
        # offset 0, in the order ntt, pointwise and intt first need them.
        assert pieces["split"] == [(emit_ct_butterfly, 0, 0),
                                   (emit_coefficient_scale, 0),
                                   (emit_gs_butterfly, 0, 0)]

    def test_a_fresh_model_pool_records_cold_again(self, tiny_request,
                                                   monkeypatch):
        _, pieces = self.recorded(tiny_request, monkeypatch)
        first = {kind: list(recorded) for kind, recorded in pieces.items()}
        for recorded in pieces.values():
            recorded.clear()
        self.set_up(tiny_request, backend="model")
        assert pieces == first and first["modmul"]

    def test_a_model_replay_compiles_no_program(self, tiny_request,
                                                monkeypatch):
        built = []
        for name in ("compile_ntt", "compile_intt", "compile_pointwise_mul"):
            monkeypatch.setattr(engine_module, name,
                                lambda *args, name=name: built.append(name))
        operand = [3] + [0] * (TINY_N - 1)
        trace = [tiny_request(i, op=op, arrival_s=i * 1e-4,
                              operand=operand if op == "polymul" else None)
                 for i, op in enumerate(["ntt", "intt", "polymul"] * 3)]
        pool = EnginePool(PoolConfig(size=2, rows=32, cols=32))
        report = ServingSimulator(pool, backend="model").replay(trace)
        assert [list(r.result) for r in report.responses] == [
            gold_result(r.request) for r in report.responses]
        assert report.count == len(trace) and built == []


class TestBlockPrograms:
    """Set-up and replays work on the programs' blocks, never a flat list."""

    @pytest.fixture
    def flat_views(self, monkeypatch):
        """Every program whose flat ``instructions`` view was read."""
        read = []
        view = Program.instructions
        monkeypatch.setattr(Program, "instructions", property(
            lambda program: read.append(program) or view.fget(program)))
        return read

    def test_set_up_prices_from_blocks(self, tiny_request, flat_views):
        pool, priced, _ = TestPricingWork().set_up(tiny_request)
        assert len(priced) == 258 and flat_views == []
        programs = pool.template(tiny_request(0).params_name)._programs.values()
        blocks = [block for program in programs for block in program.blocks]
        # 482,780 instructions in 63,562 block references (one per
        # emitter call or twiddle bit) to 176 distinct block objects.
        assert sum(map(len, blocks)) == sum(map(len, programs)) == 482780
        assert len(blocks) == 63562
        assert len({id(block) for block in blocks}) == 176

    @pytest.mark.parametrize("backend", ["model", "sram"])
    def test_replays_read_no_flat_view(self, tiny_pool, tiny_request,
                                       flat_views, backend):
        rng = random.Random(7)
        operand = [rng.randrange(TINY_Q) for _ in range(TINY_N)]
        trace = [tiny_request(i, arrival_s=i * 1e-4) for i in range(3)] + [
            tiny_request(i, op="polymul", operand=operand, arrival_s=i * 1e-4)
            for i in range(3, 6)]
        report = ServingSimulator(tiny_pool, backend=backend).replay(trace)
        assert flat_views == []
        assert [list(r.result) for r in report.responses] == [
            gold_result(r.request) for r in report.responses]

    def test_flat_view_is_built_once(self, tiny_pool, tiny_request):
        program = tiny_pool.template(tiny_request(0).params_name) \
            .compiled_program("ntt")
        assert program.instructions is program.instructions
        assert list(program) == list(program.instructions)
        assert len(program.instructions) == len(program)


class TestServe:
    def test_model_and_sram_agree_with_gold(self, tiny_pool, tiny_request):
        batch = make_batch(tiny_request, [0, 1, 2])
        model_results, model_profile, _ = tiny_pool.serve(batch, backend="model", lane=0)
        sram_results, sram_profile, _ = tiny_pool.serve(batch, backend="sram", lane=0)
        assert model_results == sram_results
        assert model_profile == sram_profile
        for request, result in zip(batch.requests, model_results):
            assert list(result) == gold_result(request)

    def test_sram_polymul_matches_gold(self, tiny_pool, tiny_request):
        operand = [5] + [0] * (TINY_N - 1)
        batch = make_batch(tiny_request, [0, 1], op="polymul", operand=operand)
        results, _, _ = tiny_pool.serve(batch, backend="sram", lane=0)
        for request, result in zip(batch.requests, results):
            assert list(result) == gold_result(request)

    def test_sram_trims_padding(self, tiny_pool, tiny_request):
        batch = make_batch(tiny_request, [0])  # capacity 4, one live request
        results, _, _ = tiny_pool.serve(batch, backend="sram", lane=0)
        assert len(results) == 1

    def test_unknown_backend_rejected(self, tiny_pool, tiny_request):
        batch = make_batch(tiny_request, [0])
        with pytest.raises(ParameterError, match="unknown backend"):
            tiny_pool.serve(batch, backend="hardware", lane=0)

    def test_removed_mode_keyword_rejected(self, tiny_pool, tiny_request):
        batch = make_batch(tiny_request, [0])
        with pytest.raises(TypeError):
            tiny_pool.serve(batch, mode="hardware", lane=0)

    def test_oversized_batch_rejected(self, tiny_pool, tiny_request):
        batch = PolyBatch(key=tiny_request(0).batch_key, capacity=99)
        for i in range(5):
            batch.add(tiny_request(i))
        with pytest.raises(ParameterError, match="exceeds invocation capacity"):
            tiny_pool.serve(batch, backend="model", lane=0)

    def test_bad_lane_rejected(self, tiny_pool, tiny_request):
        batch = make_batch(tiny_request, [0])
        with pytest.raises(ParameterError, match="lane"):
            tiny_pool.serve(batch, backend="model", lane=7)


class TestModeRemoved:
    """The mode= alias finished its deprecation window and is gone."""

    def test_serve_mode_raises_type_error(self, tiny_pool, tiny_request):
        batch = make_batch(tiny_request, [0])
        with pytest.raises(TypeError):
            tiny_pool.serve(batch, mode="model", lane=0)

    def test_serve_mode_rejected_even_with_backend(self, tiny_pool,
                                                   tiny_request):
        # No silent precedence rules: mixing the removed keyword with
        # backend= is an error, not a tie-break.
        batch = make_batch(tiny_request, [0])
        with pytest.raises(TypeError):
            tiny_pool.serve(batch, backend="model", mode="sram", lane=0)

    def test_serve_backend_alone_is_silent(self, tiny_pool, tiny_request,
                                           recwarn):
        batch = make_batch(tiny_request, [0])
        tiny_pool.serve(batch, backend="model", lane=0)
        assert not [w for w in recwarn if w.category is DeprecationWarning]


class TestBankedLanes:
    def test_banked_capacity_and_results(self, tiny_name, tiny_request):
        pool = EnginePool(PoolConfig(size=1, subarrays=2, rows=32, cols=32))
        key = tiny_request(0).batch_key
        assert pool.capacity(key) == 8  # 2 subarrays x batch 4
        batch = PolyBatch(key=key, capacity=8)
        for i in range(6):
            batch.add(tiny_request(i))
        results, profile, _ = pool.serve(batch, backend="sram", lane=0)
        assert len(results) == 6
        for request, result in zip(batch.requests, results):
            assert list(result) == gold_result(request)
        # Energy doubles with ganged subarrays, latency does not.
        single = EnginePool(PoolConfig(size=1, rows=32, cols=32))
        sp = single.profile(key)
        assert profile.energy_nj == pytest.approx(2 * sp.energy_nj)
        assert profile.latency_s == pytest.approx(sp.latency_s)

    def test_sram_builds_each_program_once_per_pool(self, tiny_name, tiny_request,
                                                    monkeypatch):
        built = []

        def counting(build):
            def wrapped(*args, **kwargs):
                built.append(build.__name__)
                return build(*args, **kwargs)
            return wrapped

        for name in ("compile_ntt", "compile_intt", "compile_pointwise_mul"):
            monkeypatch.setattr(engine_module, name,
                                counting(getattr(engine_module, name)))
        pool = EnginePool(PoolConfig(size=2, subarrays=3, rows=32, cols=32))
        operand = [3] + [0] * (TINY_N - 1)
        for op, kwargs in (("ntt", {}), ("intt", {}),
                           ("polymul", {"operand": operand})):
            batch = make_batch(tiny_request, [0, 1], op=op, **kwargs)
            for lane in range(pool.lane_count):
                results, _, _ = pool.serve(batch, backend="sram", lane=lane)
                for request, result in zip(batch.requests, results):
                    assert list(result) == gold_result(request)
        # Six lane subarrays, one CTRL/CMD program store.
        assert sorted(built) == ["compile_intt", "compile_ntt",
                                 "compile_pointwise_mul"]

    @pytest.mark.parametrize("subarrays, energy_nj", [
        (1, 144.96246399995977),
        (2, 289.92492799991953),
        (3, 434.88739199987924),
    ])
    def test_sram_price_is_pinned(self, subarrays, energy_nj):
        params = get_params("kyber-v1")
        rng = random.Random(3)
        operand = tuple(rng.randrange(params.q) for _ in range(params.n))
        pool = EnginePool(PoolConfig(size=2, subarrays=subarrays))
        profile = pool.profile(("kyber-v1", "polymul", operand), backend="sram")
        assert profile.cycles == 642188
        assert profile.energy_nj == energy_nj
        assert profile.latency_s == 0.00016899684210526316
        assert profile.capacity == 9 * subarrays
