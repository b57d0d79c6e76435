"""Ganged multi-subarray engine tests (one BPNTTEngine, several subarrays)."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import BPNTTEngine, subarrays_needed
from repro.errors import CapacityError, ParameterError
from repro.ntt.params import NTTParams
from repro.ntt.transform import intt_negacyclic, ntt_negacyclic, polymul_negacyclic
from repro.sram.energy import TECH_45NM

SMALL = NTTParams(n=8, q=17)


def make_bank(subarrays=3):
    return BPNTTEngine(SMALL, width=8, rows=32, cols=32, subarrays=subarrays)


class TestCapacity:
    def test_three_data_subarrays(self):
        bank = make_bank()
        assert len(bank.gang) == bank.subarrays == 3
        assert bank.batch == 3 * bank.per_subarray_batch

    def test_area_charges_ctrl_subarray(self):
        bank = make_bank()
        single = bank.tech.subarray_area_mm2(32, 32)
        assert bank.area_mm2 == pytest.approx(4 * single)
        # A bare subarray has no CTRL/CMD subarray to share.
        assert make_bank(1).area_mm2 == single

    def test_subarrays_needed(self):
        assert subarrays_needed(100, 8) == 13
        assert subarrays_needed(8, 8) == 1
        with pytest.raises(ParameterError):
            subarrays_needed(0, 8)

    def test_gang_width_validated(self):
        with pytest.raises(ParameterError):
            make_bank(0)


class TestExecution:
    def test_full_bank_matches_gold(self):
        bank = make_bank()
        rng = random.Random(1)
        polys = [
            [rng.randrange(17) for _ in range(8)] for _ in range(bank.batch)
        ]
        bank.load(polys)
        report = bank.ntt()
        assert bank.results() == [ntt_negacyclic(p, SMALL) for p in polys]
        assert report.batch == bank.batch

    def test_roundtrip(self):
        bank = make_bank()
        rng = random.Random(2)
        polys = [
            [rng.randrange(17) for _ in range(8)] for _ in range(bank.batch)
        ]
        bank.load(polys)
        bank.ntt()
        bank.intt()
        assert bank.results() == polys

    def test_partial_load_zero_fills(self):
        bank = make_bank()
        polys = [[1] * 8]
        bank.load(polys)
        bank.ntt()
        results = bank.results()
        assert results[0] == ntt_negacyclic([1] * 8, SMALL)
        assert results[1:] == [[0] * 8] * (bank.batch - 1)

    def test_slots_fill_subarrays_in_order(self):
        bank = make_bank()
        per = bank.per_subarray_batch
        bank.load([[slot] * 8 for slot in range(per + 1)])
        # Slot `per` is the first polynomial of the second subarray.
        second = bank.gang[1].subarray
        row = bank.layout.locate(0).row
        assert second.read_word(row, bank.layout.tile_of(0, 0)) == per
        assert bank.gang[2].subarray.read_word(row, bank.layout.tile_of(0, 0)) == 0

    def test_overload_rejected(self):
        bank = make_bank()
        with pytest.raises(CapacityError):
            bank.load([[0] * 8] * (bank.batch + 1))

    def test_execute_runs_only_the_subarrays_holding_payloads(self):
        bank = make_bank(3)
        kernel = bank.compile("ntt")
        price = bank.profile(kernel)
        payload = [3, 1, 4, 1, 5, 9, 2, 6]
        assert bank.execute(kernel, [payload]) == [ntt_negacyclic(payload, SMALL)]
        assert bank.gang[0].stats.instructions == len(kernel.programs[0])
        assert bank.gang[1].stats.instructions == bank.gang[2].stats.instructions == 0
        assert bank.profile(kernel) == price
        assert price == make_bank(1).profile(kernel).replicate(3)


class TestScaling:
    def test_latency_flat_energy_scales(self):
        """Throughput scales with subarrays at constant latency."""
        bank = make_bank()
        rng = random.Random(3)
        polys = [
            [rng.randrange(17) for _ in range(8)] for _ in range(bank.batch)
        ]
        bank.load(polys)
        bank_report = bank.ntt()

        single = make_bank(1)
        single.load(polys[: single.batch])
        single_report = single.ntt()
        assert bank_report.cycles == single_report.cycles  # same program
        assert bank_report.energy_nj == pytest.approx(3 * single_report.energy_nj)
        assert bank_report.throughput_kntt_per_s == pytest.approx(
            3 * (bank.per_subarray_batch / bank_report.latency_s / 1e3)
        )
        # Every subarray ran the program once.
        assert [e.stats.cycles for e in bank.gang] == [single_report.cycles] * 3

    def test_tp_invariant_under_ganging(self):
        # Energy and batch scale together: KNTT/mJ unchanged.
        bank = make_bank()
        bank.load([[5] * 8] * bank.batch)
        bank_report = bank.ntt()
        per_tp = bank.per_subarray_batch / (bank_report.energy_nj / 3 * 1e-6) / 1e3
        assert bank_report.throughput_per_power == pytest.approx(per_tp)


class TestTemplate:
    def test_template_shares_the_program_store(self):
        template = make_bank(1)
        bank = BPNTTEngine(SMALL, width=8, rows=32, cols=32, subarrays=3,
                           template=template)
        assert bank.layout is template.layout
        assert bank.compile("ntt") is template.compile("ntt")
        assert bank.compiled_program("intt") is template._programs["intt"]

    @pytest.mark.parametrize("change", [
        {"rows": 16},
        {"cols": 64},
        {"width": 9},
        {"params": NTTParams(n=8, q=97)},
        {"tech": TECH_45NM.scale_to(22)},
    ])
    def test_geometry_mismatch_raises(self, change):
        template = make_bank(1)
        kwargs = {"params": SMALL, "width": 8, "rows": 32, "cols": 32,
                  "subarrays": 2, **change}
        params = kwargs.pop("params")
        with pytest.raises(ParameterError, match="template"):
            BPNTTEngine(params, template=template, **kwargs)


#: Tiny rings as (params, width, rows, cols); 16 rows spill the 16-point ring.
GEOMETRIES = [
    (SMALL, 8, 32, 32),
    (NTTParams(n=16, q=97), 8, 32, 32),
    (NTTParams(n=16, q=97), 8, 16, 32),
]


@lru_cache(maxsize=None)
def single_engine(geometry):
    params, width, rows, cols = GEOMETRIES[geometry]
    return BPNTTEngine(params, width=width, rows=rows, cols=cols)


@lru_cache(maxsize=None)
def gang_engine(geometry, subarrays):
    """A gang over its own template, compiled apart from single_engine."""
    params, width, rows, cols = GEOMETRIES[geometry]
    template = BPNTTEngine(params, width=width, rows=rows, cols=cols)
    return BPNTTEngine(params, width=width, rows=rows, cols=cols,
                       subarrays=subarrays, template=template)


def gold(op, payload, operand, params):
    if op == "ntt":
        return ntt_negacyclic(payload, params)
    if op == "intt":
        return intt_negacyclic(payload, params)
    return polymul_negacyclic(payload, operand, params)


class TestGangProperty:
    @settings(max_examples=30, deadline=None)
    @given(geometry=st.integers(0, len(GEOMETRIES) - 1),
           subarrays=st.integers(1, 4),
           op=st.sampled_from(("ntt", "intt", "polymul")),
           data=st.data())
    def test_gang_equals_gold_and_single_engine(self, geometry, subarrays, op,
                                                data):
        single = single_engine(geometry)
        gang = gang_engine(geometry, subarrays)
        params = single.params
        assert gang.per_subarray_batch == single.batch
        count = data.draw(st.integers(1, gang.batch), label="payloads")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        operand = ([rng.randrange(params.q) for _ in range(params.n)]
                   if op == "polymul" else None)
        payloads = [[rng.randrange(params.q) for _ in range(params.n)]
                    for _ in range(count)]

        kernel = gang.compile(op, operand)
        results = gang.execute(kernel, payloads)
        assert results == [gold(op, p, operand, params) for p in payloads]
        reference = single.compile(op, operand)
        per = single.batch
        concatenated = []
        for start in range(0, count, per):
            concatenated += single.execute(reference, payloads[start:start + per])
        assert results == concatenated
        assert gang.profile(kernel) == single.profile(reference).replicate(subarrays)
