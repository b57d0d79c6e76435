"""Exact program stats of every registered parameter set, pinned.

For the ``ntt`` and ``intt`` program of each set in
:data:`~repro.ntt.params.STANDARD_PARAMS` (compiled by a default
:class:`~repro.core.engine.BPNTTEngine`), the golden holds the
instruction count, ``cycles``, ``repr(energy_pj)``, ``op_counts`` and
``section_cycles`` in key order, and ``shift_count`` of
``profile_program`` under the default technology.  The energy is a
left-to-right float fold over the program, so any change to the fold
order (``sum()`` is compensated from Python 3.12, ``math.fsum`` is
exact) shows up here as a changed ``repr``.  The same programs' sizes
are held to the closed forms of the compiler: one ``modmul`` section
per butterfly (plus one per coefficient for the inverse's ``n^-1``
scaling), each ``modmul_instruction_count`` long.

The schedule pricer (:class:`~repro.core.pricing.SchedulePricer`),
which builds no program, reproduces the same pinned stats.

Small programs pin the flat views: the full ``disassemble`` listing
and the ``check_program`` findings of a tiny resident and a tiny spill
ring.

Regenerate (only for a change that is meant to move simulated
numbers) with ``PYTHONPATH=src python tests/core/test_program_golden.py``.
"""

import hashlib
import json
import pathlib

import pytest

from repro.check import check_program
from repro.core.engine import BPNTTEngine
from repro.core.modmul import modmul_instruction_count
from repro.core.pricing import SchedulePricer
from repro.core.scheduler import butterfly_count
from repro.ntt.params import STANDARD_PARAMS, NTTParams
from repro.sram.executor import profile_program
from repro.sram.tracer import disassemble

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "program_stats.json"

#: (label, ring, rows, cols): one ring held in one tile, one spilled.
TINY = (
    ("resident", NTTParams(n=16, q=97), 64, 128),
    ("spill", NTTParams(n=16, q=97), 12, 64),
)
#: Above safe_modulus_bound(8) = 127: every width-1 chain is PROG008.
UNSAFE_Q = 251


def _engine(params, rows=256, cols=256):
    return BPNTTEngine(params, rows=rows, cols=cols)


def program_stats(program):
    return stats_fields(profile_program(program))


def stats_fields(stats):
    return {
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "energy_pj": repr(stats.energy_pj),
        "op_counts": [list(item) for item in stats.op_counts.items()],
        "shift_count": stats.shift_count,
        "section_cycles": [list(item) for item in stats.section_cycles.items()],
    }


def flat_views(label, params, rows, cols):
    engine = _engine(params, rows, cols)
    layout = engine.layout
    views = {}
    for op in ("ntt", "intt"):
        program = engine.compiled_program(op)
        listing = disassemble(program)
        findings = check_program(program, rows=layout.rows, width=engine.width,
                                 num_tiles=layout.num_tiles, modulus=UNSAFE_Q)
        views[f"{label}/{op}"] = {
            "disassemble_sha256": hashlib.sha256(listing.encode()).hexdigest(),
            "disassemble_head": disassemble(program, limit=12),
            "findings": len(findings),
            "findings_sha256": hashlib.sha256(
                "\n".join(map(repr, findings)).encode()).hexdigest(),
        }
    return views


def generate():
    golden = {"programs": {}, "flat_views": {}}
    for name in sorted(STANDARD_PARAMS):
        engine = _engine(STANDARD_PARAMS[name])
        for op in ("ntt", "intt"):
            golden["programs"][f"{name}/{op}"] = program_stats(
                engine.compiled_program(op))
    for label, params, rows, cols in TINY:
        golden["flat_views"].update(flat_views(label, params, rows, cols))
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(STANDARD_PARAMS))
def test_registered_programs_price_exactly_as_pinned(golden, name):
    params = STANDARD_PARAMS[name]
    engine = _engine(params)
    twiddles = {"ntt": engine.twiddle_table.forward_scaled(engine.width),
                "intt": engine.twiddle_table.inverse_scaled(engine.width)}
    q = params.q
    n_inv_scaled = params.n_inv * pow(2, engine.width, q) % q
    n = params.n
    # Twiddle k (1 <= k < n) multiplies a group of n / 2^bitlen(k)
    # butterflies, in the forward and the inverse transform alike.
    groups = [n >> k.bit_length() for k in range(1, n)]
    assert sum(groups) == butterfly_count(n)
    for op in ("ntt", "intt"):
        program = engine.compiled_program(op)
        assert program_stats(program) == golden["programs"][f"{name}/{op}"]
        modmuls = butterfly_count(n)
        expected = sum(group * modmul_instruction_count(engine.width, twiddles[op][k])
                       for k, group in enumerate(groups, 1))
        if op == "intt":  # the n^-1 scaling pass: one modmul per coefficient
            modmuls += n
            expected += n * modmul_instruction_count(engine.width, n_inv_scaled)
        assert sum(label == "modmul" for label, _, _ in program.sections) == modmuls
        assert program.section_histogram()["modmul"] == expected


@pytest.mark.parametrize("name", sorted(STANDARD_PARAMS))
def test_the_schedule_prices_exactly_as_pinned(golden, name):
    params = STANDARD_PARAMS[name]
    engine = _engine(params)
    pricer = SchedulePricer(engine.layout, params=params,
                            table=engine.twiddle_table)
    for op in ("ntt", "intt"):
        assert stats_fields(pricer.price(op)) == golden["programs"][f"{name}/{op}"]
    assert not engine._programs


@pytest.mark.parametrize("label, params, rows, cols", TINY,
                         ids=[case[0] for case in TINY])
def test_flat_views_are_pinned(golden, label, params, rows, cols):
    views = flat_views(label, params, rows, cols)
    assert views == {key: golden["flat_views"][key] for key in views}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(generate(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
