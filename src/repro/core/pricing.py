"""Price a kernel from the compiler's schedule, without building its program.

The twiddle factor never touches the array: its bits are burned into
the control commands (§IV-D).  So a program's cost depends only on its
schedule: the twiddle bits of each modular multiplication, and the tile
offsets that decide spill moves.  :class:`SchedulePricer` walks the
compiler's own loop nests (:mod:`repro.core.scheduler`) and runs the
real emitters once per distinct *piece*, into a recording sink: a
modular multiplication per multiplier, and the rest of a butterfly or
coefficient scale per emitter and tile offsets (as the segments before
and after its multiplication).  A program is its pieces' block shape
codes joined in program order, priced by the back half of
:func:`~repro.sram.executor.profile_program`
(:func:`~repro.sram.executor.price_shapes`), so the stats equal the
compiled program's field for field, energy bits included.  An engine
keeps one pricer per program store, so a fresh engine prices cold.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.butterfly import (
    emit_coefficient_scale,
    emit_ct_butterfly,
    emit_gs_butterfly,
)
from repro.core.layout import DataLayout
from repro.core.modmul import emit_modmul
from repro.core.scheduler import (
    check_compatible,
    ct_butterflies,
    gs_butterflies,
    inverse_scales,
    pointwise_scales,
)
from repro.ntt.params import NTTParams
from repro.ntt.twiddles import TwiddleTable
from repro.sram.energy import TECH_45NM, TechnologyModel
from repro.sram.executor import ExecutionStats, price_shapes


class _Sections:
    """A recording sink: each emitted section as ``(label, blocks)``."""

    __slots__ = ("sections",)

    def __init__(self):
        self.sections: List[Tuple[str, tuple]] = []

    def append_section(self, label: str, *blocks: tuple) -> None:
        self.sections.append((label, blocks))


class SchedulePricer:
    """Prices the programs of one layout and technology from their schedule.

    :meth:`ntt_from_twiddles` prices what the scheduler function of that
    name compiles; :meth:`price` prices an engine's program by its store
    key (``"ntt"``, ``"intt"`` or ``("pointwise", hat)``) on the ring
    ``params`` with twiddles ``table``, once per key.  Either equals
    ``profile_program`` of the compiled program.
    """

    def __init__(self, layout: DataLayout, tech: TechnologyModel = TECH_45NM,
                 params: Optional[NTTParams] = None,
                 table: Optional[TwiddleTable] = None):
        self.layout = layout
        self.tech = tech
        self.params = params
        self.table = table
        self._prices: Dict[object, ExecutionStats] = {}
        # Store-wide shape codes: shape -> code, code -> shape and its
        # instruction count, and id(block) -> code, with the blocks held
        # so that their ids are not reused.
        self._code_of_shape: Dict[tuple, int] = {}
        self._shapes: List[tuple] = []
        self._lengths: List[int] = []
        self._block_codes: Dict[int, int] = {}
        self._blocks: List[tuple] = []
        # Per recorded segment: its codes (bytes, or a tuple once codes
        # pass 255) and its sections as (label, codes, instructions).
        self._codes: List[Sequence[int]] = []
        self._sections: List[tuple] = []
        # twiddle -> modmul segment; (emitter, tile offsets) -> the
        # segments before and after the piece's multiplication.
        self._modmuls: Dict[int, int] = {}
        self._splits: Dict[tuple, Tuple[int, int]] = {}

    def ntt_from_twiddles(self, twiddles) -> ExecutionStats:
        return self._price(
            (emit_ct_butterfly, ct_butterflies(self.layout.order, twiddles)))

    def price(self, key) -> ExecutionStats:
        stats = self._prices.get(key)
        if stats is None:
            layout, params, width = self.layout, self.params, self.layout.width
            if key == "ntt":
                check_compatible(layout, params)
                stats = self.ntt_from_twiddles(self.table.forward_scaled(width))
            elif key == "intt":
                check_compatible(layout, params)
                stats = self._price(
                    (emit_gs_butterfly, gs_butterflies(
                        params.n, self.table.inverse_scaled(width))),
                    (emit_coefficient_scale, zip(
                        inverse_scales(layout, params), range(params.n))))
            else:
                stats = self._price((emit_coefficient_scale, zip(
                    pointwise_scales(layout, params, key[1]), range(params.n))))
            self._prices[key] = stats
        return stats

    # -- pieces -------------------------------------------------------------

    def _price(self, *walks: Tuple[Callable, Iterable[tuple]]
               ) -> ExecutionStats:
        """The program that runs ``emit`` on each ``(multiplier,
        *coefficients)`` of each ``(emit, pieces)`` walk, in order."""
        rows = self.layout.coeff_rows
        splits = self._splits
        modmuls = self._modmuls
        order: List[int] = []
        for emit, pieces in walks:
            for multiplier, *coefficients in pieces:
                key = (emit, *[index // rows for index in coefficients])
                split = splits.get(key) or self._split(key, coefficients)
                modmul = modmuls.get(multiplier)
                if modmul is None:
                    modmul = self._modmul(multiplier)
                order += (split[0], modmul, split[1])
        return self._priced(order)

    def _split(self, key: tuple, coefficients: List[int]) -> Tuple[int, int]:
        """Record one piece (with a zero multiplier) as the segments
        before and after its one ``modmul`` section."""
        sink = _Sections()
        key[0](sink, self.layout, *coefficients, 0)
        at = [label for label, _ in sink.sections].index("modmul")
        split = self._splits[key] = (self._segment(sink.sections[:at]),
                                     self._segment(sink.sections[at + 1:]))
        return split

    def _modmul(self, twiddle: int) -> int:
        sink = _Sections()
        emit_modmul(sink, self.layout, twiddle, self.layout.scratch.landing)
        segment = self._modmuls[twiddle] = self._segment(sink.sections)
        return segment

    def _segment(self, sections: List[Tuple[str, tuple]]) -> int:
        """Record ``sections`` as one segment; its index."""
        block_codes = self._block_codes
        lengths = self._lengths
        coded = []
        for label, blocks in sections:
            codes = list(map(block_codes.get, map(id, blocks)))
            if None in codes:
                codes = list(map(self._block_code, blocks))
            coded.append((label, _packed(codes),
                          sum(map(lengths.__getitem__, codes))))
        self._codes.append(coded[0][1] if len(coded) == 1 else _packed(
            list(chain.from_iterable(codes for _, codes, _ in coded))))
        self._sections.append(tuple(coded))
        return len(self._codes) - 1

    def _block_code(self, block: tuple) -> int:
        code = self._block_codes.get(id(block))
        if code is None:
            shape = tuple(map(type, block))
            code = self._code_of_shape.get(shape)
            if code is None:
                code = self._code_of_shape[shape] = len(self._shapes)
                self._shapes.append(shape)
                self._lengths.append(len(shape))
            self._block_codes[id(block)] = code
            self._blocks.append(block)
        return code

    # -- pricing ------------------------------------------------------------

    def _priced(self, order: List[int]) -> ExecutionStats:
        """The stats of the program made of segments ``order``."""
        codes_of = self._codes
        segments = list(map(codes_of.__getitem__, order))
        wide = len(self._shapes) > 256
        distinct = dict.fromkeys(order)
        # Store codes in the program's first-use order, which is the
        # order profile_program numbers the shapes in.
        first = list(dict.fromkeys(chain.from_iterable(
            map(codes_of.__getitem__, distinct))))
        if not wide and len(first) <= 256:
            table = bytearray(256)
            for local, code in enumerate(first):
                table[code] = local
            codes = b"".join(segments).translate(table)
        else:
            local_of = {code: local for local, code in enumerate(first)}
            codes = (bytes if len(first) <= 256 else list)(
                map(local_of.__getitem__, chain.from_iterable(segments)))
        times = Counter(order)
        spans: Dict[str, int] = {}
        for segment in distinct:
            for label, _, count in self._sections[segment]:
                spans[label] = spans.get(label, 0) + count * times[segment]

        def section_cycles(cycles_of: Dict[type, int]) -> Dict[str, int]:
            shape_cycles = {code: sum(map(cycles_of.__getitem__,
                                          self._shapes[code]))
                            for code in first}
            cycles: Dict[str, int] = {}
            for segment in distinct:
                for label, part, _ in self._sections[segment]:
                    cycles[label] = cycles.get(label, 0) + times[segment] * sum(
                        map(shape_cycles.__getitem__, part))
            return cycles

        return price_shapes([self._shapes[code] for code in first], codes,
                            sum(spans.values()), spans, section_cycles,
                            self.tech)


def _packed(codes: List[int]) -> Sequence[int]:
    """Shape codes as bytes while every code fits one, else a tuple."""
    try:
        return bytes(codes)
    except ValueError:
        return tuple(codes)
