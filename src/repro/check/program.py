"""Static dataflow verifier for BP-NTT instruction streams.

A :class:`~repro.sram.program.Program` is data the compiler emits and
the executor trusts; nothing between them proves the stream is
well-formed, so a malformed program silently executes garbage.  This
analyzer walks the instruction sequence once, tracking the same
peripheral state the executor mutates — row definitions, the SA shift
latch, the per-tile predicate flags, the sticky carry-out register —
and flags uses that read state nothing wrote:

- **Geometry** (PROG001-003): row indices against the subarray's row
  count, ``Check`` bit indices against the tile width, ``SetFlags``
  masks against the tile count.
- **Def-before-use** (PROG004-007): rows read before written (strict
  only when the caller declares the host-loaded ``inputs``), a
  :class:`~repro.sram.isa.CarryStep` with nothing parked in the latch
  (the half-adder it ripples never ran), gated operands or
  :class:`~repro.sram.isa.CopyGated` with no live predicate flags, and
  :class:`~repro.sram.isa.CheckCarry` consuming a carry-out no
  :class:`~repro.sram.isa.CarryStep` produced since the last clear.
- **Carry-chain width** (PROG008-009): a ``width-1``-round addition
  assumes its operand sum fits the word — true exactly when the
  modulus respects :func:`~repro.mont.safe_modulus_bound`
  (Observation 1), so an unsafe modulus turns every such chain into a
  silent overflow; chains shorter than ``width-1`` settle nothing.
- **Cost-table consistency** (PROG010): every instruction must be
  priced by the technology model's cycle *and* energy tables, the
  invariant :func:`~repro.sram.executor.profile_program` relies on.
- **Sections** (PROG011-012): recorded ranges inside the program,
  nothing left open.

Row dataflow is each instruction's own declaration, ``reads()`` and
``writes()`` in :mod:`repro.sram.isa` (the compiler fuzzer holds them
to the rows the interpreter step touches).  The latch model follows the
executor exactly: ``BinaryPair`` and ``SetLatch`` define it,
``CarryStep`` consumes and redefines it, and ``ShiftRow`` does *not*
touch it (the Fig 5b shift MUX reuses the latch datapath but the
executor models row shifts through the SA logic, not the parked
value).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.check.diagnostics import Diagnostic, error, warning
from repro.errors import ReproError
from repro.mont import safe_modulus_bound
from repro.sram.energy import TECH_45NM, TechnologyModel
from repro.sram.executor import _instruction_kind
from repro.sram.isa import (
    BinaryPair,
    CarryStep,
    Check,
    CheckCarry,
    CopyGated,
    SetFlags,
    SetLatch,
)
from repro.sram.program import Program


def check_program(program: Program, *, rows: Optional[int] = None,
                  width: Optional[int] = None,
                  num_tiles: Optional[int] = None,
                  modulus: Optional[int] = None,
                  tech: TechnologyModel = TECH_45NM,
                  inputs: Optional[Sequence[int]] = None) -> List[Diagnostic]:
    """Verify one program; returns the findings (empty = clean).

    Geometry arguments are optional — pass what is known and the
    corresponding rules activate:

    - ``rows`` / ``width`` / ``num_tiles``: subarray geometry
      (``width`` is the tile width *and* the carry-chain word width).
    - ``modulus``: enables the overflow rule PROG008 on ``width-1``
      carry chains.
    - ``inputs``: rows the host loads before execution (coefficients,
      the modulus row).  When given, any other row read before a write
      is PROG004; when ``None`` the verifier infers inputs — the first
      read of an untouched row declares it host-loaded — so compiled
      programs check clean without the compiler's row map.
    """
    diagnostics: List[Diagnostic] = []
    where = program.name

    strict_inputs = inputs is not None
    defined: Set[int] = set(inputs or ())
    reported_rows: Set[int] = set()
    latch_defined = False
    flags_defined = False
    # carry_steps_since_clear counts CarrySteps since the last carry-out
    # clear (program start, BinaryPair, or a consuming CheckCarry).
    carry_steps_since_clear = 0
    # Open carry chain: CarrySteps accumulated since the latch was last
    # (re)parked by a BinaryPair.  Judged against ``width`` when the
    # next BinaryPair/SetLatch (or the program end) closes it.
    chain_open_at: Optional[int] = None
    chain_length = 0
    unpriced: Set[str] = set()

    def close_chain() -> None:
        nonlocal chain_open_at, chain_length
        if chain_open_at is None or width is None:
            chain_open_at, chain_length = None, 0
            return
        at = f"{where}[{chain_open_at}]"
        if chain_length == width - 1:
            if modulus is not None and modulus > safe_modulus_bound(width):
                diagnostics.append(error(
                    "PROG008", at,
                    f"{chain_length}-round carry chain assumes the operand "
                    f"sum fits {width} bits, but modulus {modulus} exceeds "
                    f"the safe bound {safe_modulus_bound(width)} "
                    f"(Observation 1: a+b < 2M needs M < 2^{width - 1})",
                    hint="widen the container or ripple the full width and "
                         "consume the carry-out",
                ))
        elif 0 < chain_length < width - 1:
            diagnostics.append(warning(
                "PROG009", at,
                f"carry chain ripples {chain_length} round(s); a {width}-bit "
                f"word needs {width - 1} (value-only) or {width} "
                f"(with carry-out)",
                hint="add the missing CarryStep rounds",
            ))
        # chain_length == 0 is a bare half-adder (legal: XOR to a row,
        # AND parked for later); > width is redundant but harmless.
        chain_open_at, chain_length = None, 0

    for index, instruction in enumerate(program):
        at = f"{where}[{index}]"
        name = type(instruction).__name__

        # -- cost-table consistency (once per offending kind) ---------
        try:
            kind = _instruction_kind(instruction)
            tech.instruction_cycles(kind)
            tech.instruction_energy_pj(kind)
        except ReproError as exc:
            if name not in unpriced:
                unpriced.add(name)
                diagnostics.append(error(
                    "PROG010", at,
                    f"{name} is not priced by the technology model: {exc}",
                    hint="add the instruction class to the cycle and "
                         "energy tables (sram/energy.py)",
                ))
            continue  # geometry/dataflow rules assume a known class

        # -- geometry --------------------------------------------------
        if rows is not None:
            for row in (*instruction.reads(), *instruction.writes()):
                if not 0 <= row < rows:
                    diagnostics.append(error(
                        "PROG001", at,
                        f"{name} addresses row {row}, outside [0, {rows})",
                        hint="the layout and subarray geometry disagree",
                    ))
        if width is not None and isinstance(instruction, Check):
            if not 0 <= instruction.bit_index < width:
                diagnostics.append(error(
                    "PROG002", at,
                    f"Check bit_index {instruction.bit_index} outside the "
                    f"{width}-bit tile",
                    hint="bit 0 is the tile LSB, width-1 the MSB",
                ))
        if num_tiles is not None and isinstance(instruction, SetFlags):
            if instruction.mask < 0 or instruction.mask >> num_tiles:
                diagnostics.append(error(
                    "PROG003", at,
                    f"SetFlags mask {instruction.mask:#x} addresses tiles "
                    f"beyond the {num_tiles} the subarray has",
                    hint="masks are one bit per tile, LSB = tile 0",
                ))

        # -- def-before-use on rows -----------------------------------
        for row in instruction.reads():
            if row not in defined:
                if strict_inputs:
                    if row not in reported_rows:
                        reported_rows.add(row)
                        diagnostics.append(error(
                            "PROG004", at,
                            f"{name} reads row {row} before any write "
                            f"(not a declared input)",
                            hint="initialize the row or declare it in "
                                 "inputs=",
                        ))
                else:
                    defined.add(row)  # inferred host-loaded input
        for row in instruction.writes():
            defined.add(row)

        # -- peripheral-state dataflow --------------------------------
        if isinstance(instruction, CarryStep):
            if not latch_defined:
                diagnostics.append(error(
                    "PROG005", at,
                    "CarryStep ripples the SA latch, but no prior "
                    "BinaryPair/SetLatch/CarryStep parked a value in it",
                    hint="emit the BinaryPair half-adder first",
                ))
            latch_defined = True  # it also redefines the latch
            carry_steps_since_clear += 1
            if chain_open_at is not None:
                chain_length += 1
        elif isinstance(instruction, BinaryPair):
            close_chain()
            latch_defined = True
            carry_steps_since_clear = 0  # executor zeroes carry_out here
            chain_open_at, chain_length = index, 0
        elif isinstance(instruction, SetLatch):
            close_chain()
            latch_defined = True

        if isinstance(instruction, CheckCarry):
            if carry_steps_since_clear == 0:
                diagnostics.append(error(
                    "PROG007", at,
                    "CheckCarry consumes the per-tile carry-out, but no "
                    "CarryStep ran since it was last cleared — the flags "
                    "load a constant",
                    hint="ripple the addition before testing its carry-out",
                ))
            carry_steps_since_clear = 0
            flags_defined = True
        elif isinstance(instruction, (Check, SetFlags)):
            flags_defined = True

        gated = isinstance(instruction, CopyGated) or getattr(
            instruction, "gate_operand1", False)
        if gated and not flags_defined:
            diagnostics.append(error(
                "PROG006", at,
                f"{name} is gated by the predicate flags, but no "
                f"Check/CheckCarry/SetFlags loaded them",
                hint="load the flags before the gated operation",
            ))

    close_chain()

    # -- sections ------------------------------------------------------
    length = len(program)
    for label, start, end in program.sections:
        if not (0 <= start <= end <= length):
            diagnostics.append(error(
                "PROG011", f"{where}[{label}]",
                f"section {label!r} spans [{start}, {end}) but the program "
                f"has {length} instruction(s)",
                hint="hand-built section offsets are off",
            ))
    if program._open_section is not None:
        diagnostics.append(warning(
            "PROG012", f"{where}[{program._open_section[0]}]",
            f"section {program._open_section[0]!r} is still open",
            hint="call end_section() before handing the program off",
        ))

    return diagnostics
