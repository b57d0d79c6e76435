"""Unit tests for Program sections and composition."""

import pytest

from repro.errors import IsaError
from repro.sram.isa import Unary, UnaryOp
from repro.sram.program import Program


def z(row):
    return Unary(UnaryOp.ZERO, row)


class TestSections:
    def test_histogram(self):
        p = Program("x")
        p.begin_section("a")
        p.emit(z(0))
        p.emit(z(1))
        p.end_section()
        p.begin_section("a")
        p.emit(z(2))
        p.end_section()
        p.begin_section("b")
        p.end_section()
        assert p.section_histogram() == {"a": 3, "b": 0}

    def test_nesting_rejected(self):
        p = Program("x")
        p.begin_section("a")
        with pytest.raises(IsaError):
            p.begin_section("b")

    def test_end_without_begin_rejected(self):
        with pytest.raises(IsaError):
            Program("x").end_section()


class TestComposition:
    def test_extend_and_len(self):
        p = Program("x")
        p.extend([z(0), z(1), z(2)])
        assert len(p) == 3
        assert list(p)[1] == z(1)

    def test_repr(self):
        p = Program("kernel")
        p.emit(z(0))
        assert "kernel" in repr(p) and "1 instructions" in repr(p)
