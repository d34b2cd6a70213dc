"""Property tests for :mod:`repro.arch.widths` and the sign extension
and slice verdict of :mod:`repro.arch.semantics`.

A one-bit error in a width helper silently corrupts every layer at once.
These tests pin the helpers down three ways:

* exhaustively over every representable pattern at the small slice
  widths (w4, w8), plus out-of-range and negative Python ints;
* on boundary grids (around 0, the sign bit, and the wrap point) at w16
  and w32, where exhaustion is too slow;
* cross-checked against the *independent* implementation of the same
  arithmetic in :class:`repro.ir.types.IntType` (``wrap``/``to_signed``),
  and on lane arrays against the same row on plain ints.
"""

import numpy as np
import pytest

from repro.arch.semantics import out_of_slice, sxt
from repro.arch.widths import (
    BYTE_MASKS,
    SLICE_WIDTHS,
    slice_bytes,
    slice_mask,
    validate_slice_width,
)
from repro.ir.types import int_type

EXHAUSTIVE_WIDTHS = (4, 8)

#: probe values around every interesting edge of a ``bits``-wide domain


def boundary_values(bits):
    top = 1 << bits
    sign = 1 << (bits - 1)
    probes = set()
    for anchor in (0, sign, top - 1, top):
        for delta in (-2, -1, 0, 1, 2):
            probes.add(anchor + delta)
    # far out-of-range on both sides: helpers must wrap, not assert
    probes.update({-top, -top - 3, 3 * top + 5, 1 << 40, -(1 << 40)})
    return sorted(probes)


# -- sign extension (the ``sxt`` row) --------------------------------------


@pytest.mark.parametrize("bits", EXHAUSTIVE_WIDTHS)
def test_sign_extend_exhaustive_matches_ir_to_signed(bits):
    src = int_type(bits)
    dst = int_type(32)
    for value in range(1 << bits):
        expected = dst.wrap(src.to_signed(value))
        got = sxt(value, bits)
        assert got == expected
        # value bits survive the round trip
        assert got & slice_mask(bits) == value
        # the upper bits replicate the sign bit
        fill = got >> bits
        sign = (value >> (bits - 1)) & 1
        assert fill == (((1 << (32 - bits)) - 1) if sign else 0)


@pytest.mark.parametrize("bits", (16, 32))
def test_sign_extend_boundary_grid(bits):
    src = int_type(bits)
    dst = int_type(32)
    for value in boundary_values(bits):
        assert sxt(value, bits) == dst.wrap(src.to_signed(src.wrap(value)))


def test_sign_extend_to_narrower_rewraps():
    # read back through a narrower slice, the extended word degenerates
    # to plain truncation of the extended pattern
    assert sxt(0xFF, 8) & 0xF == 0xF
    assert sxt(0x80, 8) & 0xFF == 0x80


@pytest.mark.parametrize("bits", EXHAUSTIVE_WIDTHS)
def test_sign_extend_agrees_with_symbolic_sxt(bits):
    """The lane form of the ``sxt`` row (what the symbolic executor runs)
    computes the same words as its ``int`` form."""
    values = tuple(range(1 << bits))
    lanes = sxt(np.array(values, dtype=np.int64), bits)
    expected = tuple(sxt(v, bits) for v in values)
    assert tuple(lanes.tolist()) == expected
    # scalar (uniform) fast path computes the identical word
    for value in (0, 1, (1 << (bits - 1)), (1 << bits) - 1):
        assert sxt(value, bits) == expected[value]


# -- mask / storage tables -------------------------------------------------


def test_slice_mask_matches_truncate_fixed_points():
    for bits in SLICE_WIDTHS:
        mask = slice_mask(bits)
        assert mask == (1 << bits) - 1
        # the mask is a fixed point of truncation to the slice
        assert mask & mask == mask
        assert (mask + 1) & mask == 0
        # the widest value a slice holds is clean; one more, or a borrow,
        # misspeculates
        assert not out_of_slice(mask, mask)
        assert out_of_slice(mask + 1, mask)
        assert out_of_slice(-1, mask)


def test_slice_bytes_rounds_up_to_storage_cells():
    assert [slice_bytes(b) for b in SLICE_WIDTHS] == [1, 1, 2, 4]
    for bits in SLICE_WIDTHS:
        cell = slice_bytes(bits)
        assert cell in BYTE_MASKS
        # the byte cell always covers the value mask
        assert slice_mask(bits) <= BYTE_MASKS[cell]


def test_validate_slice_width_rejects_unsupported():
    for bits in SLICE_WIDTHS:
        assert validate_slice_width(bits) == bits
    for bad in (0, 1, 3, 7, 12, 24, 33, 64):
        with pytest.raises(ValueError, match="unsupported slice width"):
            validate_slice_width(bad)
