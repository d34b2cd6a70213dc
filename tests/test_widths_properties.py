"""Property tests for :mod:`repro.arch.widths`.

The width helpers are the single source of truth shared by the concrete
machine engines, the squeezer and the symbolic executor; a one-bit error
here silently corrupts every layer at once.  These tests pin the helpers
down three ways:

* exhaustively over every representable pattern at the small slice
  widths (w4, w8), plus out-of-range and negative Python ints;
* on boundary grids (around 0, the sign bit, and the wrap point) at w16
  and w32, where exhaustion is too slow;
* cross-checked against the *independent* implementations of the same
  arithmetic: :class:`repro.ir.types.IntType` (``wrap``/``to_signed``)
  and the symbolic executor's lane-wise ``sxt``
  (:func:`repro.verify.domain.sxt`), so the three layers cannot drift.
"""

import pytest

from repro.arch.widths import (
    BYTE_MASKS,
    SLICE_WIDTHS,
    sign_extend,
    slice_bytes,
    slice_mask,
    truncate,
    validate_slice_width,
    zero_extend,
)
from repro.ir.types import int_type
from repro.verify.domain import Vec, make, sxt

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


# -- truncate / zero_extend ------------------------------------------------


@pytest.mark.parametrize("bits", EXHAUSTIVE_WIDTHS)
def test_truncate_exhaustive_matches_ir_wrap(bits):
    ty = int_type(bits)
    for value in range(-(1 << (bits + 2)), 1 << (bits + 2)):
        expected = value & ((1 << bits) - 1)
        assert truncate(value, bits) == expected
        assert truncate(value, bits) == ty.wrap(value)
        # zero_extend is truncate spelled in the widening direction
        assert zero_extend(value, bits) == truncate(value, bits)


@pytest.mark.parametrize("bits", (16, 32))
def test_truncate_boundary_grid(bits):
    ty = int_type(bits)
    for value in boundary_values(bits):
        assert truncate(value, bits) == ty.wrap(value)
        assert 0 <= truncate(value, bits) < (1 << bits)
        assert zero_extend(value, bits) == truncate(value, bits)


def test_truncate_is_idempotent():
    for bits in SLICE_WIDTHS:
        for value in boundary_values(bits):
            once = truncate(value, bits)
            assert truncate(once, bits) == once


# -- sign_extend -----------------------------------------------------------


@pytest.mark.parametrize("bits", EXHAUSTIVE_WIDTHS)
def test_sign_extend_exhaustive_matches_ir_to_signed(bits):
    src = int_type(bits)
    dst = int_type(32)
    for value in range(1 << bits):
        expected = dst.wrap(src.to_signed(value))
        got = sign_extend(value, bits, 32)
        assert got == expected
        # value bits survive the round trip
        assert truncate(got, bits) == value
        # the upper bits replicate the sign bit
        fill = got >> bits
        sign = (value >> (bits - 1)) & 1
        assert fill == (((1 << (32 - bits)) - 1) if sign else 0)


@pytest.mark.parametrize("bits", (16, 32))
def test_sign_extend_boundary_grid(bits):
    src = int_type(bits)
    dst = int_type(32)
    for value in boundary_values(bits):
        assert sign_extend(value, bits, 32) == dst.wrap(
            src.to_signed(src.wrap(value))
        )


def test_sign_extend_to_narrower_rewraps():
    # to_bits below the source width degenerates to plain truncation of
    # the extended pattern — the architectural re-wrap the docstring pins
    assert sign_extend(0xFF, 8, 4) == 0xF
    assert sign_extend(0x80, 8, 8) == 0x80


@pytest.mark.parametrize("bits", EXHAUSTIVE_WIDTHS)
def test_sign_extend_agrees_with_symbolic_sxt(bits):
    """The symbolic executor's lane-wise ``sxt`` is the same function."""
    values = tuple(range(1 << bits))
    lanes = sxt(make(values), bits)
    expected = tuple(sign_extend(v, bits, 32) for v in values)
    got = (
        tuple(lanes.vals.tolist())
        if isinstance(lanes, Vec)
        else (lanes,) * len(values)
    )
    assert got == expected
    # scalar (uniform) fast path computes the identical word
    for value in (0, 1, (1 << (bits - 1)), (1 << bits) - 1):
        assert sxt(value, bits) == sign_extend(value, bits, 32)


# -- mask / storage tables -------------------------------------------------


def test_slice_mask_matches_truncate_fixed_points():
    for bits in SLICE_WIDTHS:
        mask = slice_mask(bits)
        assert mask == (1 << bits) - 1
        assert truncate(mask, bits) == mask
        assert truncate(mask + 1, bits) == 0


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
