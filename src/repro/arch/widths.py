"""Slice-width tables for the BITSPEC register file and the squeezer.

The sweepable speculative slice width (§3.5 and the sensitivity axes of
the paper) is expressed in *bits*; the register file remains
byte-granular, so a 4-bit slice still occupies one byte cell and is
accounted at byte width for register-file energy.  What each opcode
computes at a width, sign extension included, is the opcode table of
:mod:`repro.arch.semantics`.

``32`` means speculation is off — no value is narrower than a full
register, so the squeezer has nothing to do and no ``bs_*`` op is ever
emitted.
"""

from __future__ import annotations

#: Sweepable speculative slice widths in bits; 32 = speculation off.
SLICE_WIDTHS = (4, 8, 16, 32)

#: The default (the paper's only hardware point): 8-bit slices.
DEFAULT_SLICE_WIDTH = 8

#: Byte-size -> value mask for register-file slice accesses.  This is the
#: storage view: reads and writes mask at byte granularity regardless of
#: the speculative width (a 4-bit slice lives in a byte cell).
BYTE_MASKS = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF}


def validate_slice_width(bits: int) -> int:
    """Check ``bits`` is a supported speculative slice width."""
    if bits not in SLICE_WIDTHS:
        raise ValueError(
            f"unsupported slice width {bits}; expected one of {SLICE_WIDTHS}"
        )
    return bits


def slice_mask(bits: int) -> int:
    """Value mask of a ``bits``-wide slice (the misspeculation limit)."""
    return (1 << bits) - 1


def slice_bytes(bits: int) -> int:
    """Register-file storage footprint of a ``bits``-wide slice, in bytes.

    Sub-byte slices round up to one byte cell; 32-bit "slices" are whole
    registers.
    """
    return max(1, (bits + 7) // 8)
