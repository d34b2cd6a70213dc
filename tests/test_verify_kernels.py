"""Vector lane kernels of the symbolic executor against their scalar forms.

An executor op whose scalar form branches on the data (shifts, signed
compares, signed division, carries, sign extension, the 64-bit compare
join) has an explicit numpy twin.  Each pair is checked lane by lane over
an edge grid, once with every operand a lane array and once with each
operand held as a plain ``int`` (the mixed shapes the executor produces
when one operand is uniform).  The ops written once for both shapes
(products, masks) are checked at their overflow edges too.
"""

import itertools

import numpy as np
import pytest

from repro.verify import executor as ex
from repro.verify.domain import sxt

VALUES = (0, 1, 0x7F, 0x80, 0xFF, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF)
SHIFTS = (0, 31, 32, 255)
#: 64-bit compare operands: every (hi, lo) join of the edge grid
WIDE = tuple(sorted({(hi << 32) | lo for hi in VALUES for lo in VALUES}))


def _agrees(scalar, vector, rows, dtype=np.int64):
    """``vector`` over lane arrays matches ``scalar`` in every lane."""
    expected = [scalar(*row) for row in rows]
    columns = [np.array(col, dtype=dtype) for col in zip(*rows)]
    got = vector(*columns)
    assert np.asarray(got).tolist() == expected
    # the same lanes with one operand held as a plain int
    for pos in range(len(columns)):
        for value in sorted({row[pos] for row in rows}):
            picked = [i for i, row in enumerate(rows) if row[pos] == value]
            args = [
                value if j == pos else col[picked]
                for j, col in enumerate(columns)
            ]
            if all(type(a) is int for a in args):
                continue
            got = np.broadcast_to(vector(*args), (len(picked),))
            assert got.tolist() == [expected[i] for i in picked], (pos, value)


def _kernel_agrees(kernel, rows, before=(), after=(), dtype=np.int64):
    _agrees(
        lambda *ops: kernel.scalar(*before, *ops, *after),
        lambda *ops: kernel(*before, *ops, *after),
        rows,
        dtype,
    )


SHIFT_ROWS = list(itertools.product(VALUES, SHIFTS))


@pytest.mark.parametrize("width", [1, 2, 4])
def test_lsl(width):
    mask = (1 << (8 * width)) - 1
    _kernel_agrees(ex.lsl, SHIFT_ROWS, after=(mask,))


def test_lsr_and_bs_lsl():
    _kernel_agrees(ex.lsr, SHIFT_ROWS)
    _kernel_agrees(ex.bs_lsl, SHIFT_ROWS)


@pytest.mark.parametrize("bits", [8, 16, 32])
def test_asr(bits):
    _kernel_agrees(ex.asr, SHIFT_ROWS, after=(bits,))


PREDICATES = ("eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge")


@pytest.mark.parametrize("pred", PREDICATES)
@pytest.mark.parametrize("bits", [8, 16, 32])
def test_icmp(pred, bits):
    rows = list(itertools.product(VALUES, VALUES))
    _kernel_agrees(ex.icmp, rows, before=(pred,), after=(bits,))


@pytest.mark.parametrize("pred", PREDICATES)
def test_icmp_64_bit_join(pred):
    # operands with bit 63 set are negative under the signed predicates
    rows = list(itertools.product(WIDE[::7], WIDE[::5]))
    assert any(a >> 63 for a, _ in rows)
    _kernel_agrees(ex.icmp, rows, before=(pred,), after=(64,), dtype=np.uint64)


def test_join64():
    _kernel_agrees(ex.join64, list(itertools.product(VALUES, VALUES)))


def test_select():
    rows = list(itertools.product((False, True), VALUES[::2], VALUES[1::2]))
    _agrees(
        ex.select.scalar,
        lambda c, s, o: ex.select(np.asarray(c, dtype=bool), s, o),
        rows,
    )


@pytest.mark.parametrize("opcode", ["udiv", "urem", "sdiv", "srem"])
@pytest.mark.parametrize("bits", [8, 16, 32])
def test_divide(opcode, bits):
    # includes INT_MIN / -1 at 32 bits: 0x8000_0000 by 0xFFFF_FFFF; the
    # operands of a narrow division are read through slices of its width
    mask = (1 << bits) - 1
    rows = [(a & mask, b & mask) for a in VALUES for b in VALUES if b & mask]
    _kernel_agrees(ex.divide, rows, before=(opcode,), after=(bits,))


def test_subs_carry():
    _kernel_agrees(ex.subs_carry, list(itertools.product(VALUES, VALUES)))


def test_sbc_with_and_without_borrow():
    def sbc(x, y, c, carry):
        full = x - y - (1 - c)
        return carry(full), full & 0xFFFFFFFF

    rows = list(itertools.product(VALUES, VALUES, (0, 1)))
    expected = [sbc(*row, ex.sbc_carry.scalar) for row in rows]
    x, y, c = (np.array(col, dtype=np.int64) for col in zip(*rows))
    carry, low = sbc(x, y, c, ex.sbc_carry)
    assert list(zip(carry.tolist(), low.tolist())) == expected


@pytest.mark.parametrize("bits", [8, 16])
def test_sxt(bits):
    _agrees(lambda v: sxt(v, bits), lambda v: sxt(v, bits), [(v,) for v in VALUES])


def test_products_keep_their_low_and_high_words():
    rows = list(itertools.product(VALUES, VALUES))
    assert (0xFFFF_FFFF, 0xFFFF_FFFF) in rows
    x, y = (np.array(col, dtype=np.int64) for col in zip(*rows))
    product = x * y  # wraps mod 2**64 in int64
    assert (product & 0xFFFFFFFF).tolist() == [a * b & 0xFFFFFFFF for a, b in rows]
    assert ((product >> 32) & 0xFFFFFFFF).tolist() == [
        (a * b) >> 32 & 0xFFFFFFFF for a, b in rows
    ]
    for mask in (0xFF, 0xFFFF, 0xFFFFFFFF):
        assert ((x * y) & mask).tolist() == [a * b & mask for a, b in rows]
