"""The opcode table's lane forms against its scalar forms.

A row of :mod:`repro.arch.semantics` whose scalar form branches on the
data (shifts, signed compares, signed division, the 64-bit compare join)
has an explicit numpy twin, which the symbolic executor runs on lane
arrays.  Each pair is checked lane by lane over an edge grid, once with
every operand a lane array and once with each operand held as a plain
``int`` (the mixed shapes the executor produces when one operand is
uniform).  The rows written once for both shapes (carries, sign
extension, products, masks) are checked the same way, and at their
overflow edges.
"""

import itertools

import numpy as np
import pytest

from repro.arch import semantics as sem

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
    _kernel_agrees(sem.lsl, SHIFT_ROWS, after=(width,))


def test_lsr_and_bs_lsl():
    _kernel_agrees(sem.lsr, SHIFT_ROWS)
    _kernel_agrees(sem.bs_lsl, SHIFT_ROWS)


@pytest.mark.parametrize("bits", [8, 16, 32])
def test_asr(bits):
    _kernel_agrees(sem.asr, SHIFT_ROWS, after=(bits // 8,))


PREDICATES = ("eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge")


@pytest.mark.parametrize("pred", PREDICATES)
@pytest.mark.parametrize("bits", [8, 16, 32])
def test_icmp(pred, bits):
    rows = list(itertools.product(VALUES, VALUES))
    _kernel_agrees(sem.holds, rows, after=(bits // 8, pred))


@pytest.mark.parametrize("pred", PREDICATES)
def test_icmp_64_bit_join(pred):
    # operands with bit 63 set are negative under the signed predicates
    rows = list(itertools.product(WIDE[::7], WIDE[::5]))
    assert any(a >> 63 for a, _ in rows)
    _kernel_agrees(sem.holds, rows, after=(8, pred), dtype=np.uint64)


def test_join64():
    _kernel_agrees(sem.join64, list(itertools.product(VALUES, VALUES)))


def test_select():
    rows = list(itertools.product((False, True), VALUES[::2], VALUES[1::2]))
    _agrees(
        sem.select,
        lambda c, s, o: sem.select(np.asarray(c, dtype=bool), s, o),
        rows,
    )


@pytest.mark.parametrize("opcode", ["udiv", "urem", "sdiv", "srem"])
@pytest.mark.parametrize("bits", [8, 16, 32])
def test_divide(opcode, bits):
    # includes INT_MIN / -1 at 32 bits: 0x8000_0000 by 0xFFFF_FFFF; the
    # operands of a narrow division are read through slices of its width
    mask = (1 << bits) - 1
    rows = [(a & mask, b & mask) for a in VALUES for b in VALUES if b & mask]
    _kernel_agrees(sem.ROWS[opcode][1], rows, after=(bits // 8,))


def test_subs_carry():
    rows = list(itertools.product(VALUES, VALUES))
    for part in (0, 1):  # the difference, then the carry (1 = no borrow)
        _agrees(
            lambda x, y: sem.subs.scalar(x, y)[part],
            lambda x, y: sem.subs(x, y)[part],
            rows,
        )


def test_sbc_with_and_without_borrow():
    rows = list(itertools.product(VALUES, VALUES, (0, 1)))
    expected = [sem.sbc.scalar(*row) for row in rows]
    x, y, c = (np.array(col, dtype=np.int64) for col in zip(*rows))
    low, carry = sem.sbc(x, y, c)
    assert list(zip(low.tolist(), carry.tolist())) == expected


@pytest.mark.parametrize("bits", [8, 16])
def test_sxt(bits):
    _agrees(
        lambda v: sem.sxt.scalar(v, bits),
        lambda v: sem.sxt(v, bits),
        [(v,) for v in VALUES],
    )


def test_products_keep_their_low_and_high_words():
    rows = list(itertools.product(VALUES, VALUES))
    assert (0xFFFF_FFFF, 0xFFFF_FFFF) in rows
    x, y = (np.array(col, dtype=np.int64) for col in zip(*rows))
    low, high = sem.umull(x, y)  # the product wraps mod 2**64 in int64
    assert low.tolist() == [a * b & 0xFFFFFFFF for a, b in rows]
    assert high.tolist() == [(a * b) >> 32 & 0xFFFFFFFF for a, b in rows]
    for width, mask in ((1, 0xFF), (2, 0xFFFF), (4, 0xFFFFFFFF)):
        assert sem.mul(x, y, width).tolist() == [a * b & mask for a, b in rows]
