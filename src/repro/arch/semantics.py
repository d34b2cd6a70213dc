"""One table of what each value-producing machine opcode computes.

BITSPEC ≡ BASELINE rests on one rule per opcode: the value the op
computes and, for a speculative ``bs_*`` op, when a carry, borrow or bit
leaving the slice misspeculates (§3.5, Table 1).  :data:`ROWS` writes
each rule once.  The out-of-order engine (:mod:`repro.arch.ooo`) and the
verifier's lane executor (:mod:`repro.verify.executor`) compute every
value through it.  ``legacy``, the predecoded stepper and the translated
regions keep their own inlined copies, so the differential gates still
compare independent implementations; ``tests/test_semantics.py`` runs
every row on all five and compares each with this table.

A row is written once when its expression means the same on a Python
``int`` and on an ``int64`` lane array: sums, masks, the carries, sign
extension, and products (a product wraps mod 2^64 in the array, and its
low and high 32 bits stay exact).  A row whose scalar form branches on
the data (the shifts, signed division, the compare predicate, the 64-bit
join) pairs that form with a vector twin, which runs when a leading
operand is a lane array.  Every row carries ``.scalar``, which
:mod:`repro.arch.ooo` calls directly, and ``.vector``.  numpy is
imported only inside a vector twin, which an array operand reaches only
once numpy is loaded, so no engine process loads numpy through here.

:data:`ROWS` maps an opcode to ``(shape, fn)``.  The shape says how an
engine feeds the row:

=======  ======================================  ===============================
shape    opcodes                                 ``fn``
=======  ======================================  ===============================
ALU      add sub and orr eor lsl lsr asr mul     ``(a, b, width) -> value``
DIV      udiv sdiv urem srem                     ``(a, b, width) -> value``;
                                                 a zero ``b`` traps first
SHIFTED  addsl orrsl                             ``(a, b, shift) -> value``
CARRY    adds adc subs sbc                       ``(a, b, carry) -> (value,
                                                 carry)``; only
                                                 :data:`READS_CARRY` read it
EXT      uxt sxt trunc                           ``(value, src_bits) -> value``
MULL     umull                                   ``(a, b) -> (low, high)``
SPEC     bs_add bs_sub bs_and bs_orr bs_eor      ``(a, b) -> wide``, judged by
         bs_lsl bs_lsr                           :func:`out_of_slice`
CHECK    bs_trunc bs_trunc_hi                    ``(a, spec_mask) -> miss``; a
                                                 clean op with a def writes
                                                 ``a``
=======  ======================================  ===============================

``width`` is the operation width in bytes, ``8`` naming the 64-bit
compare join.  A misspeculating ``bs_*`` op writes nothing and the
machine redirects to ``pc + Δ``.
"""

from __future__ import annotations

import operator

from repro.arch.widths import BYTE_MASKS
from repro.interp.interpreter import evaluate_icmp
from repro.ir.types import int_type

_WORD = 0xFFFFFFFF

#: the four divides, in the order the fast path encodes them
DIV_OPS = ("udiv", "sdiv", "urem", "srem")
#: bytes each load and store moves
LOAD_SIZES = {"ldr": 4, "ldrb": 1, "ldrh": 2}
STORE_SIZES = {"str": 4, "strb": 1, "strh": 2}

#: the speculative shapes come last: a row is speculative iff shape >= SPEC
ALU, DIV, SHIFTED, CARRY, EXT, MULL, SPEC, CHECK = range(8)

#: the carry rows that consume the incoming carry flag
READS_CARRY = frozenset({"adc", "sbc"})

#: an op width's value mask: ``_mask_of(width, _WORD)``
_mask_of = BYTE_MASKS.get


def _once(fn):
    """A row whose one expression serves ints and lane arrays alike."""
    fn.scalar = fn.vector = fn
    return fn


def _twin(scalar, vector):
    """A row whose scalar form branches on the data, with its vector twin:
    the twin runs when either leading operand is not an ``int``."""

    def row(a, b, *static):
        if type(a) is int and type(b) is int:
            return scalar(a, b, *static)
        return vector(a, b, *static)

    row.scalar = scalar
    row.vector = vector
    return row


def _signed(x, bits: int):
    """Two's-complement reading of a ``bits``-wide ``int`` or lane array
    (a 64-bit lane array is a ``uint64`` join, read as ``int64``)."""
    if type(x) is int:
        return int_type(bits).to_signed(x)
    if bits == 64:
        import numpy as np

        return x.view(np.int64)
    sign = 1 << (bits - 1)
    return ((x & ((1 << bits) - 1)) ^ sign) - sign


# -- rows whose scalar form branches on the data, and their lane twins -----------


def _lsl_lanes(a, b, width):
    import numpy as np

    return np.where(b < 32, (a << np.minimum(b, 31)) & _mask_of(width, _WORD), 0)


def _lsr_lanes(a, b, width=4):
    import numpy as np

    return np.where(b < 32, a >> np.minimum(b, 31), 0)


def _bs_lsl_lanes(a, b):
    import numpy as np

    return np.where(b < 32, a << np.minimum(b, 31), 0)


def _asr(a, b, width):
    ty = int_type(width * 8)
    return ty.wrap(ty.to_signed(a) >> min(b, ty.bits - 1))


def _asr_lanes(a, b, width):
    import numpy as np

    bits = width * 8
    return (_signed(a, bits) >> np.minimum(b, bits - 1)) & ((1 << bits) - 1)


def _sdiv(a, b, width):
    """C-style division: the quotient rounds toward zero."""
    ty = int_type(width * 8)
    sa, sb = ty.to_signed(a), ty.to_signed(b)
    q = abs(sa) // abs(sb)
    return ty.wrap(-q if (sa < 0) != (sb < 0) else q)


def _srem(a, b, width):
    """C-style remainder: it takes the dividend's sign."""
    ty = int_type(width * 8)
    sa, sb = ty.to_signed(a), ty.to_signed(b)
    r = abs(sa) % abs(sb)
    return ty.wrap(-r if sa < 0 else r)


def _sdiv_lanes(a, b, width):
    import numpy as np

    bits = width * 8
    sa, sb = _signed(a, bits), _signed(b, bits)
    q = abs(sa) // abs(sb)
    return np.where((sa < 0) != (sb < 0), -q, q) & ((1 << bits) - 1)


def _srem_lanes(a, b, width):
    import numpy as np

    bits = width * 8
    sa, sb = _signed(a, bits), _signed(b, bits)
    r = abs(sa) % abs(sb)
    return np.where(sa < 0, -r, r) & ((1 << bits) - 1)


_COMPARE = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


def _holds(a, b, width, cond):
    return evaluate_icmp(cond, a, b, int_type(64 if width == 8 else width * 8))


def _holds_lanes(a, b, width, cond):
    bits = 64 if width == 8 else width * 8
    if cond[0] == "s":
        a, b = _signed(a, bits), _signed(b, bits)
    return _COMPARE[cond[1:] if cond[0] in "su" else cond](a, b)


def _join64_lanes(hi, lo):
    import numpy as np

    wide = np.asarray(hi).astype(np.uint64) << np.uint64(32)
    return wide | np.asarray(lo).astype(np.uint64)


#: shifts of 32 or more give 0; the lane forms clamp before shifting
lsl = _twin(
    lambda a, b, width: (a << b) & _mask_of(width, _WORD) if b < 32 else 0,
    _lsl_lanes,
)
lsr = _twin(lambda a, b, width=4: a >> b if b < 32 else 0, _lsr_lanes)
bs_lsl = _twin(lambda a, b: a << b if b < 32 else 0, _bs_lsl_lanes)
asr = _twin(_asr, _asr_lanes)
sdiv = _twin(_sdiv, _sdiv_lanes)
srem = _twin(_srem, _srem_lanes)
#: the ``bcond``/``movcond`` predicate ``cond`` over a cmp state
holds = _twin(_holds, _holds_lanes)
#: the ``cmp64hi``/``cmp64lo`` join; lane arrays go to ``uint64``
join64 = _twin(lambda hi, lo: (hi << 32) | lo, _join64_lanes)


def select(cond, taken, kept):
    """``movcond``'s write-back: ``taken`` where ``cond`` holds."""
    if type(cond) is bool:
        return taken if cond else kept
    import numpy as np

    return np.where(cond, taken, kept)


# -- rows written once --------------------------------------------------------------

#: the segmented ALU's verdict: a borrow, carry or bit left the slice
out_of_slice = _once(lambda wide, spec_mask: (wide < 0) | (wide > spec_mask))
mul = _once(lambda a, b, width: (a * b) & _mask_of(width, _WORD))
_and = _once(lambda a, b, width=4: a & b)
_orr = _once(lambda a, b, width=4: a | b)
_eor = _once(lambda a, b, width=4: a ^ b)
#: ``uxt`` and ``trunc``: the destination slice keeps the bits
_keep = _once(lambda value, src_bits: value)


@_once
def adds(a, b, carry=0):
    full = a + b
    return full & _WORD, full >> 32


@_once
def adc(a, b, carry):
    full = a + b + carry
    return full & _WORD, full >> 32


@_once
def subs(a, b, carry=0):
    """The carry is 1 when nothing was borrowed."""
    return (a - b) & _WORD, (a >= b) * 1


@_once
def sbc(a, b, carry):
    full = a - b - (1 - carry)
    return full & _WORD, (full >= 0) * 1


@_once
def sxt(value, src_bits):
    """Replicate bit ``src_bits - 1`` up through the 32-bit word."""
    sign = 1 << (src_bits - 1)
    return (((value & ((1 << src_bits) - 1)) ^ sign) - sign) & _WORD


@_once
def orrsl(a, b, shift):
    """``a | (b << shift)``; a negative ``shift`` shifts right."""
    return a | ((b << shift) & _WORD if shift >= 0 else b >> -shift)


@_once
def umull(a, b):
    product = a * b
    return product & _WORD, (product >> 32) & _WORD


ROWS = {
    "add": (ALU, _once(lambda a, b, width: (a + b) & _mask_of(width, _WORD))),
    "sub": (ALU, _once(lambda a, b, width: (a - b) & _mask_of(width, _WORD))),
    "and": (ALU, _and),
    "orr": (ALU, _orr),
    "eor": (ALU, _eor),
    "lsl": (ALU, lsl),
    "lsr": (ALU, lsr),
    "asr": (ALU, asr),
    "mul": (ALU, mul),
    "udiv": (DIV, _once(lambda a, b, width: (a // b) & ((1 << 8 * width) - 1))),
    "sdiv": (DIV, sdiv),
    "urem": (DIV, _once(lambda a, b, width: (a % b) & ((1 << 8 * width) - 1))),
    "srem": (DIV, srem),
    "addsl": (SHIFTED, _once(lambda a, b, shift: (a + (b << shift)) & _WORD)),
    "orrsl": (SHIFTED, orrsl),
    "adds": (CARRY, adds),
    "adc": (CARRY, adc),
    "subs": (CARRY, subs),
    "sbc": (CARRY, sbc),
    "uxt": (EXT, _keep),
    "sxt": (EXT, sxt),
    "trunc": (EXT, _keep),
    "umull": (MULL, umull),
    "bs_add": (SPEC, _once(lambda a, b: a + b)),
    "bs_sub": (SPEC, _once(lambda a, b: a - b)),
    "bs_and": (SPEC, _and),
    "bs_orr": (SPEC, _orr),
    "bs_eor": (SPEC, _eor),
    "bs_lsl": (SPEC, bs_lsl),
    "bs_lsr": (SPEC, lsr),
    "bs_trunc": (CHECK, out_of_slice),
    # the high word of a 64-bit value must be zero
    "bs_trunc_hi": (CHECK, _once(lambda a, spec_mask: a != 0)),
}

#: :data:`ROWS` with each row's scalar form, for engines that see no lanes
SCALAR_ROWS = {op: (shape, fn.scalar) for op, (shape, fn) in ROWS.items()}
