"""Bounded bitvector valuation domain for the symbolic executor.

On the bounded domains of ``repro.verify`` — every scalar input ranging
over its ``k``-bit pattern set — a bitvector function *is* its table of
values.  A symbolic machine word is therefore represented extensionally:
either a plain ``int`` (the value is the same in every lane) or a
:class:`Vec` holding one concrete word per *lane*, where a lane is one
joint input assignment.  The lanes live in one numpy ``int64`` array, so
an operator is one array expression over every lane at once.  This is the
dense-domain analogue of the decision-diagram encodings used by
machine-code BMC (the CFLOBDD RISC-V work in PAPERS.md): every operator
is evaluated with the machine's own width/mask/sign-extension semantics —
the rows of :mod:`repro.arch.semantics`, which the ``ooo`` engine runs
too — so there is no abstraction gap to close, and a disequality
concretizes a counterexample by direct lane lookup.

Values collapse back to a Python ``int`` whenever all lanes agree, which
keeps the common case (loop counters, addresses, constants) scalar-fast:
only the genuinely input-dependent dataflow pays per-lane cost, and the
scalar path never sees a numpy scalar.
"""

from __future__ import annotations

import numpy as np


class Vec:
    """A per-lane valuation of one machine word (aligned to a state's lanes)."""

    __slots__ = ("vals",)

    def __init__(self, vals: np.ndarray) -> None:
        self.vals = vals

    def __len__(self) -> int:
        return len(self.vals)

    def __repr__(self) -> str:
        preview = ", ".join(str(v) for v in self.vals[:6].tolist())
        if len(self.vals) > 6:
            preview += ", …"
        return f"Vec[{len(self.vals)}]({preview})"


def make(vals) -> object:
    """A :class:`Vec` over ``vals``, collapsed to ``int`` when uniform.

    ``vals`` is a lane array (kept in its dtype: ``uint64`` for the
    64-bit compare joins, ``bool`` for predicates, else ``int64``) or any
    sequence of ints; a non-array scalar is returned unchanged.
    """
    t = type(vals)
    if t is not np.ndarray:
        if t is int or t is bool:
            return vals
        vals = np.array(tuple(vals), dtype=np.int64)
    first = vals[0]
    if (vals == first).all():
        return int(first)
    return Vec(vals)


def is_sym(value) -> bool:
    """True when ``value`` differs across lanes."""
    return type(value) is Vec


def expand(value, n: int) -> np.ndarray:
    """The per-lane array view of ``value`` over ``n`` lanes."""
    if type(value) is Vec:
        return value.vals
    return np.full(n, value)


def lane(value, i: int) -> int:
    """The concrete word ``value`` takes in lane ``i``."""
    if type(value) is Vec:
        return int(value.vals[i])
    return value


def restrict(value, positions: np.ndarray):
    """``value`` re-aligned to the lane subset ``positions`` (a fork edge)."""
    if type(value) is Vec:
        return make(value.vals[positions])
    return value


def partition(pred: Vec) -> tuple:
    """Split lane positions by a lane-dependent predicate: (true, false)."""
    vals = pred.vals
    return np.flatnonzero(vals), np.flatnonzero(vals == 0)
