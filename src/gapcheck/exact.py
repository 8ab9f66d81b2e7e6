"""Exact decision kernel for the values of a window's ring Z[sqrt(p), sqrt(q)].

A :class:`RootExpr` is an integer value  num + b1*sqrt(m1) + b2*sqrt(m2)
in two slots, each radicand a positive int taken as given.  Every claim of
the catalog lives in Z[sqrt(p), sqrt(q)] once its halves and quarters are
cleared (Delta_n, {sqrt(q) Delta}, mu sqrt(p), floor(sqrt(p) + sqrt(q)) and
the rest), so no value needs more than two of the radicands p, q and pq; a
sum or difference that would need a third raises KernelError where it is
built.  Comparisons, equality, floors and fractional parts are decided
without floating point and never left undecided, each by one exact sign of
`_sign_2rad`: iterated squaring over the two slots, one squaring
(`_sign_1rad`) when a slot is free, exact for any positive radicands.  A
floor is the sum of the slots' isqrt floors, stepped up by at most one sign.

A RootExpr is built by `sqrt`, added to and subtracted from ints and
RootExprs, multiplied by ints, and compared against ints and RootExprs; any
other operand raises TypeError, in == as well: a Fraction, a float, a
divisor and a RootExpr factor.  A sign does not change when every term is
multiplied by the same positive integer, so a caller clears denominators
that way: x against n/d is x.scale(d) against n, and floor(x/d) is
floor_root(x) // d.
"""

from __future__ import annotations

from enum import Enum
from math import isqrt
from operator import index


class KernelError(ValueError):
    pass


class Cmp(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1
    UNDECIDED = 2   # never returned; bench/tracer.py still reads it


class RootExpr:
    """num + b1*sqrt(m1) + b2*sqrt(m2) with int parts; a slot with b = 0 is
    free, and + and - reuse it.  == compares values: equal parts answer at
    once, anything else takes the exact sign of the difference.  Equal
    values need not have equal parts (sqrt(8) and 2 sqrt(2)), so a RootExpr
    has no hash."""

    __slots__ = ("num", "m1", "b1", "m2", "b2")

    @classmethod
    def sqrt(cls, m: int, coef: int = 1) -> "RootExpr":
        m, n = index(m), index(coef)
        if m < 1:
            raise KernelError("radicand must be positive")
        return _make(0, m, n, 0, 0)

    # -- arithmetic ---------------------------------------------------------
    # + and - take RootExprs and ints, * ints only.  Every int operand goes
    # through operator.index, so a Fraction, a float or a RootExpr factor
    # raises TypeError.

    def __add__(self, other) -> "RootExpr":
        if isinstance(other, RootExpr):
            return _combine(self, other, 1)
        return _make(self.num + index(other), self.m1, self.b1, self.m2, self.b2)

    __radd__ = __add__

    def __neg__(self) -> "RootExpr":
        return _make(-self.num, self.m1, -self.b1, self.m2, -self.b2)

    def __sub__(self, other) -> "RootExpr":
        if isinstance(other, RootExpr):
            return _combine(self, other, -1)
        return _make(self.num - index(other), self.m1, self.b1, self.m2, self.b2)

    def __rsub__(self, other) -> "RootExpr":
        return _make(index(other) - self.num, self.m1, -self.b1, self.m2, -self.b2)

    def scale(self, k: int) -> "RootExpr":
        k = index(k)
        return _make(self.num * k, self.m1, self.b1 * k, self.m2, self.b2 * k)

    __mul__ = __rmul__ = scale

    def __repr__(self):
        return f"RootExpr({self.num} + {self.b1}*sqrt({self.m1}) + {self.b2}*sqrt({self.m2}))"

    def __eq__(self, other):
        if isinstance(other, RootExpr):
            if (self.num == other.num and self.b1 == other.b1 and self.m1 == other.m1
                    and self.b2 == other.b2 and self.m2 == other.m2):
                return True
            d = _combine(self, other, -1)
            return _sign_2rad(d.num, d.b1, d.m1, d.b2, d.m2) == 0
        return _sign_2rad(self.num - index(other), self.b1, self.m1, self.b2, self.m2) == 0


# -- integer arithmetic behind RootExpr ------------------------------------------
# Module functions rather than methods, so that composite operations make no
# further method calls.

_new = object.__new__


def _make(num: int, m1: int, b1: int, m2: int, b2: int) -> RootExpr:
    """RootExpr from its parts; a slot with b = 0 is free."""
    e = _new(RootExpr)
    e.num = num
    e.m1 = m1
    e.b1 = b1
    e.m2 = m2
    e.b2 = b2
    return e


def _combine(a: RootExpr, b: RootExpr, sign: int) -> RootExpr:
    """a + sign*b for sign = +1 or -1.  Each live slot of b adds into the
    slot of a with its radicand, else into a free one; b's slot that a
    already has goes first, as it may free a slot for the other.  A third
    radicand raises KernelError."""
    m1, b1, m2, b2 = a.m1, a.b1, a.m2, a.b2
    n1, c1, n2, c2 = b.m1, sign * b.b1, b.m2, sign * b.b2
    if c2 and (n2 == m1 or n2 == m2):
        n1, c1, n2, c2 = n2, c2, n1, c1
    if c1:
        if n1 == m1:
            b1 += c1
        elif n1 == m2:
            b2 += c1
        elif not b1:
            m1, b1 = n1, c1
        elif not b2:
            m2, b2 = n1, c1
        else:
            raise KernelError(f"a third radicand, {n1}; a RootExpr holds two")
    if c2:
        if n2 == m1:
            b1 += c2
        elif n2 == m2:
            b2 += c2
        elif not b1:
            m1, b1 = n2, c2
        elif not b2:
            m2, b2 = n2, c2
        else:
            raise KernelError(f"a third radicand, {n2}; a RootExpr holds two")
    return _make(a.num + sign * b.num, m1, b1, m2, b2)


# -- exact signs ---------------------------------------------------------------


def _sign_1rad(c: int, b: int, m: int) -> int:
    """Exact sign of c + b*sqrt(m); ints only, m >= 0."""
    if b == 0 or m == 0:
        return (c > 0) - (c < 0)
    if c == 0 or (c > 0) == (b > 0):
        return 1 if b > 0 else -1
    # opposite signs: the larger of b^2 m and c^2 wins
    t = b * b * m - c * c
    return (t > 0) - (t < 0) if b > 0 else (t < 0) - (t > 0)


def _sign_2rad(c: int, b1: int, m1: int, b2: int, m2: int) -> int:
    """Exact sign of c + b1*sqrt(m1) + b2*sqrt(m2) via iterated squaring;
    ints only, m1, m2 >= 0."""
    if m1 == 0 or b1 == 0:
        return _sign_1rad(c, b2, m2)
    if m2 == 0 or b2 == 0:
        return _sign_1rad(c, b1, m1)
    # su: the sign of u = b1 sqrt(m1) + b2 sqrt(m2)
    split = (b1 > 0) != (b2 > 0)
    if not split:
        su = 1 if b1 > 0 else -1
    else:
        t = b1 * b1 * m1 - b2 * b2 * m2
        su = (t > 0) - (t < 0) if b1 > 0 else (t < 0) - (t > 0)
    if c == 0:
        return su
    sc = 1 if c > 0 else -1
    if su == 0 or sc == su:
        return sc
    # c and u have opposite signs, so the sign is sc * sign(c^2 - u^2), where
    # c^2 - u^2 = C + B sqrt(m1 m2) with B = -2 b1 b2 > 0 exactly when split
    q1, q2 = b1 * b1 * m1, b2 * b2 * m2
    C = c * c - q1 - q2
    if C == 0 or (C > 0) == split:
        return sc if split else -sc
    t = 4 * q1 * q2 - C * C   # B^2 m1 m2 - C^2
    if t == 0:
        return 0
    return sc if (t > 0) == split else -sc


# -- comparisons, floors, fractional parts --------------------------------------


_CMP = (Cmp.EQUAL, Cmp.GREATER, Cmp.LESS)   # indexed by a sign -1, 0 or 1


def cmp_root(e: RootExpr, n: int = 0) -> Cmp:
    """Three-way comparison of a RootExpr against an int n: one exact sign.
    Against n/d for d > 0, compare e.scale(d) against n."""
    return _CMP[_sign_2rad(e.num - index(n), e.b1, e.m1, e.b2, e.m2)]


def floor_root(e: RootExpr) -> int:
    """Exact floor of a RootExpr: num + t.  Each slot's b sqrt(m) lies in
    [its isqrt floor, that + 1), and a free slot's is 0, so for the sum s of
    the two floors t is s when a slot is free, and s or s + 1 when both are
    live: one exact sign decides.  For d > 0, floor(e/d) is
    floor_root(e) // d."""
    b1, m1, b2, m2 = e.b1, e.m1, e.b2, e.m2
    x = b1 * b1 * m1
    r = isqrt(x)
    t = r if b1 >= 0 else -r - (r * r != x)
    x = b2 * b2 * m2
    r = isqrt(x)
    t += r if b2 >= 0 else -r - (r * r != x)
    if b1 and b2 and _sign_2rad(-t - 1, b1, m1, b2, m2) >= 0:
        t += 1
    return e.num + t


def frac_root(e: RootExpr) -> tuple[int, RootExpr]:
    """(floor, fractional part) of a RootExpr."""
    f = floor_root(e)
    return f, _make(e.num - f, e.m1, e.b1, e.m2, e.b2)
