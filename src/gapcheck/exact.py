"""Exact decision kernel for the values of a window's ring Z[sqrt(p), sqrt(q)].

A :class:`RootExpr` is an integer value  num + sum_i b_i*sqrt(m_i)  with
integers num and b_i and positive integer radicands m_i, each taken as
given.  Every claim of the catalog lives in Z[sqrt(p), sqrt(q)] once its
halves and quarters are cleared: Delta_n, {sqrt(q) Delta}, mu sqrt(p),
floor(sqrt(p) + sqrt(q)) and the rest.  So every value the kernel decides on
has at most two of the radicands p, q and pq, and those are square-free, as
p and q are prime.  Comparisons, equality, floors and fractional parts are
decided without floating point and never left undecided.  Each takes exact
signs from one procedure, `_sign`: one squaring over one radicand
(`_sign_1rad`), iterated squaring over two (`_sign_2rad`); both are exact
for any positive radicands, square-free or not.  A sign over three or more
radicands raises KernelError rather than answer.  A floor is the sum of the
isqrt floors of the terms, stepped up by at most one exact sign.

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
    """num + sum b*sqrt(radicand) with integer parts.

    num and every b are ints; terms holds the (radicand, b) pairs with
    b != 0, sorted by radicand, each radicand a positive int as it was given
    to `sqrt`.  == compares values: equal parts answer at once, anything else
    takes the exact sign of the difference, over at most two radicands.
    Equal values need not have equal parts (sqrt(8) and 2 sqrt(2)), so a
    RootExpr has no hash.
    """

    __slots__ = ("num", "terms")

    # -- construction -------------------------------------------------------

    @classmethod
    def sqrt(cls, m: int, coef: int = 1) -> "RootExpr":
        m, n = index(m), index(coef)
        if m < 1:
            raise KernelError("radicand must be positive")
        return _make(0, ((m, n),) if n else ())

    # -- arithmetic ---------------------------------------------------------
    # + and - take RootExprs and ints, * ints only.  Every int operand goes
    # through operator.index, so a Fraction, a float or a RootExpr factor
    # raises TypeError.

    def __add__(self, other) -> "RootExpr":
        if isinstance(other, RootExpr):
            return _combine(self, other, 1)
        return _make(self.num + index(other), self.terms)

    __radd__ = __add__

    def __neg__(self) -> "RootExpr":
        return _neg(self)

    def __sub__(self, other) -> "RootExpr":
        if isinstance(other, RootExpr):
            return _combine(self, other, -1)
        return _make(self.num - index(other), self.terms)

    def __rsub__(self, other) -> "RootExpr":
        return _make(index(other) - self.num, _neg_terms(self.terms))

    def scale(self, k: int) -> "RootExpr":
        return _scale_int(self, index(k))

    __mul__ = __rmul__ = scale

    # -- predicates -----------------------------------------------------------

    def __repr__(self):
        parts = [str(self.num)] if self.num or not self.terms else []
        for m, b in self.terms:
            parts.append(f"{b}*sqrt({m})")
        return f"RootExpr({' + '.join(parts)})"

    def __eq__(self, other):
        if isinstance(other, RootExpr):
            if self.num == other.num and self.terms == other.terms:
                return True
            diff = _combine(self, other, -1)
            return _sign(diff.num, diff.terms) == 0
        k = index(other)
        if not self.terms:
            return self.num == k
        return _sign(self.num - k, self.terms) == 0


# -- integer arithmetic behind RootExpr ------------------------------------------
# Module functions rather than methods, so that composite operations make no
# further method calls.

_new = object.__new__


def _make(num: int, terms: tuple) -> RootExpr:
    """RootExpr from its parts: terms sorted by radicand, no zero b."""
    e = _new(RootExpr)
    e.num = num
    e.terms = terms
    return e


def _neg_terms(terms: tuple) -> tuple:
    if len(terms) == 1:
        (m, b), = terms
        return ((m, -b),)
    return tuple((m, -b) for m, b in terms)


def _neg(e: RootExpr) -> RootExpr:
    return _make(-e.num, _neg_terms(e.terms))


def _combine(a: RootExpr, b: RootExpr, sign: int) -> RootExpr:
    """a + sign*b for sign = +1 or -1."""
    num = a.num + sign * b.num
    t1, t2 = a.terms, b.terms
    if not t2:
        terms = t1
    elif not t1:
        terms = t2 if sign == 1 else _neg_terms(t2)
    elif len(t1) == 1 and len(t2) == 1:
        (m1, c1), = t1
        (m2, c2), = t2
        if m1 == m2:
            c = c1 + sign * c2
            terms = ((m1, c),) if c else ()
        elif m1 < m2:
            terms = ((m1, c1), (m2, sign * c2))
        else:
            terms = ((m2, sign * c2), (m1, c1))
    else:
        terms = _merge(t1, t2, sign)
    return _make(num, terms)


def _merge(t1: tuple, t2: tuple, sign: int) -> tuple:
    """The terms of t1 + sign*t2, both sorted by radicand; zeros dropped."""
    out = []
    i = j = 0
    n1, n2 = len(t1), len(t2)
    while i < n1 and j < n2:
        m1, c1 = t1[i]
        m2, c2 = t2[j]
        if m1 < m2:
            out.append((m1, c1))
            i += 1
        elif m2 < m1:
            out.append((m2, sign * c2))
            j += 1
        else:
            c = c1 + sign * c2
            if c:
                out.append((m1, c))
            i += 1
            j += 1
    out.extend(t1[i:])
    for m, c in t2[j:]:
        out.append((m, sign * c))
    return tuple(out)


def _scale_int(e: RootExpr, k: int) -> RootExpr:
    """e * k for an int k."""
    if k == 0:
        return _make(0, ())
    terms = e.terms
    if len(terms) == 1:
        (m, b), = terms
        terms = ((m, b * k),)
    elif terms:
        terms = tuple((m, b * k) for m, b in terms)
    return _make(e.num * k, terms)


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


def _sign(c: int, terms) -> int:
    """Exact sign of c + sum b*sqrt(m) over terms ((m, b), ...) of at most
    two radicands; ints only, every m >= 1.  Three or more radicands raise
    KernelError rather than answer: no value of the catalog has them."""
    k = len(terms)
    if k == 0:
        return (c > 0) - (c < 0)
    if k == 1:
        (m, b), = terms
        return _sign_1rad(c, b, m)
    if k == 2:
        (m1, b1), (m2, b2) = terms
        return _sign_2rad(c, b1, m1, b2, m2)
    raise KernelError(f"exact sign over {k} radicands; the kernel decides over at most two")


# -- comparisons, floors, fractional parts --------------------------------------


_CMP = (Cmp.EQUAL, Cmp.GREATER, Cmp.LESS)   # indexed by a sign -1, 0 or 1


def cmp_root(e: RootExpr, n: int = 0) -> Cmp:
    """Three-way comparison of a RootExpr against an int n: one exact sign.
    Against n/d for d > 0, compare e.scale(d) against n."""
    return _CMP[_sign(e.num - index(n), e.terms)]


def floor_root(e: RootExpr) -> int:
    """Exact floor of a RootExpr: num + t.  Each term lies in [its isqrt
    floor, that + 1), so for the sum s of the term floors, t is s when there
    is one term, and s or s + 1 when there are two: one exact sign decides.
    For d > 0, floor(e/d) is floor_root(e) // d."""
    terms = e.terms
    if len(terms) == 1:
        (m, b), = terms
        x = b * b * m
        r = isqrt(x)
        return e.num + (r if b >= 0 else -r - (r * r != x))
    t = 0
    for m, b in terms:
        x = b * b * m   # floor(b sqrt(m)) by isqrt
        r = isqrt(x)
        t += r if b >= 0 else -r - (r * r != x)
    if len(terms) > 1 and _sign(-t - 1, terms) >= 0:   # past two, _sign refuses
        t += 1
    return e.num + t


def frac_root(e: RootExpr) -> tuple[int, RootExpr]:
    """(floor, fractional part) of a RootExpr."""
    f = floor_root(e)
    return f, _make(e.num - f, e.terms)
