"""Exact decision kernel for the values of a window's field Q(sqrt(p), sqrt(q)).

A :class:`RootExpr` is a value  (num + sum_i b_i*sqrt(m_i)) / den  with
integers num and b_i, one integer den > 0, and positive integer radicands m_i
(square parts folded into the b_i during normalization).  Every claim of the
catalog lives in Q(sqrt(p), sqrt(q)): Delta_n, {sqrt(q) Delta}, mu sqrt(p),
floor(sqrt(p) + sqrt(q)) and the rest.  So every value the kernel decides on
has at most two of the radicands p, q and pq.  Comparisons, equality, floors
and fractional parts are decided without floating point and never left
undecided.  Each takes exact signs from one procedure, `_sign`: one squaring
over one radicand (`_sign_1rad`), iterated squaring over two (`_sign_2rad`).
A sign over three or more radicands raises KernelError rather than answer.
A floor is the sum of the isqrt floors of the terms, stepped up by at most
one exact sign.

A RootExpr is built by `sqrt`, added to and subtracted from ints and
RootExprs, multiplied and divided by ints, and compared against ints and
RootExprs; any other operand raises TypeError, in == as well: a Fraction, a
float, and a RootExpr factor or divisor.  A sign does not change when every
term is multiplied by the same positive integer, so a caller clears
denominators that way: x against n/d is x.scale(d) against n, and half of x
is x / 2.  A RootExpr's num and b_i already are its terms times den > 0, so
the sign procedures, which take plain ints, get them as they are.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import gcd, isqrt, prod
from operator import index

# trial square factors extracted during radicand normalization
_NORM_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_NORM_PRODUCT = prod(_NORM_PRIMES)


class KernelError(ValueError):
    pass


class Cmp(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1
    UNDECIDED = 2   # never returned; bench/tracer.py still reads it


# A radicand recurs within its window and the next (q of one window is p of
# the next), so a short cache hits as often as one that keeps every radicand
# of a long run.
@lru_cache(maxsize=1 << 10)
def _norm_radicand(m: int) -> tuple[int, int]:
    """sqrt(m) = outer * sqrt(core); extracts perfect squares and small
    square factors.  Best effort only: correctness of the kernel never
    depends on cores being fully square-free."""
    if m <= 0:
        raise KernelError("radicand must be positive")
    r = isqrt(m)
    if r * r == m:
        return r, 1
    if gcd(m, _NORM_PRODUCT) == 1:   # no square factor to extract
        return 1, m
    outer = 1
    for p in _NORM_PRIMES:
        sq = p * p
        if sq > m:
            break
        while m % sq == 0:
            m //= sq
            outer *= p
    r = isqrt(m)
    if r * r == m:
        return outer * r, 1
    return outer, m


class RootExpr:
    """Normalized  (num + sum b*sqrt(radicand)) / den  with integer parts.

    num, every b and den are ints, den > 0 and gcd(den, num, b...) = 1;
    terms holds the (radicand, b) pairs with b != 0, sorted by radicand.
    == compares values: equal parts answer at once, anything else takes the
    exact sign of the difference, over at most two radicands.  Equal values
    need not have equal parts (a radicand's square factors above 97 stay in
    it), so a RootExpr has no hash.
    """

    __slots__ = ("num", "terms", "den")

    # -- construction -------------------------------------------------------

    @classmethod
    def sqrt(cls, m: int, coef: int = 1) -> "RootExpr":
        n = index(coef)
        if n == 0:
            return _make(0, (), 1)
        outer, core = _norm_radicand(m)
        if core == 1:
            return _make(n * outer, (), 1)
        return _make(0, ((core, n * outer),), 1)

    # -- arithmetic ---------------------------------------------------------
    # + and - take RootExprs and ints, * and / ints only.  Every int operand
    # goes through operator.index, so a Fraction, a float or a RootExpr
    # factor raises TypeError.  An int operand needs no gcd over
    # the terms: adding a multiple of den leaves gcd(den, num, b...) alone,
    # and a product can cancel only gcd(den, k).

    def __add__(self, other) -> "RootExpr":
        if isinstance(other, RootExpr):
            return _combine(self, other, 1)
        return _make(self.num + index(other) * self.den, self.terms, self.den)

    __radd__ = __add__

    def __neg__(self) -> "RootExpr":
        return _neg(self)

    def __sub__(self, other) -> "RootExpr":
        if isinstance(other, RootExpr):
            return _combine(self, other, -1)
        return _make(self.num - index(other) * self.den, self.terms, self.den)

    def __rsub__(self, other) -> "RootExpr":
        return _make(index(other) * self.den - self.num, _neg_terms(self.terms),
                     self.den)

    def scale(self, k: int) -> "RootExpr":
        return _scale_int(self, index(k))

    __mul__ = __rmul__ = scale

    def __truediv__(self, other) -> "RootExpr":
        k = index(other)
        if k == 0:
            raise ZeroDivisionError("RootExpr divided by zero")
        e = self if k > 0 else _neg(self)
        return _reduced(e.num, e.terms, e.den * abs(k))

    # -- predicates -----------------------------------------------------------

    def __repr__(self):
        parts = [str(self.num)] if self.num or not self.terms else []
        for m, b in self.terms:
            parts.append(f"{b}*sqrt({m})")
        body = " + ".join(parts)
        return f"RootExpr(({body}) / {self.den})" if self.den != 1 else f"RootExpr({body})"

    def __eq__(self, other):
        if isinstance(other, RootExpr):
            if (self.num == other.num and self.den == other.den
                    and self.terms == other.terms):
                return True
            diff = _combine(self, other, -1)
            return _sign(diff.num, diff.terms) == 0
        k = index(other)
        if not self.terms:
            return self.den == 1 and self.num == k
        return _sign(self.num - k * self.den, self.terms) == 0


# -- integer arithmetic behind RootExpr ------------------------------------------
# Module functions rather than methods, so that composite operations make no
# further method calls.

_new = object.__new__


def _make(num: int, terms: tuple, den: int) -> RootExpr:
    """RootExpr from parts already in normal form."""
    e = _new(RootExpr)
    e.num = num
    e.terms = terms
    e.den = den
    return e


def _reduced(num: int, terms: tuple, den: int) -> RootExpr:
    """RootExpr of (num + sum b*sqrt(m)) / den for den > 0, divided through by
    gcd(den, num, b...)."""
    if den != 1:
        g = gcd(den, num)
        for _, b in terms:
            if g == 1:
                break
            g = gcd(g, b)
        if g != 1:
            num //= g
            den //= g
            terms = tuple((m, b // g) for m, b in terms)
    return _make(num, terms, den)


def _neg_terms(terms: tuple) -> tuple:
    if len(terms) == 1:
        (m, b), = terms
        return ((m, -b),)
    return tuple((m, -b) for m, b in terms)


def _neg(e: RootExpr) -> RootExpr:
    return _make(-e.num, _neg_terms(e.terms), e.den)


def _combine(a: RootExpr, b: RootExpr, sign: int) -> RootExpr:
    """a + sign*b for sign = +1 or -1."""
    d1, d2 = a.den, b.den
    if d1 == d2:
        f1, f2, den = 1, sign, d1
    else:
        g = gcd(d1, d2)
        f1, f2 = d2 // g, sign * (d1 // g)
        den = d1 * f1
    num = a.num * f1 + b.num * f2
    t1, t2 = a.terms, b.terms
    if not t2:
        terms = t1 if f1 == 1 else tuple((m, c * f1) for m, c in t1)
    elif not t1:
        terms = t2 if f2 == 1 else tuple((m, c * f2) for m, c in t2)
    elif len(t1) == 1 and len(t2) == 1:
        (m1, c1), = t1
        (m2, c2), = t2
        if m1 == m2:
            c = c1 * f1 + c2 * f2
            terms = ((m1, c),) if c else ()
        elif m1 < m2:
            terms = ((m1, c1 * f1), (m2, c2 * f2))
        else:
            terms = ((m2, c2 * f2), (m1, c1 * f1))
    else:
        terms = _merge(t1, f1, t2, f2)
    return _reduced(num, terms, den)


def _merge(t1: tuple, f1: int, t2: tuple, f2: int) -> tuple:
    """The terms of f1*t1 + f2*t2, both sorted by radicand; zeros dropped."""
    out = []
    i = j = 0
    n1, n2 = len(t1), len(t2)
    while i < n1 and j < n2:
        m1, c1 = t1[i]
        m2, c2 = t2[j]
        if m1 < m2:
            out.append((m1, c1 * f1))
            i += 1
        elif m2 < m1:
            out.append((m2, c2 * f2))
            j += 1
        else:
            c = c1 * f1 + c2 * f2
            if c:
                out.append((m1, c))
            i += 1
            j += 1
    for m, c in t1[i:]:
        out.append((m, c * f1))
    for m, c in t2[j:]:
        out.append((m, c * f2))
    return tuple(out)


def _scale_int(e: RootExpr, k: int) -> RootExpr:
    """e * k for an int k."""
    if k == 0:
        return _make(0, (), 1)
    den = e.den
    if den != 1:
        # gcd(den, num, b...) = 1, so only gcd(den, k) can cancel
        g = gcd(den, k)
        if g != 1:
            den //= g
            k //= g
    terms = e.terms
    if len(terms) == 1:
        (m, b), = terms
        terms = ((m, b * k),)
    elif terms:
        terms = tuple((m, b * k) for m, b in terms)
    return _make(e.num * k, terms, den)


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
    # e - n has the sign of (num - n den) + sum b_i sqrt(m_i), as den > 0
    return _CMP[_sign(e.num - index(n) * e.den, e.terms)]


def floor_root(e: RootExpr) -> int:
    """Exact floor of a RootExpr: floor(e) = floor(floor(s) / den) for
    s = num + sum b_i sqrt(m_i).  Each term lies in [its isqrt floor, that
    + 1), so for t the sum of the term floors floor(s) - num is t when there
    is one term, and t or t + 1 when there are two: one exact sign decides."""
    terms = e.terms
    if len(terms) == 1:
        (m, b), = terms
        x = b * b * m
        r = isqrt(x)
        return (e.num + (r if b >= 0 else -r - (r * r != x))) // e.den
    t = 0
    for m, b in terms:
        x = b * b * m   # floor(b sqrt(m)) by isqrt
        r = isqrt(x)
        t += r if b >= 0 else -r - (r * r != x)
    if len(terms) > 1 and _sign(-t - 1, terms) >= 0:   # past two, _sign refuses
        t += 1
    return (e.num + t) // e.den


def frac_root(e: RootExpr) -> tuple[int, RootExpr]:
    """(floor, fractional part) of a RootExpr."""
    f = floor_root(e)
    return f, _make(e.num - f * e.den, e.terms, e.den)
