"""Exact decision kernel for expressions built from square roots of integers.

A :class:`RootExpr` is a value  (num + sum_i b_i*sqrt(m_i)) / den  with
integers num and b_i, one integer den > 0, and positive integer radicands m_i
(square parts folded into the b_i during normalization).  Comparisons, floors
and fractional parts are decided without floating point: expressions with at
most two distinct radicands get a complete algebraic sign procedure (iterated
squaring), and their floors are exact: an isqrt floor of each term, then at
most one exact sign test.  Only expressions with three or more radicands are
bracketed by a certified dyadic interval with an escalating precision ladder,
and reported Undecided if the ladder is exhausted.

A RootExpr is built from, and combined with, ints and Fractions only; any
other number raises TypeError.  The sign procedures `_sign_1rad` and
`_sign_2rad` take plain ints only: a sign does not change when every term is
multiplied by the same positive integer, so callers clear denominators that
way and never pass a Fraction.  A RootExpr's num and b_i already are its
terms times den > 0, so `cmp_root` against n/d passes d*num - n*den and the
d*b_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

LADDER = (64, 128, 256)   # fixed-point precisions tried before Undecided

# trial square factors extracted during radicand normalization
_NORM_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


class KernelError(ValueError):
    pass


class Cmp(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1
    UNDECIDED = 2


def _rational(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction; a RootExpr takes
    nothing else."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"RootExpr takes int or Fraction, not {type(x).__name__}")


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
    The form is canonical, so == and hash compare (num, terms, den).
    """

    __slots__ = ("num", "terms", "den")

    def __init__(self, const, terms=()):
        # const and the coefs: int or Fraction; terms: iterable of
        # (radicand, coef) with radicands already normalized
        parts = [(m, _rational(c)) for m, c in terms]
        cn, cd = _rational(const)
        den = lcm(cd, *(d for _, (_, d) in parts))
        # over the lcm of reduced denominators the gcd is already 1
        self.num = cn * (den // cd)
        self.terms = tuple(sorted((m, n * (den // d)) for m, (n, d) in parts if n))
        self.den = den

    # -- construction -------------------------------------------------------

    @classmethod
    def of(cls, value) -> "RootExpr":
        n, d = _rational(value)
        return _make(n, (), d)

    @classmethod
    def sqrt(cls, m: int, coef=1) -> "RootExpr":
        n, d = _rational(coef)
        if n == 0:
            return _make(0, (), 1)
        outer, core = _norm_radicand(m)
        n *= outer
        if d != 1:
            g = gcd(n, d)
            n, d = n // g, d // g
        if core == 1:
            return _make(n, (), d)
        return _make(0, ((core, n),), d)

    # -- arithmetic ---------------------------------------------------------
    # An int operand is tested with `type(x) is int` (so bool takes the
    # general path) and needs no _rational and no gcd over the terms: adding
    # a multiple of den leaves gcd(den, num, b...) alone, and a product can
    # cancel only gcd(den, k).

    def __add__(self, other) -> "RootExpr":
        if type(other) is int:
            return _make(self.num + other * self.den, self.terms, self.den)
        if isinstance(other, RootExpr):
            return _combine(self, other, 1)
        return _add_rational(self, *_rational(other))

    __radd__ = __add__

    def __neg__(self) -> "RootExpr":
        return _neg(self)

    def __sub__(self, other) -> "RootExpr":
        if type(other) is int:
            return _make(self.num - other * self.den, self.terms, self.den)
        if isinstance(other, RootExpr):
            return _combine(self, other, -1)
        n, d = _rational(other)
        return _add_rational(self, -n, d)

    def __rsub__(self, other) -> "RootExpr":
        if type(other) is int:
            return _make(other * self.den - self.num,
                         tuple((m, -b) for m, b in self.terms), self.den)
        return _add_rational(_neg(self), *_rational(other))

    def scale(self, k) -> "RootExpr":
        if type(k) is int:
            return _scale_int(self, k)
        return _scale(self, *_rational(k))

    def __mul__(self, other) -> "RootExpr":
        if type(other) is int:
            return _scale_int(self, other)
        if isinstance(other, RootExpr):
            return _mul(self, other)
        return _scale(self, *_rational(other))

    __rmul__ = __mul__

    def inverse(self) -> "RootExpr":
        return _inverse(self)

    def __truediv__(self, other) -> "RootExpr":
        if isinstance(other, RootExpr):
            return _mul(self, _inverse(other))
        n, d = _rational(other)
        if n == 0:
            raise ZeroDivisionError("RootExpr divided by zero")
        return _scale(self, d, n) if n > 0 else _scale(self, -d, -n)

    # -- predicates -----------------------------------------------------------

    def is_rational(self) -> bool:
        return not self.terms

    def as_fraction(self) -> Fraction:
        if self.terms:
            raise KernelError("expression is irrational")
        return Fraction(self.num, self.den)

    def __repr__(self):
        parts = [str(self.num)] if self.num or not self.terms else []
        for m, b in self.terms:
            parts.append(f"{b}*sqrt({m})")
        body = " + ".join(parts)
        return f"RootExpr(({body}) / {self.den})" if self.den != 1 else f"RootExpr({body})"

    def __eq__(self, other):
        if type(other) is int:
            return not self.terms and self.den == 1 and self.num == other
        if isinstance(other, RootExpr):
            return (self.num == other.num and self.den == other.den
                    and self.terms == other.terms)
        if isinstance(other, (int, Fraction)):
            return (not self.terms and self.num == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.terms, self.den))


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


def _neg(e: RootExpr) -> RootExpr:
    return _make(-e.num, tuple((m, -b) for m, b in e.terms), e.den)


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


def _add_rational(e: RootExpr, n: int, d: int) -> RootExpr:
    """e + n/d for d > 0."""
    if d == 1:
        # adding a multiple of den leaves gcd(den, num, b...) alone
        return _make(e.num + n * e.den, e.terms, e.den)
    return _combine(e, _make(n, (), d), 1)


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
    return _make(e.num * k, tuple((m, b * k) for m, b in e.terms), den)


def _scale(e: RootExpr, kn: int, kd: int) -> RootExpr:
    """e * kn/kd for kd > 0."""
    if kd == 1:
        return _scale_int(e, kn)
    if kn == 0:
        return _make(0, (), 1)
    return _reduced(e.num * kn, tuple((m, b * kn) for m, b in e.terms), e.den * kd)


def _mul(a: RootExpr, b: RootExpr) -> RootExpr:
    n1, n2 = a.num, b.num
    const = n1 * n2
    acc = {}
    if n2:
        for m, c in a.terms:
            acc[m] = c * n2
    if n1:
        for m, c in b.terms:
            acc[m] = acc.get(m, 0) + c * n1
    for m1, c1 in a.terms:
        for m2, c2 in b.terms:
            g = gcd(m1, m2)
            outer, core = _norm_radicand((m1 // g) * (m2 // g))
            c = c1 * c2 * g * outer
            if core == 1:
                const += c
            else:
                acc[core] = acc.get(core, 0) + c
    terms = tuple(sorted((m, c) for m, c in acc.items() if c))
    return _reduced(const, terms, a.den * b.den)


def _inverse(e: RootExpr) -> RootExpr:
    num, terms, den = e.num, e.terms, e.den
    k = len(terms)
    if k == 0:
        if num == 0:
            raise ZeroDivisionError("inverse of zero RootExpr")
        return _make(den, (), num) if num > 0 else _make(-den, (), -num)
    if k == 1:
        # den / (num + b sqrt(m)) = den (num - b sqrt(m)) / (num^2 - b^2 m)
        (m, b), = terms
        norm = num * num - b * b * m
        if norm == 0:
            raise ZeroDivisionError("inverse of zero RootExpr")
        if norm < 0:
            den, norm = -den, -norm
        return _reduced(den * num, ((m, -den * b),), norm)
    if k == 2:
        # conjugate over sqrt(m2): with A = num + b1 sqrt(m1),
        # den / (A + b2 sqrt(m2)) = den (A - b2 sqrt(m2)) / (A^2 - b2^2 m2)
        (m1, b1), (m2, b2) = terms
        c = num * num + b1 * b1 * m1 - b2 * b2 * m2
        s = 2 * num * b1
        if c == 0 and s == 0:
            raise ZeroDivisionError("inverse of zero RootExpr")
        norm = _make(c, ((m1, s),) if s else (), 1)
        conj = _reduced(den * num, ((m1, den * b1), (m2, -den * b2)), 1)
        return _mul(conj, _inverse(norm))
    raise KernelError("inverse supported for at most 2 distinct radicands")


# -- exact sign for <= 2 radicands ---------------------------------------------


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


# -- certified fixed-point evaluation -------------------------------------------


@dataclass(frozen=True)
class FixedApprox:
    """mantissa * 2^-frac_bits with |true - represented| <= error_ulps ulps."""

    mantissa: int
    frac_bits: int
    error_ulps: int

    def interval(self) -> tuple[int, int]:
        return self.mantissa - self.error_ulps, self.mantissa + self.error_ulps


def sqrt_fixed(m: int, frac_bits: int) -> FixedApprox:
    """Certified fixed-point sqrt: mantissa = isqrt(m * 4^frac_bits)."""
    if m < 0:
        raise KernelError("sqrt of negative integer")
    mant = isqrt(m << (2 * frac_bits))
    err = 0 if mant * mant == m << (2 * frac_bits) else 1
    return FixedApprox(mant, frac_bits, err)


def eval_fixed(e: RootExpr, frac_bits: int) -> FixedApprox:
    """Evaluate a RootExpr to a certified FixedApprox at the given precision.

    num/den contributes floor(num 2^fb / den), exact or 1 ulp off; each
    b/den * sqrt(m) with sqrt(m) at x +- err ulps contributes floor(x b / den)
    with ceil(|b| err / den) + 1 ulps.  Neither depends on reducing b/den.
    """
    den = e.den
    x = e.num << frac_bits
    mant = x // den
    err = 0 if mant * den == x else 1
    for m, b in e.terms:
        s = sqrt_fixed(m, frac_bits)
        mant += s.mantissa * b // den
        err += (abs(b) * s.error_ulps + den - 1) // den + 1
    return FixedApprox(mant, frac_bits, err)


def _interval(e: RootExpr, frac_bits: int) -> tuple[int, int]:
    fa = eval_fixed(e, frac_bits)
    return fa.interval()


# -- comparisons, floors, fractional parts --------------------------------------


_CMP = (Cmp.EQUAL, Cmp.GREATER, Cmp.LESS)   # indexed by a sign -1, 0 or 1


def cmp_root(e: RootExpr, rhs=0) -> Cmp:
    """Three-way comparison of a RootExpr against a rational; certified.

    Up to two radicands the comparison is one exact sign; Undecided only
    after the precision ladder is exhausted on a >2-radicand expression.
    """
    n, d = _rational(rhs)
    terms = e.terms
    k = len(terms)
    # e - n/d has the sign of (d num - n den) + sum d b_i sqrt(m_i): d, den > 0
    c = d * e.num - n * e.den
    if k == 0:
        return _CMP[(c > 0) - (c < 0)]
    if k == 1:
        (m, b), = terms
        return _CMP[_sign_1rad(c, d * b, m)]
    if k == 2:
        (m1, b1), (m2, b2) = terms
        return _CMP[_sign_2rad(c, d * b1, m1, d * b2, m2)]
    diff = _add_rational(e, -n, d)
    for fb in LADDER:
        lo, hi = _interval(diff, fb)
        if lo > 0:
            return Cmp.GREATER
        if hi < 0:
            return Cmp.LESS
    return Cmp.UNDECIDED


def _floor_sqrt_mul(b: int, m: int) -> int:
    """floor(b*sqrt(m)) for m >= 0, by isqrt."""
    x = b * b * m
    r = isqrt(x)
    if b >= 0:
        return r
    return -r if r * r == x else -r - 1


def floor_root(e: RootExpr) -> int | None:
    """Exact floor of a RootExpr; None when Undecided.

    With s = num + sum b_i sqrt(m_i), floor(e) = floor(floor(s) / den).  On
    one radicand floor(s) is one isqrt.  On two it is the sum t of the two
    isqrt floors, or t + 1, which one exact sign decides.  Three or more
    radicands go through the interval ladder.
    """
    terms = e.terms
    k = len(terms)
    if k == 0:
        return e.num // e.den
    if k == 1:
        (m, b), = terms
        return (e.num + _floor_sqrt_mul(b, m)) // e.den
    if k == 2:
        (m1, b1), (m2, b2) = terms
        t = _floor_sqrt_mul(b1, m1) + _floor_sqrt_mul(b2, m2)
        if _sign_2rad(-t - 1, b1, m1, b2, m2) >= 0:
            t += 1
        return (e.num + t) // e.den
    for fb in LADDER:
        lo, hi = _interval(e, fb)
        fl, fh = lo >> fb, hi >> fb
        if fl == fh:
            return fl
    return None


def frac_root(e: RootExpr) -> tuple[int, RootExpr] | None:
    """(floor, fractional part) of a RootExpr; None when Undecided."""
    f = floor_root(e)
    if f is None:
        return None
    return f, _make(e.num - f * e.den, e.terms, e.den)
