"""Exact decision kernel for expressions built from square roots of integers.

A :class:`RootExpr` is a value  q0 + sum_i qi*sqrt(mi)  with rational qi and
positive integer radicands mi (square parts folded into coefficients during
normalization).  Comparisons, floors and fractional parts are decided without
floating point: expressions with at most two distinct radicands get a complete
algebraic sign procedure (iterated squaring); anything wider is bracketed by a
certified dyadic interval with an escalating precision ladder and reported
Undecided if the ladder is exhausted.

A RootExpr holds only ints and Fractions; any other number raises TypeError.
The sign procedures `_sign_1rad` and `_sign_2rad` take plain ints only: a sign
does not change when every term is multiplied by the same positive integer,
so callers clear denominators that way (`exact_sign` does it once per
RootExpr) and never pass a Fraction.
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


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _rational(x):
    """x itself if it is an int or a Fraction; a RootExpr takes nothing else."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"RootExpr takes int or Fraction, not {type(x).__name__}")


@lru_cache(maxsize=1 << 20)
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
    """Normalized  const + sum coef*sqrt(radicand)  with rational parts.

    Coefficients are exact rationals, stored as plain ints whenever integral.
    """

    __slots__ = ("const", "terms")

    def __init__(self, const, terms=()):
        # terms: iterable of (radicand, coef); assumed already normalized
        self.const = _rational(const)
        self.terms = tuple(terms)

    # -- construction -------------------------------------------------------

    @classmethod
    def of(cls, value) -> "RootExpr":
        return cls(value)

    @classmethod
    def sqrt(cls, m: int, coef=1) -> "RootExpr":
        if _rational(coef) == 0:
            return cls(0)
        outer, core = _norm_radicand(m)
        if core == 1:
            return cls(coef * outer)
        return cls(0, ((core, coef * outer),))

    @classmethod
    def build(cls, const, parts: dict) -> "RootExpr":
        e = cls.of(const)
        for m, coef in parts.items():
            e = e + cls.sqrt(m, coef)
        return e

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "RootExpr":
        if not isinstance(other, RootExpr):
            return RootExpr(self.const + _rational(other), self.terms)
        merged = dict(self.terms)
        for m, c in other.terms:
            nc = merged.get(m, 0) + c
            if nc:
                merged[m] = nc
            else:
                merged.pop(m, None)
        return RootExpr(self.const + other.const, sorted(merged.items()))

    __radd__ = __add__

    def __neg__(self) -> "RootExpr":
        return RootExpr(-self.const, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other) -> "RootExpr":
        if not isinstance(other, RootExpr):
            return RootExpr(self.const - _rational(other), self.terms)
        return self + (-other)

    def __rsub__(self, other) -> "RootExpr":
        return (-self) + other

    def scale(self, k) -> "RootExpr":
        if _rational(k) == 0:
            return RootExpr(0)
        return RootExpr(self.const * k, tuple((m, c * k) for m, c in self.terms))

    def __mul__(self, other) -> "RootExpr":
        if not isinstance(other, RootExpr):
            return self.scale(other)
        out = RootExpr(self.const * other.const)
        if other.const:
            out = out + RootExpr(0, tuple((m, c * other.const) for m, c in self.terms))
        if self.const:
            out = out + RootExpr(0, tuple((m, c * self.const) for m, c in other.terms))
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                g = gcd(m1, m2)
                out = out + RootExpr.sqrt((m1 // g) * (m2 // g), c1 * c2 * g)
        return out

    __rmul__ = __mul__

    def inverse(self) -> "RootExpr":
        k = len(self.terms)
        if k == 0:
            if self.const == 0:
                raise ZeroDivisionError("inverse of zero RootExpr")
            return RootExpr(Fraction(1) / self.const)
        if k == 1:
            (m, b), c = self.terms[0], self.const
            den = c * c - b * b * m
            if den == 0:
                raise ZeroDivisionError("inverse of zero RootExpr")
            return RootExpr(Fraction(c) / den, ((m, Fraction(-b) / den),))
        if k == 2:
            (m2, b2) = self.terms[1]
            head = RootExpr(self.const, self.terms[:1])
            # conjugate over sqrt(m2): den = (const + b1*sqrt(m1))^2 - b2^2*m2
            den = head * head - RootExpr(b2 * b2 * m2)
            if not den.terms and den.const == 0:
                raise ZeroDivisionError("inverse of zero RootExpr")
            num = head + RootExpr.sqrt(m2, -b2)
            return num * den.inverse()
        raise KernelError("inverse supported for at most 2 distinct radicands")

    def __truediv__(self, other) -> "RootExpr":
        if isinstance(other, RootExpr):
            return self * other.inverse()
        return self.scale(Fraction(1, _rational(other)))

    # -- predicates -----------------------------------------------------------

    def is_rational(self) -> bool:
        return not self.terms

    def as_fraction(self) -> Fraction:
        if self.terms:
            raise KernelError("expression is irrational")
        return Fraction(self.const)

    def __repr__(self):
        parts = [str(self.const)] if self.const or not self.terms else []
        for m, c in self.terms:
            parts.append(f"{c}*sqrt({m})")
        return "RootExpr(" + " + ".join(parts) + ")"

    def __eq__(self, other):
        if not isinstance(other, RootExpr):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = RootExpr(other)
        d = self - other
        return not d.terms and d.const == 0

    def __hash__(self):
        return hash((self.const, self.terms))


# -- exact sign for <= 2 radicands ---------------------------------------------


def _sign_1rad(c: int, b: int, m: int) -> int:
    """Exact sign of c + b*sqrt(m); ints only, m >= 0."""
    if b == 0 or m == 0:
        return _sign(c)
    if c == 0:
        return _sign(b)
    sc, sb = _sign(c), _sign(b)
    if sc == sb:
        return sc
    lhs = b * b * m
    rhs = c * c
    if lhs == rhs:
        return 0
    return sb if lhs > rhs else sc


def _sign_2rad(c: int, b1: int, m1: int, b2: int, m2: int) -> int:
    """Exact sign of c + b1*sqrt(m1) + b2*sqrt(m2) via iterated squaring;
    ints only, m1, m2 >= 0."""
    if m1 == 0 or b1 == 0:
        return _sign_1rad(c, b2, m2)
    if m2 == 0 or b2 == 0:
        return _sign_1rad(c, b1, m1)
    s1, s2 = _sign(b1), _sign(b2)
    if s1 == s2:
        su = s1
    else:
        q1, q2 = b1 * b1 * m1, b2 * b2 * m2
        su = 0 if q1 == q2 else (s1 if q1 > q2 else s2)
    if c == 0:
        return su
    sc = _sign(c)
    if su == 0 or sc == su:
        return sc
    st = _sign_1rad(c * c - b1 * b1 * m1 - b2 * b2 * m2, -2 * b1 * b2, m1 * m2)
    if st == 0:
        return 0
    return sc if st > 0 else su


def exact_sign(e: RootExpr) -> int | None:
    """Exact sign when the expression has at most 2 radicands, else None."""
    k = len(e.terms)
    if k == 0:
        return _sign(e.const)
    if k > 2:
        return None
    # times the positive lcm of the denominators: same sign, all ints
    parts = (e.const, *(b for _, b in e.terms))
    den = lcm(*(q.denominator for q in parts))
    c, *bs = (q.numerator * (den // q.denominator) for q in parts)
    if k == 1:
        return _sign_1rad(c, bs[0], e.terms[0][0])
    return _sign_2rad(c, bs[0], e.terms[0][0], bs[1], e.terms[1][0])


# -- certified fixed-point evaluation -------------------------------------------


@dataclass(frozen=True)
class FixedApprox:
    """mantissa * 2^-frac_bits with |true - represented| <= error_ulps ulps."""

    mantissa: int
    frac_bits: int
    error_ulps: int

    def interval(self) -> tuple[int, int]:
        return self.mantissa - self.error_ulps, self.mantissa + self.error_ulps

    def __add__(self, other: "FixedApprox") -> "FixedApprox":
        if other.frac_bits != self.frac_bits:
            raise KernelError("mismatched frac_bits")
        return FixedApprox(self.mantissa + other.mantissa, self.frac_bits,
                           self.error_ulps + other.error_ulps)

    def __neg__(self) -> "FixedApprox":
        return FixedApprox(-self.mantissa, self.frac_bits, self.error_ulps)

    def __sub__(self, other: "FixedApprox") -> "FixedApprox":
        return self + (-other)

    def __mul__(self, other: "FixedApprox") -> "FixedApprox":
        if other.frac_bits != self.frac_bits:
            raise KernelError("mismatched frac_bits")
        fb = self.frac_bits
        prod = self.mantissa * other.mantissa
        mant = prod >> fb
        # |x*y - mant*2^-fb| <= |x|e2 + |y|e1 + e1e2 + 1 (in ulps)
        err = ((abs(self.mantissa) * other.error_ulps
                + abs(other.mantissa) * self.error_ulps) >> fb) \
            + self.error_ulps * other.error_ulps + 2
        return FixedApprox(mant, fb, err)

    def scale(self, q: int | Fraction) -> "FixedApprox":
        mant = self.mantissa * q.numerator // q.denominator
        num = abs(q.numerator)
        err = (num * self.error_ulps + q.denominator - 1) // q.denominator + 1
        return FixedApprox(mant, self.frac_bits, err)


def sqrt_fixed(m: int, frac_bits: int) -> FixedApprox:
    """Certified fixed-point sqrt: mantissa = isqrt(m * 4^frac_bits)."""
    if m < 0:
        raise KernelError("sqrt of negative integer")
    mant = isqrt(m << (2 * frac_bits))
    err = 0 if mant * mant == m << (2 * frac_bits) else 1
    return FixedApprox(mant, frac_bits, err)


def fixed_of_fraction(q: int | Fraction, frac_bits: int) -> FixedApprox:
    num = q.numerator << frac_bits
    mant = num // q.denominator
    err = 0 if num % q.denominator == 0 else 1
    return FixedApprox(mant, frac_bits, err)


def eval_fixed(e: RootExpr, frac_bits: int) -> FixedApprox:
    """Evaluate a RootExpr to a certified FixedApprox at the given precision."""
    acc = fixed_of_fraction(e.const, frac_bits)
    for m, c in e.terms:
        acc = acc + sqrt_fixed(m, frac_bits).scale(c)
    return acc


def _interval(e: RootExpr, frac_bits: int) -> tuple[int, int]:
    fa = eval_fixed(e, frac_bits)
    return fa.interval()


# -- comparisons, floors, fractional parts --------------------------------------


def cmp_root(e: RootExpr, rhs=0) -> Cmp:
    """Three-way comparison of a RootExpr against a rational; certified.

    Equal is returned only when provable exactly; Undecided only after the
    precision ladder is exhausted on a >2-radicand expression.
    """
    diff = e - RootExpr.of(rhs)
    s = exact_sign(diff)
    if s is not None:
        return Cmp(s)
    for fb in LADDER:
        lo, hi = _interval(diff, fb)
        if lo > 0:
            return Cmp.GREATER
        if hi < 0:
            return Cmp.LESS
    return Cmp.UNDECIDED


def floor_root(e: RootExpr) -> int | None:
    """Exact floor of a RootExpr; None when Undecided.

    Single-radicand expressions use the isqrt fast path and are always
    decided; wider expressions go through the interval ladder with an exact
    two-radicand fallback.
    """
    k = len(e.terms)
    if k == 0:
        c = e.const
        return c.numerator // c.denominator
    if k == 1:
        (m, b), c = e.terms[0], e.const
        # floor((P + Q*sqrt(m)) / R) with R > 0
        R = c.denominator * b.denominator
        P = c.numerator * b.denominator
        Q = b.numerator * c.denominator
        t = isqrt(Q * Q * m)
        if Q < 0:
            t = -t - 1
        f = (P + t) // R
        # fix up with exact one-radicand sign tests on R*(e - f)
        while _sign_1rad(P - f * R, Q, m) < 0:
            f -= 1
        while _sign_1rad(P - (f + 1) * R, Q, m) >= 0:
            f += 1
        return f
    for fb in LADDER:
        lo, hi = _interval(e, fb)
        fl, fh = lo >> fb, hi >> fb
        if fl == fh:
            return fl
    if k == 2:
        f = lo >> fb
        while exact_sign(e - f) < 0:
            f -= 1
        while exact_sign(e - (f + 1)) >= 0:
            f += 1
        return f
    return None


def frac_root(e: RootExpr) -> tuple[int, RootExpr] | None:
    """(floor, fractional part) of a RootExpr; None when Undecided."""
    f = floor_root(e)
    if f is None:
        return None
    return f, e - f
