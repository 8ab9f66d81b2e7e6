"""Shared exact decision helpers for catalog predicates.

Everything here reduces to integer arithmetic or to the exact kernel; no
floating point enters any decision.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from ..exact import _sign_1rad, _sign_2rad
from ..window import GapWindow


def sqrt_vs_rational(m: int, t: Fraction) -> int:
    """Exact sign of sqrt(m) - t."""
    t = Fraction(t)
    if t < 0:
        return 1 if m >= 0 else -1
    lhs = m * t.denominator * t.denominator
    rhs = t.numerator * t.numerator
    return (lhs > rhs) - (lhs < rhs)


def cmp_sqrt_sums(a: int, b: int, c: int, e: int) -> int:
    """Exact sign of (sqrt(a)+sqrt(b)) - (sqrt(c)+sqrt(e))."""
    return _sign_2rad(Fraction(a + b - c - e), Fraction(2), a * b, Fraction(-2), c * e)


def cmp_weighted_sums(ca: int, a: int, cb: int, b: int, cc: int, c: int, ce: int, e: int) -> int:
    """Exact sign of (ca*sqrt(a)+cb*sqrt(b)) - (cc*sqrt(c)+ce*sqrt(e)),
    all weights non-negative."""
    lhs_sq = ca * ca * a + cb * cb * b
    rhs_sq = cc * cc * c + ce * ce * e
    return _sign_2rad(Fraction(lhs_sq - rhs_sq),
                      Fraction(2 * ca * cb), a * b,
                      Fraction(-2 * cc * ce), c * e)


def delta_vs_rational(w: GapWindow, t: Fraction) -> int:
    """Exact sign of Delta_n - t for rational t >= 0."""
    t = Fraction(t)
    # sign(Delta - t) = sign(Delta^2 - t^2) = sign((p + q - t^2) - 2 sqrt(pq))
    lhs = Fraction(w.p + w.q) - t * t
    if lhs <= 0:
        return -1  # t^2 >= p + q > Delta^2
    return _sign_1rad(lhs, Fraction(-2), w.p * w.q)


def delta_vs_delta4(w: GapWindow) -> int:
    """Exact sign of Delta_n - (sqrt(11) - sqrt(7))."""
    return cmp_sqrt_sums(w.q, 7, 11, w.p)


def sqrtq_delta_frac_cmp(w: GapWindow, t: Fraction) -> int:
    """Exact sign of {sqrt(q)*Delta} - t using {sqrt(q)Delta} = s+1-sqrt(pq)."""
    return _sign_1rad(w.s + 1 - Fraction(t), Fraction(-1), w.p * w.q)


def mu_cmp(w: GapWindow, t: Fraction) -> int:
    """Exact sign of mu_n - t."""
    return sqrt_vs_rational(w.p, w.N + Fraction(t))


def mu_diff_sign(w: GapWindow) -> int:
    """Exact sign of mu_n - mu_{n+1}."""
    # (sqrt(p) - N) - (sqrt(q) - Nq)
    return _sign_2rad(Fraction(w.Nq - w.N), Fraction(1), w.p, Fraction(-1), w.q)


def mu_sqrtp_frac_cmp(w: GapWindow, t: Fraction) -> int:
    """Exact sign of {mu_n sqrt(p_n)} - t; the frac equals tN + 1 - N*sqrt(p)."""
    return _sign_1rad(w.tN + 1 - Fraction(t), Fraction(-w.N), w.p)


def floor_D(w: GapWindow) -> int:
    """floor(sqrt(p) + sqrt(q)), decided exactly."""
    base = w.N + w.Nq
    # D in (base, base+2); compare against base+1
    s = cmp_sqrt_sums(w.p, w.q, (base + 1) * (base + 1), 0)
    # sqrt((base+1)^2) + sqrt(0) = base+1; equality impossible (D irrational)
    return base + 1 if s > 0 else base


def is_square(x: int) -> bool:
    if x < 0:
        return False
    r = isqrt(x)
    return r * r == x
