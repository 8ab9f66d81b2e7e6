"""Shared exact decision helpers for catalog predicates.

Everything here reduces to integer arithmetic or to the exact kernel; no
floating point enters any decision.  A rational threshold t is passed as two
ints, num and den with den > 0; each helper multiplies its quantity by den
(or den^2) and hands plain ints to the kernel's sign procedures.
"""

from __future__ import annotations

from math import isqrt

from ..exact import _sign_1rad, _sign_2rad
from ..window import GapWindow


def cmp_sqrt_sums(a: int, b: int, c: int, e: int) -> int:
    """Exact sign of (sqrt(a)+sqrt(b)) - (sqrt(c)+sqrt(e))."""
    return _sign_2rad(a + b - c - e, 2, a * b, -2, c * e)


def cmp_weighted_sums(ca: int, a: int, cb: int, b: int, cc: int, c: int, ce: int, e: int) -> int:
    """Exact sign of (ca*sqrt(a)+cb*sqrt(b)) - (cc*sqrt(c)+ce*sqrt(e)),
    all weights non-negative."""
    lhs_sq = ca * ca * a + cb * cb * b
    rhs_sq = cc * cc * c + ce * ce * e
    return _sign_2rad(lhs_sq - rhs_sq, 2 * ca * cb, a * b, -2 * cc * ce, c * e)


def delta_vs_rational(w: GapWindow, num: int, den: int) -> int:
    """Exact sign of Delta_n - num/den for num >= 0."""
    # sign(Delta - t) = sign(Delta^2 - t^2) = sign((p + q - t^2) - 2 sqrt(pq)),
    # times den^2
    lhs = den * den * (w.p + w.q) - num * num
    if lhs <= 0:
        return -1  # t^2 >= p + q > Delta^2
    return _sign_1rad(lhs, -2 * den * den, w.p * w.q)


def delta_vs_delta4(w: GapWindow) -> int:
    """Exact sign of Delta_n - (sqrt(11) - sqrt(7))."""
    return cmp_sqrt_sums(w.q, 7, 11, w.p)


def sqrtq_delta_frac_cmp(w: GapWindow, num: int, den: int) -> int:
    """Exact sign of {sqrt(q)*Delta} - num/den using {sqrt(q)Delta} = s+1-sqrt(pq)."""
    return _sign_1rad(den * (w.s + 1) - num, -den, w.p * w.q)


def mu_cmp(w: GapWindow, num: int, den: int) -> int:
    """Exact sign of mu_n - num/den, from den*sqrt(p) - (den*N + num)."""
    return _sign_1rad(-(den * w.N + num), den, w.p)


def mu_diff_sign(w: GapWindow) -> int:
    """Exact sign of mu_n - mu_{n+1}."""
    # (sqrt(p) - N) - (sqrt(q) - Nq)
    return _sign_2rad(w.Nq - w.N, 1, w.p, -1, w.q)


def mu_sqrtp_frac_cmp(w: GapWindow, num: int, den: int) -> int:
    """Exact sign of {mu_n sqrt(p_n)} - num/den; the frac equals tN + 1 - N*sqrt(p)."""
    return _sign_1rad(den * (w.tN + 1) - num, -den * w.N, w.p)


def is_square(x: int) -> bool:
    if x < 0:
        return False
    r = isqrt(x)
    return r * r == x
