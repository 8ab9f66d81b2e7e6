"""Shared exact decision helpers for catalog predicates: one window quantity
against a rational threshold.

Everything here reduces to integer arithmetic; no floating point and no
Fraction enters any decision.  A rational threshold t is passed as two ints,
num and den with den > 0; each helper multiplies its quantity by den (or
den^2) and hands plain ints to the kernel's sign procedure.  The window
comparisons (floor(sqrt(p) + sqrt(q)), the Delta order, the mu order and mu
against a rational) live in `window`.
"""

from __future__ import annotations

from math import isqrt

from ..exact import _sign_1rad
from ..window import GapWindow


def delta_vs_rational(w: GapWindow, num: int, den: int) -> int:
    """Exact sign of Delta_n - num/den for num >= 0."""
    # sign(Delta - t) = sign(Delta^2 - t^2) = sign((p + q - t^2) - 2 sqrt(pq)),
    # times den^2
    lhs = den * den * (w.p + w.q) - num * num
    if lhs <= 0:
        return -1  # t^2 >= p + q > Delta^2
    return _sign_1rad(lhs, -2 * den * den, w.p * w.q)


def sqrtq_delta_frac_cmp(w: GapWindow, num: int, den: int) -> int:
    """Exact sign of {sqrt(q)*Delta} - num/den using {sqrt(q)Delta} = s+1-sqrt(pq)."""
    return _sign_1rad(den * (w.s + 1) - num, -den, w.p * w.q)


def mu_sqrtp_frac_cmp(w: GapWindow, num: int, den: int) -> int:
    """Exact sign of {mu_n sqrt(p_n)} - num/den; the frac equals tN + 1 - N*sqrt(p)."""
    return _sign_1rad(den * (w.tN + 1) - num, -den * w.N, w.p)


def is_square(x: int) -> bool:
    if x < 0:
        return False
    r = isqrt(x)
    return r * r == x
