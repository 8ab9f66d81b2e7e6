"""Shared exact decision helpers for catalog predicates: a window's
fractional part against a rational threshold, the square test, and the twin
domain.

Everything here reduces to integer arithmetic; no floating point and no
Fraction enters any decision.  A rational threshold t is passed as two ints,
num and den with den > 0; each helper multiplies its fractional part by den
and hands plain ints to the kernel's sign procedure.  The window
comparisons (floor(sqrt(p) + sqrt(q)), the Delta order, the mu order and mu
against a rational) live in `window`, and Delta against 1/2, the one
threshold Delta meets, is the `delta_vs_half` view there.
"""

from __future__ import annotations

from math import isqrt

from ..exact import _sign_1rad
from ..window import GapWindow


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


def twin(ctx, tri) -> bool:
    """The domain d = 2 of every checker that fires on twin windows only:
    one function, so the engine asks it once per window for all of them."""
    return tri.w.d == 2
