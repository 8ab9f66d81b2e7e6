"""Checker catalog: floor/fractional-part family (source statements 3.1 - 4.11).

The single integer s = isqrt(p*q) decides every sqrt(p)*Delta floor exactly:
  floor(sqrt(q)*Delta) = q - s - 1,  floor(sqrt(p)*Delta) = s - p,
  {sqrt(q)*Delta} = s + 1 - sqrt(pq),  {sqrt(p)*Delta} = sqrt(pq) - s.
Checkers tagged "kernel" run through RootExpr instead, as an independent path:
each value there sits in a RootExpr's two slots over sqrt(p), sqrt(q) or
sqrt(pq), where a third radicand would raise KernelError as it is built,
and each decision is one exact sign over those slots.
thm-43 states an identity of every integer window, so it returns HOLD over
its domain, and the identity clauses of h-def, lemma-42, ratio-frac and
n2p1-family leave their checkers the same way: each checker's docstring
gives the algebra, and tests/test_exact.py checks the identities through the
kernel.  The generic inequalities of mu-bounds and mu-series stay per window,
each on an exact integer path: signs over one radicand, or one isqrt.
"""

from __future__ import annotations

from math import comb, isqrt

from ..exact import Cmp, cmp_root, frac_root, _sign_1rad, _sign_2rad
from ..window import (delta_order, mu_in_brackets, mu_order, mu_vs_rational,
                      sqrtq_delta_frac_cmp)
from .types import HOLD, MISS, Kind, checker, violate


@checker("floor-31", Kind.UNIVERSAL,
         title="d = floor(2 sqrt(q) Delta); d = floor(2 sqrt(p) Delta) + 1 (n >= 2)",
         source="proposition 3.1")
def _floor_31(tri, st):
    w = tri.w
    t2 = isqrt(4 * w.p * w.q)  # floor(2 sqrt(pq))
    if 2 * w.q - 1 - t2 != w.d:
        return violate("floor(2 sqrt(q) Delta) != d")
    if w.n >= 2 and t2 - 2 * w.p != w.d - 1:
        return violate("floor(2 sqrt(p) Delta) != d - 1")
    return HOLD


@checker("floor-32", Kind.UNIVERSAL,
         title="d/2 - 1 = floor(sqrt(p) Delta - 1/2)",
         source="proposition 3.2", n_min=2)
def _floor_32(tri, st):
    w = tri.w
    f = w.floor_sqrtp_delta_half
    return HOLD if f == w.d // 2 - 1 else violate(f"floor {f}")


@checker("frac-33", Kind.UNIVERSAL,
         title="{sqrt(p) Delta - 1/2} < 1/2",
         source="corollary 3.3", n_min=2)
def _frac_33(tri, st):
    w = tri.w
    # the fractional part against 1/2, times 2:
    # 2 sqrt(p) Delta - 1 - 2 floor(sqrt(p) Delta - 1/2) against 1
    c = cmp_root(w.two_sqrtp_delta - (2 * w.floor_sqrtp_delta_half + 1), 1)
    return HOLD if c is Cmp.LESS else violate("frac >= 1/2")


@checker("thm-34", Kind.UNIVERSAL,
         title="d = floor(sqrt(q)D) + floor(sqrt(p)D) + 1; for n >= 2: "
               "d = 2(q-s-1) = 2(s-p+1), floors of opposite parity, "
               "0 < {sqrt(q) Delta} < 1/2",
         source="statement 3.4")
def _thm_34(tri, st):
    w = tri.w
    fq, fp = w.q - w.s - 1, w.s - w.p
    if fq + fp + 1 != w.d:
        return violate("floor sum identity")
    if w.n >= 2:
        if w.d != 2 * fq or w.d != 2 * (fp + 1):
            return violate(f"d != 2(q-s-1) or 2(s-p+1); s={w.s}")
        if fq % 2 == fp % 2:
            return violate("floors share parity")
        # {sqrt(q) Delta} < 1/2  <=>  sqrt(pq) > s + 1/2  <=>  4pq > (2s+1)^2
        if not 4 * w.p * w.q > (2 * w.s + 1) ** 2:
            return violate("{sqrt(q) Delta} >= 1/2")
    return HOLD


@checker("thm-35", Kind.UNIVERSAL,
         title="Delta^2 = 2 {sqrt(q) Delta} exactly; Delta^2 + 2 {sqrt(p) Delta} = 2; "
               "{sqrt(q) Delta} < 1/4 and {sqrt(p) Delta} > 3/4 (all for n >= 2; "
               "the printed n >= 1 on the quarter bound fails at n = 1)",
         source="statement 3.5", n_min=2)
def _thm_35(tri, st):
    w = tri.w
    frac_q, frac_p = frac_root(w.sqrtq_delta)[1], w.frac_sqrtp_delta
    if w.delta_sq != frac_q.scale(2):
        return violate("Delta^2 != 2 {sqrt(q) Delta}")
    ident = w.delta_sq + frac_p.scale(2)
    if ident != 2:
        return violate("Delta^2 + 2 {sqrt(p) Delta} != 2")
    # against 1/4 and 3/4, times 4
    cq = cmp_root(frac_q.scale(4), 1)
    cp = cmp_root(frac_p.scale(4), 3)
    if cq is not Cmp.LESS:
        return violate("{sqrt(q) Delta} >= 1/4")
    if cp is not Cmp.GREATER:
        return violate("{sqrt(p) Delta} <= 3/4")
    return HOLD


@checker("cor-36", Kind.UNIVERSAL,
         title="{1 + 2 sqrt(p) Delta} = 2 {sqrt(p) Delta} - 1 = 1 - {2 sqrt(q) Delta}",
         source="corollary 3.6", n_min=2)
def _cor_36(tri, st):
    w = tri.w
    lhs = frac_root(w.two_sqrtp_delta + 1)[1]
    mid = w.frac_sqrtp_delta.scale(2) - 1
    rhs = 1 - frac_root(w.sqrtq_delta.scale(2))[1]
    if lhs == mid == rhs:
        return HOLD
    return violate("three-way fractional identity failed")


@checker("chain-37", Kind.UNIVERSAL,
         title="sqrt(p)D < d/2 < sqrt(q)D < d/2 + 1/4 < sqrt(p)D + 1/2 "
               "< sqrt(2p)/2 + 1/2",
         source="corollary 3.7")
def _chain_37(tri, st):
    w = tri.w
    pq = w.p * w.q
    # sqrt(p)Delta = sqrt(pq) - p ;  sqrt(q)Delta = q - sqrt(pq); each link
    # times 2 or 4 to clear the halves and quarters
    if not _sign_1rad(-2 * w.p - w.d, 2, pq) < 0:
        return violate("sqrt(p)Delta >= d/2")
    if not _sign_1rad(2 * w.q - w.d, -2, pq) > 0:
        return violate("d/2 >= sqrt(q)Delta")
    if not _sign_1rad(4 * w.q - 2 * w.d - 1, -4, pq) < 0:
        return violate("sqrt(q)Delta >= d/2 + 1/4")
    if not _sign_1rad(-4 * w.p - 2 * w.d + 1, 4, pq) > 0:
        return violate("d/2 + 1/4 >= sqrt(p)Delta + 1/2")
    if not _sign_2rad(-2 * w.p, 2, pq, -1, 2 * w.p) < 0:
        return violate("sqrt(p)Delta + 1/2 >= sqrt(2p)/2 + 1/2")
    return HOLD


@checker("survey-quarter", Kind.SURVEY,
         title="collect n with Delta^2 >= 1/4",
         source="discussion after 3.7")
def _survey_quarter(tri, st):
    # Delta^2 >= 1/4 iff Delta >= 1/2
    return HOLD if tri.w.delta_vs_half >= 0 else MISS


@checker("survey-prod", Kind.SURVEY,
         title="collect n with {sqrt(q) Delta} > 2/d (product of parts exceeds 1)",
         source="question after 3.7", n_min=2)
def _survey_prod(tri, st):
    w = tri.w
    return HOLD if sqrtq_delta_frac_cmp(w, 2, w.d) > 0 else MISS


@checker("fixedgap-mono", Kind.UNIVERSAL,
         title="for each even g the subsequence {Delta_n : d_n = g} strictly decreases",
         source="fixed-gap discussion closing section 3",
         state_init=lambda: {"last": {}})
def _fixedgap_mono(tri, st):
    """Holds for every increasing chain of integer windows: Delta = d/D,
    and D grows along the chain."""
    w = tri.w
    key = str(w.d)
    prev = st["last"].get(key)
    st["last"][key] = [w.n, w.p, w.q]
    if prev is None:
        return HOLD
    if delta_order(w.p, w.q, prev[1], prev[2]) < 0:
        return HOLD
    return violate(f"Delta not decreasing within gap class {w.d}")


# -- statement 4.x ---------------------------------------------------------------


@checker("h-def", Kind.UNIVERSAL,
         title="1 <= h <= 2N, h != N, parity(h) != parity(N); (h - mu^2)/mu = 2N",
         source="statement 4.1", n_min=2)
def _h_def(tri, st):
    """(h - mu^2)/mu = 2N holds for every integer window, as
    h - mu^2 = mu (sqrt(p) + N) - mu^2 = 2N mu; tests/test_exact.py checks it
    through the kernel.  The bounds and parities of h stay per window."""
    w = tri.w
    if not 1 <= w.h <= 2 * w.N:
        return violate("h outside [1, 2N]")
    if w.h == w.N:
        return violate("h = N")
    if w.h % 2 == w.N % 2:
        return violate("h and N share parity")
    return HOLD


@checker("mu-bounds", Kind.UNIVERSAL,
         title="h/(2 sqrt(p)) < mu < h/(2N); refined upper bound h/(D-1) on "
               "shared windows, h/(2 sqrt(p) - 1) on straddles",
         source="displays 4.1 and 4.2", n_min=2)
def _mu_bounds(tri, st):
    """Holds for every integer window: mu = h/(sqrt(p) + N) with
    N < sqrt(p) < N + 1, so sqrt(p) + N lies between 2N and 2 sqrt(p), above
    D - 1 on shared windows (sqrt(q) < N + 1) and above 2 sqrt(p) - 1.
    Each bound is a sign over one radicand at a time."""
    w = tri.w
    # mu > h/(2 sqrt(p)):  (1 - h/(2p)) sqrt(p) - N > 0, times 2p
    if not _sign_1rad(-2 * w.p * w.N, 2 * w.p - w.h, w.p) > 0:
        return violate("mu <= h/(2 sqrt(p))")
    if not mu_vs_rational(w.p, w.N, w.h, 2 * w.N) < 0:
        return violate("mu >= h/(2N)")
    if w.same_part:
        # mu (D - 1) - h = (sqrt(p) - N)(sqrt(q) - (N + 1)), as h = p - N^2
        if not _sign_1rad(-w.N, 1, w.p) * _sign_1rad(-(w.N + 1), 1, w.q) < 0:
            return violate("mu >= h/(D-1) on a shared window")
    else:
        # mu (2 sqrt(p) - 1) < h  <=>  (2p + N - h) - (2N+1) sqrt(p) < 0
        if not _sign_1rad(2 * w.p + w.N - w.h, -(2 * w.N + 1), w.p) < 0:
            return violate("mu >= h/(2 sqrt(p) - 1) on a straddle")
    return HOLD


@checker("lemma-42", Kind.UNIVERSAL,
         title="Delta = mu' - mu iff shared integral part, else Delta = 1 + mu' - mu "
               "and mu > mu'",
         source="lemma 4.2")
def _lemma_42(tri, st):
    """Delta = mu' - mu on shared windows and Delta = 1 + mu' - mu on
    straddles hold for every integer window, as mu' - mu = Delta - (Nq - N);
    tests/test_exact.py checks both through the kernel.  mu > mu' on a
    straddle, that is Delta < 1, stays per window."""
    w = tri.w
    if w.straddle and not mu_order(w.p, w.N, w.q, w.Nq) > 0:
        return violate("mu <= mu' on a straddle")
    return HOLD


@checker("thm-43", Kind.UNIVERSAL,
         title="floor(h/mu) = 2N = 2 sqrt(p-h) and {h/mu} = mu",
         source="statement 4.3", n_min=2)
def _thm_43(tri, st):
    """Holds for every integer window: p - h = N^2 defines h, and
    h = mu (sqrt(p) + N) makes h/mu = 2N + mu with 0 < mu < 1."""
    return HOLD


# |binom(1/2, k)| = 2 Cat(k-1) / 4^k is dyadic, so _BINOM_HALF[k-1] =
# |binom(1/2, k)| * 2^22 is an integer for k = 1..9 (and up to k = 11)
_SERIES_SHIFT = 22
_BINOM_HALF = [comb(2 * k - 2, k - 1) // k << (_SERIES_SHIFT + 1 - 2 * k)
               for k in range(1, 10)]


def _mu_series_brackets(w):
    """(den, brackets) with den = 2^22 N^17 and, for K = 1..8, the bracket
    (lo, hi) = den (s_K N -+ |binom(1/2, K+1)| x^(K+1) N), where s_K is the
    order-K partial sum of the series sqrt(1 + x) - 1 at x = h/N^2 and the
    second term bounds its remainder.  The k-th series term times den N is
    t_k = 2^22 |binom(1/2, k)| h^k N^(2(9 - k)), an integer for k <= 9."""
    h, b = w.h, w.N * w.N
    h2, b2 = h * h, b * b
    h4, b4 = h2 * h2, b2 * b2
    c1, c2, c3, c4, c5, c6, c7, c8, c9 = _BINOM_HALF
    # written out: with mu_in_brackets, 4.4-5.7 us per window over n = 3..603
    # and 70000..70600, where loops over _BINOM_HALF took 6.8-8.9 us
    # (Python 3.11.7, min of 15 passes, alternating rounds)
    t1 = c1 * h * b4 * b4
    t2 = c2 * h2 * b4 * b2 * b
    t3 = c3 * h2 * h * b4 * b2
    t4 = c4 * h4 * b4 * b
    t5 = c5 * h4 * h * b4
    t6 = c6 * h4 * h2 * b2 * b
    t7 = c7 * h4 * h2 * h * b2
    t8 = c8 * h4 * h4 * b
    t9 = c9 * h4 * h4 * h
    # s_K N times den: the terms' signs alternate, the first positive
    m2 = t1 - t2
    m3 = m2 + t3
    m4 = m3 - t4
    m5 = m4 + t5
    m6 = m5 - t6
    m7 = m6 + t7
    m8 = m7 - t8
    return b4 * b4 * w.N << _SERIES_SHIFT, (
        (t1 - t2, t1 + t2), (m2 - t3, m2 + t3), (m3 - t4, m3 + t4), (m4 - t5, m4 + t5),
        (m5 - t6, m5 + t6), (m6 - t7, m6 + t7), (m7 - t8, m7 + t8), (m8 - t9, m8 + t9))


@checker("mu-series", Kind.UNIVERSAL,
         title="partial sums of the sqrt(1 + h/N^2) series bracket mu within the "
               "alternating remainder bound, for orders K = 1..8",
         source="statement 4.4", n_min=3)
def _mu_series(tri, st):
    """Holds for every integer window with N >= 2: mu = N (sqrt(1 + x) - 1)
    at x = h/N^2 <= 2/N <= 1, where the binomial series alternates with
    terms falling in size, so each partial sum lies within its next term.
    All 16 ends share one denominator, so one isqrt decides them."""
    w = tri.w
    inside = mu_in_brackets(w.p, w.N, *_mu_series_brackets(w))
    if all(inside):
        return HOLD
    return violate(f"series remainder bound failed at K={inside.index(False) + 1}")


@checker("ratio-frac", Kind.UNIVERSAL,
         title="{sqrt(q/p)} = Delta/sqrt(p) <= sqrt(5/3) - 1 < 1/3; < 1/4 for n >= 5",
         source="ratio discussion opening section 4")
def _ratio_frac(tri, st):
    """{sqrt(q/p)} = sqrt(pq)/p - 1 = Delta/sqrt(p) holds for every integer
    window with p < q < 4p, as both are (sqrt(pq) - p)/p; tests/test_exact.py
    checks it through the kernel.  The floor and the bounds stay per window."""
    w = tri.w
    if not w.p < w.q < 4 * w.p:
        return violate("floor(sqrt(q/p)) != 1")
    # <= sqrt(5/3) - 1 = sqrt(15)/3 - 1, equality at n = 2; times 3p
    s = _sign_2rad(0, 3, w.p * w.q, -w.p, 15)
    if s > 0:
        return violate("{sqrt(q/p)} > sqrt(5/3) - 1")
    if not 9 * w.q < 16 * w.p:
        return violate("{sqrt(q/p)} >= 1/3")
    if w.n >= 5 and not 16 * w.q < 25 * w.p:
        return violate("{sqrt(q/p)} >= 1/4 for n >= 5")
    return HOLD


def _trend_delta_state():
    return {"blocks": {}}


def _trend_delta_final(st, extra):
    rows = []
    running_max_at_4 = True
    for key in sorted(st["blocks"], key=int):
        n, p, q = st["blocks"][key]
        # display only: each root floored to 64 fraction bits
        mant = isqrt(q << 128) - isqrt(p << 128)
        rows.append([int(key), n, round(mant / 2 ** 64, 6)])
        # cumulative max must stay the n = 4 value: no later block beats it
        if n > 4 and delta_order(p, q, 7, 11) > 0:
            running_max_at_4 = False
    extra["block_max"] = rows
    extra["running_max_attained_at_4"] = running_max_at_4


@checker("trend-delta", Kind.TREND,
         title="per-dyadic-block max of Delta (diagnostic: block maxima shrink "
               "in the tail and the cumulative max stays at n = 4; not a proof "
               "of the vanishing limit)",
         source="statement 4.5 as a finite-range diagnostic",
         state_init=_trend_delta_state, finalize=_trend_delta_final)
def _trend_delta(tri, st):
    w = tri.w
    key = str(w.n.bit_length() - 1)
    cur = st["blocks"].get(key)
    if cur is None or delta_order(w.p, w.q, cur[1], cur[2]) > 0:
        st["blocks"][key] = [w.n, w.p, w.q]
    return HOLD


def _trend_mu_state():
    return {"min": None, "max": None, "rows": []}


def _trend_mu_final(st, extra):
    extra["checkpoints"] = st["rows"]


@checker("trend-mu", Kind.TREND,
         title="running min and max of mu at dyadic checkpoints (diagnostic for "
               "the accumulation endpoints 0 and 1)",
         source="corollary 4.7 as a finite-range diagnostic",
         state_init=_trend_mu_state, finalize=_trend_mu_final)
def _trend_mu(tri, st):
    w = tri.w
    me = [w.n, w.p, w.N]
    if st["min"] is None:
        st["min"] = me
        st["max"] = me
    else:
        if mu_order(w.p, w.N, st["min"][1], st["min"][2]) < 0:
            st["min"] = me
        if mu_order(w.p, w.N, st["max"][1], st["max"][2]) > 0:
            st["max"] = me
    if w.n & (w.n - 1) == 0:  # power of two
        # display only: sqrt(p) floored to 64 fraction bits, less N
        lo, hi = (isqrt(p << 128) - (N << 64) for _, p, N in (st["min"], st["max"]))
        st["rows"].append([w.n, round(lo / 2 ** 64, 6), round(hi / 2 ** 64, 6)])
    return HOLD


@checker("n2p1-family", Kind.UNIVERSAL,
         title="floor(2 mu N) = h - 1 and {2 mu N} = 1 - mu^2 (all n >= 2); on the "
               "h = 1 family: sqrt(p) = (1 - mu^2)/(2 mu) + mu, mu sqrt(p) = "
               "{mu sqrt(p)}, mu decreasing, mu < 1/4 past p = 5, shared floor "
               "with the next prime",
         source="statements 4.8 - 4.11", n_min=2,
         state_init=lambda: {"prev_h1": None})
def _n2p1_family(tri, st):
    """{2 mu N} = 1 - mu^2 holds for every integer window, as
    2 mu N = h - mu^2 with 0 < mu < 1, and on h = 1 so does
    (1 - mu^2)/(2 mu) + mu = N + mu = sqrt(p); tests/test_exact.py checks
    both through the kernel.  The floors and the family clauses stay per
    window."""
    w = tri.w
    if w.t2N - 2 * w.N * w.N != w.h - 1:
        return violate("floor(2 mu N) != h - 1")
    if w.h != 1:
        return HOLD
    if w.p - w.tN - 1 != 0:
        return violate("mu sqrt(p) not already fractional")
    t2m = 2 * w.p - 1 - w.t2N
    if t2m != 1:
        return violate("floor(2 mu sqrt(p)) != 1")
    if w.n >= 3:
        prev = st["prev_h1"]
        if prev is not None and not mu_order(w.p, w.N, prev[1], prev[2]) < 0:
            return violate("mu not decreasing along the h = 1 family")
        st["prev_h1"] = [w.n, w.p, w.N]
        if w.p > 5 and not 16 * w.p < (4 * w.N + 1) ** 2:
            return violate("mu >= 1/4 past p = 5")
        if not w.same_part:
            return violate("h = 1 prime not sharing its floor with the next prime")
    return HOLD
