"""Checker catalog: floor/fractional-part family (source statements 3.1 - 4.11).

The single integer s = isqrt(p*q) decides every sqrt(p)*Delta floor exactly:
  floor(sqrt(q)*Delta) = q - s - 1,  floor(sqrt(p)*Delta) = s - p,
  {sqrt(q)*Delta} = s + 1 - sqrt(pq),  {sqrt(p)*Delta} = sqrt(pq) - s.
Checkers tagged "kernel" run through RootExpr instead, as an independent path.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt

from ..exact import (Cmp, RootExpr, cmp_root, eval_fixed, frac_root,
                     _sign_1rad, _sign_2rad)
from ..window import HALF, root_views
from .predicates import cmp_sqrt_sums, mu_cmp, mu_diff_sign, sqrtq_delta_frac_cmp
from .types import HOLD, MISS, Kind, checker, violate

F = Fraction

QUARTER = F(1, 4)
THREE_QUARTERS = F(3, 4)


@checker("floor-31", Kind.UNIVERSAL,
         title="d = floor(2 sqrt(q) Delta); d = floor(2 sqrt(p) Delta) + 1 (n >= 2)",
         source="proposition 3.1")
def _floor_31(ctx, tri, st):
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
def _floor_32(ctx, tri, st):
    w = tri.w
    f = root_views(w).floor_sqrtp_delta_half
    return HOLD if f == w.d // 2 - 1 else violate(f"floor {f}")


@checker("frac-33", Kind.UNIVERSAL,
         title="{sqrt(p) Delta - 1/2} < 1/2",
         source="corollary 3.3", n_min=2)
def _frac_33(ctx, tri, st):
    v = root_views(tri.w)
    c = cmp_root(v.sqrtp_delta_half - v.floor_sqrtp_delta_half, HALF)
    return HOLD if c is Cmp.LESS else violate("frac >= 1/2")


@checker("thm-34", Kind.UNIVERSAL,
         title="d = floor(sqrt(q)D) + floor(sqrt(p)D) + 1; for n >= 2: "
               "d = 2(q-s-1) = 2(s-p+1), floors of opposite parity, "
               "0 < {sqrt(q) Delta} < 1/2",
         source="statement 3.4")
def _thm_34(ctx, tri, st):
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
def _thm_35(ctx, tri, st):
    v = root_views(tri.w)
    frac_q, frac_p = v.frac_sqrtq_delta, v.frac_sqrtp_delta
    if v.delta_sq != frac_q.scale(2):
        return violate("Delta^2 != 2 {sqrt(q) Delta}")
    ident = v.delta_sq + frac_p.scale(2)
    if ident != 2:
        return violate("Delta^2 + 2 {sqrt(p) Delta} != 2")
    cq = cmp_root(frac_q, QUARTER)
    cp = cmp_root(frac_p, THREE_QUARTERS)
    if cq is not Cmp.LESS:
        return violate("{sqrt(q) Delta} >= 1/4")
    if cp is not Cmp.GREATER:
        return violate("{sqrt(p) Delta} <= 3/4")
    return HOLD


@checker("cor-36", Kind.UNIVERSAL,
         title="{1 + 2 sqrt(p) Delta} = 2 {sqrt(p) Delta} - 1 = 1 - {2 sqrt(q) Delta}",
         source="corollary 3.6", n_min=2)
def _cor_36(ctx, tri, st):
    v = root_views(tri.w)
    lhs = frac_root(v.two_sqrtp_delta + 1)[1]
    mid = v.frac_sqrtp_delta.scale(2) - 1
    rhs = 1 - frac_root(v.sqrtq_delta.scale(2))[1]
    if lhs == mid == rhs:
        return HOLD
    return violate("three-way fractional identity failed")


@checker("chain-37", Kind.UNIVERSAL,
         title="sqrt(p)D < d/2 < sqrt(q)D < d/2 + 1/4 < sqrt(p)D + 1/2 "
               "< sqrt(2p)/2 + 1/2",
         source="corollary 3.7")
def _chain_37(ctx, tri, st):
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
         source="discussion after 3.7",
         expected_survey=frozenset({2, 4, 6, 9, 11, 30}))
def _survey_quarter(ctx, tri, st):
    w = tri.w
    hit = (4 * (w.p + w.q) - 1) ** 2 >= 64 * w.p * w.q
    return HOLD if hit else MISS


@checker("survey-prod", Kind.SURVEY,
         title="collect n with {sqrt(q) Delta} > 2/d (product of parts exceeds 1)",
         source="question after 3.7", n_min=2)
def _survey_prod(ctx, tri, st):
    w = tri.w
    return HOLD if sqrtq_delta_frac_cmp(w, 2, w.d) > 0 else MISS


@checker("fixedgap-mono", Kind.UNIVERSAL,
         title="for each even g the subsequence {Delta_n : d_n = g} strictly decreases",
         source="fixed-gap discussion closing section 3",
         state_init=lambda: {"last": {}})
def _fixedgap_mono(ctx, tri, st):
    w = tri.w
    key = str(w.d)
    prev = st["last"].get(key)
    st["last"][key] = [w.n, w.p, w.q]
    if prev is None:
        return HOLD
    _, pp, pq_ = prev
    # Delta_new < Delta_prev  <=>  sqrt(q)+sqrt(pp) < sqrt(pq_)+sqrt(p)
    if cmp_sqrt_sums(w.q, pp, pq_, w.p) < 0:
        return HOLD
    return violate(f"Delta not decreasing within gap class {w.d}")


# -- statement 4.x ---------------------------------------------------------------


@checker("h-def", Kind.UNIVERSAL,
         title="1 <= h <= 2N, h != N, parity(h) != parity(N); (h - mu^2)/mu = 2N",
         source="statement 4.1", n_min=2)
def _h_def(ctx, tri, st):
    w = tri.w
    if not 1 <= w.h <= 2 * w.N:
        return violate("h outside [1, 2N]")
    if w.h == w.N:
        return violate("h = N")
    if w.h % 2 == w.N % 2:
        return violate("h and N share parity")
    v = root_views(w)
    if (w.h - v.mu_sq) / v.mu != 2 * w.N:
        return violate("(h - mu^2)/mu != 2N")
    return HOLD


@checker("mu-bounds", Kind.UNIVERSAL,
         title="h/(2 sqrt(p)) < mu < h/(2N); refined upper bound h/(D-1) on "
               "shared windows, h/(2 sqrt(p) - 1) on straddles",
         source="displays 4.1 and 4.2", n_min=2)
def _mu_bounds(ctx, tri, st):
    w = tri.w
    # mu > h/(2 sqrt(p)):  (1 - h/(2p)) sqrt(p) - N > 0, times 2p
    if not _sign_1rad(-2 * w.p * w.N, 2 * w.p - w.h, w.p) > 0:
        return violate("mu <= h/(2 sqrt(p))")
    if not mu_cmp(w, w.h, 2 * w.N) < 0:
        return violate("mu >= h/(2N)")
    if w.same_part:
        v = root_views(w)
        if cmp_root(v.mu * (v.D - 1) - w.h) is not Cmp.LESS:
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
def _lemma_42(ctx, tri, st):
    w = tri.w
    v = root_views(w)
    gap = v.delta - (v.mu_q - v.mu)
    if w.same_part:
        if gap != 0:
            return violate("Delta != mu' - mu on a shared window")
    else:
        if gap != 1:
            return violate("Delta != 1 + mu' - mu on a straddle")
        if not mu_diff_sign(w) > 0:
            return violate("mu <= mu' on a straddle")
    return HOLD


@checker("thm-43", Kind.UNIVERSAL,
         title="floor(h/mu) = 2N = 2 sqrt(p-h) and {h/mu} = mu",
         source="statement 4.3", n_min=2)
def _thm_43(ctx, tri, st):
    w = tri.w
    if w.p - w.h != w.N * w.N:
        return violate("p - h is not N^2")
    v = root_views(w)
    if v.floor_h_over_mu != 2 * w.N:
        return violate("floor(h/mu) != 2N")
    if v.frac_h_over_mu != v.mu:
        return violate("{h/mu} != mu")
    return HOLD


# |binom(1/2, k)| = 2 Cat(k-1) / 4^k is dyadic, so _BINOM_HALF[k-1] =
# |binom(1/2, k)| * 2^22 is an integer for k = 1..9 (and up to k = 11)
_SERIES_SHIFT = 22
_BINOM_HALF = [comb(2 * k - 2, k - 1) // k << (_SERIES_SHIFT + 1 - 2 * k)
               for k in range(1, 10)]


def _mu_series_brackets(w):
    """(lo, hi, den) for K = 1..8: s_K N -+ |binom(1/2, K+1)| x^(K+1) N over
    den = 2^22 N^(2K+1), where s_K is the order-K partial sum of the series
    sqrt(1 + x) - 1 at x = h/N^2 and the second term bounds its remainder."""
    h, N2 = w.h, w.N * w.N
    s = 0                              # s_K * 2^22 N^(2K)
    hk = h                             # h^(K+1) after step K
    den = w.N << _SERIES_SHIFT         # 2^22 N^(2K+1) after step K
    for k in range(1, 9):
        term = _BINOM_HALF[k - 1] * hk
        s = s * N2 + (term if k % 2 else -term)
        hk *= h
        den *= N2
        mid, bound = s * N2, _BINOM_HALF[k] * hk
        yield mid - bound, mid + bound, den


@checker("mu-series", Kind.UNIVERSAL,
         title="partial sums of the sqrt(1 + h/N^2) series bracket mu within the "
               "alternating remainder bound, for orders K = 1..8",
         source="statement 4.4", n_min=3)
def _mu_series(ctx, tri, st):
    w = tri.w
    for k, (lo, hi, den) in enumerate(_mu_series_brackets(w), 1):
        if not (mu_cmp(w, lo, den) > 0 and mu_cmp(w, hi, den) < 0):
            return violate(f"series remainder bound failed at K={k}")
    return HOLD


@checker("ratio-frac", Kind.UNIVERSAL,
         title="{sqrt(q/p)} = Delta/sqrt(p) <= sqrt(5/3) - 1 < 1/3; < 1/4 for n >= 5",
         source="ratio discussion opening section 4")
def _ratio_frac(ctx, tri, st):
    w = tri.w
    if not w.p < w.q < 4 * w.p:
        return violate("floor(sqrt(q/p)) != 1")
    v = root_views(w)
    frac = RootExpr.sqrt(w.p * w.q) / w.p - 1
    if frac != v.ratio_frac:
        return violate("{sqrt(q/p)} != Delta/sqrt(p)")
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


def _trend_delta_final(ctx, st, extra):
    rows = []
    running_max_at_4 = True
    for key in sorted(st["blocks"], key=int):
        n, p, q = st["blocks"][key]
        fa = eval_fixed(RootExpr.sqrt(q) - RootExpr.sqrt(p), 64)
        rows.append([int(key), n, round(fa.mantissa / 2 ** 64, 6)])
        # cumulative max must stay the n = 4 value: no later block beats it
        if n > 4 and cmp_sqrt_sums(q, 7, 11, p) > 0:
            running_max_at_4 = False
    extra["block_max"] = rows
    extra["running_max_attained_at_4"] = running_max_at_4


@checker("trend-delta", Kind.TREND,
         title="per-dyadic-block max of Delta (diagnostic: block maxima shrink "
               "in the tail and the cumulative max stays at n = 4; not a proof "
               "of the vanishing limit)",
         source="statement 4.5 as a finite-range diagnostic",
         state_init=_trend_delta_state, finalize=_trend_delta_final)
def _trend_delta(ctx, tri, st):
    w = tri.w
    key = str(w.n.bit_length() - 1)
    cur = st["blocks"].get(key)
    if cur is None or cmp_sqrt_sums(w.q, cur[1], cur[2], w.p) > 0:
        st["blocks"][key] = [w.n, w.p, w.q]
    return HOLD


def _trend_mu_state():
    return {"min": None, "max": None, "rows": []}


def _mu_less(a, b) -> bool:
    # mu(a) < mu(b), entries [n, p, N]
    return _sign_2rad(b[2] - a[2], 1, a[1], -1, b[1]) < 0


def _trend_mu_final(ctx, st, extra):
    extra["checkpoints"] = st["rows"]


@checker("trend-mu", Kind.TREND,
         title="running min and max of mu at dyadic checkpoints (diagnostic for "
               "the accumulation endpoints 0 and 1)",
         source="corollary 4.7 as a finite-range diagnostic",
         state_init=_trend_mu_state, finalize=_trend_mu_final)
def _trend_mu(ctx, tri, st):
    w = tri.w
    me = [w.n, w.p, w.N]
    if st["min"] is None:
        st["min"] = me
        st["max"] = me
    else:
        if _mu_less(me, st["min"]):
            st["min"] = me
        if _mu_less(st["max"], me):
            st["max"] = me
    if w.n & (w.n - 1) == 0:  # power of two
        lo = eval_fixed(RootExpr.sqrt(st["min"][1]) - st["min"][2], 64)
        hi = eval_fixed(RootExpr.sqrt(st["max"][1]) - st["max"][2], 64)
        st["rows"].append([w.n, round(lo.mantissa / 2 ** 64, 6),
                           round(hi.mantissa / 2 ** 64, 6)])
    return HOLD


@checker("n2p1-family", Kind.UNIVERSAL,
         title="floor(2 mu N) = h - 1 and {2 mu N} = 1 - mu^2 (all n >= 2); on the "
               "h = 1 family: sqrt(p) = (1 - mu^2)/(2 mu) + mu, mu sqrt(p) = "
               "{mu sqrt(p)}, mu decreasing, mu < 1/4 past p = 5, shared floor "
               "with the next prime",
         source="statements 4.8 - 4.11", n_min=2,
         state_init=lambda: {"prev_h1": None})
def _n2p1_family(ctx, tri, st):
    w = tri.w
    t = isqrt(4 * w.N * w.N * w.p)  # floor(2 N sqrt(p))
    if t - 2 * w.N * w.N != w.h - 1:
        return violate("floor(2 mu N) != h - 1")
    # {2 mu N} = 1 - mu^2 reduces to h = p - N^2, checked by construction;
    # verify via the kernel for independence
    v = root_views(w)
    one_minus_mu_sq = 1 - v.mu_sq
    if v.mu.scale(2 * w.N) - (w.h - 1) != one_minus_mu_sq:
        return violate("{2 mu N} != 1 - mu^2")
    if w.h != 1:
        return HOLD
    if one_minus_mu_sq / v.mu.scale(2) + v.mu != v.sqrt_p:
        return violate("sqrt(p) identity on the h = 1 family")
    if w.p - w.tN - 1 != 0:
        return violate("mu sqrt(p) not already fractional")
    t2m = 2 * w.p - 1 - t
    if t2m != 1:
        return violate("floor(2 mu sqrt(p)) != 1")
    if w.n >= 3:
        prev = st["prev_h1"]
        if prev is not None and not _mu_less([w.n, w.p, w.N], prev):
            return violate("mu not decreasing along the h = 1 family")
        st["prev_h1"] = [w.n, w.p, w.N]
        if w.p > 5 and not 16 * w.p < (4 * w.N + 1) ** 2:
            return violate("mu >= 1/4 past p = 5")
        if not w.same_part:
            return violate("h = 1 prime not sharing its floor with the next prime")
    return HOLD
