"""Checker catalog: gap-bound family (source statements 1.1 - 2.15).

All predicates are decided in exact integer arithmetic or through the exact
kernel; notes on each entry state the integer reduction used.
"""

from __future__ import annotations

from math import isqrt

from ..exact import Cmp, RootExpr, cmp_root, _sign_1rad
from .predicates import cmp_sqrt_sums, delta_vs_delta4, is_square
from .types import HOLD, MISS, Kind, checker, hard_fail, violate


# -- statement 1.x ------------------------------------------------------------


@checker("conj-gap-sq", Kind.EXCEPTION_SET,
         title="d^2 < 2q for all n; the stronger d^2 <= q fails exactly at {4, 9, 30}",
         source="conjecture 1.1",
         expected_exceptions=frozenset({4, 9, 30}), conjecture=True)
def _conj_gap_sq(ctx, tri, st):
    w = tri.w
    if not w.d * w.d < 2 * w.q:
        return hard_fail(f"d^2 = {w.d * w.d} >= 2q = {2 * w.q}")
    if w.d * w.d > w.q:
        return violate(f"d^2 = {w.d * w.d} > q = {w.q}")
    return HOLD


@checker("cor-12", Kind.UNIVERSAL,
         title="d^2 <= 2(q-1) and 2(q-1) < 4(p - 1/2)",
         source="corollary 1.2", conjecture=True)
def _cor_12(ctx, tri, st):
    w = tri.w
    if w.d * w.d > 2 * (w.q - 1):
        return violate("d^2 > 2(q-1)")
    if not 2 * (w.q - 1) < 4 * w.p - 2:
        return violate("2(q-1) >= 4p-2")
    return HOLD


@checker("cor-13", Kind.EQUIVALENCE,
         title="no multiple of q in ]p^2-d^2, p^2[ iff d < sqrt(q); "
               "(p-d+1)q largest multiple below p^2 iff sqrt(q) < d < sqrt(2q)",
         source="corollary 1.3", n_min=2)
def _cor_13(ctx, tri, st):
    w = tri.w
    p2 = w.p * w.p
    largest = w.q * ((p2 - 1) // w.q)
    lhs_a = largest <= p2 - w.d * w.d
    rhs_a = w.d * w.d < w.q
    if lhs_a != rhs_a:
        return violate(f"multiple-free window {lhs_a} vs d^2<q {rhs_a}")
    lhs_b = largest == p2 - w.d * w.d + w.q
    rhs_b = w.q < w.d * w.d < 2 * w.q
    if lhs_b != rhs_b:
        return violate(f"largest-multiple form {lhs_b} vs q<d^2<2q {rhs_b}")
    return HOLD


@checker("cor-14", Kind.UNIVERSAL,
         title="d < 2 sqrt(p): a prime in (x, x + 2 sqrt(x))",
         source="corollary 1.4", conjecture=True)
def _cor_14(ctx, tri, st):
    w = tri.w
    return HOLD if w.d * w.d < 4 * w.p else violate("d^2 >= 4p")


def _base_2q(w) -> bool:
    return w.d * w.d < 2 * w.q


@checker("eq-15-1", Kind.EQUIVALENCE,
         title="p > d(d/2 - 1)  iff  d^2 < 2q",
         source="statement 1.5(1)")
def _eq_15_1(ctx, tri, st):
    w = tri.w
    item = 2 * w.p > w.d * (w.d - 2)
    if item != _base_2q(w):
        return violate(f"item {item} vs base {_base_2q(w)}")
    # weaker printed sum form p/2 > sum_{i<=d/2-1} i must hold whenever base does
    if _base_2q(w) and not 4 * w.p > w.d * (w.d - 2):
        return hard_fail("sum form violated while base holds")
    return HOLD


@checker("eq-15-2", Kind.EQUIVALENCE,
         title="sum_{i<=d} i - sum_{i<=n} d_i < d/2 + 2  iff  d^2 < 2q",
         source="statement 1.5(2)")
def _eq_15_2(ctx, tri, st):
    w = tri.w
    # sum of d_i over i <= n telescopes to q - 2
    item = w.d * (w.d + 1) - 2 * (w.q - 2) < w.d + 4
    return HOLD if item == _base_2q(w) else violate(f"item {item}")


@checker("eq-15-3", Kind.EQUIVALENCE,
         title="sqrt(q) < sqrt(p + 1/2) + sqrt(2)/2  iff  d^2 < 2q",
         source="statement 1.5(3)")
def _eq_15_3(ctx, tri, st):
    w = tri.w
    # after the displayed rearrangement: q - p - 1 < sqrt(2p+1)
    item = _sign_1rad(w.d - 1, -1, 2 * w.p + 1) < 0
    return HOLD if item == _base_2q(w) else violate(f"item {item}")


@checker("eq-15-4", Kind.EQUIVALENCE,
         title="(1 + 1/(2p)) q < (sqrt(p) + (sqrt(2)/2) sqrt(q/p))^2  iff  d^2 < 2q",
         source="statement 1.5(4)")
def _eq_15_4(ctx, tri, st):
    w = tri.w
    # rhs expands exactly to p + sqrt(2q) + q/(2p); lhs is q (2p + 1)/(2p);
    # both times 2p > 0
    rhs = RootExpr.sqrt(2 * w.q, 2 * w.p) + (2 * w.p * w.p + w.q)
    item = cmp_root(rhs, w.q * (2 * w.p + 1)) is Cmp.GREATER
    return HOLD if item == _base_2q(w) else violate(f"item {item}")


@checker("eq-16-1", Kind.EQUIVALENCE,
         title="smallest odd multiple of q above p^2 is (p-(d-2))q  iff  d^2 < 2q",
         source="statement 1.6(1)", n_min=2)
def _eq_16_1(ctx, tri, st):
    w = tri.w
    m0 = w.p * w.p // w.q + 1
    if m0 % 2 == 0:
        m0 += 1
    item = m0 == w.p - (w.d - 2)
    return HOLD if item == _base_2q(w) else violate(f"smallest odd mult {m0}q")


@checker("eq-16-2", Kind.EQUIVALENCE,
         title="(d-2)q is the largest even multiple of q up to d*p  iff  d^2 < 2q",
         source="statement 1.6(2)", n_min=2)
def _eq_16_2(ctx, tri, st):
    w = tri.w
    m1 = w.d * w.p // w.q
    if m1 % 2 == 1:
        m1 -= 1
    item = m1 == w.d - 2
    return HOLD if item == _base_2q(w) else violate(f"largest even mult {m1}q")


@checker("eq-16-3", Kind.EQUIVALENCE,
         title="k >= d/2 in q = k*d + r  iff  d^2 < 2q",
         source="statement 1.6(3)", n_min=2)
def _eq_16_3(ctx, tri, st):
    w = tri.w
    item = 2 * w.k >= w.d
    return HOLD if item == _base_2q(w) else violate(f"k={w.k} d={w.d}")


@checker("eq-qr", Kind.EQUIVALENCE,
         title="(d^2/4)^2 in {1^2..((q-1)/2)^2} as integer sets  iff  d^2 < 2q",
         source="reduced-residue remark after 1.6", n_min=2)
def _eq_qr(ctx, tri, st):
    w = tri.w
    x = w.d * w.d // 4
    item = 1 <= x <= (w.q - 1) // 2
    return HOLD if item == _base_2q(w) else violate(f"(d^2/4)^2 membership {item}")


# -- statement 2.x --------------------------------------------------------------


@checker("inv-diff", Kind.UNIVERSAL,
         title="1/p - 1/q <= 1/6 with equality iff n = 1",
         source="proposition 2.1")
def _inv_diff(ctx, tri, st):
    w = tri.w
    lhs, rhs = 6 * w.d, w.p * w.q
    if w.n == 1:
        return HOLD if lhs == rhs else violate("equality fails at n=1")
    return HOLD if lhs < rhs else violate("1/p - 1/q >= 1/6")


@checker("ratio-53", Kind.UNIVERSAL,
         title="q/p <= 5/3 with equality iff n = 2",
         source="proposition 2.2")
def _ratio_53(ctx, tri, st):
    w = tri.w
    if w.n == 2:
        return HOLD if 3 * w.q == 5 * w.p else violate("equality fails at n=2")
    return HOLD if 3 * w.q < 5 * w.p else violate("q/p >= 5/3")


@checker("ratio-sqrt", Kind.UNIVERSAL,
         title="q/p < 1 + 2/sqrt(p) for n >= 2; q/p < 3/2 for n >= 5",
         source="remarks 2.3", n_min=2)
def _ratio_sqrt(ctx, tri, st):
    w = tri.w
    if not w.d * w.d < 4 * w.p:
        return violate("q/p >= 1 + 2/sqrt(p)")
    if w.n >= 5 and not 2 * w.q < 3 * w.p:
        return violate("q/p >= 3/2")
    return HOLD


@checker("gap-next", Kind.UNIVERSAL,
         title="p_n >= d_{n+1}, equality iff n = 1",
         source="display 2.1", needs_next=True)
def _gap_next(ctx, tri, st):
    w, nxt = tri.w, tri.nxt
    if w.n == 1:
        return HOLD if w.p == nxt.d else violate("equality fails at n=1")
    return HOLD if w.p > nxt.d else violate(f"p={w.p} <= d_next={nxt.d}")


@checker("andrica", Kind.UNIVERSAL,
         title="sqrt(q) - sqrt(p) < 1",
         source="Andrica bound, section 2", conjecture=True)
def _andrica(ctx, tri, st):
    w = tri.w
    ok = w.d == 1 or (w.d - 1) * (w.d - 1) < 4 * w.p
    return HOLD if ok else violate("Delta >= 1")


@checker("gap-half", Kind.EXCEPTION_SET,
         title="d <= (p-1)/2 except n in {1, 2, 4}",
         source="display 2.2",
         expected_exceptions=frozenset({1, 2, 4}))
def _gap_half(ctx, tri, st):
    w = tri.w
    return HOLD if 2 * w.d <= w.p - 1 else violate("2d > p-1")


@checker("conj-gap-sq2", Kind.EXCEPTION_SET,
         title="d^2 < 2p except n = 4",
         source="conjecture 2.5",
         expected_exceptions=frozenset({4}), conjecture=True)
def _conj_gap_sq2(ctx, tri, st):
    w = tri.w
    return HOLD if w.d * w.d < 2 * w.p else violate(f"d^2 = {w.d * w.d} >= 2p")


@checker("cor-26", Kind.EXCEPTION_SET,
         title="d^2 <= 2(p-1) except n = 4",
         source="corollary 2.6",
         expected_exceptions=frozenset({4}), conjecture=True)
def _cor_26(ctx, tri, st):
    w = tri.w
    return HOLD if w.d * w.d <= 2 * (w.p - 1) else violate("d^2 > 2(p-1)")


@checker("cor-27", Kind.EXCEPTION_SET,
         title="(x, x + sqrt(2x)) contains a prime at every integer x "
               "outside the printed range 7 <= x <= 7.2 041 684 766; "
               "hardest integer per window is x = p",
         source="corollary 2.7",
         expected_exceptions=frozenset({4}), conjecture=True)
def _cor_27(ctx, tri, st):
    # q < p + sqrt(2p)  <=>  d^2 < 2p; checked at the hardest x in [p, q)
    w = tri.w
    return HOLD if w.d * w.d < 2 * w.p else violate("no prime in (p, p+sqrt(2p))")


def _base_2p(w) -> bool:
    return w.d * w.d < 2 * w.p


def _not_n4(ctx, tri) -> bool:
    return tri.w.n != 4


@checker("eq-28-1", Kind.EQUIVALENCE,
         title="(q+d)p is the largest odd multiple of p up to q^2  iff  d^2 < 2p",
         source="statement 2.8(1)", n_min=2, domain=_not_n4)
def _eq_28_1(ctx, tri, st):
    w = tri.w
    m2 = w.q * w.q // w.p
    if m2 % 2 == 0:
        m2 -= 1
    item = m2 == w.q + w.d
    return HOLD if item == _base_2p(w) else violate(f"largest odd mult {m2}p")


@checker("eq-28-2", Kind.EQUIVALENCE,
         title="exactly d odd multiples of p in ]p^2, q^2[  iff  d^2 < 2p",
         source="statement 2.8(2)", n_min=2, domain=_not_n4)
def _eq_28_2(ctx, tri, st):
    w = tri.w
    a, b = w.p + 1, (w.q * w.q - 1) // w.p
    count = (b + 1) // 2 - a // 2 if b >= a else 0
    item = count == w.d
    return HOLD if item == _base_2p(w) else violate(f"odd multiple count {count}")


@checker("eq-28-3", Kind.EQUIVALENCE,
         title="d/2 + sum_{i<=d-1} i < p  iff  d^2 < 2p",
         source="statement 2.8(3)", n_min=2, domain=_not_n4)
def _eq_28_3(ctx, tri, st):
    w = tri.w
    item = w.d + w.d * (w.d - 1) < 2 * w.p
    return HOLD if item == _base_2p(w) else violate("sum form mismatch")


def _sharp_state():
    return {"max": None}


def _sharp_finalize(ctx, st, extra):
    if st.get("max"):
        n, p, q = st["max"]
        extra["max_at"] = n
        extra["max_delta"] = f"sqrt({q})-sqrt({p})"


@checker("andrica-sharp", Kind.UNIVERSAL,
         title="Delta_n <= sqrt(11) - sqrt(7), maximum attained exactly at n = 4",
         source="statement 2.9",
         state_init=_sharp_state, finalize=_sharp_finalize)
def _andrica_sharp(ctx, tri, st):
    w = tri.w
    s = delta_vs_delta4(w)
    if st["max"] is None:
        st["max"] = [w.n, w.p, w.q]
    else:
        mn, mp, mq = st["max"]
        if cmp_sqrt_sums(w.q, mp, mq, w.p) > 0:
            st["max"] = [w.n, w.p, w.q]
    if s > 0:
        return violate("Delta exceeds sqrt(11)-sqrt(7)")
    if s == 0 and w.n != 4:
        return violate("maximum attained away from n=4")
    return HOLD


@checker("sq-in-gap", Kind.UNIVERSAL,
         title="a run of consecutive composites contains at most one perfect square",
         source="corollary 2.10")
def _sq_in_gap(ctx, tri, st):
    w = tri.w
    squares = isqrt(w.q - 1) - w.N
    return HOLD if squares <= 1 else violate(f"{squares} squares inside the gap")


@checker("gap-85", Kind.UNIVERSAL,
         title="d < (8/5) sqrt(p): a prime in (x, x + (8/5) sqrt(x))",
         source="proposition 2.11", conjecture=True)
def _gap_85(ctx, tri, st):
    w = tri.w
    return HOLD if 25 * w.d * w.d < 64 * w.p else violate("d >= (8/5) sqrt(p)")


@checker("prop-212", Kind.UNIVERSAL,
         title="where d < sqrt(2p): Delta < sqrt(2)/2 and D < 2 sqrt(p) + sqrt(2)/2",
         source="proposition 2.12 at a = sqrt(2)",
         domain=lambda ctx, tri: _base_2p(tri.w))
def _prop_212(ctx, tri, st):
    w = tri.w
    # Delta < sqrt(2)/2  <=>  2(p+q) - 1 < 4 sqrt(pq); D-bound is the same claim
    ok = _sign_1rad(2 * (w.p + w.q) - 1, -4, w.p * w.q) < 0
    return HOLD if ok else violate("Delta >= sqrt(2)/2")


@checker("gap-transfer", Kind.UNIVERSAL,
         title="d < sqrt(2) sqrt(p) + 1/2",
         source="proposition 2.13 at a = sqrt(2)/2", conjecture=True)
def _gap_transfer(ctx, tri, st):
    w = tri.w
    return HOLD if (2 * w.d - 1) * (2 * w.d - 1) < 8 * w.p else violate(
        "d >= sqrt(2p) + 1/2")


@checker("ishikawa-plus", Kind.UNIVERSAL,
         title="p_{n+2} < p_n + 1 + 2 sqrt(2 p_n)",
         source="statement 2.14", needs_next=True, conjecture=True)
def _ishikawa_plus(ctx, tri, st):
    w, nxt = tri.w, tri.nxt
    g = nxt.q - w.p - 1
    return HOLD if g * g < 8 * w.p else violate("two-ahead prime too far")


@checker("ishikawa-emp", Kind.SURVEY,
         title="collect n with p_{n+2} >= p_n + 2 sqrt(2 p_n) (expected none)",
         source="remark 2.15", needs_next=True, conjecture=True,
         expected_survey=frozenset())
def _ishikawa_emp(ctx, tri, st):
    w, nxt = tri.w, tri.nxt
    g = nxt.q - w.p
    return HOLD if g * g >= 8 * w.p else MISS


@checker("twin-sq", Kind.EXCEPTION_SET,
         title="the only twin pair (p, p+2) with p+2 = M^2 + 1 is (3, 5)",
         source="remark after 4.10",
         expected_exceptions=frozenset({2}),
         domain=lambda ctx, tri: tri.w.d == 2)
def _twin_sq(ctx, tri, st):
    w = tri.w
    return violate("upper twin one above a square") if is_square(w.q - 1) else HOLD
