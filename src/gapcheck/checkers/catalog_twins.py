"""Checker catalog: twin-prime orderings (source statements 9.1 - 9.15).

Cross-index comparisons of Delta values are decided exactly by
`window.delta_order`: a difference of two weighted sums of square roots is
reduced by one squaring to a two-radicand expression, which the kernel signs
completely.

Stateful checkers keep JSON-able window stubs [n, p, q]; a "pair" checker
fires at each twin index against the previous twin (consecutive pairs) plus a
deterministic geometric sample of earlier twins.
"""

from __future__ import annotations

from ..exact import _sign_1rad, _sign_2rad
from ..window import delta_order
from .catalog_gaps import twin
from .types import HOLD, MISS, Kind, checker, hard_fail, violate


@checker("twin-91", Kind.EQUIVALENCE,
         title="d = 2 iff sqrt(p)Delta = {sqrt(p)Delta} iff sqrt(q)Delta = "
               "1 + {sqrt(q)Delta} iff Delta^2 + 2 sqrt(p)Delta = 2",
         source="statement 9.1", n_min=2)
def _twin_91(tri, st):
    w = tri.w
    base = w.d == 2
    item2 = w.s - w.p == 0              # floor(sqrt(p)Delta) = 0
    item3 = w.q - w.s - 1 == 1          # floor(sqrt(q)Delta) = 1
    item4 = w.delta_sq + w.two_sqrtp_delta == 2
    if item2 != base or item3 != base or item4 != base:
        return violate(f"items ({item2},{item3},{item4}) vs twin {base}")
    return HOLD


def _pair_state():
    return {"prev": None, "first": None, "count": 0}


def _twin_pair_events(st, w):
    """Update pair state at a twin index; yield earlier-twin stubs to pair with."""
    me = [w.n, w.p, w.q]
    events = []
    if st["prev"] is not None:
        events.append(st["prev"])
    # deterministic extra sample: pair with the first twin when the twin
    # ordinal is a power of two (keeps non-adjacent pairs covered at scale)
    st["count"] += 1
    c = st["count"]
    if st["first"] is not None and c & (c - 1) == 0:
        events.append(st["first"])
    if st["first"] is None:
        st["first"] = me
    st["prev"] = me
    return events


@checker("twin-92", Kind.UNIVERSAL,
         title="the ratio chain 1 <= sqrt(p_m2/p_(m1+1)) < 1/(sqrt(p_(m1+1)) D2) "
               "< 2/(D_m1 D2) = D_m1/D2-ratios < D_m2/(2 sqrt(p_m1)) over twin pairs",
         source="statement 9.2", n_min=2,
         domain=twin,
         state_init=_pair_state)
def _twin_92(tri, st):
    """Holds for every pair of twin windows a < b = a + 2 <= c < e = c + 2:
    each link is an order of these integers (sqrt(c) Delta2 < 1 is
    c(c + 2) < (c + 1)^2)."""
    w = tri.w
    for m1 in _twin_pair_events(st, w):
        _, a, b = m1
        c, e = w.p, w.q
        if not c >= b:
            return violate("p_m2 < p_(m1+1)")
        # sqrt(c/b) < 1/(sqrt(b) Delta2)  <=>  sqrt(c)Delta2 < 1  <=>  sqrt(ce) < c+1
        if not _sign_1rad(c + 1, -1, c * e) > 0:
            return violate("sqrt(p_m2) Delta_m2 >= 1")
        # 1/(sqrt(b) Delta2) < 2/(D1 Delta2)  <=>  a < b
        if not a < b:
            return violate("D_m1 >= 2 sqrt(p_(m1+1))")
        # the displayed equalities amount to Delta D = 2 at both twins
        if not (b - a == 2 and e - c == 2):
            return hard_fail("twin identity Delta*D = 2 broken")
        # Delta1/Delta2 < 1/(sqrt(a) Delta2)  <=>  sqrt(a)Delta1 < 1
        if not _sign_1rad(a + 1, -1, a * b) > 0:
            return violate("sqrt(p_m1) Delta_m1 >= 1")
    return HOLD


@checker("twin-93", Kind.UNIVERSAL,
         title="sqrt(p_(m1+1))D2 < 1 < sqrt(p_(m2+1))D2 < sqrt(p_(m1+1))D1 "
               "< sqrt(p_(m2+1))D1, and sqrt(p_(m1+1))D1 < 5/4, over twin pairs",
         source="corollary 9.3", n_min=2,
         domain=twin,
         state_init=_pair_state)
def _twin_93(tri, st):
    """Holds for every pair of twin windows a < b = a + 2 <= c < e = c + 2
    with a >= 2: with Delta = 2/D each link is an order of these integers
    (sqrt(e) Delta2 < sqrt(b) Delta1 is ae < bc, sqrt(b) Delta1 < 5/4 is
    9b < 25a)."""
    w = tri.w
    for m1 in _twin_pair_events(st, w):
        _, a, b = m1
        c, e = w.p, w.q
        if not _sign_2rad(-1, 1, b * e, -1, b * c) < 0:
            return violate("sqrt(p_(m1+1)) Delta_m2 >= 1")
        if not _sign_1rad(e - 1, -1, c * e) > 0:
            return violate("sqrt(p_(m2+1)) Delta_m2 <= 1")
        # (e - sqrt(ce)) < (b - sqrt(ab))
        if not _sign_2rad(e - b, -1, c * e, 1, a * b) < 0:
            return violate("sqrt(p_(m2+1)) Delta_m2 >= sqrt(p_(m1+1)) Delta_m1")
        if not b < e:
            return violate("sqrt(p_(m1+1)) Delta_m1 >= sqrt(p_(m2+1)) Delta_m1")
        if not _sign_1rad(4 * b - 5, -4, a * b) < 0:  # times 4
            return violate("sqrt(p_(m1+1)) Delta_m1 >= 5/4")
    return HOLD


@checker("twin-94", Kind.UNIVERSAL,
         title="2 Delta_m2 < Delta_m1 (1 + sqrt(p_m1/p_(m1+1))) over twin pairs",
         source="corollary 9.4", n_min=2,
         domain=twin,
         state_init=_pair_state)
def _twin_94(tri, st):
    """Holds for every pair of twin windows a < b = a + 2 <= c < e = c + 2:
    sqrt(b) Delta2 < 1 is 2 sqrt(b) < sqrt(c) + sqrt(e)."""
    w = tri.w
    for m1 in _twin_pair_events(st, w):
        _, a, b = m1
        c, e = w.p, w.q
        # reduces exactly to sqrt(b) Delta_m2 < 1
        if not _sign_2rad(-1, 1, b * e, -1, b * c) < 0:
            return violate("2 Delta_m2 >= Delta_m1 (1 + sqrt(a/b))")
    return HOLD


# twin-95, twin-96 and twin-910 claim something over every n < m, so they
# need the running extremum from n = 1 (from_one): a report that starts
# later counts their windows out of domain.  A resumed run keeps its first n_lo.
@checker("twin-95", Kind.UNIVERSAL,
         title="Delta_n > Delta_m for every n < m when d_m = 2, m >= 5",
         source="statement 9.5", from_one=True,
         state_init=lambda: {"min": None})
def _twin_95(tri, st):
    w = tri.w
    out = HOLD
    mn = st["min"]
    s = -1 if mn is None else delta_order(w.p, w.q, mn[1], mn[2])   # Delta_n - min
    # min over n < m of Delta must still exceed Delta_m
    if w.d == 2 and w.n >= 5 and mn is not None and s >= 0:
        out = violate(f"Delta_{mn[0]} <= Delta_{w.n}")
    if s < 0:
        st["min"] = [w.n, w.p, w.q]
    return out


@checker("twin-96", Kind.UNIVERSAL,
         title="{sqrt(q)Delta} at a twin m >= 5 sits below all earlier values, "
               "{sqrt(p)Delta} above them",
         source="corollary 9.6", from_one=True,
         state_init=lambda: {"maxF": None})
def _twin_96(tri, st):
    """Holds for every increasing chain of integer windows: {sqrt(pq)} is at
    most 1 - 1/(k + 1 + sqrt((k + 1)^2 - 1)) for k = isqrt(pq), which grows
    with k; a twin (p, p + 2) attains it at k = p, and every earlier window
    has pq < p^2."""
    w = tri.w
    out = HOLD
    pq = w.p * w.q
    # {sqrt(q)Delta} = s+1-sqrt(pq): minimal iff F = sqrt(pq)-s maximal;
    # up is the sign of F_n - max F = (sqrt(pq) - s) - (sqrt(pq') - s')
    mx = st["maxF"]
    up = 1 if mx is None else _sign_2rad(mx[1] - w.s, 1, pq, -1, mx[2])
    if w.d == 2 and w.n >= 5 and mx is not None and up <= 0:
        out = violate(f"{{sqrt(p)Delta}} not above n={mx[0]}")
    if up > 0:
        st["maxF"] = [w.n, w.s, pq]
    return out


def _interior_step(st, w):
    """Advance the state twin-97 and twin-99 share: a twin becomes the last
    twin and opens an empty interior; any other window keeps the interior's
    least Delta."""
    if w.d == 2:
        st["last_twin"] = [w.n, w.p, w.q]
        st["interior_min"] = None
        return
    im = st["interior_min"]
    if im is None or delta_order(w.p, w.q, im[1], im[2]) < 0:
        st["interior_min"] = [w.n, w.p, w.q]


@checker("twin-97", Kind.UNIVERSAL,
         title="between consecutive twins every Delta exceeds both flanking twin "
               "Deltas (the sandwich around an isolated twin)",
         source="lemma 9.7", n_min=2,
         state_init=lambda: {"last_twin": None, "interior_min": None})
def _twin_97(tri, st):
    w = tri.w
    out = HOLD
    lt, im = st["last_twin"], st["interior_min"]
    if w.d == 2 and lt is not None and im is not None:
        if not delta_order(im[1], im[2], lt[1], lt[2]) > 0:
            out = violate("interior Delta <= left twin Delta")
        elif not delta_order(im[1], im[2], w.p, w.q) > 0:
            out = violate("interior Delta <= right twin Delta")
    _interior_step(st, w)
    return out


@checker("twin-98", Kind.UNIVERSAL,
         title="d_n D_m1 > 2 D_n for every n past the most recent twin m1 with "
               "d_n >= 4",
         source="statement 9.8", n_min=2,
         state_init=lambda: {"last_twin": None})
def _twin_98(tri, st):
    w = tri.w
    if w.d == 2:
        st["last_twin"] = [w.n, w.p, w.q]
        return HOLD
    if w.d < 4 or st["last_twin"] is None:
        return HOLD
    _, a, b = st["last_twin"]
    # d (sqrt(a)+sqrt(b)) > 2 (sqrt(p)+sqrt(q)), both sides squared
    dd = w.d * w.d
    if not _sign_2rad(dd * (a + b) - 4 * (w.p + w.q), 2 * dd, a * b, -8, w.p * w.q) > 0:
        return violate("d_n D_m1 <= 2 D_n")
    return HOLD


@checker("twin-99", Kind.UNIVERSAL,
         title="Delta_n > Delta_m1 > Delta_m2 across each consecutive twin pair",
         source="corollary 9.9", n_min=2,
         state_init=lambda: {"last_twin": None, "interior_min": None})
def _twin_99(tri, st):
    w = tri.w
    out = HOLD
    lt, im = st["last_twin"], st["interior_min"]
    if w.d == 2 and lt is not None:
        if not delta_order(lt[1], lt[2], w.p, w.q) > 0:
            out = violate("Delta_m1 <= Delta_m2")
        elif im is not None and not delta_order(im[1], im[2], lt[1], lt[2]) > 0:
            out = violate("interior Delta <= Delta_m1")
    _interior_step(st, w)
    return out


@checker("twin-910", Kind.UNIVERSAL,
         title="converse ordering: if Delta_n > Delta_m for all n < m (m >= 5) "
               "then d_m = 2",
         source="corollary 9.10", from_one=True,
         state_init=lambda: {"min": None})
def _twin_910(tri, st):
    w = tri.w
    out = HOLD
    mn = st["min"]
    s = -1 if mn is None else delta_order(w.p, w.q, mn[1], mn[2])   # Delta_n - min
    if w.n >= 5 and mn is not None and s < 0 and w.d != 2:
        out = violate("fresh Delta minimum at a non-twin index")
    if s < 0:
        st["min"] = [w.n, w.p, w.q]
    return out


@checker("twin-postulate", Kind.SURVEY,
         title="consecutive twin pairs: collect violations of Delta_m1/Delta_m2 < "
               "3/2, of Delta_m2 > Delta_m1 - Delta_m2, and of sqrt(2)/2 < "
               "D_m1/D_m2 (the open postulate-type ratios)",
         source="postulate discussion 9.2", n_min=2, conjecture=True,
         domain=twin,
         state_init=lambda: {"prev": None, "ratio32": [], "double": [], "sqrt2": []},
         finalize=lambda st, extra: extra.update(
             {k: st[k] for k in ("ratio32", "double", "sqrt2")}))
def _twin_postulate(tri, st):
    w = tri.w
    prev, st["prev"] = st["prev"], [w.n, w.p, w.q]
    if prev is None:
        return MISS
    _, a, b = prev
    c, e = w.p, w.q
    hit = False
    if not delta_order(a, b, c, e, 2, 3) < 0:  # 2 Delta1 < 3 Delta2
        st["ratio32"].append(w.n)
        hit = True
    if not delta_order(c, e, a, b, 2, 1) > 0:  # 2 Delta2 > Delta1
        st["double"].append(w.n)
        hit = True
    # 2 D1^2 > D2^2  <=>  sqrt(2)/2 < D1/D2
    if not _sign_2rad(2 * (a + b) - (c + e), 4, a * b, -2, c * e) > 0:
        st["sqrt2"].append(w.n)
        hit = True
    return HOLD if hit else MISS


@checker("twin-913", Kind.UNIVERSAL,
         title="twin pairs sharing floor(sqrt(.)): 31 p_m1 > 25 p_m2",
         source="statement 9.13", n_min=2,
         domain=twin,
         state_init=lambda: {"N": None, "list": []})
def _twin_913(tri, st):
    w = tri.w
    if st["N"] != w.N:
        st["N"] = w.N
        st["list"] = []
    for earlier_p in st["list"]:
        if not 31 * earlier_p > 25 * w.p:
            return violate(f"31*{earlier_p} <= 25*{w.p}")
    st["list"].append(w.p)
    return HOLD


@checker("alpha-props", Kind.UNIVERSAL,
         title="alpha-form orderings: alpha_m1 = alpha_n + (Delta_n - Delta_m1) "
               "with alpha_m1 > alpha_n past a twin; at the closing twin "
               "alpha_m2 > alpha_n + (d_n - 2)/D_n over the interior",
         source="propositions 9.14 and 9.15", n_min=2,
         state_init=lambda: {"last_twin": None, "min_scaled": None})
def _alpha_props(tri, st):
    w = tri.w
    if w.d == 2:
        out = HOLD
        if st["min_scaled"] is not None:
            _, a, b, d = st["min_scaled"]  # [n, p, q, d] minimizing (2/d) Delta
            if not delta_order(a, b, w.p, w.q, 2, d) > 0:
                out = violate("alpha_m2 <= alpha_n + (d_n-2)/D_n on the interior")
        st["last_twin"] = [w.n, w.p, w.q]
        st["min_scaled"] = None
        return out
    if w.d < 4 or st["last_twin"] is None:
        return HOLD
    # alpha_m1 - alpha_n = Delta_n - Delta_m1, as sqrt(2)/2 cancels, so
    # alpha_m1 > alpha_n  <=>  Delta_n > Delta_m1
    _, a, b = st["last_twin"]
    if not delta_order(w.p, w.q, a, b) > 0:
        return violate("alpha_m1 <= alpha_n")
    # middle chain term: alpha_n + (d-2)/D_n > alpha_m1  <=>  d Delta_m1 > 2 Delta_n
    if not delta_order(a, b, w.p, w.q, w.d, 2) > 0:
        return violate("alpha_n + (d_n-2)/D_n <= alpha_m1")
    # (2/d_n) Delta_n < (2/d) Delta  <=>  d Delta_n < d_n Delta
    cur = st["min_scaled"]
    if cur is None or delta_order(w.p, w.q, cur[1], cur[2], cur[3], w.d) < 0:
        st["min_scaled"] = [w.n, w.p, w.q, w.d]
    return HOLD
