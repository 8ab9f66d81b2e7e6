"""Checker catalog: twin-prime orderings (source statements 9.1 - 9.15).

Cross-index comparisons of Delta values are decided exactly: a difference of
two weighted sums of square roots is reduced by one squaring to a
two-radicand expression, which the kernel signs completely.

Stateful checkers keep JSON-able window stubs [n, p, q]; a "pair" checker
fires at each twin index against the previous twin (consecutive pairs) plus a
deterministic geometric sample of earlier twins.
"""

from __future__ import annotations

from ..exact import RootExpr, _sign_1rad, _sign_2rad
from ..window import HALF, root_views
from .predicates import cmp_sqrt_sums, cmp_weighted_sums
from .types import HOLD, MISS, Kind, checker, hard_fail, undecided, violate

SQRT2_HALF = RootExpr.sqrt(2, HALF)


def _scaled_delta_cmp(c1: int, w1, c2: int, w2) -> int:
    """Exact sign of c1*Delta(w1) - c2*Delta(w2); w = [n, p, q] stubs or windows."""
    n1, p1, q1 = w1 if isinstance(w1, list) else (w1.n, w1.p, w1.q)
    n2, p2, q2 = w2 if isinstance(w2, list) else (w2.n, w2.p, w2.q)
    return cmp_weighted_sums(c1, q1, c2, p2, c2, q2, c1, p1)


def _is_twin(w) -> bool:
    return w.d == 2


@checker("twin-91", Kind.EQUIVALENCE,
         title="d = 2 iff sqrt(p)Delta = {sqrt(p)Delta} iff sqrt(q)Delta = "
               "1 + {sqrt(q)Delta} iff Delta^2 + 2 sqrt(p)Delta = 2",
         source="statement 9.1", n_min=2)
def _twin_91(ctx, tri, st):
    w = tri.w
    base = w.d == 2
    item2 = w.s - w.p == 0              # floor(sqrt(p)Delta) = 0
    item3 = w.q - w.s - 1 == 1          # floor(sqrt(q)Delta) = 1
    v = root_views(w)
    ident = v.delta_sq + v.two_sqrtp_delta
    if not ident.is_rational():
        return undecided()
    item4 = ident == 2
    if item2 != base or item3 != base or item4 != base:
        return violate(f"items ({item2},{item3},{item4}) vs twin {base}")
    return HOLD


def _pair_state():
    return {"prev": None, "first": None, "count": 0, "samples": []}


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
         domain=lambda ctx, tri: _is_twin(tri.w),
         state_init=_pair_state)
def _twin_92(ctx, tri, st):
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
         domain=lambda ctx, tri: _is_twin(tri.w),
         state_init=_pair_state)
def _twin_93(ctx, tri, st):
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
         domain=lambda ctx, tri: _is_twin(tri.w),
         state_init=_pair_state)
def _twin_94(ctx, tri, st):
    w = tri.w
    for m1 in _twin_pair_events(st, w):
        _, a, b = m1
        c, e = w.p, w.q
        # reduces exactly to sqrt(b) Delta_m2 < 1
        if not _sign_2rad(-1, 1, b * e, -1, b * c) < 0:
            return violate("2 Delta_m2 >= Delta_m1 (1 + sqrt(a/b))")
    return HOLD


def _runmin_state():
    return {"min": None, "maxF": None, "minfq": None}


def _from_one(ctx, tri):
    """Claims over every n < m need the running extremum from n = 1; a run
    that starts later cannot decide them.  A resumed run keeps its first n_lo."""
    return ctx.n_lo == 1


@checker("twin-95", Kind.UNIVERSAL,
         title="Delta_n > Delta_m for every n < m when d_m = 2, m >= 5",
         source="statement 9.5", domain=_from_one,
         state_init=_runmin_state)
def _twin_95(ctx, tri, st):
    w = tri.w
    out = HOLD
    if _is_twin(w) and w.n >= 5 and st["min"] is not None:
        mn, mp, mq = st["min"]
        # min over n < m of Delta must still exceed Delta_m
        if not cmp_sqrt_sums(mq, w.p, w.q, mp) > 0:
            out = violate(f"Delta_{mn} <= Delta_{w.n}")
    if st["min"] is None or cmp_sqrt_sums(w.q, st["min"][1], st["min"][2], w.p) < 0:
        st["min"] = [w.n, w.p, w.q]
    return out


def _frac_cmp_F(sa, pqa, sb, pqb) -> int:
    """Exact sign of (sqrt(pqa) - sa) - (sqrt(pqb) - sb)."""
    return _sign_2rad(sb - sa, 1, pqa, -1, pqb)


@checker("twin-96", Kind.UNIVERSAL,
         title="{sqrt(q)Delta} at a twin m >= 5 sits below all earlier values, "
               "{sqrt(p)Delta} above them",
         source="corollary 9.6", domain=_from_one,
         state_init=_runmin_state)
def _twin_96(ctx, tri, st):
    w = tri.w
    out = HOLD
    F_me = (w.s, w.p * w.q)
    if _is_twin(w) and w.n >= 5:
        # {sqrt(q)Delta} = s+1-sqrt(pq): minimal iff F = sqrt(pq)-s maximal
        if st["maxF"] is not None:
            mn, ms, mpq = st["maxF"]
            if not _frac_cmp_F(F_me[0], F_me[1], ms, mpq) > 0:
                out = violate(f"{{sqrt(p)Delta}} not above n={mn}")
    if st["maxF"] is None or _frac_cmp_F(F_me[0], F_me[1],
                                         st["maxF"][1], st["maxF"][2]) > 0:
        st["maxF"] = [w.n, F_me[0], F_me[1]]
    return out


@checker("twin-97", Kind.UNIVERSAL,
         title="between consecutive twins every Delta exceeds both flanking twin "
               "Deltas (the sandwich around an isolated twin)",
         source="lemma 9.7", n_min=2,
         state_init=lambda: {"last_twin": None, "interior_min": None})
def _twin_97(ctx, tri, st):
    w = tri.w
    if _is_twin(w):
        out = HOLD
        if st["last_twin"] is not None and st["interior_min"] is not None:
            if not _scaled_delta_cmp(1, st["interior_min"], 1, st["last_twin"]) > 0:
                out = violate("interior Delta <= left twin Delta")
            elif not _scaled_delta_cmp(1, st["interior_min"], 1, w) > 0:
                out = violate("interior Delta <= right twin Delta")
        st["last_twin"] = [w.n, w.p, w.q]
        st["interior_min"] = None
        return out
    me = [w.n, w.p, w.q]
    if st["interior_min"] is None or _scaled_delta_cmp(
            1, me, 1, st["interior_min"]) < 0:
        st["interior_min"] = me
    return HOLD


@checker("twin-98", Kind.UNIVERSAL,
         title="d_n D_m1 > 2 D_n for every n past the most recent twin m1 with "
               "d_n >= 4",
         source="statement 9.8", n_min=2,
         state_init=lambda: {"last_twin": None})
def _twin_98(ctx, tri, st):
    w = tri.w
    if _is_twin(w):
        st["last_twin"] = [w.n, w.p, w.q]
        return HOLD
    if w.d < 4 or st["last_twin"] is None:
        return HOLD
    _, a, b = st["last_twin"]
    # d (sqrt(a)+sqrt(b)) > 2 (sqrt(p)+sqrt(q))
    if not cmp_weighted_sums(w.d, a, w.d, b, 2, w.p, 2, w.q) > 0:
        return violate("d_n D_m1 <= 2 D_n")
    return HOLD


@checker("twin-99", Kind.UNIVERSAL,
         title="Delta_n > Delta_m1 > Delta_m2 across each consecutive twin pair",
         source="corollary 9.9", n_min=2,
         state_init=lambda: {"last_twin": None, "interior_min": None})
def _twin_99(ctx, tri, st):
    w = tri.w
    if _is_twin(w):
        out = HOLD
        if st["last_twin"] is not None:
            if not _scaled_delta_cmp(1, st["last_twin"], 1, w) > 0:
                out = violate("Delta_m1 <= Delta_m2")
            elif (st["interior_min"] is not None
                  and not _scaled_delta_cmp(1, st["interior_min"], 1,
                                            st["last_twin"]) > 0):
                out = violate("interior Delta <= Delta_m1")
        st["last_twin"] = [w.n, w.p, w.q]
        st["interior_min"] = None
        return out
    me = [w.n, w.p, w.q]
    if st["interior_min"] is None or _scaled_delta_cmp(
            1, me, 1, st["interior_min"]) < 0:
        st["interior_min"] = me
    return HOLD


@checker("twin-910", Kind.UNIVERSAL,
         title="converse ordering: if Delta_n > Delta_m for all n < m (m >= 5) "
               "then d_m = 2",
         source="corollary 9.10", domain=_from_one,
         state_init=_runmin_state)
def _twin_910(ctx, tri, st):
    w = tri.w
    out = HOLD
    if w.n >= 5 and st["min"] is not None:
        mn, mp, mq = st["min"]
        if cmp_sqrt_sums(mq, w.p, w.q, mp) > 0 and w.d != 2:
            out = violate("fresh Delta minimum at a non-twin index")
    if st["min"] is None or cmp_sqrt_sums(w.q, st["min"][1], st["min"][2], w.p) < 0:
        st["min"] = [w.n, w.p, w.q]
    return out


@checker("twin-postulate", Kind.SURVEY,
         title="consecutive twin pairs: collect violations of Delta_m1/Delta_m2 < "
               "3/2, of Delta_m2 > Delta_m1 - Delta_m2, and of sqrt(2)/2 < "
               "D_m1/D_m2 (the open postulate-type ratios)",
         source="postulate discussion 9.2", n_min=2, conjecture=True,
         domain=lambda ctx, tri: _is_twin(tri.w),
         state_init=lambda: {"prev": None, "ratio32": [], "double": [], "sqrt2": []},
         finalize=lambda ctx, st, extra: extra.update(
             {k: st[k] for k in ("ratio32", "double", "sqrt2")}))
def _twin_postulate(ctx, tri, st):
    w = tri.w
    prev, st["prev"] = st["prev"], [w.n, w.p, w.q]
    if prev is None:
        return MISS
    _, a, b = prev
    c, e = w.p, w.q
    hit = False
    if not _scaled_delta_cmp(2, prev, 3, st["prev"]) < 0:  # 2 Delta1 < 3 Delta2
        st["ratio32"].append(w.n)
        hit = True
    if not _scaled_delta_cmp(2, st["prev"], 1, prev) > 0:  # 2 Delta2 > Delta1
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
         domain=lambda ctx, tri: _is_twin(tri.w),
         state_init=lambda: {"N": None, "list": []})
def _twin_913(ctx, tri, st):
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
def _alpha_props(ctx, tri, st):
    w = tri.w
    if _is_twin(w):
        out = HOLD
        if st["min_scaled"] is not None:
            entry = st["min_scaled"]  # [n, p, q, d] minimizing (2/d) Delta
            if not _scaled_delta_cmp(2, entry[:3], entry[3], w) > 0:
                out = violate("alpha_m2 <= alpha_n + (d_n-2)/D_n on the interior")
        st["last_twin"] = [w.n, w.p, w.q]
        st["min_scaled"] = None
        return out
    if w.d < 4 or st["last_twin"] is None:
        return HOLD
    # identity alpha_m1 - alpha_n = Delta_n - Delta_m1 (sqrt(2)/2 cancels)
    m1 = st["last_twin"]
    delta_m1 = RootExpr.sqrt(m1[2]) - RootExpr.sqrt(m1[1])
    delta_n = root_views(w).delta
    if (SQRT2_HALF - delta_m1) - (SQRT2_HALF - delta_n) != delta_n - delta_m1:
        return violate("alpha difference identity")
    # alpha_m1 > alpha_n  <=>  Delta_n > Delta_m1
    if not _scaled_delta_cmp(1, [w.n, w.p, w.q], 1, m1) > 0:
        return violate("alpha_m1 <= alpha_n")
    # middle chain term: alpha_n + (d-2)/D_n > alpha_m1  <=>  d Delta_m1 > 2 Delta_n
    if not _scaled_delta_cmp(w.d, m1, 2, [w.n, w.p, w.q]) > 0:
        return violate("alpha_n + (d_n-2)/D_n <= alpha_m1")
    me = [w.n, w.p, w.q, w.d]
    cur = st["min_scaled"]
    if cur is None or _scaled_delta_cmp(2 * cur[3], me[:3], 2 * me[3], cur[:3]) < 0:
        st["min_scaled"] = me
    return HOLD
