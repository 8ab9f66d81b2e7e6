"""Checker catalog: parity and window-position family (source statements 5.1 - 7.x).

Window vocabulary: "shared" means floor(sqrt(p)) = floor(sqrt(q)) (both primes
under the same square), "straddle" means a perfect square separates them.
The integers tN = floor(N sqrt(p)) and t2N = floor(2N sqrt(p)) make every
mu*sqrt(p) floor a pure-integer statement.

A checker whose claim is an identity of every integer window returns HOLD
over its domain; its docstring gives the algebra, and the identity is
checked through the kernel by tests/test_exact.py.
"""

from __future__ import annotations

from ..exact import frac_root, _sign_1rad, _sign_2rad
from ..window import mu_sqrtp_frac_cmp, mu_vs_rational
from .types import HOLD, MISS, Kind, checker, hard_fail, violate


def _same(tri) -> bool:
    return tri.w.same_part


def _straddle(tri) -> bool:
    return tri.w.straddle


def _straddle_n2(tri) -> bool:
    return tri.w.straddle and tri.w.N >= 2


# -- statement 5.x ---------------------------------------------------------------

# par-51 .. par-54 hold for every non-square integer p: x = N sqrt(p) - N^2
# solves x (x + 2N^2) = N^2 h, and 1 <= h <= 2N puts x in ((h - 1)/2, h/2).
# So tN = N^2 + h/2 - 1 and {mu sqrt(p)} = h/2 - x for even h,
# tN = N^2 + (h - 1)/2 and {mu sqrt(p)} = (h + 1)/2 - x for odd h, and
# mu = sqrt(p) - N = x/N.


@checker("par-51", Kind.UNIVERSAL,
         title="h even iff 2{mu sqrt(p)} = {2 mu sqrt(p)} iff {mu sqrt(p)} < 1/2, "
               "with floor(mu sqrt(p)) = h/2 in the even case",
         source="statement 5.1", n_min=2)
def _par_51(tri, st):
    """Holds for every integer window: x = N sqrt(p) - N^2 lies in
    ((h - 1)/2, h/2) (see the note above), which fixes tN, t2N and
    {mu sqrt(p)} by the parity of h."""
    w = tri.w
    even = w.h % 2 == 0
    # mu^2 = 2{mu sqrt(p)}  <=>  p + N^2 = 2 tN + 2
    if even != (w.p + w.N * w.N == 2 * w.tN + 2):
        return violate("doubling identity mismatch")
    if even != (mu_sqrtp_frac_cmp(w, 1, 2) < 0):
        return violate("half-line position mismatch")
    if even != (w.t2N == 2 * w.tN + 1):
        return violate("{2 mu sqrt(p)} vs 2{mu sqrt(p)} mismatch")
    if even and w.p - w.tN - 1 != w.h // 2:
        return violate("floor(mu sqrt(p)) != h/2")
    return HOLD


@checker("par-52", Kind.UNIVERSAL,
         title="h even iff mu > 2 {mu sqrt(p)}",
         source="corollary 5.2", n_min=2)
def _par_52(tri, st):
    """Holds for every integer window: with mu = x/N, mu > 2{mu sqrt(p)}
    reduces to x < N for even h, and mu < 2{mu sqrt(p)} to
    x < N(h + 1)/(2N + 1), which x < h/2 gives, for odd h < 2N."""
    w = tri.w
    s = _sign_1rad(-(w.N + 2 * w.tN + 2), 2 * w.N + 1, w.p)
    return HOLD if (w.h % 2 == 0) == (s > 0) else violate("mu vs 2{mu sqrt(p)}")


@checker("par-53", Kind.UNIVERSAL,
         title="h odd iff {mu sqrt(p)} > 1/2 iff 2{mu sqrt(p)} - 1 = {2 mu sqrt(p)}, "
               "with floor(mu sqrt(p)) = (h-1)/2 in the odd case",
         source="proposition 5.3", n_min=2)
def _par_53(tri, st):
    """Holds for every integer window: the note above fixes tN, t2N and
    {mu sqrt(p)} by the parity of h."""
    w = tri.w
    odd = w.h % 2 == 1
    if odd != (mu_sqrtp_frac_cmp(w, 1, 2) > 0):
        return violate("half-line position mismatch")
    if odd != (w.t2N == 2 * w.tN):
        return violate("odd doubling identity mismatch")
    if odd and w.p - w.tN - 1 != (w.h - 1) // 2:
        return violate("floor(mu sqrt(p)) != (h-1)/2")
    return HOLD


@checker("par-54", Kind.UNIVERSAL,
         title="h odd iff mu < {mu sqrt(p)}",
         source="corollary 5.4", n_min=2)
def _par_54(tri, st):
    """Holds for every integer window: with mu = x/N, mu > {mu sqrt(p)}
    reduces to x < 2N for even h, and mu < {mu sqrt(p)} to
    2Nh < 2N^2 + (h + 1)x, which x > (h - 1)/2 gives as (2N - h)^2 >= 1,
    for odd h."""
    w = tri.w
    s = _sign_1rad(-(w.N + w.tN + 1), w.N + 1, w.p)
    return HOLD if (w.h % 2 == 1) == (s < 0) else violate("mu vs {mu sqrt(p)}")


def _mono_55_domain(tri) -> bool:
    w = tri.w
    return w.N % 2 == 1 or w.same_part


@checker("mono-55", Kind.UNIVERSAL,
         title="{mu sqrt(p)} increases through a pair of windows over odd squares",
         source="statement 5.5", n_min=2, domain=_mono_55_domain)
def _mono_55(tri, st):
    w = tri.w
    # frac(mu' sqrt(q)) - frac(mu sqrt(p)) = (tNq - tN) + N sqrt(p) - Nq sqrt(q)
    s = _sign_2rad(w.tNq - w.tN, w.N, w.p, -w.Nq, w.q)
    return HOLD if s > 0 else violate("{mu sqrt(p)} not increasing")


@checker("cor-56", Kind.UNIVERSAL,
         title="{mu' sqrt(q)} - {mu sqrt(p)} < 1/2 on shared windows (the proof's "
               "reading; the printed condition floor(mu sqrt(p)) = floor(mu sqrt(q)) "
               "is reported when it disagrees)",
         source="corollary 5.6", n_min=2, domain=_same)
def _cor_56(tri, st):
    """The printed condition of the title is not evaluated here: it agrees
    with this reading on every shared window n <= 2e5, which
    tests/test_predicates.py checks, and a HOLD keeps no note to report it."""
    w = tri.w
    # times 2 to clear the half
    s = _sign_2rad(2 * (w.tNq - w.tN) - 1, 2 * w.N, w.p, -2 * w.Nq, w.q)
    if s >= 0:
        return violate("fractional difference >= 1/2")
    return HOLD


@checker("dpar-57", Kind.UNIVERSAL,
         title="D - (mu' + mu) is twice the common integral part on shared windows",
         source="proposition 5.7", n_min=2, domain=_same)
def _dpar_57(tri, st):
    """Holds for every integer window with Nq = N: mu' + mu = D - 2N, so
    D - (mu' + mu) = 2N, and then (D - (mu' + mu))/2 + mu = N + mu = sqrt(p)
    and N + mu' = sqrt(q)."""
    return HOLD


@checker("dpar-58", Kind.UNIVERSAL,
         title="on shared windows floor(D) is even iff mu' + mu < 1, with the "
               "matching {D} expression",
         source="corollary 5.8", n_min=2, domain=_same)
def _dpar_58(tri, st):
    """Holds for every integer window with Nq = N: D = 2N + mu' + mu lies in
    (2N, 2N + 2), so floor(D) is 2N, even, when mu' + mu < 1 and 2N + 1, odd,
    when mu' + mu > 1; {D} is mu' + mu or mu' + mu - 1 to match."""
    return HOLD


@checker("dpar-59", Kind.UNIVERSAL,
         title="on shared windows floor(D) even iff 2mu < 1 - Delta (then mu < 1/2); "
               "odd iff 2mu > 1 - Delta",
         source="corollary 5.9", n_min=2, domain=_same)
def _dpar_59(tri, st):
    """Holds for every integer window with Nq = N: Delta = mu' - mu, so
    2mu < 1 - Delta is mu' + mu < 1, whose parity of floor(D) is dpar-58's;
    and mu < mu' there, so mu' + mu < 1 forces mu < 1/2."""
    w = tri.w
    # mu' + mu < 1 iff floor(D) < 2N + 1
    if w.floor_D < 2 * w.N + 1 and not mu_vs_rational(w.p, w.N, 1, 2) < 0:
        return violate("mu >= 1/2 in the even case")
    return HOLD


@checker("ids-510", Kind.UNIVERSAL,
         title="on shared windows d = h' - h; {h/mu} = mu; Delta = {h'/mu'} - {h/mu}",
         source="proposition 5.10", n_min=2, domain=_same)
def _ids_510(tri, st):
    """Holds for every integer window with Nq = N: d = (N^2 + h') - (N^2 + h);
    h = mu (sqrt(p) + N) makes h/mu = 2N + mu with 0 < mu < 1, so
    {h/mu} = mu, {h'/mu'} = mu' and {h'/mu'} - {h/mu} = sqrt(q) - sqrt(p)."""
    return HOLD


@checker("ids-511", Kind.UNIVERSAL,
         title="on shared windows {mu' sqrt(q) - mu sqrt(p)} = {mu' sqrt(q)} - "
               "{mu sqrt(p)}, floor = d/2 = floor difference, fractional part "
               "(mu'^2 - mu^2)/2 (the printed iff admits straddle instances, "
               "e.g. n = 2; checked on its shared-window scope)",
         source="corollary 5.11 with proposition 5.10(2)", n_min=2, domain=_same)
def _ids_511(tri, st):
    """X = mu' sqrt(q) - mu sqrt(p) = N sqrt(p) - N sqrt(q) + d on a shared
    window.  Two clauses are identities of every integer window once the
    first two hold, and tests/test_exact.py checks them through the kernel:
    (mu'^2 - mu^2)/2 = X - d/2, so the fractional part equals it exactly when
    floor(X) = d/2, which after the floor clause is d even; and
    {X} = X - floor(X), so the floor difference is the fractional split
    restated.  The split and the floor stay per window."""
    w = tri.w
    radicals = w.N_sqrtp - w.Nq_sqrtq
    fX, fracX = frac_root(radicals + (w.q - w.p))
    if fracX != radicals + (w.tNq - w.tN):
        return violate("fractional split fails on a shared window")
    if fX != w.d // 2:
        return violate("floor != d/2")
    if w.d % 2:
        return violate("fractional part != (mu'^2 - mu^2)/2")
    return HOLD


@checker("ids-512", Kind.UNIVERSAL,
         title="on straddles Delta = {h'/mu'} + 1 - {h/mu} and d/2 - (sqrt(p) - mu) "
               "= mu' sqrt(q) - mu sqrt(p) - (mu'^2 - mu^2 - 1)/2",
         source="proposition 5.12", n_min=2, domain=_straddle)
def _ids_512(tri, st):
    """Holds for every integer window with Nq = N + 1: {h/mu} = mu and
    {h'/mu'} = mu' (ids-510), and mu' + 1 - mu = sqrt(q) - Nq + 1 - sqrt(p) + N
    = Delta; with mu sqrt(p) = p - N sqrt(p) and mu^2 = p - 2N sqrt(p) + N^2,
    2(mu' sqrt(q) - mu sqrt(p)) - (mu'^2 - mu^2 - 1) = d - (Nq^2 - N^2) + 1
    = d - 2N."""
    return HOLD


@checker("ids-513", Kind.UNIVERSAL,
         title="on straddles {mu sqrt(p) - mu' sqrt(q)} splits by the parity of h, "
               "with matching floor differences",
         source="corollary 5.13", n_min=2, domain=_straddle)
def _ids_513(tri, st):
    w = tri.w
    fX, fracX = frac_root(w.Nq_sqrtq - w.N_sqrtp + (w.p - w.q))
    fr_p = (w.tN + 1) - w.N_sqrtp     # {mu sqrt(p)}
    fr_q = (w.tNq + 1) - w.Nq_sqrtq   # {mu' sqrt(q)}
    fl_p, fl_q = w.p - w.tN - 1, w.q - w.tNq - 1
    if w.h % 2 == 0:
        if fracX != fr_p - fr_q + 1:
            return violate("even-h fractional split")
        if fX != fl_p - fl_q - 1:
            return violate("even-h floor difference")
    else:
        if fracX != fr_p - fr_q:
            return violate("odd-h fractional split")
        if fX != fl_p - fl_q:
            return violate("odd-h floor difference")
    return HOLD


@checker("ids-514", Kind.UNIVERSAL,
         title="on straddles sqrt(p) - mu = d/(2 Delta) - (mu' + mu + 1)/2 and the "
               "companion sqrt(q) expression",
         source="proposition 5.14", n_min=2, domain=_straddle)
def _ids_514(tri, st):
    """Holds for every integer window with Nq = N + 1: d/(2 Delta) = D/2, so
    d/(2 Delta) - (mu' + mu + 1)/2 = (Nq + N - 1)/2 = N = sqrt(p) - mu, and
    d/(2 Delta) - (mu' + mu - 1)/2 + mu' = N + 1 + mu' = sqrt(q)."""
    return HOLD


@checker("ids-515", Kind.UNIVERSAL,
         title="on straddles floor(D) even iff mu' + mu > 1, with the {D} formulas",
         source="corollary 5.15", n_min=2, domain=_straddle)
def _ids_515(tri, st):
    """Holds for every integer window with Nq = N + 1: D = 2N + 1 + mu' + mu
    lies in (2N + 1, 2N + 3), so floor(D) is 2N + 2, even, when mu' + mu > 1
    and 2N + 1, odd, when mu' + mu < 1; {D} is mu' + mu - 1 or mu' + mu."""
    return HOLD


@checker("ids-516", Kind.UNIVERSAL,
         title="on straddles floor(D) even iff 2mu' > Delta (then mu > 1 - Delta_4/2); "
               "odd iff 2mu' < Delta (then mu' < Delta_4/2)",
         source="corollary 5.16", n_min=2, domain=_straddle)
def _ids_516(tri, st):
    w = tri.w
    # Delta = 1 + mu' - mu here, so 2mu' > Delta iff mu' + mu > 1 iff
    # floor(D) > 2N + 1, even (the parity is ids-515's identity).  With
    # Delta_4 = sqrt(11) - sqrt(7), each bound orders two positive sides,
    # squared into one sign over two radicands
    if w.floor_D > 2 * w.N + 1:
        # mu - 1 + Delta_4/2 > 0  <=>  2 sqrt(p) + sqrt(11) > 2(N + 1) + sqrt(7)
        M = w.N + 1
        if not _sign_2rad(4 * w.p + 4 - 4 * M * M, 4, 11 * w.p, -4 * M, 7) > 0:
            return violate("mu <= 1 - Delta_4/2 in the even case")
    else:
        # mu' < Delta_4/2  <=>  2 sqrt(q) + sqrt(7) < 2 Nq + sqrt(11)
        Nq = w.Nq
        if not _sign_2rad(4 * w.q - 4 - 4 * Nq * Nq, 4, 7 * w.q, -4 * Nq, 11) < 0:
            return violate("mu' >= Delta_4/2 in the odd case")
    return HOLD


@checker("survey-2mu", Kind.SURVEY,
         title="collect straddles with mu <= 2 mu' (the question asks whether "
               "mu > 2 mu' always holds there)",
         source="question closing section 5", n_min=2, domain=_straddle)
def _survey_2mu(tri, st):
    w = tri.w
    s = _sign_2rad(2 * w.Nq - w.N, 1, w.p, -2, w.q)
    return HOLD if s <= 0 else MISS


# -- statement 6.x ---------------------------------------------------------------


@checker("eq-61", Kind.UNIVERSAL,
         title="2 sqrt(p) Delta = d - Delta^2 exactly",
         source="display 6.1")
def _eq_61(tri, st):
    """Holds for every integer window: both sides are 2 sqrt(pq) - 2p, as
    Delta^2 = p + q - 2 sqrt(pq)."""
    return HOLD


@checker("dnh-forms", Kind.UNIVERSAL,
         title="d = h' - h on shared windows, d = 2N + 1 + h' - h on straddles; "
               "d never equals h'",
         source="display after 6.3")
def _dnh_forms(tri, st):
    """Holds for every integer window: d = (Nq^2 + h') - (N^2 + h) with
    Nq^2 - N^2 = 0 or 2N + 1; so d = h' would need h = 0 (p a square) on a
    shared window or h = 2N + 1 > 2N on a straddle."""
    return HOLD


@checker("survey-dh", Kind.SURVEY,
         title="collect n with d = h; companion: 2h = h' forces 2mu > mu'",
         source="d = h examples after 6.3")
def _survey_dh(tri, st):
    w = tri.w
    if 2 * w.h == w.hq:
        s = _sign_2rad(w.Nq - 2 * w.N, 2, w.p, -1, w.q)
        if not s > 0:
            return hard_fail("2h = h' but 2mu <= mu'")
    return HOLD if w.d == w.h else MISS


@checker("eq-64", Kind.UNIVERSAL,
         title="straddle lower bounds: d >= 2 + h' (N even >= 2), d >= 3 + h' "
               "(N odd >= 3), d >= 2 (N = 1)",
         source="display 6.4", domain=_straddle)
def _eq_64(tri, st):
    w = tri.w
    if w.N == 1:
        return HOLD if w.d >= 2 else violate("d < 2 at N = 1")
    need = 2 + w.hq if w.N % 2 == 0 else 3 + w.hq
    return HOLD if w.d >= need else violate(f"d < {need}")


@checker("max-gap-61", Kind.UNIVERSAL,
         title="d <= 2 floor(sqrt(p)); equality only on straddles",
         source="statement 6.1")
def _max_gap_61(tri, st):
    w = tri.w
    if w.d > 2 * w.N:
        return violate("d > 2 floor(sqrt(p))")
    if w.d == 2 * w.N and not w.straddle:
        return violate("maximal gap on a shared window")
    return HOLD


@checker("cor-62", Kind.UNIVERSAL,
         title="on straddles h >= h' + 1 for n >= 2",
         source="corollary 6.2", n_min=2, domain=_straddle)
def _cor_62(tri, st):
    w = tri.w
    return HOLD if w.h >= w.hq + 1 else violate("h < h' + 1")


@checker("ext-63", Kind.EXCEPTION_SET,
         title="h = h' + 1 on a straddle exactly at n in {2, 4}",
         source="statement 6.3", n_min=2, domain=_straddle,
         expected_exceptions=frozenset({2, 4}))
def _ext_63(tri, st):
    w = tri.w
    return violate("h = h' + 1") if w.h == w.hq + 1 else HOLD


@checker("cor-64", Kind.EQUIVALENCE,
         title="d = 2 floor(sqrt(p)) iff h = N + 1 and h' = N",
         source="corollary 6.4")
def _cor_64(tri, st):
    w = tri.w
    lhs = w.d == 2 * w.N
    rhs = w.h == w.N + 1 and w.hq == w.N
    return HOLD if lhs == rhs else violate(f"lhs {lhs} rhs {rhs}")


@checker("straddle-65", Kind.UNIVERSAL,
         title="on straddles with N >= 2: h' <= N < sqrt(p) < N + 1 <= h",
         source="statement 6.5",
         domain=_straddle_n2)
def _straddle_65(tri, st):
    w = tri.w
    if w.hq > w.N:
        return violate("h' > N")
    if w.h < w.N + 1:
        return violate("h < N + 1")
    return HOLD


@checker("straddle-66", Kind.UNIVERSAL,
         title="on straddles with N >= 2: mu > 1/2 > mu'",
         source="statement 6.6",
         domain=_straddle_n2)
def _straddle_66(tri, st):
    w = tri.w
    if not 4 * w.p > (2 * w.N + 1) ** 2:
        return violate("mu <= 1/2")
    if not 4 * w.q < (2 * w.Nq + 1) ** 2:
        return violate("mu' >= 1/2")
    return HOLD


@checker("cor-67", Kind.UNIVERSAL,
         title="on straddles with n >= 4: 2 + h' <= d <= N + h'",
         source="corollary 6.7", n_min=4, domain=_straddle)
def _cor_67(tri, st):
    w = tri.w
    if not 2 + w.hq <= w.d:
        return violate("d < 2 + h'")
    if not w.d <= w.N + w.hq:
        return violate("d > N + h'")
    return HOLD


@checker("survey-dsq-p", Kind.SURVEY,
         title="collect n with d^2 > q; also tally d > sqrt(p) and Delta > 1/2",
         source="closing survey of section 6",
         state_init=lambda: {"d_gt_sqrt_p": [], "delta_gt_half": []},
         finalize=lambda st, extra: extra.update(st))
def _survey_dsq_p(tri, st):
    w = tri.w
    if w.d * w.d > w.p and len(st["d_gt_sqrt_p"]) < 1000:
        st["d_gt_sqrt_p"].append(w.n)
    if w.delta_vs_half > 0 and len(st["delta_gt_half"]) < 1000:
        st["delta_gt_half"].append(w.n)
    return HOLD if w.d * w.d > w.q else MISS


@checker("delta-gt-half", Kind.SURVEY,
         title="collect n with Delta > 1/2 (printed list 2, 4, 6, 9, 11, 30 with "
               "its duplicated 9 read as a set)",
         source="closing survey of section 6")
def _delta_gt_half(tri, st):
    return HOLD if tri.w.delta_vs_half > 0 else MISS


# -- statement 7.x ---------------------------------------------------------------


def _same_even(tri) -> bool:
    return tri.w.same_part and tri.w.N % 2 == 0


def _same_odd(tri) -> bool:
    return tri.w.same_part and tri.w.N % 2 == 1


@checker("same-71", Kind.UNIVERSAL,
         title="on shared windows d <= N iff Delta < 1/2; and d < sqrt(p)",
         source="statement 7.1", n_min=2, domain=_same)
def _same_71(tri, st):
    w = tri.w
    lhs = w.d <= w.N
    rhs = w.delta_vs_half < 0
    if lhs != rhs:
        return violate(f"d <= N is {lhs} but Delta < 1/2 is {rhs}")
    if not w.d * w.d < w.p:
        return violate("d >= sqrt(p)")
    return HOLD


@checker("even-72", Kind.EXCEPTION_SET,
         title="even-N shared windows reach d = 2N - 2 only at n = 3",
         source="lemma 7.2", n_min=2, domain=_same_even,
         expected_exceptions=frozenset({3}))
def _even_72(tri, st):
    w = tri.w
    return violate("d = 2N - 2") if w.d == 2 * w.N - 2 else HOLD


@checker("even-73", Kind.EQUIVALENCE,
         title="even-N shared windows: d = N iff h' = 2N - 1 and h = N - 1",
         source="statement 7.3", n_min=2, domain=_same_even)
def _even_73(tri, st):
    w = tri.w
    lhs = w.d == w.N
    rhs = w.hq == 2 * w.N - 1 and w.h == w.N - 1
    return HOLD if lhs == rhs else violate(f"lhs {lhs} rhs {rhs}")


@checker("even-74", Kind.EXCEPTION_SET,
         title="even-N shared windows reach d = floor(sqrt(p)) exactly at n in {3, 8}",
         source="corollary 7.4", n_min=2, domain=_same_even,
         expected_exceptions=frozenset({3, 8}))
def _even_74(tri, st):
    w = tri.w
    return violate("d = floor(sqrt(p))") if w.d == w.N else HOLD


@checker("even-75", Kind.UNIVERSAL,
         title="even-N shared windows: 0 < mu' - mu < 1/2 - Delta^2/(2 sqrt(p))",
         source="corollary 7.5", n_min=2, domain=_same_even)
def _even_75(tri, st):
    w = tri.w
    # the bound reduces exactly to d < sqrt(p)
    return HOLD if w.d * w.d < w.p else violate("upper bound fails")


@checker("even-76", Kind.UNIVERSAL,
         title="even-N shared windows: h' < N forces d < sqrt(p) - 1 - h; "
               "h > sqrt(p) forces d < h' - sqrt(p)",
         source="corollary 7.6", n_min=2, domain=_same_even)
def _even_76(tri, st):
    """Holds for every integer window with Nq = N: d = h' - h, so
    d < sqrt(p) - 1 - h is h' + 1 < sqrt(p), given by h' < N, and
    d < h' - sqrt(p) is h > sqrt(p)."""
    w = tri.w
    if w.hq < w.N:
        if not (w.d + 1 + w.h) ** 2 < w.p:
            return violate("d >= sqrt(p) - 1 - h")
    if w.h * w.h > w.p:
        if not (w.hq - w.d > 0 and (w.hq - w.d) ** 2 > w.p):
            return violate("d >= h' - sqrt(p)")
    return HOLD


@checker("even-77", Kind.UNIVERSAL,
         title="even-N (>= 4) shared windows except n = 8: d <= N - 2, below the "
               "prior prime's square-root cases",
         source="statement 7.7 with display 7.1", n_min=2,
         domain=lambda tri: (tri.w.same_part and tri.w.N % 2 == 0
                             and tri.w.N >= 4 and tri.w.n != 8))
def _even_77(tri, st):
    w, prev = tri.w, tri.prev
    if w.d > w.N - 2:
        return violate("d > N - 2")
    if prev.N == w.N:
        if not w.N * w.N < prev.p:
            return violate("N - 2 >= sqrt(p_prev) - 2")
    else:
        if not (w.N - 1) ** 2 < prev.p:
            return violate("N - 2 >= sqrt(p_prev) - 1")
    return HOLD


@checker("thm-78", Kind.UNIVERSAL,
         title="even-N >= 4 shared windows: h = 1 gives two primes in "
               "(N^2, N^2+N); h' = 2N - 1 with N > 4 gives two in (N^2+N, N^2+2N)",
         source="statement 7.8", n_min=2,
         domain=lambda tri: (tri.w.same_part and tri.w.N % 2 == 0
                             and tri.w.N >= 4))
def _thm_78(tri, st):
    """p and q are consecutive primes, so the window decides both counts.
    h = 1: p = N^2 + 1 and q is the next prime, so (N^2, N^2+N) holds two
    iff q < N^2 + N = N(N+1), that is h' <= N.  h' = 2N - 1: q is the last
    prime below (N+1)^2 and p the one before it, so (N^2+N, N^2+2N) holds
    two iff p > N^2 + N, that is h > N."""
    w = tri.w
    if w.h == 1 and w.hq > w.N:
        return violate("fewer than two primes in (N^2, N^2+N)")
    if w.hq == 2 * w.N - 1 and w.N > 4 and w.h <= w.N:
        return violate("fewer than two primes in (N^2+N, N^2+2N)")
    return HOLD


@checker("odd-79", Kind.EXCEPTION_SET,
         title="odd-N (>= 3) shared windows reach d = 2N - 4 only at n = 5",
         source="lemma 7.9", n_min=2, domain=_same_odd,
         expected_exceptions=frozenset({5}))
def _odd_79(tri, st):
    w = tri.w
    return violate("d = 2N - 4") if w.N >= 3 and w.d == 2 * w.N - 4 else HOLD


@checker("odd-710", Kind.EXCEPTION_SET,
         title="odd-N shared windows reach d = N - 1 exactly at n in {5, 16, 24}",
         source="statement 7.10", n_min=2, domain=_same_odd,
         expected_exceptions=frozenset({5, 16, 24}))
def _odd_710(tri, st):
    w = tri.w
    return violate("d = N - 1") if w.d == w.N - 1 else HOLD


@checker("odd-711", Kind.UNIVERSAL,
         title="odd-N shared windows: mu' - mu < 1/2 - Delta^2/(2 sqrt(p)) "
               "- 1/(2 sqrt(p))",
         source="corollary 7.11", n_min=2, domain=_same_odd)
def _odd_711(tri, st):
    w = tri.w
    # reduces exactly to d + 1 < sqrt(p)
    return HOLD if (w.d + 1) ** 2 < w.p else violate("tightened bound fails")


@checker("odd-712", Kind.UNIVERSAL,
         title="odd-N shared windows: d <= floor(sqrt(p)) - 1, below the prior "
               "prime's square-root cases",
         source="corollary 7.12 with display 7.2", n_min=2,
         domain=_same_odd)
def _odd_712(tri, st):
    w, prev = tri.w, tri.prev
    if w.d > w.N - 1:
        return violate("d > floor(sqrt(p)) - 1")
    if prev.N == w.N:
        if not w.N * w.N < prev.p:
            return violate("N - 1 >= sqrt(p_prev) - 1")
    else:
        if not (w.N - 1) ** 2 < prev.p:
            return violate("N - 1 >= sqrt(p_prev)")
    return HOLD


@checker("odd-713", Kind.UNIVERSAL,
         title="odd-N shared windows: h' < N forces d < sqrt(p) - 1 - h with the "
               "prior-prime variants; h > sqrt(p) forces d < h' - sqrt(p)",
         source="corollary 7.13", n_min=2, domain=_same_odd)
def _odd_713(tri, st):
    """Holds for every chain of integer windows with Nq = N: as even-76,
    and with d + h = h' <= N - 1 the prior-prime bounds need only
    N^2 < p_prev when p_prev shares N, or (N - 1)^2 < p_prev otherwise."""
    w, prev = tri.w, tri.prev
    if w.hq < w.N:
        if not (w.d + 1 + w.h) ** 2 < w.p:
            return violate("d >= sqrt(p) - 1 - h")
        if prev.N == w.N:
            if not (w.d + 1 + w.h) ** 2 < prev.p:
                return violate("d >= sqrt(p_prev) - 1 - h")
        else:
            if not (w.d + w.h) ** 2 < prev.p:
                return violate("d >= sqrt(p_prev) - h")
    if w.h * w.h > w.p:
        if not (w.hq - w.d > 0 and (w.hq - w.d) ** 2 > w.p):
            return violate("d >= h' - sqrt(p)")
    return HOLD


@checker("first-after-square", Kind.UNIVERSAL,
         title="when p is the smallest prime above N^2 (N >= 2), floor(D) is even",
         source="closing statement of section 7", n_min=2,
         domain=lambda tri: tri.w.N >= 2 and tri.prev.N < tri.w.N)
def _first_after_square(tri, st):
    w = tri.w
    fd = w.floor_D
    return HOLD if fd % 2 == 0 else violate(f"floor(D) = {fd} odd")


@checker("survey-last-before-square", Kind.SURVEY,
         title="collect straddles whose lower prime (largest before (N+1)^2) has "
               "floor(D) even",
         source="closing question of section 7", domain=_straddle,
         state_init=lambda: {"N_values": []},
         finalize=lambda st, extra: extra.update(st))
def _survey_last_before_square(tri, st):
    w = tri.w
    if w.floor_D % 2 == 0:
        if len(st["N_values"]) < 1000:
            st["N_values"].append(w.N)
        return HOLD
    return MISS
