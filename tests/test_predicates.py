"""Two paths for every helper in checkers/predicates.py: the helper's own
integer reduction against cmp_root / floor_root of the same quantity built
from root_views(w).  mu-series' integer partial sums are checked the same
way, against the Fraction partial sums of `oracles`, and so are the
reductions thm-34, dpar-58/59, floor-31, chain-37, cor-56 and ids-516 write
inline.  The shared RootViews quantities are checked against the oracles'
Fraction model of RootExpr."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from gapcheck.checkers import Triple, registry
from gapcheck.checkers.catalog_floor import _mu_series_brackets
from gapcheck.checkers.predicates import (cmp_sqrt_sums, cmp_weighted_sums,
                                          delta_vs_delta4, delta_vs_rational,
                                          is_square, mu_cmp, mu_diff_sign,
                                          mu_sqrtp_frac_cmp, sqrtq_delta_frac_cmp)
from gapcheck.exact import Cmp, RootExpr, _sign_1rad, _sign_2rad, cmp_root, floor_root, frac_root
from gapcheck.window import GapWindow, root_views, windows
from oracles import (RefRoot, floor_root_general, longhand_sqrt_digits,
                     mu_series_brackets_fraction)

HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)


def _sample_windows(store, count, seed):
    """n = 1..12 (the small cases, n = 4 the Delta_4 equality) and seeded
    random n up to the store's last window."""
    rng = random.Random(seed)
    ns = list(range(1, 13)) + [rng.randrange(13, store.prime_count - 1) for _ in range(count)]
    return [GapWindow(n, store.nth_prime(n), store.nth_prime(n + 1)) for n in ns]


def _kernel_sign(e, rhs=0) -> int:
    c = cmp_root(e, rhs)
    assert c is not Cmp.UNDECIDED
    return c.value


def _thresholds(rng, e):
    """Random num/den, half of them within 1/den of the value of e."""
    den = rng.randrange(1, 10 ** rng.randrange(1, 7))
    near = floor_root(e.scale(den))
    return [(near + rng.choice((-1, 0, 1)), den),
            (rng.randrange(-2 * den, 3 * den), den)]


@pytest.fixture(scope="module")
def sample(mid_store):
    return _sample_windows(mid_store, 200, seed=11)


def test_rational_threshold_helpers_two_paths(sample):
    rng = random.Random(5)
    for w in sample:
        v = root_views(w)
        frac_q = frac_root(v.sqrtq_delta)[1]
        frac_mu_p = frac_root(v.mu_sqrtp)[1]
        for num, den in _thresholds(rng, v.mu):
            assert mu_cmp(w, num, den) == _kernel_sign(v.mu, Fraction(num, den)), w
        for num, den in _thresholds(rng, v.delta):
            num = abs(num)   # Delta is compared against t >= 0 only
            assert delta_vs_rational(w, num, den) == \
                _kernel_sign(v.delta, Fraction(num, den)), w
        for num, den in _thresholds(rng, frac_q):
            assert sqrtq_delta_frac_cmp(w, num, den) == \
                _kernel_sign(frac_q, Fraction(num, den)), w
        for num, den in _thresholds(rng, frac_mu_p):
            assert mu_sqrtp_frac_cmp(w, num, den) == \
                _kernel_sign(frac_mu_p, Fraction(num, den)), w


def test_window_helpers_two_paths(sample):
    delta4 = RootExpr.sqrt(11) - RootExpr.sqrt(7)
    for w in sample:
        v = root_views(w)
        assert delta_vs_delta4(w) == _kernel_sign(v.delta - delta4), w
        assert mu_diff_sign(w) == _kernel_sign(v.mu - v.mu_q), w
        assert v.floor_D == floor_root(v.D), w
    assert delta_vs_delta4(sample[3]) == 0   # n = 4 attains Delta_4


def test_sum_helpers_two_paths(sample):
    rng = random.Random(7)
    for w in sample:
        u = rng.choice(sample)
        vw, vu = root_views(w), root_views(u)
        # Delta(w) - Delta(u), as sqrt(q) + sqrt(p') against sqrt(q') + sqrt(p)
        assert cmp_sqrt_sums(w.q, u.p, u.q, w.p) == _kernel_sign(vw.delta - vu.delta)
        c1, c2 = rng.randrange(1, 9), rng.randrange(1, 9)
        assert cmp_weighted_sums(c1, w.q, c2, u.p, c2, u.q, c1, w.p) == \
            _kernel_sign(vw.delta.scale(c1) - vu.delta.scale(c2))
        for x in (w.p, w.N * w.N, w.p * w.q, w.d * w.d + 1):
            assert is_square(x) == (RootExpr.sqrt(x) == isqrt(x))


def test_mu_series_two_paths(mid_store):
    """mu-series' integer brackets over one denominator against the Fraction
    partial sums, order by order: the same rational ends, the same mu_cmp
    decisions, both confirmed by cmp_root on root_views(w).mu, and the
    checker holds exactly when every order's bracket holds mu."""
    rng = random.Random(17)
    ws = list(windows(mid_store, 3, 2000))
    ws += [GapWindow(n, mid_store.nth_prime(n), mid_store.nth_prime(n + 1))
           for n in rng.sample(range(2001, mid_store.prime_count - 1), 300)]
    evaluate = registry()["mu-series"].evaluate
    for w in ws:
        mu = root_views(w).mu
        ints = list(_mu_series_brackets(w))
        fracs = list(mu_series_brackets_fraction(w.h, w.N))
        assert len(ints) == len(fracs) == 8
        holds = True
        for (lo, hi, den), (lo_f, hi_f) in zip(ints, fracs):
            assert (Fraction(lo, den), Fraction(hi, den)) == (lo_f, hi_f), w
            inside = mu_cmp(w, lo, den) > 0 and mu_cmp(w, hi, den) < 0
            assert inside == (mu_cmp(w, lo_f.numerator, lo_f.denominator) > 0
                              and mu_cmp(w, hi_f.numerator, hi_f.denominator) < 0), w
            assert inside == (_kernel_sign(mu, lo_f) > 0 and _kernel_sign(mu, hi_f) < 0), w
            holds = holds and inside
        assert (evaluate(None, Triple(None, w, None), {}).res == "hold") == holds, w


@pytest.fixture(scope="module")
def from_two(mid_store, sample):
    """n = 2..2000 and the seeded sample's windows past n = 1."""
    return list(windows(mid_store, 2, 2000)) + [w for w in sample if w.n >= 2]


def test_thm34_half_bound_two_paths(from_two):
    """thm-34's 4pq > (2s+1)^2 against {sqrt(q) Delta} < 1/2 from the kernel;
    the checker holds exactly when the kernel bound does."""
    evaluate = registry()["thm-34"].evaluate
    for w in from_two:
        below = _kernel_sign(frac_root(root_views(w).sqrtq_delta)[1], Fraction(1, 2)) < 0
        assert (4 * w.p * w.q > (2 * w.s + 1) ** 2) == below, w
        assert (evaluate(None, Triple(None, w, None), {}).res == "hold") == below, w


def test_dpar_parity_two_paths(from_two):
    """dpar-58/59's sqrt(p) + sqrt(q) < 2N + 1 on shared windows against the
    parity of floor(D) from the kernel; both checkers hold on every window."""
    reg = registry()
    shared = [w for w in from_two if w.same_part]
    assert len(shared) > 1000
    for w in shared:
        even = floor_root(root_views(w).D) % 2 == 0
        assert (cmp_sqrt_sums(w.p, w.q, (2 * w.N + 1) ** 2, 0) < 0) == even, w
        for cid in ("dpar-58", "dpar-59"):
            assert reg[cid].evaluate(None, Triple(None, w, None), {}).res == "hold", (cid, w)


def _holds(cid, w) -> bool:
    return registry()[cid].evaluate(None, Triple(None, w, None), {}).res == "hold"


def test_floor31_two_paths(mid_store, from_two):
    """floor-31's floor(2 sqrt(pq)) = isqrt(4pq) against floor_root of
    2 sqrt(q) Delta and 2 sqrt(p) Delta; the checker holds exactly when the
    kernel floors are d and d - 1."""
    for w in list(windows(mid_store, 1, 1)) + from_two:
        v = root_views(w)
        t2 = isqrt(4 * w.p * w.q)
        fq, fp = floor_root(v.sqrtq_delta.scale(2)), floor_root(v.sqrtp_delta.scale(2))
        assert (2 * w.q - 1 - t2, t2 - 2 * w.p) == (fq, fp), w
        assert _holds("floor-31", w) == (fq == w.d and (w.n < 2 or fp == w.d - 1)), w


def test_chain37_two_paths(mid_store, from_two):
    """Each link of chain-37, as the checker's integer sign (the test's copy)
    and as cmp_root of the same RootExprs; the checker holds exactly when
    every kernel link does."""
    for w in list(windows(mid_store, 1, 1)) + from_two:
        v = root_views(w)
        pq, half_d = w.p * w.q, Fraction(w.d, 2)
        ints = [_sign_1rad(-2 * w.p - w.d, 2, pq) < 0,
                _sign_1rad(2 * w.q - w.d, -2, pq) > 0,
                _sign_1rad(4 * w.q - 2 * w.d - 1, -4, pq) < 0,
                _sign_1rad(-4 * w.p - 2 * w.d + 1, 4, pq) > 0,
                _sign_2rad(-2 * w.p, 2, pq, -1, 2 * w.p) < 0]
        kernel = [_kernel_sign(v.sqrtp_delta, half_d) < 0,
                  _kernel_sign(v.sqrtq_delta, half_d) > 0,
                  _kernel_sign(v.sqrtq_delta, half_d + QUARTER) < 0,
                  _kernel_sign(v.sqrtp_delta + HALF, half_d + QUARTER) > 0,
                  _kernel_sign(v.sqrtp_delta + HALF - RootExpr.sqrt(2 * w.p, HALF), HALF) < 0]
        assert ints == kernel, w
        assert _holds("chain-37", w) == all(kernel), w


def test_cor56_two_paths(from_two):
    """cor-56's {mu' sqrt(q)} - {mu sqrt(p)} < 1/2 from tN and tNq (the test's
    copy of its sign) against frac_root of mu sqrt(p) and mu' sqrt(q); the
    checker holds exactly when the kernel bound does."""
    shared = [w for w in from_two if w.same_part]
    for w in shared:
        v = root_views(w)
        fl_p, fr_p = frac_root(v.mu_sqrtp)
        fl_q, fr_q = frac_root(v.mu_q_sqrtq)
        assert (fl_p, fl_q) == (w.p - w.tN - 1, w.q - v.tNq - 1), w
        below = _kernel_sign(fr_q - fr_p, HALF) < 0
        assert (_sign_2rad(2 * (v.tNq - w.tN) - 1, 2 * w.N, w.p, -2 * w.Nq, w.q) < 0) == below, w
        assert _holds("cor-56", w) == below, w


def test_ids516_two_paths(from_two):
    """ids-516's sqrt(p) + sqrt(q) > 2 Nq against 2 mu' > Delta from the
    kernel, and the parity of floor_root(D); the checker holds on every
    straddle."""
    straddles = [w for w in from_two if w.straddle]
    assert len(straddles) > 100
    for w in straddles:
        v = root_views(w)
        gt = _kernel_sign(v.mu_q.scale(2) - v.delta) > 0
        assert (cmp_sqrt_sums(w.p, w.q, 4 * w.Nq * w.Nq, 0) > 0) == gt, w
        assert (floor_root(v.D) % 2 == 0) == gt, w
        assert _holds("ids-516", w), w


def _longhand_isqrt(x: int) -> int:
    return int(longhand_sqrt_digits(x, 0)[:-1])


def _ref_floor_frac(x: RefRoot):
    f = x.floor()
    return f, x - RefRoot(f)


def test_root_views_against_oracles(sample):
    """Every shared RootViews quantity against the same quantity built from
    its definition in oracles.RefRoot (Fraction coefficients, its own
    radicand split and inverse), floors by RefRoot.floor and by the
    fixed-point ladder of floor_root_general, integers by longhand isqrt."""
    for w in sample:
        v = root_views(w)
        sp, sq = RefRoot.sqrt(w.p), RefRoot.sqrt(w.q)
        delta, D = sq - sp, sq + sp
        mu, mu_q = sp - RefRoot(w.N), sq - RefRoot(w.Nq)
        sqrtq_delta, sqrtp_delta = sq * delta, sp * delta
        half_shift = sqrtp_delta - RefRoot(HALF)
        h_over_mu = RefRoot(w.h) * mu.inverse()
        hq_over_mu_q = RefRoot(w.hq) * mu_q.inverse()
        roots = {
            "sqrt_pq": RefRoot.sqrt(w.p * w.q),
            "N_sqrtp": sp.scale(w.N), "Nq_sqrtq": sq.scale(w.Nq),
            "delta_sq": delta * delta,
            "two_sqrtp_delta": sqrtp_delta.scale(2),
            "frac_sqrtq_delta": _ref_floor_frac(sqrtq_delta)[1],
            "frac_sqrtp_delta": _ref_floor_frac(sqrtp_delta)[1],
            "sqrtp_delta_half": half_shift,
            "mu_sq": mu * mu, "mu_q_sq": mu_q * mu_q, "mu_sum": mu_q + mu,
            "frac_h_over_mu": _ref_floor_frac(h_over_mu)[1],
            "frac_hq_over_mu_q": _ref_floor_frac(hq_over_mu_q)[1],
        }
        for name, ref in roots.items():
            assert getattr(v, name) == ref.to_root(), (name, w)
        ints = {
            "floor_sqrtp_delta_half": half_shift.floor(),
            "floor_h_over_mu": h_over_mu.floor(),
            "floor_hq_over_mu_q": hq_over_mu_q.floor(),
            "floor_D": D.floor(),
            "tNq": _longhand_isqrt(w.Nq * w.Nq * w.q),
        }
        for name, ref in ints.items():
            assert getattr(v, name) == ref, (name, w)
        for name, e in (("floor_sqrtp_delta_half", v.sqrtp_delta_half),
                        ("floor_h_over_mu", v.h_over_mu),
                        ("floor_hq_over_mu_q", v.hq_over_mu_q),
                        ("floor_D", v.D), ("tNq", v.Nq_sqrtq)):
            assert floor_root_general(e) == ints[name], (name, w)
