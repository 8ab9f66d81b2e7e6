"""Two paths for every window comparison of window.py (floor_sqrt_sum,
delta_order, mu_order, mu_vs_rational, mu_in_brackets, sqrtq_delta_frac_cmp,
mu_sqrtp_frac_cmp), for catalog_gaps.is_square and for the delta_vs_half
view: the helper's own integer reduction against cmp_root / floor_root of
the same quantity built from RootExpr.sqrt and the window's views, or, where
that quantity has three or more radicands or a product of two values,
against the oracles' root_sign of a sum of RootExprs and RefRoot.
mu-series' integer partial sums are checked the same way, against the
Fraction partial sums of `oracles`, and so are the reductions thm-34,
floor-31, chain-37, cor-56, mu-bounds and eq-15-4 write inline and the
comparisons dpar-59 and ids-516 read from floor_D.  cor-56's printed condition is checked against the reading it
decides.  thm-78's two counts, read off the window, are checked against
the same counts taken in the sieve.  Every GapWindow view is checked
against the oracles' Fraction model of RootExpr."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from gapcheck.checkers import Triple, registry
from gapcheck.checkers.catalog_floor import _mu_series_brackets
from gapcheck.checkers.catalog_gaps import is_square
from gapcheck.exact import Cmp, RootExpr, _sign_1rad, _sign_2rad, cmp_root, floor_root, frac_root
from gapcheck.intervals import square_reports
from gapcheck.window import (GapWindow, delta_order, floor_sqrt_sum, mu_in_brackets, mu_order,
                             mu_sqrtp_frac_cmp, mu_vs_rational, sqrtq_delta_frac_cmp, windows)
from oracles import (RANDOM_RANGES, RefRoot, floor_root_general, longhand_sqrt_digits,
                     mu_series_brackets_fraction, random_chain, root_sign)


def _sample_windows(store, count, seed):
    """n = 1..12 (the small cases, n = 4 the Delta_4 equality) and seeded
    random n up to the store's last window."""
    rng = random.Random(seed)
    ns = list(range(1, 13)) + [rng.randrange(13, store.prime_count - 1) for _ in range(count)]
    return [GapWindow(n, store.nth_prime(n), store.nth_prime(n + 1)) for n in ns]


def _kernel_sign(e, num=0, den=1) -> int:
    """The sign of e - num/den from the kernel, as e times den > 0 against num."""
    c = cmp_root(e.scale(den), num)
    assert c is not Cmp.UNDECIDED
    return c.value


def _sqrt_p(w):
    return RootExpr.sqrt(w.p)


def _sqrt_q(w):
    return RootExpr.sqrt(w.q)


def _mu(w):
    """mu = sqrt(p) - N as a RootExpr."""
    return _sqrt_p(w) - w.N


def _delta(w):
    """Delta = sqrt(q) - sqrt(p) as a RootExpr."""
    return _sqrt_q(w) - _sqrt_p(w)


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
        frac_q = frac_root(w.sqrtq_delta)[1]
        frac_mu_p = frac_root(w.p - w.N_sqrtp)[1]   # mu sqrt(p) = p - N sqrt(p)
        mu = _mu(w)
        for num, den in _thresholds(rng, mu):
            assert mu_vs_rational(w.p, w.N, num, den) == _kernel_sign(mu, num, den), w
        assert w.delta_vs_half == _kernel_sign(_delta(w), 1, 2), w
        for num, den in _thresholds(rng, frac_q):
            assert sqrtq_delta_frac_cmp(w, num, den) == _kernel_sign(frac_q, num, den), w
        for num, den in _thresholds(rng, frac_mu_p):
            assert mu_sqrtp_frac_cmp(w, num, den) == _kernel_sign(frac_mu_p, num, den), w


def test_window_helpers_two_paths(sample):
    delta4 = RootExpr.sqrt(11) - RootExpr.sqrt(7)
    for w in sample:
        # Delta_n - Delta_4 has four radicands: the oracle's sign of the sum
        assert delta_order(w.p, w.q, 7, 11) == root_sign(_delta(w), -delta4), w
        assert mu_order(w.p, w.N, w.q, w.Nq) == _kernel_sign(_mu(w) - _sqrt_q(w) + w.Nq), w
        assert w.floor_D == floor_sqrt_sum(w.p, w.q, w.N, w.Nq) == \
            floor_root(_sqrt_p(w) + _sqrt_q(w)), w
    assert delta_order(sample[3].p, sample[3].q, 7, 11) == 0   # n = 4 attains Delta_4


def test_sum_helpers_two_paths(sample):
    rng = random.Random(7)
    for w in sample:
        u = rng.choice(sample)
        # Delta_w - Delta_u has up to four radicands: the oracle's sign of the sum
        assert delta_order(w.p, w.q, u.p, u.q) == root_sign(_delta(w), -_delta(u))
        c1, c2 = rng.randrange(1, 9), rng.randrange(1, 9)
        assert delta_order(w.p, w.q, u.p, u.q, c1, c2) == \
            root_sign(_delta(w).scale(c1), _delta(u).scale(-c2))
        for x in (w.p, w.N * w.N, w.p * w.q, w.d * w.d + 1):
            assert is_square(x) == (RootExpr.sqrt(x) == isqrt(x))


def test_mu_order_two_paths(sample):
    """mu_order on random window pairs against cmp_root(mu_a - mu_b), and
    accum's monotone comparison, side * mu_order, against the kernel's
    |mu_a - r| - |mu_b - r| for random targets r = t/1000 that both mus lie
    on the same side of (the errors taken times 1000)."""
    rng = random.Random(13)
    for a in sample:
        b = rng.choice(sample)
        s = mu_order(a.p, a.N, b.p, b.N)
        assert s == _kernel_sign(_mu(a) - _mu(b)), (a, b)
        for _ in range(4):
            t = rng.randrange(1, 1000)
            side = _kernel_sign(_mu(a), t, 1000)
            if side != _kernel_sign(_mu(b), t, 1000):
                continue
            # |mu - r| = side (mu - r) for both
            err_a = (_mu(a).scale(1000) - t).scale(side)
            err_b = (_mu(b).scale(1000) - t).scale(side)
            assert side * s == _kernel_sign(err_a - err_b), (a, b, t)


def test_square_first_prime_floor_D_two_paths(big_store):
    """square_reports' first_prime_floor_D_even, from floor_sqrt_sum, against
    floor_root(sqrt(p) + sqrt(q)) at each window's first prime p and the
    next prime q, for N = 2..3000."""
    for rep in square_reports(big_store, 2, 3000):
        p = rep.primes[0]
        q = rep.primes[1] if len(rep.primes) > 1 else big_store.next_prime(p)
        fd = floor_root(RootExpr.sqrt(p) + RootExpr.sqrt(q))
        assert rep.first_prime_floor_D_even == (fd % 2 == 0), rep.N


@pytest.fixture(scope="module")
def generic_windows(mid_store):
    """Seeded random integer windows over oracles.RANDOM_RANGES (primality
    not asked, 1e11..1e12 included) and every window n <= 20000."""
    rng = random.Random(19)
    randoms = [GapWindow(1000, *random_chain(rng, lo, hi, 1))
               for lo, hi in RANDOM_RANGES for _ in range(200)]
    return randoms + list(windows(mid_store, 1, 20000))


def test_mu_series_two_paths(mid_store, generic_windows):
    """mu-series' integer brackets over one denominator against the Fraction
    partial sums, order by order: the same rational ends, and mu_in_brackets'
    one-isqrt decision equal to mu_vs_rational at both ends, on the generic
    windows past N = 1.  On every window n = 3..2000, 300 random prime
    windows past it and 200 generic windows, the Fraction ends give the
    same mu_vs_rational decisions, both confirmed by cmp_root on
    sqrt(p) - N.  mu_in_brackets also meets mu_vs_rational on brackets
    whose ends lie within 2/den of mu, where an off-by-one isqrt or a
    non-strict end differs.  The checker holds exactly when every order's
    bracket holds mu."""
    rng = random.Random(17)
    sample = list(windows(mid_store, 3, 2000))
    sample += [GapWindow(n, mid_store.nth_prime(n), mid_store.nth_prime(n + 1))
               for n in rng.sample(range(2001, mid_store.prime_count - 1), 300)]
    sample += rng.sample([w for w in generic_windows if w.N > 1], 200)
    evaluate = registry()["mu-series"].evaluate
    for w in (w for w in generic_windows if w.N > 1):
        den, brackets = _mu_series_brackets(w)
        assert len(brackets) == 8 and den == w.N ** 17 << 22
        inside = mu_in_brackets(w.p, w.N, den, brackets)
        for (lo, hi), got in zip(brackets, inside):
            assert got == (mu_vs_rational(w.p, w.N, lo, den) > 0
                           and mu_vs_rational(w.p, w.N, hi, den) < 0), w
        assert (evaluate(Triple(None, w, None), {}).res == "hold") == all(inside), w
        near = floor_root(_mu(w).scale(den))
        ends = [near + k for k in (-1, 0, 1, 2)]
        tight = [(lo, hi) for lo in ends for hi in ends]
        for (lo, hi), got in zip(tight, mu_in_brackets(w.p, w.N, den, tight)):
            assert got == (mu_vs_rational(w.p, w.N, lo, den) > 0
                           and mu_vs_rational(w.p, w.N, hi, den) < 0), (w, lo - near, hi - near)
        assert mu_in_brackets(w.p, w.N, den, [(near, near + 1)]) == [True], w
    for w in sample:
        mu = _mu(w)
        den, brackets = _mu_series_brackets(w)
        fracs = list(mu_series_brackets_fraction(w.h, w.N))
        assert len(fracs) == 8
        inside = mu_in_brackets(w.p, w.N, den, brackets)
        for (lo, hi), (lo_f, hi_f), got in zip(brackets, fracs, inside):
            assert (Fraction(lo, den), Fraction(hi, den)) == (lo_f, hi_f), w
            ends = (lo_f.numerator, lo_f.denominator), (hi_f.numerator, hi_f.denominator)
            assert got == (mu_vs_rational(w.p, w.N, *ends[0]) > 0
                           and mu_vs_rational(w.p, w.N, *ends[1]) < 0), w
            assert got == (_kernel_sign(mu, *ends[0]) > 0 and _kernel_sign(mu, *ends[1]) < 0), w
        assert (evaluate(Triple(None, w, None), {}).res == "hold") == all(inside), w


def test_mu_bounds_shared_sign_two_paths(generic_windows):
    """mu-bounds' factored sign of mu (D - 1) - h, a product of two signs over
    one radicand each, against the sign of mu (D - 1) - h multiplied out in
    oracles.RefRoot; and the checker holds exactly when its three bounds
    hold, the products among them multiplied out in RefRoot."""
    evaluate = registry()["mu-bounds"].evaluate
    for w in generic_windows:
        sp = RefRoot.sqrt(w.p)
        mu, D = sp - w.N, sp + RefRoot.sqrt(w.q)
        factored = _sign_1rad(-w.N, 1, w.p) * _sign_1rad(-(w.N + 1), 1, w.q)
        assert factored == (mu * (D - 1) - w.h).sign(), w
        refined = D - 1 if w.same_part else sp.scale(2) - 1
        holds = ((mu * sp.scale(2) - w.h).sign() > 0
                 and _kernel_sign(_mu(w), w.h, 2 * w.N) < 0
                 and (mu * refined - w.h).sign() < 0)
        assert (evaluate(Triple(None, w, None), {}).res == "hold") == holds, w


def test_eq_15_4_two_paths(generic_windows):
    """eq-15-4's item, one sign over sqrt(2q), against the RootExpr form of
    (sqrt(p) + (sqrt(2)/2) sqrt(q/p))^2 - (1 + 1/(2p)) q times 2p; the
    checker holds exactly when the kernel's item equals d^2 < 2q.  Besides
    the generic windows, integer windows with d^2 - 2q in {-2, 0, 2} put the
    item on and next to its zero."""
    evaluate = registry()["eq-15-4"].evaluate
    edges = [GapWindow(1000, q - 2 * k, q) for k in range(2, 300)
             for q in (2 * k * k - 1, 2 * k * k, 2 * k * k + 1)
             if not is_square(q - 2 * k) and not is_square(q)]
    assert sum(w.d * w.d == 2 * w.q for w in edges) > 250
    for w in generic_windows + edges:
        p, q = w.p, w.q
        item = _sign_1rad(2 * p * p + q - q * (2 * p + 1), 2 * p, 2 * q)
        rhs = RootExpr.sqrt(2 * q, 2 * p) + (2 * p * p + q)
        assert item == cmp_root(rhs, q * (2 * p + 1)).value, w
        assert (item == 0) == (w.d * w.d == 2 * q), w
        base = w.d * w.d < 2 * q
        assert (evaluate(Triple(None, w, None), {}).res == "hold") == \
            ((item > 0) == base), w


@pytest.fixture(scope="module")
def from_two(mid_store, sample):
    """n = 2..2000 and the seeded sample's windows past n = 1."""
    return list(windows(mid_store, 2, 2000)) + [w for w in sample if w.n >= 2]


def test_thm34_half_bound_two_paths(from_two):
    """thm-34's 4pq > (2s+1)^2 against {sqrt(q) Delta} < 1/2 from the kernel;
    the checker holds exactly when the kernel bound does."""
    evaluate = registry()["thm-34"].evaluate
    for w in from_two:
        below = _kernel_sign(frac_root(w.sqrtq_delta)[1], 1, 2) < 0
        assert (4 * w.p * w.q > (2 * w.s + 1) ** 2) == below, w
        assert (evaluate(Triple(None, w, None), {}).res == "hold") == below, w


def test_dpar_parity_two_paths(from_two):
    """dpar-59's mu' + mu < 1 on shared windows, read from floor_D as
    floor(D) < 2N + 1, against mu' + mu and the parity of floor(D) from the
    kernel; dpar-58 and dpar-59 hold on every window."""
    reg = registry()
    shared = [w for w in from_two if w.same_part]
    assert len(shared) > 1000
    for w in shared:
        even = floor_root(_sqrt_p(w) + _sqrt_q(w)) % 2 == 0
        mu_sum = _sqrt_q(w) - w.Nq + _mu(w)
        assert (w.floor_D < 2 * w.N + 1) == even == (_kernel_sign(mu_sum, 1) < 0), w
        for cid in ("dpar-58", "dpar-59"):
            assert reg[cid].evaluate(Triple(None, w, None), {}).res == "hold", (cid, w)


def _holds(cid, w) -> bool:
    return registry()[cid].evaluate(Triple(None, w, None), {}).res == "hold"


def test_floor31_two_paths(mid_store, from_two):
    """floor-31's floor(2 sqrt(pq)) = isqrt(4pq) against floor_root of
    2 sqrt(q) Delta and 2 sqrt(p) Delta; the checker holds exactly when the
    kernel floors are d and d - 1."""
    for w in list(windows(mid_store, 1, 1)) + from_two:
        t2 = isqrt(4 * w.p * w.q)
        fq, fp = floor_root(w.sqrtq_delta.scale(2)), floor_root(w.sqrtp_delta.scale(2))
        assert (2 * w.q - 1 - t2, t2 - 2 * w.p) == (fq, fp), w
        assert _holds("floor-31", w) == (fq == w.d and (w.n < 2 or fp == w.d - 1)), w


def test_chain37_two_paths(mid_store, from_two):
    """Each link of chain-37, as the checker's integer sign (the test's copy)
    and as cmp_root of the same RootExprs; the checker holds exactly when
    every kernel link does."""
    for w in list(windows(mid_store, 1, 1)) + from_two:
        pq = w.p * w.q
        ints = [_sign_1rad(-2 * w.p - w.d, 2, pq) < 0,
                _sign_1rad(2 * w.q - w.d, -2, pq) > 0,
                _sign_1rad(4 * w.q - 2 * w.d - 1, -4, pq) < 0,
                _sign_1rad(-4 * w.p - 2 * w.d + 1, 4, pq) > 0,
                _sign_2rad(-2 * w.p, 2, pq, -1, 2 * w.p) < 0]
        # against d/2 and d/2 + 1/4 = (2d + 1)/4; a side with a half is
        # taken times 2
        kernel = [_kernel_sign(w.sqrtp_delta, w.d, 2) < 0,
                  _kernel_sign(w.sqrtq_delta, w.d, 2) > 0,
                  _kernel_sign(w.sqrtq_delta, 2 * w.d + 1, 4) < 0,
                  _kernel_sign(w.two_sqrtp_delta + 1, 2 * w.d + 1, 2) > 0,
                  _kernel_sign(w.two_sqrtp_delta + 1 - RootExpr.sqrt(2 * w.p), 1) < 0]
        assert ints == kernel, w
        assert _holds("chain-37", w) == all(kernel), w


def test_cor56_two_paths(from_two):
    """cor-56's {mu' sqrt(q)} - {mu sqrt(p)} < 1/2 from tN and tNq (the test's
    copy of its sign) against frac_root of mu sqrt(p) and mu' sqrt(q); the
    checker holds exactly when the kernel bound does."""
    shared = [w for w in from_two if w.same_part]
    for w in shared:
        fl_p, fr_p = frac_root(w.p - w.N_sqrtp)
        fl_q, fr_q = frac_root(w.q - w.Nq_sqrtq)
        assert (fl_p, fl_q) == (w.p - w.tN - 1, w.q - w.tNq - 1), w
        below = _kernel_sign(fr_q - fr_p, 1, 2) < 0
        assert (_sign_2rad(2 * (w.tNq - w.tN) - 1, 2 * w.N, w.p, -2 * w.Nq, w.q) < 0) == below, w
        assert _holds("cor-56", w) == below, w


def test_cor56_printed_reading_agrees(mid_store):
    """cor-56's printed condition floor(mu sqrt(p)) = floor(mu sqrt(q))
    against the shared-window reading the checker decides: on every shared
    window of n <= 2e5, floor(mu sqrt(q)) = floor(sqrt(pq) - N sqrt(q)),
    by floor_root of the window's views and of the same quantity built from
    RootExpr.sqrt, equals floor(mu sqrt(p)) = p - tN - 1."""
    shared = 0
    for w in windows(mid_store, 2, 2 * 10 ** 5):
        if not w.same_part:
            continue
        shared += 1
        want = w.p - w.tN - 1
        assert floor_root(w.sqrt_pq - w.Nq_sqrtq) == want, w
        assert floor_root(RootExpr.sqrt(w.p * w.q) - _sqrt_q(w).scale(w.N)) == want, w
    assert shared > 10 ** 5


def _random_straddles(count, seed):
    """Integer windows p < q with isqrt(q) = isqrt(p) + 1 = N + 1, N < 1e6,
    neither a square; primality is not asked."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        N = rng.randrange(2, 10 ** rng.randrange(2, 7))
        p = N * N + rng.randrange(1, 2 * N + 1)
        q = (N + 1) ** 2 + rng.randrange(1, 2 * N + 3)
        out.append(GapWindow(i + 2, p, q))
    return out


def test_ids516_two_paths(from_two):
    """ids-516's 2 mu' > Delta, read from floor_D as floor(D) > 2N + 1,
    against 2 mu' > Delta from the kernel, and the parity of
    floor_root(D); the checker holds on every straddle.  Its two bounds,
    each squared into one sign over two radicands, against the oracle's
    root_sign of 2(mu - 1) + Delta_4 and 2 mu' - Delta_4 over sqrt(p) or
    sqrt(q), sqrt(7) and sqrt(11), on every straddle of n = 2..2000, the sample,
    and 20000 random integer straddles, on which the checker holds exactly
    when the kernel's bound for its case does."""
    delta4 = RootExpr.sqrt(11) - RootExpr.sqrt(7)
    straddles = [w for w in from_two if w.straddle]
    assert len(straddles) > 100
    for w in straddles:
        gt = _kernel_sign((_sqrt_q(w) - w.Nq).scale(2) - _delta(w)) > 0
        assert (w.floor_D > 2 * w.N + 1) == gt, w
        assert (floor_root(_sqrt_p(w) + _sqrt_q(w)) % 2 == 0) == gt, w
        assert _holds("ids-516", w), w
    below = 0
    for w in straddles + _random_straddles(20000, seed=17):
        M, Nq = w.N + 1, w.Nq
        even = _sign_2rad(4 * w.p + 4 - 4 * M * M, 4, 11 * w.p, -4 * M, 7)
        assert even == root_sign((_sqrt_p(w) - M).scale(2), delta4), w
        odd = _sign_2rad(4 * w.q - 4 - 4 * Nq * Nq, 4, 7 * w.q, -4 * Nq, 11)
        assert odd == root_sign((_sqrt_q(w) - Nq).scale(2), -delta4), w
        # the checker takes the bound its floor(D) parity names
        assert _holds("ids-516", w) == (even > 0 if w.floor_D > 2 * w.N + 1 else odd < 0), w
        below += even < 0 or odd > 0
    assert below > 1000   # random straddles fail the bounds too


def test_thm78_two_paths(mid_store):
    """thm-78 decides from its window whether (N^2, N^2+N) holds two primes
    when h = 1 and whether (N^2+N, N^2+2N) does when h' = 2N - 1 and N > 4.
    On every window n <= 2e5 of its domain the checker's outcome, note
    included, equals the rule that counts those primes in the sieve as
    pi(b) - pi(a) >= 2; 3e6 covers N^2 + 2N there."""
    spec = registry()["thm-78"]
    cases = {"h": 0, "hq": 0}
    for w in windows(mid_store, spec.n_min, 2 * 10 ** 5):
        tri = Triple(None, w, None)
        if not spec.domain(tri):
            continue
        N2, note = w.N * w.N, None
        if w.h == 1:
            cases["h"] += 1
            if mid_store.pi(N2 + w.N) - mid_store.pi(N2) < 2:
                note = "fewer than two primes in (N^2, N^2+N)"
        if note is None and w.hq == 2 * w.N - 1 and w.N > 4:
            cases["hq"] += 1
            if mid_store.pi(N2 + 2 * w.N) - mid_store.pi(N2 + w.N) < 2:
                note = "fewer than two primes in (N^2+N, N^2+2N)"
        out = spec.evaluate(tri, {})
        assert (out.res, out.note) == (("hold", None) if note is None else ("violate", note)), w
    assert cases["h"] > 100 and cases["hq"] > 100, cases


def _longhand_isqrt(x: int) -> int:
    return int(longhand_sqrt_digits(x, 0)[:-1])


def test_window_views_against_oracles(sample):
    """Every GapWindow view against the same quantity built from
    its definition in oracles.RefRoot (its own radicand split, product and
    signs), floors by RefRoot.floor and by the fixed-point ladder
    of floor_root_general, the sign of Delta - 1/2 by RefRoot.sign and
    integers by longhand isqrt."""
    for w in sample:
        sp, sq = RefRoot.sqrt(w.p), RefRoot.sqrt(w.q)
        delta, D = sq - sp, sq + sp
        sqrtq_delta, sqrtp_delta = sq * delta, sp * delta
        half_shift = sqrtp_delta - RefRoot(Fraction(1, 2))
        roots = {
            "sqrt_pq": RefRoot.sqrt(w.p * w.q),
            "sqrtq_delta": sqrtq_delta, "sqrtp_delta": sqrtp_delta,
            "N_sqrtp": sp.scale(w.N), "Nq_sqrtq": sq.scale(w.Nq),
            "delta_sq": delta * delta,
            "two_sqrtp_delta": sqrtp_delta.scale(2),
            "frac_sqrtp_delta": sqrtp_delta.frac()[1],
        }
        for name, ref in roots.items():
            assert getattr(w, name) == ref.to_root(), (name, w)
        ints = {
            "floor_sqrtp_delta_half": half_shift.floor(),
            "floor_D": D.floor(),
            "delta_vs_half": (delta - RefRoot(Fraction(1, 2))).sign(),
            "s": _longhand_isqrt(w.p * w.q),
            "tN": _longhand_isqrt(w.N * w.N * w.p),
            "t2N": _longhand_isqrt(4 * w.N * w.N * w.p),
            "tNq": _longhand_isqrt(w.Nq * w.Nq * w.q),
        }
        for name, ref in ints.items():
            assert getattr(w, name) == ref, (name, w)
        # floor(sqrt(p) Delta - 1/2) is floor(2 sqrt(p) Delta - 1) // 2
        for name, e, den in (("floor_sqrtp_delta_half", w.two_sqrtp_delta - 1, 2),
                             ("floor_D", _sqrt_p(w) + _sqrt_q(w), 1), ("tNq", w.Nq_sqrtq, 1),
                             ("t2N", w.N_sqrtp.scale(2), 1)):
            assert floor_root_general(e) // den == ints[name], (name, w)
