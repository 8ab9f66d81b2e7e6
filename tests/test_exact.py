import random
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcheck.exact import (Cmp, KernelError, RootExpr, _sign_1rad, _sign_2rad, cmp_root,
                            floor_root, frac_root)
from gapcheck.window import GapWindow, windows
from oracles import (RANDOM_RANGES, RefRoot, build_root, cleared_root, eval_fixed,
                     exact_sign, floor_root_general, longhand_sqrt_digits, radical_sign,
                     random_chain, root_terms, sqrt_fixed)


def test_sqrt_fixed_exact_square():
    fa = sqrt_fixed(4, 80)
    assert fa.mantissa == 2 << 80 and fa.error_ulps == 0


def test_sqrt_fixed_delta4():
    d = eval_fixed(RootExpr.sqrt(11) - RootExpr.sqrt(7), 64)
    assert abs(d.mantissa / 2 ** 64 - 0.6708) < 1e-3


def test_sqrt_fixed_vs_longhand_sqrt2():
    fa = sqrt_fixed(2, 128)
    digits = longhand_sqrt_digits(2, 32)  # "1.414213..."
    want = int(digits.replace(".", ""))
    got_scaled = fa.mantissa * 10 ** 32 >> 128
    assert abs(got_scaled - want) <= 1


def test_norm_merging():
    """A radicand stays as given, square factors and perfect squares too;
    == compares the values."""
    assert RootExpr.sqrt(8) == RootExpr.sqrt(2, 2) and root_terms(RootExpr.sqrt(8)) == ((8, 1),)
    assert RootExpr.sqrt(12) == RootExpr.sqrt(3, 2)
    assert RootExpr.sqrt(49) == 7 and root_terms(RootExpr.sqrt(49)) == ((49, 1),)


def test_cmp_root_examples():
    assert cmp_root(RootExpr.sqrt(4) - 2) is Cmp.EQUAL
    # against 7/10 and 67/100: the value times 10 or 100 against 7 or 67
    assert cmp_root((RootExpr.sqrt(11) - RootExpr.sqrt(7)).scale(10), 7) is Cmp.LESS
    assert cmp_root((RootExpr.sqrt(11) - RootExpr.sqrt(7)).scale(100), 67) is Cmp.GREATER
    # sqrt(2)/2 above 7/10: sqrt(2) times 10 against 7 times 2
    assert cmp_root(RootExpr.sqrt(2).scale(10), 14) is Cmp.GREATER


def test_cmp_root_identity_window4():
    # Delta_4^2 + 2 {sqrt(7) Delta_4} = 2 exactly
    d4sq = build_root(18, {77: -2})
    _, frac = frac_root(build_root(-7, {77: 1}))
    assert cmp_root(d4sq + frac.scale(2), 2) is Cmp.EQUAL


def test_floor_root_examples():
    assert floor_root(build_root(22, {77: -2})) == 4
    assert floor_root(build_root(-7, {77: 1})) == 1
    # h/mu = 4 / (sqrt(13) - 3) = sqrt(13) + 3, by the oracle's inverse
    h_over_mu = RefRoot(4) / (RefRoot.sqrt(13) - 3)
    assert h_over_mu.matches(build_root(3, {13: 1}))
    assert floor_root(build_root(3, {13: 1})) == 6


def test_frac_root_examples():
    assert frac_root(RootExpr.sqrt(4)) == (2, build_root(0, {}))
    f, fr = frac_root(RootExpr.sqrt(11))
    assert f == 3 and fr == build_root(-3, {11: 1})
    f, _ = frac_root(RootExpr.sqrt(101))
    assert f == 10


def test_two_radicand_exact():
    e = RootExpr.sqrt(2) + RootExpr.sqrt(3)
    assert cmp_root(e.scale(100), 314) is Cmp.GREATER
    assert cmp_root(e.scale(100), 315) is Cmp.LESS
    assert cmp_root(RootExpr.sqrt(2, 2) - RootExpr.sqrt(8)) is Cmp.EQUAL
    assert floor_root(e) == 3
    assert floor_root(RootExpr.sqrt(3) - RootExpr.sqrt(2)) == 0
    assert floor_root(-(RootExpr.sqrt(3) - RootExpr.sqrt(2))) == -1


def test_floor_paths_agree_random_windows(mid_store):
    """Fast single-radicand path vs the FixedApprox general path on random
    window-style expressions a + b*sqrt(p*q), their denominators cleared:
    the floor of x = e / den is floor_root(e) // den."""
    rng = random.Random(3)
    primes = list(mid_store.iter_primes(2, 3000))
    for _ in range(400):
        i = rng.randrange(len(primes) - 1)
        p, q = primes[i], primes[i + 1]
        a = F(rng.randrange(-50, 50), rng.randrange(1, 7))
        b = F(rng.randrange(-9, 9) or 1, rng.randrange(1, 5))
        e, den = cleared_root(a, {p * q: b})
        assert floor_root(e) == floor_root_general(e)
        assert floor_root(e) // den == (RefRoot(a) + RefRoot.sqrt(p * q, b)).floor()


@given(st.integers(min_value=2, max_value=10 ** 6),
       st.integers(min_value=-1000, max_value=1000),
       st.integers(min_value=1, max_value=60))
@settings(max_examples=200)
def test_floor_root_single_radicand_property(m, num, den):
    # x = (num + den sqrt(m)) / den, with its floor f = floor_root(e) // den
    e = build_root(num, {m: den})
    f = floor_root(e) // den
    # f <= x < f + 1, certified by the exact comparator, times den
    assert cmp_root(e - f * den) in (Cmp.GREATER, Cmp.EQUAL)
    assert cmp_root(e - (f + 1) * den) is Cmp.LESS


def test_fixed_error_tracking():
    """eval_fixed's certified interval holds the true value, decided
    exactly by cmp_root at both ends."""
    e = RootExpr.sqrt(2) + RootExpr.sqrt(3)
    fa = eval_fixed(e, 64)
    lo, hi = fa.mantissa - fa.error_ulps, fa.mantissa + fa.error_ulps
    assert cmp_root(e.scale(2 ** 64), lo) is Cmp.GREATER
    assert cmp_root(e.scale(2 ** 64), hi) is Cmp.LESS


def test_pq_never_perfect_square(mid_store):
    # distinct primes: the floor fast path never sees an exact square
    prev = None
    for p in mid_store.iter_primes(2, 20000):
        if prev is not None:
            s = isqrt(prev * p)
            assert s * s != prev * p
        prev = p


def _same(x, y) -> bool:
    """x equals y: tuples item by item, a RefRoot and a RootExpr by
    RefRoot.matches, anything else by ==."""
    if isinstance(x, tuple):
        return len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
    if isinstance(x, RootExpr) and isinstance(y, RefRoot):
        x, y = y, x
    if isinstance(x, RefRoot) and isinstance(y, RootExpr):
        return x.matches(y)
    return x == y


def test_generic_identities_through_the_kernel(mid_store):
    """The identities of eq-61, dpar-57, dpar-58, ids-510, ids-512, ids-514,
    ids-515, thm-43 and dnh-forms, the floor(D) parities of dpar-59 and
    ids-516, and the identity clauses of h-def, lemma-42, ratio-frac,
    n2p1-family and ids-511 hold for every integer window, so no checker
    evaluates them per window.  Each is checked here with a perturbed form
    that must differ, on seeded random integer windows (primality not
    asked), on random windows with h = 1 and on every window n <= 20000.
    A clause made of sums and int multiples of the window's radicals is
    built and decided by the kernel: RootExpr arithmetic, ==, cmp_root,
    floor_root and frac_root; where a clause has a denominator, a positive
    multiple of both sides is compared.  A clause that multiplies or inverts
    values is built in oracles.RefRoot, and where it meets a kernel value,
    RefRoot.matches decides.  On the random windows, floor(h/mu) = 2N and
    {h/mu} = mu, for p and for q, are also checked through RefRoot.floor."""
    rng = random.Random(23)
    randoms = [GapWindow(1000, *random_chain(rng, lo, hi, 1))
               for lo, hi in RANDOM_RANGES for _ in range(300)]
    for w in randoms:
        for x, N in ((w.p, w.N), (w.q, w.Nq)):
            ref = RefRoot(x - N * N) * (RefRoot.sqrt(x) - RefRoot(N)).inverse()
            fl = ref.floor()
            assert fl == 2 * N and (ref - RefRoot(fl)).to_root() == RootExpr.sqrt(x) - N, w
    # p = N^2 + 1: the h = 1 family of n2p1-family
    h_one = [GapWindow(1000, N * N + 1, N * N + 2)
             for lo, hi in RANDOM_RANGES for N in rng.sample(range(isqrt(lo), isqrt(hi)), 30)]

    def check(name, lhs, rhs, perturbed):
        assert _same(lhs, rhs) and not _same(lhs, perturbed), (name, w)

    counts = {"shared": 0, "straddle": 0, "h = 1": 0}
    for w in randoms + h_one + list(windows(mid_store, 1, 20000)):
        N, d, h, hq = w.N, w.d, w.h, w.hq
        sqrt_p, sqrt_q = RootExpr.sqrt(w.p), RootExpr.sqrt(w.q)
        mu, mu_q, delta, D = sqrt_p - N, sqrt_q - w.Nq, sqrt_q - sqrt_p, sqrt_q + sqrt_p
        mu_sum = mu_q + mu
        # the same radicals in the oracle's model, for products and inverses
        sp, sq = RefRoot.sqrt(w.p), RefRoot.sqrt(w.q)
        r_mu, r_mu_q = sp - N, sq - w.Nq
        r_mu_sq, r_mu_q_sq, r_delta = r_mu * r_mu, r_mu_q * r_mu_q, sq - sp
        inv_mu = r_mu.inverse()
        check("eq-61", w.two_sqrtp_delta, d - w.delta_sq, d + w.delta_sq)
        # thm-43 and ids-510: h/mu = 2N + mu, h'/mu' = 2Nq + mu'
        assert w.p - h == N * N, w
        check("thm-43", (inv_mu * h).frac(), (2 * N, mu), (2 * N, mu_q))
        check("h'/mu'", (r_mu_q.inverse() * hq).frac(), (2 * w.Nq, mu_q), (2 * w.Nq, mu))
        # h-def: h - mu^2 = 2N mu
        check("h-def", (h - r_mu_sq) * inv_mu, 2 * N, (h + r_mu_sq) * inv_mu)
        # n2p1-family: 2 mu N = h - mu^2, and with h = 1, N + mu = sqrt(p)
        check("n2p1-family", frac_root(mu.scale(2 * N)), (h - 1, 1 - r_mu_sq), (h - 1, r_mu_sq))
        if h == 1:
            counts["h = 1"] += 1
            check("n2p1-family h = 1", (1 - r_mu_sq) * inv_mu / 2 + r_mu, sqrt_p,
                  (1 - r_mu_sq) * inv_mu / 2 - r_mu)
        # ratio-frac: sqrt(pq)/p - 1 and Delta/sqrt(p) are (sqrt(pq) - p)/p,
        # both sides times p
        check("ratio-frac", w.sqrt_pq - w.p, (r_delta / sp).scale(w.p),
              (r_delta / sq).scale(w.p))
        # dpar-58 and ids-515: D = N + Nq + mu' + mu, and mu' + mu is never 1
        above = cmp_root(mu_sum, 1) is Cmp.GREATER
        fl_D, fr_D = frac_root(D)
        check("floor and {D}", (fl_D, fr_D), (N + w.Nq + above, mu_sum - above),
              (N + w.Nq + above, mu_sum - (not above)))
        even = fl_D % 2 == 0
        # ids-511 and ids-512: mu' sqrt(q) - mu sqrt(p)
        cross = r_mu_q * sq - r_mu * sp
        if w.same_part:
            counts["shared"] += 1
            assert d == hq - h != 2 * N + 1 + hq - h and d != hq, w   # dnh-forms
            check("dpar-57", D - mu_sum, 2 * N, D - (mu_q - mu))
            # (D - mu' - mu)/2 + mu = sqrt(p), and + mu' = sqrt(q), times 2
            gap = D - mu_sum
            check("dpar-57 sqrt(p)", gap + mu.scale(2), sqrt_p.scale(2), gap + mu_q.scale(2))
            check("dpar-57 sqrt(q)", gap + mu_q.scale(2), sqrt_q.scale(2), gap + mu.scale(2))
            assert even == (not above), w                               # dpar-58
            lt = cmp_root(mu.scale(2) + delta, 1)                      # dpar-59
            assert even == (lt is Cmp.LESS) != (lt is Cmp.GREATER), w
            check("ids-510, lemma-42", mu_q - mu, delta, mu - mu_q)
            # ids-511: X = mu' sqrt(q) - mu sqrt(p) = N sqrt(p) - N sqrt(q) + d
            radicals = w.N_sqrtp - w.Nq_sqrtq
            X = radicals + d
            check("ids-511 X", cross, X, X - 1)
            check("ids-511 (mu'^2 - mu^2)/2", r_mu_q_sq - r_mu_sq, X.scale(2) - d, X.scale(2) + d)
            fX, fracX = frac_root(X)
            tN, tNq = isqrt(N * N * w.p), isqrt(N * N * w.q)
            assert (fracX == radicals + (tNq - tN)) == (fX == d - tNq + tN), w
        else:
            counts["straddle"] += 1
            assert d == 2 * N + 1 + hq - h != hq - h and d != hq, w     # dnh-forms
            check("ids-512, lemma-42", mu_q + 1 - mu, delta, mu_q - mu)
            two_rhs = (cross - (r_mu_q_sq - r_mu_sq - 1) / 2).scale(2)
            off = (cross - (r_mu_q_sq - r_mu_sq + 1) / 2).scale(2)
            check("ids-512 second", two_rhs, d - 2 * N, off)
            half, r_mu_sum = r_delta.inverse().scale(d) / 2, r_mu_q + r_mu
            check("ids-514 sqrt(p)", half - (r_mu_sum + 1) / 2, N, half - (r_mu_sum - 1) / 2)
            check("ids-514 sqrt(q)", half - (r_mu_sum - 1) / 2 + r_mu_q, sqrt_q,
                  half - (r_mu_sum + 1) / 2 + r_mu_q)
            assert even == above, w                                     # ids-515
            gt = cmp_root(mu_q.scale(2) - delta)                       # ids-516
            assert even == (gt is Cmp.GREATER) != (gt is Cmp.LESS), w
    assert counts["h = 1"] > 100 and min(counts["shared"], counts["straddle"]) > 500, counts


def test_cmp_consistent_with_fixed_eval(mid_store):
    """cmp_root orders expressions consistently with certified FixedApprox
    brackets: a certified Less means the bracket midpoints cannot disagree
    beyond the combined error."""
    rng = random.Random(21)
    primes = list(mid_store.iter_primes(2, 2000))
    for _ in range(300):
        i = rng.randrange(len(primes) - 1)
        p, q = primes[i], primes[i + 1]
        a = F(rng.randrange(-30, 30), rng.randrange(1, 5))
        e, _ = cleared_root(a, {p: 1, q: -1})
        c = cmp_root(e)
        fa = eval_fixed(e, 96)
        if c is Cmp.LESS:
            assert fa.mantissa - fa.error_ulps < 0
        elif c is Cmp.GREATER:
            assert fa.mantissa + fa.error_ulps > 0


@pytest.mark.parametrize("bad", [
    lambda: cmp_root(RootExpr.sqrt(2) + RootExpr.sqrt(3), 0.5),
    lambda: RootExpr.sqrt(0.1),
    lambda: RootExpr.sqrt(2, 0.5),
    lambda: RootExpr.sqrt(2) + 0.5,
    lambda: 0.5 + RootExpr.sqrt(2),
    lambda: RootExpr.sqrt(2) - 0.5,
    lambda: 0.5 - RootExpr.sqrt(2),
    lambda: RootExpr.sqrt(2).scale(0.0),
    lambda: RootExpr.sqrt(2) * 2.0,
    lambda: RootExpr.sqrt(2) / 2.0,
    lambda: cmp_root(RootExpr.sqrt(2), 1.4142135623730951),
    lambda: RootExpr.sqrt(2) / 2,
])
def test_float_raises_type_error(bad):
    with pytest.raises(TypeError):
        bad()


@pytest.mark.parametrize("bad", [
    lambda: RootExpr.sqrt(F(1, 2)),
    lambda: RootExpr.sqrt(F(4)),
    lambda: RootExpr.sqrt(2, F(1, 2)),
    lambda: RootExpr.sqrt(2) + F(1, 2),
    lambda: F(1, 2) + RootExpr.sqrt(2),
    lambda: RootExpr.sqrt(2) - F(1, 2),
    lambda: F(1, 2) - RootExpr.sqrt(2),
    lambda: RootExpr.sqrt(2).scale(F(1, 2)),
    lambda: RootExpr.sqrt(2) * F(2),
    lambda: F(2) * RootExpr.sqrt(2),
    lambda: RootExpr.sqrt(2) / F(2),
    lambda: cmp_root(RootExpr.sqrt(2), F(7, 5)),
    lambda: build_root(0, {}) == F(0),
    lambda: build_root(0, {}) != F(0),
    lambda: F(0) == build_root(0, {}),
    lambda: RootExpr.sqrt(2, 101) - RootExpr.sqrt(20402) == F(0),
])
def test_fraction_raises_type_error(bad):
    """The kernel takes ints and RootExprs only: a Fraction operand raises
    rather than answer, so e == Fraction(0) cannot fall through to
    Fraction.__eq__ and read False."""
    with pytest.raises(TypeError):
        bad()


def test_eq_with_float_is_not_implemented():
    """== and != against a float raise TypeError, as arithmetic does."""
    one = build_root(1, {})
    with pytest.raises(TypeError):
        one.__eq__(1.0)
    with pytest.raises(TypeError):
        one != 1.0
    with pytest.raises(TypeError):
        1.0 == one
    # 1/2 against 2/4, both times 4
    assert one == 1 and one.scale(2) == build_root(2, {})


def _minus_floor(b, m):
    """-floor(b sqrt(m))."""
    r = isqrt(b * b * m)
    return -r if b >= 0 else r + (r * r != b * b * m)


def _near(c, b1, m1, b2=0, m2=0):
    """Small c shifted next to -(b1 sqrt(m1) + b2 sqrt(m2)), where signs are
    hardest to decide."""
    return c + _minus_floor(b1, m1) + _minus_floor(b2, m2)


_ints = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
_rads = st.one_of(st.integers(min_value=0, max_value=10 ** 6),
                  st.integers(min_value=0, max_value=1000).map(lambda r: r * r))


@given(_ints, _ints, _rads, st.booleans())
@settings(max_examples=300)
def test_sign_1rad_against_isqrt_oracle(c, b, m, near):
    if near:
        c = _near(c % 5 - 2, b, m)
    assert _sign_1rad(c, b, m) == radical_sign(c, b, m)


@given(_ints, _ints, _rads, _ints, _rads, st.booleans())
@settings(max_examples=300)
def test_sign_2rad_against_isqrt_oracle(c, b1, m1, b2, m2, near):
    if near:
        c = _near(c % 5 - 2, b1, m1, b2, m2)
    assert _sign_2rad(c, b1, m1, b2, m2) == radical_sign(c, b1, m1, b2, m2)


@given(st.integers(min_value=-10 ** 4, max_value=10 ** 4),
       st.integers(min_value=0, max_value=10 ** 4),
       st.integers(min_value=1, max_value=100),
       st.integers(min_value=1, max_value=10 ** 4))
@settings(max_examples=200)
def test_sign_procedures_exact_zeros(b, k, s, m):
    # b*k - b*sqrt(k^2), b*s*sqrt(m) - b*sqrt(s^2 m), and c + (-c)*sqrt(1)
    assert _sign_1rad(b * k, -b, k * k) == 0
    assert _sign_2rad(0, b * s, m, -b, s * s * m) == 0
    assert _sign_2rad(b * k, -b, k * k, b, 0) == 0
    assert _sign_2rad(b * (k + s), -b, k * k, -b, s * s) == 0


@pytest.mark.parametrize("args", [
    (0, 1, 8, -2, 2),       # sqrt(8) - 2 sqrt(2)
    (0, 2, 3, -1, 12),      # 2 sqrt(3) - sqrt(12)
    (5, -1, 9, -1, 4),      # 5 - 3 - 2
    (0, 3, 50, -5, 18),     # 15 sqrt(2) - 15 sqrt(2)
    (-7, 1, 0, 1, 49),      # sqrt(0) has no weight
])
def test_sign_2rad_built_zeros(args):
    assert _sign_2rad(*args) == 0
    assert radical_sign(*args) == 0
    # one unit off the zero decides the sign of the offset
    c, *rest = args
    assert _sign_2rad(c + 1, *rest) == 1 and _sign_2rad(c - 1, *rest) == -1


def test_exact_sign_clears_denominators():
    # sqrt(2)/3 - sqrt(3)/5 + 1/7 > 0 and sqrt(8)/3 - sqrt(2)*2/3 = 0, each
    # times the lcm of its denominators
    e, den = cleared_root(F(1, 7), {2: F(1, 3), 3: F(-1, 5)})
    assert den == 105 and (e.num, root_terms(e)) == (15, ((2, 35), (3, -21)))
    assert exact_sign(e) == radical_sign(15, 35, 2, -21, 3) == 1
    assert exact_sign(RootExpr.sqrt(8) - RootExpr.sqrt(2, 2)) == 0
    assert exact_sign(cleared_root(F(-1, 2), {2: F(1, 3)})[0]) == -1


# -- the integer RootExpr against the reference model RefRoot ------------------

_ints40 = st.integers(min_value=-40, max_value=40)
_fracs = st.builds(F, _ints40, st.integers(min_value=1, max_value=12))
# at most two radicands, so every decision over them is the kernel's; square
# factors, perfect squares and dependent pairs (2 and 8, 3 and 12) among them
_radicand_sets = st.lists(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, 12, 49, 50, 77, 98)),
                          min_size=1, max_size=2, unique=True)


@st.composite
def _root_pairs(draw, radicands):
    """A RootExpr and its reference model built from the same parts: an
    int constant plus up to three coef*sqrt(m) terms over the given
    radicands, so merges and cancellations occur; the reference splits each
    radicand into its square-free core."""
    const = draw(_ints40)
    e, ref = build_root(const, {}), RefRoot(const)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        m, c = draw(st.sampled_from(radicands)), draw(_ints40)
        e = e + RootExpr.sqrt(m, c)
        ref = ref + RefRoot.sqrt(m, c)
    return e, ref


def _agrees(e, ref):
    """e's live slots hold distinct radicands, and e has the reference's
    value."""
    radicands = [m for m, _ in root_terms(e)]
    assert len(radicands) == len(set(radicands))
    assert ref.matches(e)
    return True


@given(st.data(), _radicand_sets)
@settings(max_examples=300)
def test_kernel_agrees_with_reference_arithmetic(data, radicands):
    a, ra = data.draw(_root_pairs(radicands))
    b, rb = data.draw(_root_pairs(radicands))
    k = data.draw(st.integers(min_value=-9, max_value=9))
    r = data.draw(_fracs)
    assert _agrees(a, ra) and _agrees(b, rb)
    assert _agrees(a + b, ra + rb) and _agrees(a - b, ra - rb)
    assert _agrees(a.scale(k), ra.scale(k)) and _agrees(a * k, ra.scale(k))
    assert _agrees(k * a, ra.scale(k)) and _agrees(-a, ra.scale(-1))
    assert _agrees(a + k, ra + RefRoot(k)) and _agrees(k - a, RefRoot(k) - ra)
    # a times r = n/d, as a caller takes it: its floor is floor(a n) // d
    assert floor_root(a.scale(r.numerator)) // r.denominator == ra.scale(r).floor()
    # a / j as a caller takes it, for either sign of j: with s the sign of
    # j, floor(a/j) = floor(s a) // |j| and a/j - n has the sign of
    # s a - n |j|
    n = data.draw(_ints40)
    for j in (k, 1, -1, -r.denominator):
        if j:
            s = 1 if j > 0 else -1
            quotient = ra.scale(F(1, j))
            assert floor_root(a.scale(s)) // abs(j) == quotient.floor()
            assert cmp_root(a.scale(s), n * abs(j)).value == (quotient - RefRoot(n)).sign()


@given(st.data(), _radicand_sets)
@settings(max_examples=300)
def test_kernel_agrees_with_reference_predicates(data, radicands):
    a, ra = data.draw(_root_pairs(radicands))
    b, rb = data.draw(_root_pairs(radicands))
    assert (a == b) == (ra == rb) and (a != b) == (not ra == rb)
    assert a == (a + b) - b
    # on square-free cores a value is rational exactly when it has no terms
    c = ra.const
    assert (a.scale(c.denominator) == c.numerator) == (not ra.coefs)
    assert (a - b == 0) == (ra == rb)
    r = data.draw(_fracs)
    assert cmp_root(a.scale(r.denominator), r.numerator).value == (ra - RefRoot(r)).sign()
    assert cmp_root(a - b).value == (ra - rb).sign()
    assert floor_root(a) == ra.floor()
    f, frac = frac_root(a)
    assert f == ra.floor() and _agrees(frac, ra - RefRoot(f))


# -- exact floors and comparisons on up to two radicands ------------------------


@st.composite
def _two_radicand_roots(draw):
    """(c1 sqrt(m1) + c2 sqrt(m2) + k) times f >= 1, with either sign on each
    coefficient; half the draws sit next to an integer, as
    sqrt(a^2 + 1) - sqrt(b^2 - 1) + k with b near a does."""
    f = draw(st.integers(min_value=1, max_value=60))
    k = draw(st.integers(min_value=-10 ** 4, max_value=10 ** 4))
    s = draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        a = draw(st.integers(min_value=2, max_value=10 ** 6))
        b = max(2, a + draw(st.integers(min_value=-2, max_value=2)))
        return (RootExpr.sqrt(a * a + 1, s) - RootExpr.sqrt(b * b - 1, s) + k).scale(f)
    m1, m2 = draw(st.lists(st.integers(min_value=2, max_value=10 ** 9), min_size=2,
                           max_size=2, unique=True))
    c1 = draw(st.integers(min_value=1, max_value=10 ** 3)) * s
    c2 = draw(st.integers(min_value=-10 ** 3, max_value=10 ** 3).filter(bool))
    return (RootExpr.sqrt(m1, c1) + RootExpr.sqrt(m2, c2) + k).scale(f)


@given(_two_radicand_roots())
@settings(max_examples=400)
def test_floor_root_two_radicands_against_ladder(e):
    f = floor_root(e)
    assert f == floor_root_general(e)
    assert cmp_root(e, f) in (Cmp.GREATER, Cmp.EQUAL)
    assert cmp_root(e, f + 1) is Cmp.LESS
    assert frac_root(e) == (f, e - f)


def test_floor_root_dependent_radicands():
    # perfect squares and square multiples kept as radicands
    assert floor_root(RootExpr.sqrt(4, -1)) == -2
    # floor(1/2 + sqrt(2) - sqrt(9)) = floor(1 + 2 sqrt(2) - 2 sqrt(9)) // 2
    assert floor_root(build_root(1, {2: 2, 9: -2})) // 2 == -2
    assert floor_root(build_root(0, {4: -1, 9: 1})) == 1
    # 101 sqrt(2) - sqrt(2 * 101^2) = 0 exactly: both radicands stay and
    # the term floors sum to -1
    zero = RootExpr.sqrt(2, 101) - RootExpr.sqrt(20402)
    assert len(root_terms(zero)) == 2
    assert floor_root(zero) == 0 and floor_root(zero + 7) == 7
    # zero - 10^-9, times 10^9
    assert floor_root(zero.scale(10 ** 9) - 1) == -1
    assert cmp_root(zero) is Cmp.EQUAL


# -- three or more radicands: refused where they are built ---------------------

_P, _Q = 99991, 100003   # consecutive primes, as a window's p and q


def _ref_root(const: int, parts: dict) -> RefRoot:
    """const + sum coef*sqrt(m) over parts = {m: coef} in the reference model,
    over any number of radicands."""
    ref = RefRoot(const)
    for m, c in parts.items():
        ref = ref + RefRoot.sqrt(m, c)
    return ref


def _third_radicand_builds(x, y) -> list:
    """x and y joined by + and by -, with the operands in either order, each
    as a thunk."""
    return [lambda: x + y, lambda: y + x, lambda: x - y, lambda: y - x]


def test_refuses_past_two_radicands():
    """A sum or difference that needs a third radicand raises KernelError
    where it is built, in either order, so no decision ever sees one; a
    RootExpr factor or divisor raises TypeError, so the kernel forms no
    product of two values and no inverse.  The oracle's RefRoot decides the
    values themselves."""
    assert _ref_root(0, {2: 1, 3: 1, 10: -1}).sign() == -1
    assert _ref_root(0, {2: 101, 20402: -1}).sign() == 0
    answers = []
    for x, y in ((RootExpr.sqrt(2) + RootExpr.sqrt(3), RootExpr.sqrt(10)),
                 (RootExpr.sqrt(2, 101) - RootExpr.sqrt(20402), RootExpr.sqrt(5)),
                 (RootExpr.sqrt(2) + 1, RootExpr.sqrt(3) - RootExpr.sqrt(5))):
        for build in _third_radicand_builds(x, y):
            with pytest.raises(KernelError, match="third radicand"):
                answers.append(build())
    with pytest.raises(KernelError):
        answers.append(build_root(0, {2: 1, 3: 1, 10: -1}))
    assert answers == []
    a, b = RootExpr.sqrt(2), RootExpr.sqrt(3) + 1
    for op in (lambda: a * b, lambda: b * a, lambda: a * a, lambda: a / b, lambda: b / b,
               lambda: 2 / a):
        with pytest.raises(TypeError):
            answers.append(op())
    assert answers == []


def test_freed_slot_takes_a_new_radicand():
    """A slot whose coefficient cancels to 0 is free, and the next radicand
    takes it: (sqrt(2) + sqrt(3)) - sqrt(3) + sqrt(5), and sqrt(2) + sqrt(3)
    less sqrt(3) + sqrt(5) or sqrt(5) + sqrt(3), where the shared radicand
    must go first, build and decide like their RefRoots."""
    s2, s3, s5 = RootExpr.sqrt(2), RootExpr.sqrt(3), RootExpr.sqrt(5)
    r2, r3, r5 = RefRoot.sqrt(2), RefRoot.sqrt(3), RefRoot.sqrt(5)
    for e, ref in (((s2 + s3) - s3 + s5, (r2 + r3) - r3 + r5),
                   ((s2 + s3) - (s3 + s5), r2 - r5),
                   ((s2 + s3) - (s5 + s3), r2 - r5),
                   (-(s5 + s3) + (s3 + s2), r2 - r5),
                   ((s2 + s3).scale(0) + s5 + s3, r5 + r3)):
        assert ref.matches(e) and len(root_terms(e)) == 2, e
        f, frac = frac_root(e)
        assert floor_root(e) == f == ref.floor() and (ref - RefRoot(f)).matches(frac), e
        for n in range(f - 2, f + 3):
            assert cmp_root(e, n).value == (ref - RefRoot(n)).sign(), (e, n)
        assert e == ref.to_root() and e != ref.to_root() + 1, e
        with pytest.raises(KernelError):
            e + RootExpr.sqrt(7)


@pytest.mark.parametrize("e, sign", [
    # 101 sqrt(2) - sqrt(2 * 101^2) = 0 beside a third radicand
    ((0, {2: 101, 20402: -1, 7: 1}), 1),
    ((0, {2: 101, 20402: -1, 7: -1}), -1),
    ((-2, {2: 101, 20402: -1, 7: 1}), 1),     # sqrt(7) > 2
    ((-3, {2: 101, 20402: -1, 7: 1}), -1),
    ((0, {3: 101, 3 * 101 ** 2: -1, 2: 101, 20402: -1}), 0),
    ((1, {3: 101, 3 * 101 ** 2: -1, 5: 1, 20: -1}), -1),  # 1 - sqrt(5)
    ((0, {_P: 1, _Q: 1, _P * _Q: -1}), -1),
    # 2 sqrt(p) + 3 sqrt(q) - 2 sqrt(pq), less itself written over square
    # multiples of the same radicands
    ((0, {_P: 2, _Q: 3, _P * _Q: -2, 4 * _P * _Q: 1, 4 * _P: -1, 9 * _Q: -1}), 0),
])
def test_three_and_more_radicand_built_signs(e, sign):
    """Values over three and more radicands, zeros and near misses among
    them, e = (const, {m: coef}), that the oracle's RefRoot decides: the
    kernel refuses to build each with KernelError, whether its first two
    radicands meet the next one or two by + or -, in either order."""
    const, parts = e
    assert _ref_root(const, parts).sign() == sign
    terms = [RootExpr.sqrt(m, c) for m, c in parts.items()]
    x, y = terms[0] + terms[1] + const, terms[2]
    if len(terms) > 3:
        y = y + terms[3]
    for build in _third_radicand_builds(x, y):
        with pytest.raises(KernelError, match="third radicand"):
            build()
    with pytest.raises(KernelError):
        build_root(const, parts)


def test_eq_by_value():
    a, b = RootExpr.sqrt(2, 101), RootExpr.sqrt(20402)
    assert root_terms(a) != root_terms(b) and a == b and not a != b
    seven = build_root(7, {})
    assert a - b == 0 and a - b + seven == seven
    with pytest.raises(TypeError):
        a - b == F(0)
    assert RootExpr.sqrt(3 * 101 ** 2) == RootExpr.sqrt(3, 101)
    # a - b against 10^-30, times 10^30
    assert a != RootExpr.sqrt(20403) and (a - b).scale(10 ** 30) != 1
    with pytest.raises(TypeError):
        hash(a)


def test_decisions_never_use_the_ladder():
    """cmp_root, floor_root and frac_root decide on two radicands, and on
    what is left when one radicand or the rational part is taken away, by
    exact signs alone: no decision raises, and the package keeps no
    fixed-point evaluation to fall back on."""
    rng = random.Random(5)
    for k in (2,):
        for _ in range(100):
            ms = rng.sample(range(2, 10 ** 6), k)
            e, _ = cleared_root(F(rng.randrange(-99, 99), rng.randrange(1, 9)),
                                {m: F(rng.randrange(-50, 50) or 1, rng.randrange(1, 5))
                                 for m in ms})
            m, b = root_terms(e)[-1]
            for x in (e, e - RootExpr.sqrt(m, b), e - e.num):
                cmp_root(x.scale(rng.randrange(1, 9)), rng.randrange(-99, 99))
                cmp_root(x)
                floor_root(x)
                frac_root(x)


@pytest.mark.parametrize("e, k, equal", [
    (build_root(2, {}), 2, True),
    (RootExpr.sqrt(4), 2, True),
    (RootExpr.sqrt(8) - RootExpr.sqrt(2, 2) + 1, 0, False),
    (RootExpr.sqrt(2) - RootExpr.sqrt(3) + 2, 1, False),
    (build_root(0, {}), 0, True),
    (build_root(-3, {}), -3, True),
    (RootExpr.sqrt(2), 1, False),
    (RootExpr.sqrt(2) - RootExpr.sqrt(2) + 5, 5, True),
    (build_root(1, {}), True, True),
    (build_root(0, {}), False, True),
    (build_root(2, {}), True, False),
])
def test_eq_int_agrees_with_fraction(e, k, equal):
    """The int paths of ==, +, - and * against the same int as a RootExpr,
    and * and scale against repeated addition; a bool counts as an int."""
    assert (e == k) is equal and (e != k) is not equal
    r = build_root(k, {})
    assert (e == r) is equal
    assert e + k == e + r and e - k == e - r and k - e == r - e
    assert e * k == k * e == e.scale(k) == e.scale(k - 1) + e


# -- slot arithmetic against loops over the terms --------------------------------
#
# scale, negation, int - RootExpr and floor_root act on both slots at once.
# Each must give the parts (num, live terms) that a loop over the terms
# gives, not just an equal value.


def _parts(e):
    return e.num, root_terms(e)


def _two_term_roots(rng, count):
    """Random RootExprs with one or two terms: radicands drawn with planted
    squares, and pairs whose product carries a square factor, its core above
    both (6 * 10 = 4 * 15), below both (10 * 15 = 25 * 6) or between
    (15 * 35 = 25 * 21), or is a square (2 and 2 * 101^2)."""
    pairs = [(6, 10), (10, 15), (15, 35), (2, 2 * 101 ** 2), (3, 3 * 5 * 103 ** 2), (7, 11)]
    out = []
    for i in range(count):
        if i % 3 == 0:
            m1, m2 = rng.choice(pairs)
        else:
            m1 = rng.randrange(2, 10 ** 6) * rng.choice((1, 4, 9, 101 ** 2))
            m2 = rng.randrange(2, 10 ** 12)
        c = rng.choice((0, rng.randrange(-10 ** 6, 10 ** 6)))
        e = c + RootExpr.sqrt(m1, rng.randrange(1, 999) * rng.choice((1, -1)))
        if i % 4:
            e = e + RootExpr.sqrt(m2, rng.randrange(-999, 999) or 1)
        out.append(e)
    return out


def test_slot_arithmetic_against_term_loops():
    """scale, negation, int - RootExpr and floor_root on one- and two-term
    RootExprs against loops over their terms, written out here."""
    rng = random.Random(47)
    for e in _two_term_roots(rng, 600):
        k = rng.randrange(-10 ** 6, 10 ** 6)
        n, terms = _parts(e)
        want = (0, ()) if k == 0 else (n * k, tuple((m, b * k) for m, b in terms))
        assert _parts(e.scale(k)) == _parts(e * k) == want, (e, k)
        neg = tuple((m, -b) for m, b in terms)
        assert _parts(-e) == (-n, neg), e
        assert _parts(k - e) == (k - n, neg), (e, k)
        t = 0
        for m, b in terms:
            y = b * b * m
            r = isqrt(y)
            t += r if b >= 0 else -r - (r * r != y)
        if len(terms) == 2:
            (m1, b1), (m2, b2) = terms
            t += _sign_2rad(-t - 1, b1, m1, b2, m2) >= 0
        assert floor_root(e) == n + t == floor_root_general(e), e


def _square_factored(rng):
    """A radicand that is not square-free: a core times the square of a
    prime up to 97, of a prime above 97 or of both, or a perfect square."""
    small, big = rng.choice((2, 3, 5, 7, 11, 97)), rng.choice((101, 103, 1009, 10007))
    core = rng.randrange(1, 10 ** 4)
    return rng.choice((core * small ** 2, core * big ** 2, core * (small * big) ** 2,
                       rng.randrange(1, 10 ** 5) ** 2))


def test_non_squarefree_radicands_against_reference():
    """On radicands with square factors below and above 97 and on perfect
    squares, kept by the kernel as given, ==, cmp_root, floor_root and
    frac_root agree with RefRoot, which splits each radicand into its
    square-free core.  Half the pairs are equal values with other parts:
    s times the value, whose slot holds c s sqrt(m), against the same value
    with c sqrt(s^2 m) in that slot."""
    rng = random.Random(59)
    for _ in range(300):
        parts = {}
        for _ in range(rng.randrange(1, 3)):
            parts[_square_factored(rng)] = rng.randrange(-99, 99) or 1
        const = rng.randrange(-10 ** 4, 10 ** 4)
        e, ref = build_root(const, parts), RefRoot(const)
        for m, c in parts.items():
            ref = ref + RefRoot.sqrt(m, c)
        (m, c), s = rng.choice(list(parts.items())), rng.randrange(2, 200)
        es = e.scale(s)
        other = es - RootExpr.sqrt(m, c * s) + RootExpr.sqrt(m * s * s, c)
        if rng.randrange(2):
            other = other + rng.choice((1, -1))
        assert (es == other) == ref.scale(s).matches(other), (e, other)
        assert (es == other) == (other == es) == (not es != other)
        n = floor_root_general(e) + rng.randrange(-1, 2)
        assert cmp_root(e, n).value == (ref - RefRoot(n)).sign(), (e, n)
        f, frac = frac_root(e)
        assert floor_root(e) == f == ref.floor(), e
        assert (ref - RefRoot(f)).matches(frac), e
