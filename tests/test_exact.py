import random
from fractions import Fraction as F
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcheck.exact import (Cmp, RootExpr, _sign_1rad, _sign_2rad, cmp_root, eval_fixed,
                            floor_root, frac_root, sqrt_fixed)
from oracles import (RefRoot, build_root, exact_sign, floor_root_general,
                     longhand_sqrt_digits, radical_sign, raw_root, root_sign_args)


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
    assert RootExpr.sqrt(8) == RootExpr.sqrt(2, 2)
    assert RootExpr.sqrt(12) == RootExpr.sqrt(3, 2)
    assert RootExpr.sqrt(49) == RootExpr.of(7)
    assert RootExpr.sqrt(2) * RootExpr.sqrt(2) == RootExpr.of(2)
    assert RootExpr.sqrt(6) * RootExpr.sqrt(10) == RootExpr.sqrt(15, 2)


def test_cmp_root_examples():
    assert cmp_root(RootExpr.sqrt(4) - 2) is Cmp.EQUAL
    assert cmp_root(RootExpr.sqrt(11) - RootExpr.sqrt(7), F(7, 10)) is Cmp.LESS
    assert cmp_root(RootExpr.sqrt(11) - RootExpr.sqrt(7), F(67, 100)) is Cmp.GREATER
    # sqrt(2)/2 above 7/10
    assert cmp_root(RootExpr.sqrt(2, F(1, 2)), F(7, 10)) is Cmp.GREATER


def test_cmp_root_identity_window4():
    # Delta_4^2 + 2 {sqrt(7) Delta_4} = 2 exactly
    d4sq = build_root(18, {77: -2})
    _, frac = frac_root(build_root(-7, {77: 1}))
    assert cmp_root(d4sq + frac.scale(2), 2) is Cmp.EQUAL


def test_floor_root_examples():
    assert floor_root(build_root(22, {77: -2})) == 4
    assert floor_root(build_root(-7, {77: 1})) == 1
    h_over_mu = RootExpr.of(4) / (RootExpr.sqrt(13) - 3)
    assert h_over_mu == build_root(3, {13: 1})
    assert floor_root(h_over_mu) == 6


def test_frac_root_examples():
    assert frac_root(RootExpr.sqrt(4)) == (2, RootExpr.of(0))
    f, fr = frac_root(RootExpr.sqrt(11))
    assert f == 3 and fr == build_root(-3, {11: 1})
    f, _ = frac_root(RootExpr.sqrt(101))
    assert f == 10


def test_two_radicand_exact():
    e = RootExpr.sqrt(2) + RootExpr.sqrt(3)
    assert cmp_root(e, F(314, 100)) is Cmp.GREATER
    assert cmp_root(e, F(315, 100)) is Cmp.LESS
    assert cmp_root(RootExpr.sqrt(2, 2) - RootExpr.sqrt(8)) is Cmp.EQUAL
    assert floor_root(e) == 3
    assert floor_root(RootExpr.sqrt(3) - RootExpr.sqrt(2)) == 0
    assert floor_root(-(RootExpr.sqrt(3) - RootExpr.sqrt(2))) == -1


def test_inverse():
    assert (RootExpr.sqrt(3) - RootExpr.sqrt(2)).inverse() == \
        RootExpr.sqrt(3) + RootExpr.sqrt(2)
    e = RootExpr.of(5) + RootExpr.sqrt(7, 2)
    assert e * e.inverse() == RootExpr.of(1)
    with pytest.raises(ZeroDivisionError):
        RootExpr.of(0).inverse()


def test_three_radicands_exact_sign():
    e = RootExpr.sqrt(2) + RootExpr.sqrt(3) - RootExpr.sqrt(10)
    assert cmp_root(e) is Cmp.LESS
    assert cmp_root(e).value == radical_sign(*root_sign_args(e)) == -1
    assert exact_sign(e) is None  # past the oracle's two-radicand procedures
    assert floor_root(e) == -1 and frac_root(e) == (-1, e + 1)


def test_floor_paths_agree_random_windows(mid_store):
    """Fast single-radicand path vs the FixedApprox general path on random
    window-style expressions a + b*sqrt(p*q)."""
    rng = random.Random(3)
    primes = list(mid_store.iter_primes(2, 3000))
    for _ in range(400):
        i = rng.randrange(len(primes) - 1)
        p, q = primes[i], primes[i + 1]
        a = F(rng.randrange(-50, 50), rng.randrange(1, 7))
        b = F(rng.randrange(-9, 9) or 1, rng.randrange(1, 5))
        e = build_root(a, {p * q: b})
        assert floor_root(e) == floor_root_general(e)


@given(st.integers(min_value=2, max_value=10 ** 6),
       st.integers(min_value=-1000, max_value=1000),
       st.integers(min_value=1, max_value=60))
@settings(max_examples=200)
def test_floor_root_single_radicand_property(m, num, den):
    e = build_root(F(num, den), {m: 1})
    f = floor_root(e)
    # f <= e < f + 1, certified by the exact comparator
    assert cmp_root(e - f) in (Cmp.GREATER, Cmp.EQUAL)
    assert cmp_root(e - (f + 1)) is Cmp.LESS


def test_fixed_error_tracking():
    """eval_fixed's certified interval holds the true value, decided
    exactly by cmp_root at both ends."""
    e = RootExpr.sqrt(2) + RootExpr.sqrt(3)
    fa = eval_fixed(e, 64)
    lo, hi = fa.mantissa - fa.error_ulps, fa.mantissa + fa.error_ulps
    assert cmp_root(e, F(lo, 2 ** 64)) is Cmp.GREATER
    assert cmp_root(e, F(hi, 2 ** 64)) is Cmp.LESS


def test_pq_never_perfect_square(mid_store):
    # distinct primes: the floor fast path never sees an exact square
    prev = None
    for p in mid_store.iter_primes(2, 20000):
        if prev is not None:
            s = isqrt(prev * p)
            assert s * s != prev * p
        prev = p


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
        e = build_root(a, {p: 1, q: -1})
        c = cmp_root(e)
        fa = eval_fixed(e, 96)
        if c is Cmp.LESS:
            assert fa.mantissa - fa.error_ulps < 0
        elif c is Cmp.GREATER:
            assert fa.mantissa + fa.error_ulps > 0


@pytest.mark.parametrize("bad", [
    lambda: cmp_root(RootExpr.sqrt(2) + RootExpr.sqrt(3) + RootExpr.sqrt(5), 0.5),
    lambda: RootExpr.of(0.1),
    lambda: RootExpr.sqrt(2, 0.5),
    lambda: RootExpr.sqrt(2) + 0.5,
    lambda: 0.5 + RootExpr.sqrt(2),
    lambda: RootExpr.sqrt(2) - 0.5,
    lambda: 0.5 - RootExpr.sqrt(2),
    lambda: RootExpr.sqrt(2).scale(0.0),
    lambda: RootExpr.sqrt(2) * 2.0,
    lambda: RootExpr.sqrt(2) / 2.0,
    lambda: cmp_root(RootExpr.sqrt(2), 1.4142135623730951),
])
def test_float_raises_type_error(bad):
    with pytest.raises(TypeError):
        bad()


def test_eq_with_float_is_not_implemented():
    assert RootExpr.of(1).__eq__(1.0) is NotImplemented
    assert RootExpr.of(1) != 1.0
    assert RootExpr.of(1) == 1 and RootExpr.of(F(1, 2)) == F(1, 2)


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
    # sqrt(2)/3 - sqrt(3)/5 + 1/7 > 0 and sqrt(8)/3 - sqrt(2)*2/3 = 0
    e = build_root(F(1, 7), {2: F(1, 3), 3: F(-1, 5)})
    assert exact_sign(e) == radical_sign(15, 35, 2, -21, 3) == 1
    assert exact_sign(RootExpr.sqrt(8, F(1, 3)) - RootExpr.sqrt(2, F(2, 3))) == 0
    assert exact_sign(build_root(F(-1, 2), {2: F(1, 3)})) == -1


# -- the integer RootExpr against the Fraction-coefficient reference model ------

_fracs = st.builds(F, st.integers(min_value=-40, max_value=40),
                   st.integers(min_value=1, max_value=12))
_nonzero_fracs = _fracs.filter(bool)
_core_sets = st.lists(st.sampled_from((1, 2, 3, 5, 6, 7, 10, 77)),
                      min_size=1, max_size=2, unique=True)


@st.composite
def _root_pairs(draw, cores):
    """A RootExpr and its reference model built from the same parts: a
    rational constant plus up to three coef*sqrt(core * square) terms, so
    square parts, merges and cancellations all occur."""
    const = draw(_fracs)
    e, ref = RootExpr.of(const), RefRoot(const)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        m = draw(st.sampled_from(cores)) * draw(st.sampled_from((1, 1, 4, 9, 49)))
        c = draw(_fracs)
        e, ref = e + RootExpr.sqrt(m, c), ref + RefRoot.sqrt(m, c)
    return e, ref


def _agrees(e, ref):
    """e is in normal form and has the reference's value, term by term."""
    assert e.den > 0
    assert gcd(e.den, e.num, *(b for _, b in e.terms)) == 1
    radicands = [m for m, _ in e.terms]
    assert radicands == sorted(set(radicands)) and all(b for _, b in e.terms)
    assert F(e.num, e.den) == ref.const
    assert {m: F(b, e.den) for m, b in e.terms} == ref.coefs
    built = ref.to_root()
    assert (e.num, e.terms, e.den) == (built.num, built.terms, built.den)
    assert e == built
    return True


@given(st.data(), _core_sets)
@settings(max_examples=300)
def test_kernel_agrees_with_reference_arithmetic(data, cores):
    a, ra = data.draw(_root_pairs(cores))
    b, rb = data.draw(_root_pairs(cores))
    k = data.draw(st.one_of(st.integers(min_value=-9, max_value=9), _fracs))
    assert _agrees(a, ra) and _agrees(b, rb)
    assert _agrees(a + b, ra + rb) and _agrees(a - b, ra - rb)
    assert _agrees(a * b, ra * rb)
    assert _agrees(a.scale(k), ra.scale(k)) and _agrees(a * k, ra.scale(k))
    assert _agrees(a + k, ra + RefRoot(k)) and _agrees(k - a, RefRoot(k) - ra)
    if k:
        assert _agrees(a / k, ra.scale(1 / F(k)))
    if ra == RefRoot(0):
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert _agrees(a.inverse(), ra.inverse())
        assert _agrees(b / a, rb * ra.inverse())


@given(st.data(), _core_sets)
@settings(max_examples=300)
def test_kernel_agrees_with_reference_predicates(data, cores):
    a, ra = data.draw(_root_pairs(cores))
    b, rb = data.draw(_root_pairs(cores))
    assert (a == b) == (ra == rb) and (a != b) == (not ra == rb)
    assert a == (a + b) - b
    # on square-free cores a value is rational exactly when it has no terms
    assert (a == ra.const) == (not ra.coefs) and (a - b == 0) == (ra == rb)
    r = data.draw(_fracs)
    assert cmp_root(a, r).value == (ra - RefRoot(r)).sign()
    assert cmp_root(a - b).value == (ra - rb).sign()
    assert floor_root(a) == ra.floor()
    f, frac = frac_root(a)
    assert f == ra.floor() and _agrees(frac, ra - RefRoot(f))


# -- exact floors and comparisons on up to two radicands ------------------------


@st.composite
def _two_radicand_roots(draw):
    """(c1 sqrt(m1) + c2 sqrt(m2) + k) / den with den > 1 and either sign on
    each coefficient; half the draws sit next to an integer, as
    sqrt(a^2 + 1) - sqrt(b^2 - 1) + k with b near a does."""
    den = draw(st.integers(min_value=2, max_value=60))
    k = draw(st.integers(min_value=-10 ** 4, max_value=10 ** 4))
    s = draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        a = draw(st.integers(min_value=2, max_value=10 ** 6))
        b = max(2, a + draw(st.integers(min_value=-2, max_value=2)))
        return (RootExpr.sqrt(a * a + 1, s) - RootExpr.sqrt(b * b - 1, s) + k) / den
    m1, m2 = draw(st.lists(st.integers(min_value=2, max_value=10 ** 9), min_size=2,
                           max_size=2, unique=True))
    c1 = draw(st.integers(min_value=1, max_value=10 ** 3)) * s
    c2 = draw(st.integers(min_value=-10 ** 3, max_value=10 ** 3).filter(bool))
    return (RootExpr.sqrt(m1, c1) + RootExpr.sqrt(m2, c2) + k) / den


@given(_two_radicand_roots())
@settings(max_examples=400)
def test_floor_root_two_radicands_against_ladder(e):
    assert len(e.terms) <= 2
    f = floor_root(e)
    assert f == floor_root_general(e)
    assert cmp_root(e, f) in (Cmp.GREATER, Cmp.EQUAL)
    assert cmp_root(e, f + 1) is Cmp.LESS
    assert frac_root(e) == (f, e - f)


def test_floor_root_dependent_radicands():
    # radicands that normalization would have folded, built directly
    assert floor_root(raw_root(0, [(4, -1)])) == -2
    assert floor_root(raw_root(F(1, 2), [(2, 1), (9, -1)])) == -2
    assert floor_root(raw_root(0, [(4, -1), (9, 1)])) == 1
    assert floor_root(raw_root(0, [(4, -1), (9, 1), (16, 1)])) == 5
    assert floor_root(raw_root(F(1, 2), [(2, 1), (8, -1), (18, 1)])) == 3
    # 101 sqrt(2) - sqrt(2 * 101^2) = 0 exactly: 101^2 is past the trial
    # squares, so both radicands stay and the term floors sum to -1
    zero = RootExpr.sqrt(2, 101) - RootExpr.sqrt(20402)
    assert len(zero.terms) == 2
    assert floor_root(zero) == 0 and floor_root(zero + 7) == 7
    assert floor_root(zero - F(1, 10 ** 9)) == -1
    assert cmp_root(zero) is Cmp.EQUAL


# -- exact signs and floors on three or more radicands ---------------------------

_P, _Q = 99991, 100003   # consecutive primes, as a window's p and q
# the window shape p, q, pq; radicands with a square factor past the trial
# squares (20402 = 2 * 101^2 and 3 * 101^2); radicands that share factors
_TOWER_RADICANDS = (_P, _Q, _P * _Q, 2, 3, 5, 6, 7, 11, 12, 18, 77,
                    20402, 3 * 101 ** 2, 101)


@st.composite
def _tower_terms(draw, k):
    """k distinct radicands with nonzero int coefficients."""
    pool = st.one_of(st.sampled_from(_TOWER_RADICANDS),
                     st.integers(min_value=2, max_value=10 ** 5))
    ms = draw(st.lists(pool, min_size=k, max_size=k, unique=True))
    bs = draw(st.lists(st.integers(min_value=-10 ** 3, max_value=10 ** 3).filter(bool),
                       min_size=k, max_size=k))
    return list(zip(ms, bs))


@given(st.data(), st.sampled_from((3, 4)), st.integers(min_value=-3, max_value=3),
       st.booleans())
@settings(max_examples=300)
def test_cmp_root_many_radicands_against_isqrt_oracle(data, k, c, near):
    terms = data.draw(_tower_terms(k))
    if near:
        c += sum(_minus_floor(b, m) for m, b in terms)
    e = raw_root(c, terms)
    assert cmp_root(e).value == radical_sign(*root_sign_args(e))
    r = F(data.draw(st.integers(min_value=-9, max_value=9)), 7)
    assert cmp_root(e, r).value == radical_sign(*root_sign_args(e - r))


def _expand(x0, xs: dict, y0, ys: dict):
    """(x0 + sum xs[m] sqrt(m)) (y0 + sum ys[m] sqrt(m)) multiplied out with
    every radicand product m1 m2 kept as it is."""
    const, acc = x0 * y0, {}
    for (m1, c1) in [(1, x0)] + list(xs.items()):
        for (m2, c2) in [(1, y0)] + list(ys.items()):
            if m1 * m2 == 1:
                continue
            acc[m1 * m2] = acc.get(m1 * m2, 0) + c1 * c2
    return raw_root(const, [(m, c) for m, c in acc.items() if c])


_small_ints = st.integers(min_value=-30, max_value=30)


@given(st.lists(st.sampled_from(_TOWER_RADICANDS), min_size=3, max_size=3, unique=True),
       st.lists(_small_ints, min_size=8, max_size=8), st.integers(min_value=1, max_value=3))
@settings(max_examples=200)
def test_built_zeros_in_three_generators(ms, cs, scale):
    """x y from the kernel against x y multiplied out over unreduced radicand
    products (perfect squares such as a^2, and p^2 q): equal values whose
    terms differ, so their difference is a zero over up to three
    generators."""
    a, b, c = ms
    xs, ys = dict(zip(ms, cs[1:4])), dict(zip(ms, cs[5:8]))
    x = build_root(cs[0], xs)
    y = build_root(cs[4], ys)
    product = (x * y).scale(scale)
    expanded = _expand(cs[0] * scale, {m: v * scale for m, v in xs.items()}, cs[4], ys)
    assert expanded == product and product == expanded
    zero = expanded - product
    assert cmp_root(zero) is Cmp.EQUAL and zero == 0
    assert cmp_root(zero, F(1, 10 ** 12)) is Cmp.LESS
    assert cmp_root(zero, F(-1, 10 ** 12)) is Cmp.GREATER
    assert floor_root(zero) == 0 and floor_root(zero - F(1, 10 ** 12)) == -1
    assert floor_root(expanded) == floor_root(product)
    # a nonzero third radicand decides the sign on its own
    assert cmp_root(zero + RootExpr.sqrt(a * b * c + 1, -3)) is Cmp.LESS


@pytest.mark.parametrize("e, sign", [
    # 101 sqrt(2) - sqrt(2 * 101^2) = 0 beside a third radicand
    (raw_root(0, [(2, 101), (20402, -1), (7, 1)]), 1),
    (raw_root(0, [(2, 101), (20402, -1), (7, -1)]), -1),
    (raw_root(-2, [(2, 101), (20402, -1), (7, 1)]), 1),     # sqrt(7) > 2
    (raw_root(-3, [(2, 101), (20402, -1), (7, 1)]), -1),
    (raw_root(0, [(3, 101), (3 * 101 ** 2, -1), (2, 101), (20402, -1)]), 0),
    (raw_root(1, [(3, 101), (3 * 101 ** 2, -1), (5, 1), (20, -1)]), -1),  # 1 - sqrt(5)
    (raw_root(0, [(_P, 1), (_Q, 1), (_P * _Q, -1)]), -1),
    # 2 sqrt(p) + 3 sqrt(q) - 2 sqrt(pq), less itself written over square
    # multiples of the same radicands
    (raw_root(0, [(_P, 2), (_Q, 3), (_P * _Q, -2), (4 * _P * _Q, 1),
                  (4 * _P, -1), (9 * _Q, -1)]), 0),
])
def test_three_and_more_radicand_built_signs(e, sign):
    assert cmp_root(e).value == radical_sign(*root_sign_args(e)) == sign
    assert (e == 0) is (sign == 0)


@given(st.data(), st.sampled_from((3, 4)), st.integers(min_value=-10 ** 4, max_value=10 ** 4),
       st.integers(min_value=1, max_value=60), st.booleans())
@settings(max_examples=200)
def test_floor_root_many_radicands_against_ladder(data, k, c, den, near):
    terms = data.draw(_tower_terms(k))
    if near:
        c = c % 7 - 3 + sum(_minus_floor(b, m) for m, b in terms)
    e = raw_root(F(c, den), [(m, F(b, den)) for m, b in terms])
    f = floor_root(e)
    assert f == floor_root_general(e)
    assert cmp_root(e, f) in (Cmp.GREATER, Cmp.EQUAL)
    assert cmp_root(e, f + 1) is Cmp.LESS
    assert frac_root(e) == (f, e - f)


def test_eq_by_value():
    a, b = RootExpr.sqrt(2, 101), RootExpr.sqrt(20402)
    assert a.terms != b.terms and a == b and not a != b
    assert a - b == 0 and a - b == F(0) and a - b + F(1, 3) == F(1, 3)
    assert RootExpr.sqrt(3 * 101 ** 2) == RootExpr.sqrt(3, 101)
    three = a - b + RootExpr.sqrt(5)
    assert len(three.terms) == 3
    assert three == RootExpr.sqrt(5) and three != RootExpr.sqrt(5) + 1
    assert three != 2 and three != F(9, 4)
    assert a != RootExpr.sqrt(20403) and a - b != F(1, 10 ** 30)
    with pytest.raises(TypeError):
        hash(a)


def test_decisions_never_use_the_ladder(monkeypatch):
    """cmp_root, floor_root and frac_root decide exactly on any number of
    radicands, so the fixed-point evaluation never runs for a decision."""
    import gapcheck.exact as exact

    calls = []

    def counting(e, frac_bits):
        calls.append(frac_bits)
        return eval_fixed(e, frac_bits)

    monkeypatch.setattr(exact, "eval_fixed", counting)
    rng = random.Random(5)
    for k in (2, 3, 4):
        for _ in range(100):
            ms = rng.sample(range(2, 10 ** 6), k)
            e = build_root(F(rng.randrange(-99, 99), rng.randrange(1, 9)),
                           {m: F(rng.randrange(-50, 50) or 1, rng.randrange(1, 5))
                            for m in ms})
            for x in (e, e - RootExpr.sqrt(e.terms[-1][0], F(e.terms[-1][1], e.den)),
                      e - F(e.num, e.den)):
                cmp_root(x, F(rng.randrange(-99, 99), rng.randrange(1, 9)))
                cmp_root(x)
                floor_root(x)
                frac_root(x)
    e3 = RootExpr.sqrt(2) + RootExpr.sqrt(3) - RootExpr.sqrt(10)
    assert cmp_root(e3) is Cmp.LESS and floor_root(e3) == -1
    assert calls == []


@pytest.mark.parametrize("e, k, equal", [
    (RootExpr.of(F(6, 3)), 2, True),
    (RootExpr.sqrt(4), 2, True),
    (RootExpr.of(F(1, 2)), 0, False),
    (RootExpr.of(F(1, 2)), 1, False),
    (RootExpr.of(0), 0, True),
    (RootExpr.of(-3), -3, True),
    (RootExpr.sqrt(2), 1, False),
    (RootExpr.sqrt(2) - RootExpr.sqrt(2) + 5, 5, True),
    (RootExpr.of(1), True, True),
    (RootExpr.of(0), False, True),
    (RootExpr.of(2), True, False),
])
def test_eq_int_agrees_with_fraction(e, k, equal):
    assert (e == k) is equal and (e != k) is not equal
    assert (e == F(k)) is equal
    # the int paths of + - * and scale agree with the Fraction ones
    assert e + k == e + F(k) and e - k == e - F(k) and k - e == F(k) - e
    assert e * k == e * F(k) and e.scale(k) == e.scale(F(k))
