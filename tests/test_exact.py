import random
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcheck.exact import (Cmp, RootExpr, cmp_root, eval_fixed, exact_sign,
                            floor_root, frac_root, sqrt_fixed)
from oracles import floor_root_general, longhand_sqrt_digits


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
    d4sq = RootExpr.build(18, {77: -2})
    _, frac = frac_root(RootExpr.build(-7, {77: 1}))
    assert cmp_root(d4sq + frac.scale(2), 2) is Cmp.EQUAL


def test_floor_root_examples():
    assert floor_root(RootExpr.build(22, {77: -2})) == 4
    assert floor_root(RootExpr.build(-7, {77: 1})) == 1
    h_over_mu = RootExpr.of(4) / (RootExpr.sqrt(13) - 3)
    assert h_over_mu == RootExpr.build(3, {13: 1})
    assert floor_root(h_over_mu) == 6


def test_frac_root_examples():
    assert frac_root(RootExpr.sqrt(4)) == (2, RootExpr.of(0))
    f, fr = frac_root(RootExpr.sqrt(11))
    assert f == 3 and fr == RootExpr.build(-3, {11: 1})
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


def test_three_radicands_interval_sign():
    e = RootExpr.sqrt(2) + RootExpr.sqrt(3) - RootExpr.sqrt(10)
    assert cmp_root(e) is Cmp.LESS
    assert exact_sign(e) is None  # too wide for the algebraic path


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
        e = RootExpr.build(a, {p * q: b})
        assert floor_root(e) == floor_root_general(e)


@given(st.integers(min_value=2, max_value=10 ** 6),
       st.integers(min_value=-1000, max_value=1000),
       st.integers(min_value=1, max_value=60))
@settings(max_examples=200)
def test_floor_root_single_radicand_property(m, num, den):
    e = RootExpr.build(F(num, den), {m: 1})
    f = floor_root(e)
    # f <= e < f + 1, certified by the exact comparator
    assert cmp_root(e - f) in (Cmp.GREATER, Cmp.EQUAL)
    assert cmp_root(e - (f + 1)) is Cmp.LESS


def test_fixed_error_tracking():
    a = sqrt_fixed(2, 64)
    b = sqrt_fixed(3, 64)
    s = a + b
    assert s.error_ulps >= a.error_ulps + b.error_ulps
    prod = a * b
    # product bracket must contain sqrt(6)
    t = sqrt_fixed(6, 64)
    assert prod.mantissa - prod.error_ulps <= t.mantissa + 1
    assert prod.mantissa + prod.error_ulps >= t.mantissa


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
    import random
    from gapcheck.exact import eval_fixed
    rng = random.Random(21)
    primes = list(mid_store.iter_primes(2, 2000))
    for _ in range(300):
        i = rng.randrange(len(primes) - 1)
        p, q = primes[i], primes[i + 1]
        a = F(rng.randrange(-30, 30), rng.randrange(1, 5))
        e = RootExpr.build(a, {p: 1, q: -1})
        c = cmp_root(e)
        fa = eval_fixed(e, 96)
        if c is Cmp.LESS:
            assert fa.mantissa - fa.error_ulps < 0
        elif c is Cmp.GREATER:
            assert fa.mantissa + fa.error_ulps > 0
