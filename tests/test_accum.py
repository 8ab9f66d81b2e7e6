import hashlib
import io
from fractions import Fraction
from math import gcd, isqrt

import pytest

from gapcheck import accum, primes
from gapcheck.accum import (RationalTarget, ScanError, accum_scan, parse_target,
                            special_scans, write_accum_csv)
from oracles import mr_quadratic_flags, trial_division_is_prime
from surveys import disjointness, mu_truncated

TABLES = {
    (1, 3): [(6, 41, "0.403"), (36, 1321, "0.345"), (90, 8161, "0.338"),
             (402, 161873, "0.3344"), (612, 374953, "0.33405")],
    (9, 22): [(11, 131, "0.44552"), (33, 1117, "0.42154"),
              (121, 14741, "0.41251"), (451, 203771, "0.41003"),
              (715, 511811, "0.40967")],
    (3, 10): [(10, 107, "0.3440"), (30, 919, "0.3150"), (60, 3637, "0.3075"),
              (100, 10061, "0.3045"), (500, 250301, "0.3009")],
}


def mu_within(p: int, printed: str, tol=Fraction(5, 10 ** 4)) -> bool:
    """Exact: does {sqrt(p)} sit within tol of the printed decimal?"""
    k = 12
    t = isqrt(p * 10 ** (2 * k)) - isqrt(p) * 10 ** k
    lo, hi = Fraction(t, 10 ** k), Fraction(t + 1, 10 ** k)
    pr = Fraction(printed)
    return lo - pr <= tol and pr - hi <= tol


def test_target_validation():
    with pytest.raises(ValueError):
        RationalTarget(2, 4)
    with pytest.raises(ValueError):
        RationalTarget(5, 3)
    assert parse_target("9/22") == RationalTarget(9, 22)


def test_all_three_tables_reproduced():
    for (a, b), rows in TABLES.items():
        recs = accum_scan(RationalTarget(a, b), "+", N_max=1000)
        got = {(r.N, r.p) for r in recs}
        assert all(r.ok for r in recs)
        for N, p, printed in rows:
            assert (N, p) in got, (a, b, N)
            # printed digits are truncations; one table entry (p = 203771)
            # is imprecise in its last digit but within the 5e-4 tolerance
            assert (mu_truncated(p, len(printed) - 2) == printed
                    or mu_within(p, printed)), (p, printed)


def test_scan_values_really_prime():
    recs = accum_scan(RationalTarget(1, 3), "+", N_max=400)
    for r in recs:
        assert trial_division_is_prime(r.p)
        assert r.p == r.N * r.N + 2 * r.N // 3 + 1


def test_scan_envelope_and_monotone_flags():
    for sign in "+-":
        recs = accum_scan(RationalTarget(1, 3), sign, N_max=3000)
        assert recs
        assert all(r.side_ok and r.envelope_ok and r.monotone_ok for r in recs)


def test_h_fixed_family():
    recs = special_scans("h_fixed", N_max=300)
    ps = [r.p for r in recs]
    for p, printed in [(5, "0.23606"), (257, "0.03121"),
                       (16901, "0.00384"), (50177, "0.00223")]:
        assert p in ps
        assert mu_truncated(p) == printed
    assert all(r.ok for r in recs)


def test_h_fixed_other_offset():
    recs = special_scans("h_fixed", N_max=500, h=3)
    assert all(r.ok for r in recs)
    assert all((r.p - 3) == isqrt(r.p - 3) ** 2 for r in recs)


def test_near_half_families():
    rm = special_scans("near_half_minus", N_max=200)
    rp = special_scans("near_half_plus", N_max=200)
    # printed digits in the source are truncations
    assert any(r.p == 11 for r in rm) and mu_truncated(11) == "0.31662"
    assert any(r.p == 17291 for r in rm) and mu_truncated(17291) == "0.49524"
    assert any(r.p == 13 for r in rp) and mu_truncated(13) == "0.60555"
    assert any(r.p == 17293 for r in rp) and mu_truncated(17293) == "0.50285"
    assert all(r.ok for r in rm + rp)


def test_top_family():
    recs = special_scans("top_family", N_max=300)
    assert all(r.ok for r in recs)
    assert recs[-1].mu_digits.startswith("0.99")


def test_prime_constant_variant():
    recs = accum_scan(RationalTarget(1, 3), "+", c=5, N_max=600)
    assert recs
    assert all(r.N % 5 != 0 for r in recs)
    assert all(r.side_ok for r in recs)


def test_empty_scan_is_valid():
    recs = accum_scan(RationalTarget(1, 997), "+", N_max=900)
    assert recs == []


def test_disjointness():
    ok, _ = disjointness(RationalTarget(1, 3), RationalTarget(3, 10), 10 ** 4)
    assert ok
    ok, _ = disjointness(RationalTarget(0, 1), RationalTarget(1, 2), 10 ** 3)
    assert ok
    with pytest.raises(ValueError):
        disjointness(RationalTarget(1, 3), RationalTarget(1, 3), 10)


def test_bad_scan_arguments():
    with pytest.raises(ScanError):
        accum_scan(RationalTarget(0, 1), "+", N_max=10)
    with pytest.raises(ScanError):
        accum_scan(RationalTarget(1, 3), "*", N_max=10)
    with pytest.raises(ScanError):
        special_scans("bogus")
    for h in (0, -3):
        with pytest.raises(ScanError, match="--h"):
            special_scans("h_fixed", N_max=10, h=h)


def test_csv_shape():
    recs = accum_scan(RationalTarget(1, 3), "+", N_max=100)
    buf = io.StringIO()
    write_accum_csv(recs, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "N,p,mu,abs_err"
    assert lines[1].startswith("6,41,0.40312,")


def test_scan_range_checked_up_front():
    # values at N = 2^32 pass 2^64; a scan that tested values first would
    # not finish, so each of these must refuse before its loop
    for a, b in ((1, 2), (1, 4), (3, 8)):
        for sign in "+-":
            with pytest.raises(ScanError, match="2\\^64"):
                accum_scan(RationalTarget(a, b), sign, N_max=2 ** 32)
    for kind in ("h_fixed", "near_half_minus", "near_half_plus", "top_family"):
        with pytest.raises(ScanError, match="2\\^64"):
            special_scans(kind, N_max=2 ** 32)


def test_accum_csv_digest():
    # every a/b with b in {3, 5, 7, 11} both signs to N = 20000, and the four
    # families to N = 10000; the digest was recorded with a primality test
    # that ran all twelve Miller-Rabin bases on every value, and holds
    # unchanged now that the families are sieved
    buf = io.StringIO()
    for b in (3, 5, 7, 11):
        for a in range(1, b):
            if gcd(a, b) == 1:
                for sign in "+-":
                    write_accum_csv(accum_scan(RationalTarget(a, b), sign, N_max=20000), buf)
    for kind in ("h_fixed", "near_half_minus", "near_half_plus", "top_family"):
        write_accum_csv(special_scans(kind, N_max=10000), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "1c27fbd6ae0fb6d2ea02ea354e9daedf9db6992e0284950951ebb1b26e1c81c8")


FAMILIES = ("h_fixed", "near_half_minus", "near_half_plus", "top_family")


def _family_poly(kind: str, h: int = 1) -> tuple[int, int, int]:
    """(first N, u, v) of the family's N^2 + uN + v."""
    return {"h_fixed": (max(1, (h + 1) // 2), 0, h), "near_half_minus": (2, 1, -1),
            "near_half_plus": (1, 1, 1), "top_family": (1, 2, -1)}[kind]


def _oracle_family(kind: str, N_max: int, h: int = 1) -> list[tuple[int, int]]:
    lo, u, v = _family_poly(kind, h)
    flags = mr_quadratic_flags(u, v, lo, N_max)
    return [(N, N * N + u * N + v) for N, f in zip(range(lo, N_max + 1), flags) if f]


def test_family_scans_match_one_test_per_value():
    """The sieved families emit the primes one is_prime_u64 call per N finds,
    at N_max below, at and just past the first N; at N = 1 top_family and
    h_fixed give 2 and near_half_plus gives 3, sieving primes themselves.
    h_fixed runs h = 1..12: even h makes ell = 2 strike, and h = 3 gives a
    double root at ell = 3."""
    cases = [(kind, 1) for kind in FAMILIES] + [("h_fixed", h) for h in range(1, 13)]
    for kind, h in cases:
        lo = _family_poly(kind, h)[0]
        for N_max in (lo - 1, lo, lo + 1, lo + 2, 10, 97, 2000):
            got = [(r.N, r.p) for r in special_scans(kind, N_max=N_max, h=h)]
            assert got == _oracle_family(kind, N_max, h), (kind, h, N_max)
    for kind in FAMILIES:
        assert special_scans(kind, N_max=_family_poly(kind)[0] - 1) == []
    assert [r.p for r in special_scans("top_family", N_max=1)] == [2]
    assert [r.p for r in special_scans("h_fixed", N_max=1)] == [2]
    assert [r.p for r in special_scans("near_half_plus", N_max=1)] == [3]
    assert [r.p for r in special_scans("near_half_minus", N_max=2)] == [5]
    assert [r.p for r in special_scans("top_family", N_max=40)][:2] == [2, 7]


def test_family_scans_test_only_values_up_to_the_sieving_bound(monkeypatch):
    """special_scans calls is_prime_u64 only for the few values at or below
    isqrt of its last value, the sieve's bound."""
    seen = []
    real = primes.is_prime_u64

    def spy(x):
        seen.append(x)
        return real(x)

    monkeypatch.setattr(primes, "is_prime_u64", spy)
    monkeypatch.setattr(accum, "is_prime_u64", spy)
    N_max = 3000
    for kind in FAMILIES:
        seen.clear()
        _, u, v = _family_poly(kind)
        special_scans(kind, N_max=N_max)
        bound = isqrt(N_max * N_max + u * N_max + v)
        assert seen and max(seen) <= bound, kind
        assert len(seen) <= isqrt(bound) + 1, kind


# sha256 of the stdout of `accum --family <kind> [--h h] --n-max 100000`,
# recorded with one is_prime_u64 call per N, before the families were sieved
FAMILY_1E5_SHA256 = {
    ("h_fixed", 1): "a075f7d1fbcfb7f8ec61f22148da815dbcaf9331f469aef98b871c42309e5b09",
    ("near_half_minus", 1): "7092cc77c13d79c239c5654fb9373c47fa450f77fccddedf861c4fd2d80b73f4",
    ("near_half_plus", 1): "b57fd21f5c90d96fae88ceac517a12eff04742cc2f9849970420d3e4104b7966",
    ("top_family", 1): "c28d6ab1a028fa07bd6b1453690585546f11c8ff99fc231ce3946a9d8cc20df0",
    ("h_fixed", 3): "6e1e08a93c2d8e512c3e4cb52e0677746a6ebaca693bd27e5d904c009ed8cac3",
}


def test_family_csv_digests_to_1e5():
    """The families to N = 1e5, values past 1e10: past 2^32, where the sieve
    runs on primes up to 1e5, and past psi_4, where Miller-Rabin took five
    bases."""
    for (kind, h), want in FAMILY_1E5_SHA256.items():
        buf = io.StringIO()
        write_accum_csv(special_scans(kind, N_max=10 ** 5, h=h), buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == want, (kind, h)
