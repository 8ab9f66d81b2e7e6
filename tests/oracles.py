"""Independent oracles used to freeze expected values.

These stay deliberately primitive: trial division, digit-by-digit square
roots, a Meissel-style prime count, isqrt brackets for radical signs, and
brute-force pair enumeration.  None of them share code paths with the
package, except `floor_root_general`, which reuses the kernel's fixed-point
evaluation.
"""

from __future__ import annotations

from math import isqrt

from gapcheck.exact import LADDER, eval_fixed, exact_sign


def trial_division_primes(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        d = 2
        prime = True
        while d * d <= n:
            if n % d == 0:
                prime = False
                break
            d += 1
        if prime:
            out.append(n)
    return out


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def pi_trial(x: int) -> int:
    return len(trial_division_primes(x))


def longhand_sqrt_digits(n: int, digits: int) -> str:
    """Decimal digits of sqrt(n) by the classical digit-by-digit method."""
    int_digits = []
    num = str(n)
    if len(num) % 2:
        num = "0" + num
    pairs = [num[i:i + 2] for i in range(0, len(num), 2)]
    remainder = 0
    root = 0
    for pair in pairs:
        remainder = remainder * 100 + int(pair)
        d = 9
        while (20 * root + d) * d > remainder:
            d -= 1
        remainder -= (20 * root + d) * d
        root = root * 10 + d
        int_digits.append(str(d))
    frac_digits = []
    for _ in range(digits):
        remainder *= 100
        d = 9
        while (20 * root + d) * d > remainder:
            d -= 1
        remainder -= (20 * root + d) * d
        root = root * 10 + d
        frac_digits.append(str(d))
    return "".join(int_digits).lstrip("0") + "." + "".join(frac_digits)


def meissel_pi(x: int) -> int:
    """Prime count by the Lucy-Hedgehog sieve over distinct floor values;
    independent of the package's segmented sieve."""
    if x < 2:
        return 0
    r = isqrt(x)
    vals = [x // i for i in range(1, r + 1)]
    vals += list(range(vals[-1] - 1, 0, -1))
    small = {}
    large = {}
    s = {v: v - 1 for v in vals}
    for p in range(2, r + 1):
        if s[p] == s[p - 1]:
            continue  # p not prime
        sp = s[p - 1]
        p2 = p * p
        for v in vals:
            if v < p2:
                break
            s[v] -= s[v // p] - sp
    return s[x]


def radical_sign(c: int, b1: int, m1: int, b2: int = 0, m2: int = 0) -> int:
    """Sign of c + b1*sqrt(m1) + b2*sqrt(m2) for ints, m1, m2 >= 0, from isqrt
    brackets of the value times 2^k at doubling k.

    The value is an algebraic integer of degree at most 4 whose conjugates
    are at most H in size, so a nonzero value is at least H^-3 in size (its
    norm is a nonzero integer).  A bracket of width 2^(1-k) < H^-3 that still
    holds 0 therefore proves the value is 0.
    """
    H = abs(c) + abs(b1) * (isqrt(m1) + 1) + abs(b2) * (isqrt(m2) + 1)
    k = 32
    while True:
        lo = hi = c << k
        for b, m in ((b1, m1), (b2, m2)):
            x = b * b * m << (2 * k)       # (b sqrt(m) 2^k)^2
            r = isqrt(x)
            r_up = r + (r * r != x)
            lo, hi = (lo + r, hi + r_up) if b >= 0 else (lo - r_up, hi - r)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if 1 << k > 2 * H ** 3:
            return 0
        k *= 2


def brute_twin_count_below_index(primes: list[int], n: int) -> int:
    """#{i < n : p_{i+1} - p_i = 2} with 1-based prime indexing."""
    count = 0
    for i in range(1, n):
        if primes[i] - primes[i - 1] == 2:
            count += 1
    return count


def floor_root_general(e) -> int | None:
    """Floor of a RootExpr through the fixed-point ladder only, with no isqrt
    fast path; None when Undecided.  Cross-checks `exact.floor_root`.

    Unlike the other oracles here, this one reuses the package's
    `eval_fixed` and `exact_sign`: it is independent of the fast path, not
    of the kernel.  Expressions with at most two radicands get an exact
    fallback once the ladder is exhausted.
    """
    if not e.terms:
        return e.const.numerator // e.const.denominator
    for fb in LADDER:
        lo, hi = eval_fixed(e, fb).interval()
        fl, fh = lo >> fb, hi >> fb
        if fl == fh:
            return fl
    if len(e.terms) <= 2:
        f = lo >> fb
        while exact_sign(e - f) < 0:
            f -= 1
        while exact_sign(e - (f + 1)) >= 0:
            f += 1
        return f
    return None
