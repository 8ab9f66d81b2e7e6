"""Independent oracles used to freeze expected values.

These stay deliberately primitive: trial division, a plain odd-only sieve,
digit-by-digit square roots, a Meissel-style prime count,
strong-probable-prime tests on given bases (and a 64-bit primality test
that runs all twelve bases up to 37 whatever the size of x), isqrt brackets
for radical signs, brute-force pair enumeration, a Fraction-coefficient
model of RootExpr and the Fraction partial sums of the mu series.  None of
them share code paths with the package, except `mr_quadratic_flags`, which
tests each value of a quadratic with is_prime_u64 (the path the
accumulation families took before they were sieved), `exact_sign`, which
hands a RootExpr's terms to the kernel's sign procedures,
`floor_root_general`, which reuses the kernel's fixed-point evaluation,
`build_root` and `raw_root`, shorthands for building RootExprs, and
`twin_pairs`, a filter over the window stream.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from gapcheck.exact import RootExpr, _make, _rational, _sign_1rad, _sign_2rad, eval_fixed
from gapcheck.primes import is_prime_u64
from gapcheck.window import windows

LADDER = (64, 128, 256)   # fixed-point precisions `floor_root_general` tries


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


def strong_probable_prime(x: int, bases) -> bool:
    """Is odd x > 2 a strong probable prime to every one of the given bases?"""
    d, r = x - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(r - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


ALL_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_all_bases(x: int) -> bool:
    """Primality for 0 <= x < 2^64: trial division by the twelve primes up to
    37, then Miller-Rabin on all twelve of them, whatever the size of x."""
    if x < 2:
        return False
    for p in ALL_BASES:
        if x == p:
            return True
        if x % p == 0:
            return False
    return strong_probable_prime(x, ALL_BASES)


def mr_quadratic_flags(u: int, v: int, lo: int, hi: int) -> bytearray:
    """Primality flags of x^2 + u x + v for lo <= x <= hi, one is_prime_u64
    call per value (a value below 2 is not prime)."""
    return bytearray(1 if f >= 2 and is_prime_u64(f) else 0
                     for f in (x * x + u * x + v for x in range(lo, hi + 1)))


def odd_only_sieve(limit: int) -> bytearray:
    """Flags of the odd numbers 3, 5, ..., up to limit: byte i is 1 exactly
    when 3 + 2i is prime.  Plain Eratosthenes over one array, every odd p up
    to sqrt(limit) struck from p^2: no wheel, no segments."""
    n = max(0, (limit - 1) // 2)
    flags = bytearray([1]) * n
    for p in range(3, isqrt(limit) + 1, 2):
        if flags[(p - 3) // 2]:
            i = (p * p - 3) // 2
            flags[i::p] = bytes(len(range(i, n, p)))
    return flags


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


def radical_sign(c: int, *bm: int) -> int:
    """Sign of c + b1*sqrt(m1) + ... + bk*sqrt(mk) for ints, every m >= 0,
    given as radical_sign(c, b1, m1, ..., bk, mk), from isqrt brackets of the
    value times 2^j at doubling j.

    The value is an algebraic integer of degree at most 2^k whose conjugates
    are at most H in size, so a nonzero value is at least H^-(2^k - 1) in
    size (its norm is a nonzero integer).  A bracket of width at most
    k 2^-j < H^-(2^k - 1) that still holds 0 therefore proves the value is 0.
    """
    pairs = list(zip(bm[0::2], bm[1::2]))
    k = max(2, len(pairs))
    H = abs(c) + sum(abs(b) * (isqrt(m) + 1) for b, m in pairs)
    j = 32
    while True:
        lo = hi = c << j
        for b, m in pairs:
            x = b * b * m << (2 * j)       # (b sqrt(m) 2^j)^2
            r = isqrt(x)
            r_up = r + (r * r != x)
            lo, hi = (lo + r, hi + r_up) if b >= 0 else (lo - r_up, hi - r)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if 1 << j > k * H ** (2 ** k - 1):
            return 0
        j *= 2


def brute_twin_count_below_index(primes: list[int], n: int) -> int:
    """#{i < n : p_{i+1} - p_i = 2} with 1-based prime indexing."""
    count = 0
    for i in range(1, n):
        if primes[i] - primes[i - 1] == 2:
            count += 1
    return count


def twin_pairs(store, n_lo: int, n_hi: int) -> list[int]:
    """Sorted indices m in [n_lo, n_hi] with d_m = 2."""
    return [w.n for w in windows(store, n_lo, n_hi) if w.d == 2]


def exact_sign(e) -> int | None:
    """Exact sign of a RootExpr with at most two radicands through the
    kernel's sign procedures, else None.  Its num and b_i already are its
    terms times den > 0, so they pass on as they are."""
    terms = e.terms
    if len(terms) == 0:
        return (e.num > 0) - (e.num < 0)
    if len(terms) == 1:
        (m, b), = terms
        return _sign_1rad(e.num, b, m)
    if len(terms) == 2:
        (m1, b1), (m2, b2) = terms
        return _sign_2rad(e.num, b1, m1, b2, m2)
    return None


def floor_root_general(e) -> int:
    """Floor of a RootExpr through the fixed-point ladder, with no isqrt term
    floors and no kernel sign.  Cross-checks `exact.floor_root`.

    Unlike the other oracles here, this one reuses the package's
    `eval_fixed`: it is independent of the kernel's floors and signs, not of
    its evaluation.  Once the ladder is exhausted, `radical_sign` settles
    the floor next to the last bracket.
    """
    if not e.terms:
        return e.num // e.den
    for fb in LADDER:
        fa = eval_fixed(e, fb)
        lo, hi = fa.mantissa - fa.error_ulps, fa.mantissa + fa.error_ulps
        fl, fh = lo >> fb, hi >> fb
        if fl == fh:
            return fl
    f = lo >> fb
    while radical_sign(*root_sign_args(e - f)) < 0:
        f -= 1
    while radical_sign(*root_sign_args(e - (f + 1))) >= 0:
        f += 1
    return f


def build_root(const, parts: dict) -> RootExpr:
    """const + sum coef*sqrt(m) over parts = {m: coef}, through the kernel's
    own constructors."""
    e = RootExpr.of(const)
    for m, coef in parts.items():
        e = e + RootExpr.sqrt(m, coef)
    return e


def raw_root(const, parts) -> RootExpr:
    """(const + sum coef*sqrt(m) over parts = [(m, coef), ...]) with each
    radicand kept as given, not normalized: square factors, perfect squares
    and dependent radicands stay.  const and the coefs are ints or Fractions;
    the radicands are distinct and positive."""
    parts = [(m, _rational(c)) for m, c in parts]
    cn, cd = _rational(const)
    den = lcm(cd, *(d for _, (_, d) in parts))
    # over the lcm of reduced denominators the gcd is already 1
    terms = tuple(sorted((m, n * (den // d)) for m, (n, d) in parts if n))
    return _make(cn * (den // cd), terms, den)


def root_sign_args(e) -> list[int]:
    """[num, b1, m1, ..., bk, mk] of a RootExpr, for `radical_sign`: its
    num and b_i are its terms times den > 0."""
    args = [e.num]
    for m, b in e.terms:
        args += [b, m]
    return args


def squarefree_split(m: int) -> tuple[int, int]:
    """m = outer^2 * core with core square-free, by trial division up to the
    cube root of what is left: the rest then has at most two prime factors,
    so it is square-free unless it is a perfect square."""
    outer, core, d = 1, 1, 2
    while d * d * d <= m:
        while m % (d * d) == 0:
            m //= d * d
            outer *= d
        if m % d == 0:
            m //= d
            core *= d
        d += 1
    r = isqrt(m)
    if m > 1 and r * r == m:
        return outer * r, core
    return outer, core * m


class RefRoot:
    """Reference model of RootExpr: a Fraction constant plus a dict from
    square-free radicand to nonzero Fraction coefficient."""

    def __init__(self, const=0, coefs=None):
        self.const = Fraction(const)
        self.coefs = {m: Fraction(c) for m, c in (coefs or {}).items() if c}

    @classmethod
    def sqrt(cls, m: int, coef=1) -> "RefRoot":
        outer, core = squarefree_split(m)
        if core == 1:
            return cls(Fraction(coef) * outer)
        return cls(0, {core: Fraction(coef) * outer})

    def __add__(self, other: "RefRoot") -> "RefRoot":
        coefs = dict(self.coefs)
        for m, c in other.coefs.items():
            coefs[m] = coefs.get(m, 0) + c
        return RefRoot(self.const + other.const, coefs)

    def __neg__(self) -> "RefRoot":
        return self.scale(-1)

    def __sub__(self, other: "RefRoot") -> "RefRoot":
        return self + (-other)

    def scale(self, k) -> "RefRoot":
        return RefRoot(self.const * k, {m: c * k for m, c in self.coefs.items()})

    def __mul__(self, other: "RefRoot") -> "RefRoot":
        out = RefRoot(self.const * other.const)
        out = out + RefRoot(0, {m: c * other.const for m, c in self.coefs.items()})
        out = out + RefRoot(0, {m: c * self.const for m, c in other.coefs.items()})
        for m1, c1 in self.coefs.items():
            for m2, c2 in other.coefs.items():
                out = out + RefRoot.sqrt(m1 * m2, c1 * c2)
        return out

    def conjugate(self, m: int) -> "RefRoot":
        """The same value with the sign of sqrt(m) flipped."""
        return RefRoot(self.const, {r: -c if r == m else c for r, c in self.coefs.items()})

    def inverse(self) -> "RefRoot":
        """1/x = (product of the other conjugates) / (product of all of them);
        the product of all conjugates is rational."""
        if len(self.coefs) > 2:
            raise ValueError("inverse of more than 2 radicands")
        conj = [self]
        for m in self.coefs:
            conj += [c.conjugate(m) for c in conj]
        num = RefRoot(1)
        for c in conj[1:]:
            num = num * c
        norm = num * self
        if norm.coefs or norm.const == 0:
            raise ZeroDivisionError("inverse of zero")
        return num.scale(1 / norm.const)

    def __eq__(self, other) -> bool:
        return self.const == other.const and self.coefs == other.coefs

    def sign(self) -> int:
        """Exact sign for at most 2 radicands, by `radical_sign` on the value
        times the lcm of its denominators."""
        items = sorted(self.coefs.items())
        if len(items) > 2:
            raise ValueError("sign of more than 2 radicands")
        den = lcm(self.const.denominator, *(c.denominator for _, c in items))
        args = [int(self.const * den), 0, 0, 0, 0]
        for i, (m, c) in enumerate(items):
            args[2 * i + 1:2 * i + 3] = int(c * den), m
        return radical_sign(*args)

    def floor(self) -> int:
        """Exact floor for at most 2 radicands: isqrt estimate, then signs."""
        f = self.const.numerator // self.const.denominator
        for m, c in self.coefs.items():
            f += (c.numerator * isqrt(c.denominator ** 2 * m)) // c.denominator ** 2 - 1
        while (self - RefRoot(f)).sign() < 0:
            f -= 1
        while (self - RefRoot(f + 1)).sign() >= 0:
            f += 1
        return f

    def to_root(self) -> RootExpr:
        """The kernel's RootExpr of this value, built term by term."""
        return raw_root(self.const, self.coefs.items())


def mu_series_brackets_fraction(h: int, N: int):
    """Fraction (lo, hi) for K = 1..8: the order-K partial sum of
    N (sqrt(1 + x) - 1) at x = h/N^2, minus and plus its remainder bound
    N |binom(1/2, K+1)| x^(K+1)."""
    binom_half = [Fraction(1, 2)]
    for k in range(1, 9):
        binom_half.append(binom_half[-1] * Fraction(2 * k - 1, 2 * k + 2))
    x = Fraction(h, N * N)
    s = Fraction(0)
    for k in range(1, 9):
        s += (-1) ** (k + 1) * binom_half[k - 1] * x ** k
        bound = binom_half[k] * x ** (k + 1) * N
        yield s * N - bound, s * N + bound
