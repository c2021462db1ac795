"""Exact integer arithmetic: factorization, p-adic valuations, radicals,
powerful-number tests and primitive projective coordinates.

Everything here is deterministic and allocation-light; values are immutable
and every function is pure, so concurrent use needs no coordination.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from itertools import repeat
from math import gcd, isqrt

from .errors import MathDomainError, ResourceLimitError

INFINITY = math.inf  # multiplicity of a reduced boundary mark; sorts above every int

DEFAULT_RHO_THRESHOLD = 10**8

# longest radical sieve: it holds about 12 bytes per n at its peak (the
# 64-bit table plus the transient slice of the multiples of 4 and its
# quotients), so 1.2 GB here
MAX_SIEVE_LIMIT = 10**8

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Miller-Rabin with the first 13 primes as bases is exact below psi_13, the
# least strong pseudoprime to all of them; psi_12 = 318665857834031151167461
# fools the first 12 (Sorenson & Webster, Math. Comp. 86, 2017)
_MR_BASES = _SMALL_PRIMES + (41,)
PRIMALITY_LIMIT = 3317044064679887385961981  # psi_13

# increments of the mod-30 wheel starting at 41 (residues 11,13,17,19,23,29,1,7)
_MOD30_STEPS = (2, 4, 2, 4, 6, 2, 6, 4)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the bases 2..41, exact below
    PRIMALITY_LIMIT (about 3.3e24).  A larger n that some base proves
    composite gives False; one that passes every base is refused with
    ResourceLimitError, since no proof of its primality is on hand."""
    n = _as_int(n)
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    # with no prime factor up to 37, n < 41^2 is prime; this also keeps
    # n = 41 away from its own base
    if n < 41 * 41:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PRIMALITY_LIMIT:
        raise ResourceLimitError(
            f"{n} passes Miller-Rabin to the bases 2..41, which proves primality "
            f"only below {PRIMALITY_LIMIT}"
        )
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a plain sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i in range(2, n + 1) if sieve[i]]


def _brent_rho(n: int) -> int:
    """Brent's cycle variant of Pollard rho with a deterministic parameter
    sweep.  n must be composite, odd and not a perfect power of a small prime
    (callers strip those first)."""
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


@dataclass(frozen=True)
class Factorization:
    """Prime factorization value = prod p^e, primes strictly increasing."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def radical(self) -> int:
        r = 1
        for p, _ in self.factors:
            r *= p
        return r

    def min_exponent(self) -> float:
        """Smallest prime exponent; +inf for the empty factorization of 1."""
        return min((e for _, e in self.factors), default=INFINITY)


def factorize(n: int) -> Factorization:
    """Factor a positive integer by trial division, handing cofactors larger
    than DEFAULT_RHO_THRESHOLD to Brent-rho.  factorize(1) has an empty
    factor list.

    >>> factorize(72).factors
    ((2, 3), (3, 2))
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"factorize requires a positive integer, got {n!r}")
    acc: dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        while m % p == 0:
            acc[p] = acc.get(p, 0) + 1
            m //= p
    if m > 1:
        _factor_tail(m, acc)
    return Factorization(n, tuple(sorted(acc.items())))


def _factor_tail(m: int, acc: dict[int, int]) -> None:
    # every m stacked is > 1 with no prime factor <= 37: rho splits properly
    stack = [m]
    while stack:
        m = stack.pop()
        if is_prime(m):
            acc[m] = acc.get(m, 0) + 1
            continue
        if m > DEFAULT_RHO_THRESHOLD:
            d = _brent_rho(m)
            stack.append(d)
            stack.append(m // d)
            continue
        f, i = 41, 0
        while f * f <= m:
            if m % f == 0:
                acc[f] = acc.get(f, 0) + 1
                m //= f
            else:
                f += _MOD30_STEPS[i]
                i = (i + 1) & 7
        if m > 1:
            acc[m] = acc.get(m, 0) + 1


def valuation(p: int, n: int) -> int:
    """Exponent of the prime p in n; n must be nonzero (the valuation of 0
    is infinite and rejected)."""
    p, n = _as_int(p), _as_int(n)
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def radical(n: int) -> int:
    """Product of the distinct primes dividing n; radical(1) = 1."""
    return factorize(n).radical()


def _rad_table(limit: int) -> array:
    """Radicals of 0..limit in a 64-bit array (8 bytes an entry; every
    value fits, and products taken from it are Python ints), with rad 0
    taken as 1.  Since rad n = n / prod p^(v_p(n) - 1), the table starts
    as n and every p^k <= limit with k >= 2 divides its multiples by p
    once.  Limits above MAX_SIEVE_LIMIT are refused before anything is
    allocated.

    >>> list(_rad_table(12))
    [1, 1, 2, 3, 2, 5, 6, 7, 2, 3, 10, 11, 6]
    """
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceLimitError(
            f"a scan up to {limit} needs about {12 * limit // 10**6} MB of radical tables; "
            f"the cap is {MAX_SIEVE_LIMIT}"
        )
    # the exact size up front, filled from lists of 4096 entries:
    # array("q", range(...)) appends item by item and over-allocates, and
    # one list of every entry would add about 36 bytes an entry to the peak
    rad = array("q", [0]) * (limit + 1)
    for lo in range(0, limit + 1, 4096):
        hi = min(lo + 4096, limit + 1)
        rad[lo:hi] = array("q", list(range(lo, hi)))
    rad[0] = 1
    for p in primes_up_to(isqrt(limit)):
        q = p * p
        while q <= limit:
            rad[q::q] = array("q", map(operator.floordiv, rad[q::q], repeat(p)))
            q *= p
    return rad


# The wheel of the pair and triple scans: a value can only be prime to n if
# it is prime to gcd(n, WHEEL), so a scan keeps its values split by the
# divisors k of WHEEL and reads the class gcd(n, WHEEL).  Pairs that share
# a factor 2 or 3 are then never visited.
WHEEL = 6


def _wheel_classes(values):
    """(k, the values prime to k, in their order) for each k dividing WHEEL,
    from a sequence of values.

    >>> dict(_wheel_classes([1, 2, 3, 4, 5, 6, 7]))
    {1: [1, 2, 3, 4, 5, 6, 7], 2: [1, 3, 5, 7], 3: [1, 2, 4, 5, 7], 6: [1, 5, 7]}
    """
    for k in range(1, WHEEL + 1):
        if WHEEL % k == 0:
            yield k, [v for v in values if gcd(v, k) == 1]


def check_multiplicity(m, minimum: int = 1):
    """Validate a multiplicity: an integer >= minimum, or INFINITY."""
    if m == INFINITY:
        return m
    if isinstance(m, int) and not isinstance(m, bool) and m >= minimum:
        return m
    raise ValueError(f"multiplicity must be an integer >= {minimum} or infinite, got {m!r}")


def parse_multiplicity(text: str):
    """Read a multiplicity written as `inf` or as an integer >= 1."""
    t = text.strip()
    return INFINITY if t == "inf" else check_multiplicity(int(t))


def is_n_powerful(n: int, m) -> bool:
    """True iff every prime exponent of |n| is >= m.  Units pass vacuously,
    m = 1 accepts everything, and m = INFINITY accepts only |n| = 1."""
    check_multiplicity(m)
    if n == 0:
        raise ValueError("0 is on the boundary of every powerful test")
    n = abs(n)
    if n == 1 or m == 1:
        return True
    if m == INFINITY:
        return False
    return all(e >= m for _, e in factorize(n).factors)


def _as_int(x) -> int:
    """x as a plain int.  Integer types pass (bool and numpy integers
    included, as int() let them); floats, Fractions and strings raise
    instead of being truncated or parsed."""
    try:
        return operator.index(x)
    except TypeError:
        raise MathDomainError(f"expected an integer, got {x!r}") from None


def _primitive(cs: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive representative of the projective class of cs: divided
    by the gcd of its entries, first nonzero entry positive."""
    g = gcd(*cs)
    if g == 0:
        raise ValueError(f"{cs} defines no projective point")
    for x in cs:
        if x:
            if x < 0:
                g = -g
            break
    return cs if g == 1 else tuple([x // g for x in cs])


@dataclass(frozen=True)
class ProjectivePointQ:
    """Primitive integer coordinates of a rational projective point: gcd 1,
    first nonzero coordinate positive.  Build via canonicalize()."""

    coords: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(map(_as_int, self.coords))
        object.__setattr__(self, "coords", cs)
        if _primitive(cs) != cs:
            raise ValueError(f"coordinates {cs} are not primitive and sign-normalized")

    def __str__(self):
        return "(" + ":".join(str(x) for x in self.coords) + ")"


def canonicalize(coords) -> ProjectivePointQ:
    """Primitive representative of the projective class of an integer tuple.

    >>> canonicalize((3, 9, 12)).coords
    (1, 3, 4)
    """
    return ProjectivePointQ(_primitive(tuple(map(_as_int, coords))))


def powerful_numbers(m, limit: int) -> list[int]:
    """Sorted list of the m-powerful integers in [1, limit]."""
    check_multiplicity(m)
    limit = _as_int(limit)
    if m == 1:
        return list(range(1, limit + 1))
    return sorted(_powerful_radicals(m, limit))


def _powerful_radicals(m, limit: int) -> dict[int, int]:
    """{n: rad n} for the m-powerful n in [1, limit], for m >= 2 or
    INFINITY.  Each n is built as a product of prime powers p^e, e >= m,
    over increasing primes, so its radical comes with it."""
    if limit < 1:
        return {}
    if m == INFINITY:
        return {1: 1}
    root = int(round(limit ** (1.0 / m)))
    while root**m > limit:
        root -= 1
    while (root + 1) ** m <= limit:
        root += 1
    ps = primes_up_to(root)
    out = {1: 1}

    def explore(i: int, v: int, r: int) -> None:
        for j in range(i, len(ps)):
            p = ps[j]
            w = v * p**m
            if w > limit:
                break
            rp = r * p
            while w <= limit:
                out[w] = rp
                explore(j + 1, w, rp)
                w *= p

    explore(0, 1, 1)
    return out
