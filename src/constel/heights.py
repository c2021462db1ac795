"""Heights over the rationals, counting functions for coordinate-form
divisors, abc quality and the Vojta-style gap on the line x + y + z = 0.

With primitive integer coordinates the finite places contribute nothing to
the naive height, so H is just the maximum absolute coordinate and all the
analytic content lives in the prime-counting sums, which are computed from
exact factorizations.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import islice
from math import gcd, isqrt

from ._pool import fork_starmap, pool_size
from .arith import ProjectivePointQ, factorize, radical
from .errors import MathDomainError, PointOnBoundaryError, ResourceLimitError, UnsupportedFieldError

# largest scan window: the radical sieve holds about 16 bytes per n at its
# peak (the 64-bit table plus the transient factor sieve), so 1.6 GB here
MAX_SIEVE_LIMIT = 10**8


@dataclass(frozen=True)
class Form:
    """Homogeneous integer form in nvars variables, content 1, stored as
    sorted (exponent tuple, coefficient) terms."""

    nvars: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        merged: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms:
            e = tuple(int(x) for x in exps)
            if len(e) != self.nvars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {e} for {self.nvars} variables")
            merged[e] = merged.get(e, 0) + int(coeff)
        terms = tuple(sorted((e, c) for e, c in merged.items() if c != 0))
        if not terms:
            raise ValueError("the zero form is not allowed")
        degrees = {sum(e) for e, _ in terms}
        if len(degrees) != 1:
            raise ValueError(f"form is not homogeneous: degrees {sorted(degrees)}")
        content = 0
        for _, c in terms:
            content = gcd(content, c)
        if content != 1:
            raise ValueError(f"form has content {content} != 1")
        object.__setattr__(self, "terms", terms)

    @property
    def degree(self) -> int:
        return sum(self.terms[0][0])

    @classmethod
    def coordinate(cls, index: int, nvars: int) -> "Form":
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, ((exps, 1),))

    def evaluate(self, coords) -> int:
        coords = tuple(int(x) for x in coords)
        if len(coords) != self.nvars:
            raise ValueError("wrong number of coordinates")
        total = 0
        for exps, coeff in self.terms:
            t = coeff
            for x, e in zip(coords, exps):
                t *= x**e
            total += t
        return total


@dataclass(frozen=True)
class FormDivisor:
    """Divisor cut out by a product of irreducible coordinate-space forms."""

    forms: tuple[Form, ...]

    def __post_init__(self):
        if not self.forms:
            raise ValueError("divisor needs at least one form")
        if len({f.nvars for f in self.forms}) != 1:
            raise ValueError("forms live in different coordinate spaces")

    @classmethod
    def coordinate_axes(cls, nvars: int) -> "FormDivisor":
        return cls(tuple(Form.coordinate(i, nvars) for i in range(nvars)))


@dataclass(frozen=True)
class HeightReport:
    H: int
    h: float


@dataclass(frozen=True)
class CountingReport:
    N: float
    N_trunc: float
    per_prime: tuple[tuple[int, int], ...]


def naive_height(point: ProjectivePointQ) -> HeightReport:
    """H = max |x_i| on primitive coordinates, h = log H."""
    h = max(abs(x) for x in point.coords)
    return HeightReport(h, math.log(h))


def counting_function(divisor: FormDivisor, point: ProjectivePointQ, excluded=frozenset()) -> CountingReport:
    """Prime-weighted intersection tally of the point with the divisor.

    The multiplicity at p sums the valuations of every form value; the
    truncated variant counts each prime once.  Primes in the excluded set
    contribute nothing.  Points on the divisor are rejected."""
    excluded = frozenset(excluded)
    values = []
    for f in divisor.forms:
        v = f.evaluate(point.coords)
        if v == 0:
            raise PointOnBoundaryError(f"{point} lies on the divisor")
        values.append(abs(v))
    mults: dict[int, int] = {}
    for v in values:
        for p, e in factorize(v).factors:
            if p not in excluded:
                mults[p] = mults.get(p, 0) + e
    per_prime = tuple(sorted(mults.items()))
    n = sum(e * math.log(p) for p, e in per_prime)
    n_trunc = sum(math.log(p) for p, _ in per_prime)
    return CountingReport(n, n_trunc, per_prime)


@dataclass(frozen=True)
class AbcTriple:
    """Coprime positive integers with a + b = c."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        if min(a, b, c) < 1:
            raise ValueError("triple entries must be positive")
        if a + b != c:
            raise ValueError(f"{a} + {b} != {c}")
        if gcd(a, b) != 1:
            raise ValueError(f"gcd({a}, {b}) != 1: triple is not coprime")

    @cached_property
    def factorizations(self):
        return (factorize(self.a), factorize(self.b), factorize(self.c))

    @cached_property
    def radical_product(self) -> int:
        fa, fb, fc = self.factorizations
        return fa.radical() * fb.radical() * fc.radical()

    @property
    def quality(self) -> float:
        return math.log(self.c) / math.log(self.radical_product)


def abc_quality(triple: AbcTriple) -> float:
    """log c / log rad(abc); above 1 exactly when c beats its radical."""
    return triple.quality


def log_discriminant_term(field_tag: str) -> float:
    """Relative logarithmic discriminant of the field of definition over the
    rationals.  Only the rationals themselves are supported, where it is 0."""
    if field_tag in ("Q", "ℚ"):
        return 0.0
    raise UnsupportedFieldError(f"unsupported field {field_tag!r}; only Q is implemented")


def vojta_gap(point: ProjectivePointQ, eps_prime: float) -> float:
    """(1 - eps') * h(P) - N1(D, P) for a point on the line x + y + z = 0,
    with D the coordinate-axes divisor and no excluded finite primes.
    Points with a zero coordinate sit on D and are rejected."""
    if not 0 < eps_prime < 1:
        raise ValueError("eps_prime must lie in (0, 1)")
    coords = point.coords
    if len(coords) != 3:
        raise MathDomainError("expected a point of the projective plane")
    if sum(coords) != 0:
        raise MathDomainError(f"{point} is not on the line x + y + z = 0")
    if any(x == 0 for x in coords):
        raise PointOnBoundaryError(f"{point} is degenerate: a coordinate vanishes")
    report = counting_function(FormDivisor.coordinate_axes(3), point)
    return (1 - eps_prime) * naive_height(point).h - report.N_trunc


def _rad_table(limit: int) -> array:
    """Radicals of 0..limit via a smallest-prime-factor sieve, in a 64-bit
    array (8 bytes an entry; every value fits, and products taken from it
    are Python ints).  Limits above MAX_SIEVE_LIMIT are refused before
    anything is allocated."""
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceLimitError(
            f"a scan up to {limit} needs about {16 * limit // 10**6} MB of radical tables; "
            f"the cap is {MAX_SIEVE_LIMIT}"
        )
    spf = array("q", range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    rad = array("q", [1]) * (limit + 1)
    for n in range(2, limit + 1):
        p = spf[n]
        m = n // p
        rad[n] = rad[m] if m % p == 0 else rad[m] * p
    return rad


class _RadicalIndex:
    """The radicals of 0..limit, and the n in 1..limit ordered by (rad n, n).

    The order holds every n whose radical is at most `cap`: isqrt(limit)
    up front, which covers every abc scan at quality >= 1; a request past
    the cap extends it, at least doubling, with one pass over the table."""

    def __init__(self, limit: int):
        self.rad = _rad_table(limit)
        self.cap = 0
        self.order: list[int] = []
        self.keys: list[int] = []  # the radical of each entry of order
        self.count_upto(isqrt(limit))

    def count_upto(self, s: int) -> int:
        """Length of the prefix of `order` whose radicals are at most s."""
        if s > self.cap:
            rad, lo = self.rad, self.cap
            hi = min(max(s, 2 * lo), len(rad) - 1)
            new = sorted((n for n in range(1, len(rad)) if lo < rad[n] <= hi), key=rad.__getitem__)
            self.order += new
            self.keys += map(rad.__getitem__, new)
            self.cap = hi
        return bisect_right(self.keys, s)


# log cutoffs from here up scan every a: exp would overflow, and the cutoff
# passes c^3 > rad(abc) for every c a table can hold
_LOG_FULL_SCAN = 700.0


def _pruned_triples(index: _RadicalIndex, lo: int, hi: int, log_bound):
    """The coprime triples a + b = c, a <= b, lo <= c <= hi, that can have
    rad(abc) <= B(c) = exp(log_bound(c)) * (1 + 1e-9) + 2.

    Yields (c, increasing a's) for each c with candidates.  A coprime pair
    has rad(abc) = rad(a) rad(b) rad(c), so it qualifies exactly when
    rad(a) rad(b) <= T = floor(B / rad c), and then min(rad a, rad b) <=
    sqrt(T) (Browkin & Brzezinski, Math. Comp. 62, 1994): only the x < c
    with rad(x) <= sqrt(T) are visited, as a = min(x, c - x).  The floats
    only size B; the test on rad(a) rad(b) is exact.  log_bound(c) is
    called as c is reached, after the previous c's triples were consumed;
    +inf asks for every coprime a."""
    rad = index.rad
    for c in range(lo, hi + 1):
        rc = rad[c]
        log_b = log_bound(c)
        if log_b < _LOG_FULL_SCAN:
            t = int(math.exp(log_b) * (1 + 1e-9) + 2) // rc
            if not t:
                continue
            s = min(isqrt(t), c - 1)
        else:
            t, s = math.inf, c - 1
        k = index.count_upto(s)
        xs = {
            x if 2 * x <= c else c - x
            for x in islice(index.order, k)
            if x < c and rad[x] * rad[c - x] <= t
        }
        if xs:
            yield c, [a for a in sorted(xs) if gcd(a, c) == 1]


@dataclass(frozen=True)
class GapEvent:
    a: int
    b: int
    c: int
    gap: float


def scan_vojta_gap(eps_prime: float, max_c: int) -> list[GapEvent]:
    """Running-maximum trace of the gap over 0 < a < b, c = a + b <= max_c,
    scanned in (c, a) order.  The last event carries the empirical O(1)
    constant for the window.

    An a can raise the running best only when rad(abc) is below
    exp((1 - eps') log c - best), so each c visits just the radical-pruned
    candidates for that bound (see _pruned_triples).  The event test is
    still the float comparison g > best, so the trace equals that of the
    full quadratic scan."""
    if not 0 < eps_prime < 1:
        raise MathDomainError("eps_prime must lie in (0, 1)")
    if max_c < 2:
        raise MathDomainError("max_c must be at least 2")
    index = _RadicalIndex(max_c)
    rad = index.rad
    events: list[GapEvent] = []
    best = -math.inf

    def log_bound(c: int) -> float:
        return (1 - eps_prime) * math.log(c) - best

    # c = 2 has only a = b = 1
    for c, candidates in _pruned_triples(index, 3, max_c, log_bound):
        hc = (1 - eps_prime) * math.log(c)
        for a in candidates:
            g = hc - math.log(rad[a] * rad[c - a] * rad[c])
            if g > best:
                best = g
                events.append(GapEvent(a, c - a, c, g))
    return events


@dataclass(frozen=True)
class AbcHit:
    a: int
    b: int
    c: int
    rad: int
    quality: float


def _quality_at_least(c: int, radprod: int, threshold: Fraction) -> bool:
    # log c / log radprod >= p/q  <=>  c^q >= radprod^p, exactly
    return c**threshold.denominator >= radprod**threshold.numerator


def _scan_abc_chunk(index: _RadicalIndex, lo: int, hi: int, min_quality: Fraction) -> list[AbcHit]:
    """The hits of scan_abc with lo <= c <= hi, unsorted; index covers hi."""
    rad = index.rad
    exponent = 1.0 / float(min_quality)
    hits: list[AbcHit] = []
    for c, candidates in _pruned_triples(index, max(lo, 2), hi, lambda c: exponent * math.log(c)):
        for a in candidates:
            rp = rad[a] * rad[c - a] * rad[c]
            if _quality_at_least(c, rp, min_quality):
                hits.append(AbcHit(a, c - a, c, rp, math.log(c) / math.log(rp)))
    return hits


def scan_abc(max_c: int, min_quality: Fraction, workers: int = 1) -> list[AbcHit]:
    """All coprime triples a + b = c <= max_c, a <= b, whose quality reaches
    min_quality, sorted by quality descending (ties by c then a).

    Each c visits only the a whose triple can have rad(abc) <= c^(1/q),
    found through the radical index (see _pruned_triples); floats only size
    that search.  The threshold test is exact -- c^q >= rad^p for
    min_quality = p/q -- so the result is independent of floating-point
    behavior; the float quality in each hit is for display.  With workers,
    the c-range is cut into equal lengths, one per process (at most one per
    usable CPU), and worker counts never change the output."""
    if max_c < 2:
        raise MathDomainError("max_c must be at least 2")
    min_quality = Fraction(min_quality)
    if min_quality <= 0:
        raise MathDomainError("min_quality must be positive")
    index = _RadicalIndex(max_c)
    w = pool_size(workers, max_c // 8)
    if w > 1:
        # the workers inherit the index through the fork
        edges = [2 + (max_c - 1) * i // w for i in range(w + 1)]
        spans = [(edges[i], edges[i + 1] - 1, min_quality) for i in range(w)]
        parts = fork_starmap(partial(_scan_abc_chunk, index), spans)
        hits = [h for part in parts for h in part]
    else:
        hits = _scan_abc_chunk(index, 2, max_c, min_quality)
    hits.sort(key=lambda h: (-h.quality, h.c, h.a))
    return hits
