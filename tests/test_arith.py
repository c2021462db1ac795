import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constel.arith import (
    INFINITY,
    ProjectivePointQ,
    canonicalize,
    factorize,
    is_n_powerful,
    is_prime,
    parse_multiplicity,
    powerful_numbers,
    radical,
    valuation,
)
from constel.softpoints import P1PointQ

import _oracles


def reconstruct(fac):
    n = 1
    for p, e in fac.factors:
        n *= p**e
    return n


class TestFactorize:
    def test_examples(self):
        assert factorize(72).factors == ((2, 3), (3, 2))
        assert factorize(1).factors == ()
        assert factorize(9).factors == ((3, 2),)

    def test_rejects_nonpositive(self):
        for bad in (0, -1, -72):
            with pytest.raises(ValueError):
                factorize(bad)

    def test_exhaustive_reconstruction_small(self):
        for n in range(1, 20001):
            fac = factorize(n)
            assert reconstruct(fac) == n
            primes = [p for p, _ in fac.factors]
            assert primes == sorted(set(primes))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=10**6))
    def test_reconstruction_sampled(self, n):
        assert reconstruct(factorize(n)) == n

    def test_agrees_with_sympy(self):
        import sympy

        for n in list(range(1, 2000)) + [2**31 - 1, 600851475143, 10**12 + 39]:
            assert dict(factorize(n).factors) == sympy.factorint(n)

    def test_rho_path_on_large_semiprime(self):
        p, q = 10**9 + 7, 10**9 + 9
        assert factorize(p * q).factors == ((p, 1), (q, 1))
        assert factorize(p * p).factors == ((p, 2),)

    def test_accessors(self):
        fac = factorize(720)  # 2^4 * 3^2 * 5
        assert fac.primes == (2, 3, 5)
        assert fac.exponent(3) == 2 and fac.exponent(7) == 0
        assert fac.radical() == 30
        assert fac.min_exponent() == 1
        assert factorize(72).min_exponent() == 2
        assert factorize(1).min_exponent() == INFINITY


class TestValuation:
    def test_examples(self):
        assert valuation(2, 72) == 3
        assert valuation(5, 72) == 0
        assert valuation(3, -9) == 2

    def test_rejects_zero_and_nonprime(self):
        with pytest.raises(ValueError):
            valuation(2, 0)
        with pytest.raises(ValueError):
            valuation(4, 12)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(min_value=1, max_value=10**5))
    def test_matches_factorization_exponent(self, p, n):
        assert valuation(p, n) == factorize(n).exponent(p)


class TestRadical:
    def test_examples(self):
        assert radical(72) == 6
        assert radical(1) == 1
        assert radical(30) == 30

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
    def test_multiplicative_on_coprime(self, a, b):
        if math.gcd(a, b) == 1:
            assert radical(a * b) == radical(a) * radical(b)


class TestPowerful:
    def test_examples(self):
        assert is_n_powerful(8, 2)
        assert not is_n_powerful(12, 2)
        assert is_n_powerful(1, INFINITY)
        assert is_n_powerful(-8, 2)
        assert not is_n_powerful(2, INFINITY)
        assert is_n_powerful(-17, 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            is_n_powerful(0, 2)

    def test_agrees_with_exponent_scan(self):
        mins = _oracles.min_exponent_table(3000)
        for n in range(1, 3001):
            for m in (1, 2, 3, 5, INFINITY):
                expected = True if n == 1 else (mins[n] >= m)
                assert is_n_powerful(n, m) == expected, (n, m)

    def test_powerful_numbers_against_table(self):
        for m in (2, 3, 4):
            table = _oracles.powerful_table(m, 600)
            expected = [n for n in range(1, 601) if table[n]]
            assert powerful_numbers(m, 600) == expected
        assert powerful_numbers(1, 7) == [1, 2, 3, 4, 5, 6, 7]
        assert powerful_numbers(INFINITY, 10**6) == [1]


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize((3, 9, 12)).coords == (1, 3, 4)
        assert canonicalize((-2, 4)).coords == (1, -2)
        assert canonicalize((0, 5)).coords == (0, 1)

    def test_rejects_zero_tuple(self):
        with pytest.raises(ValueError):
            canonicalize((0, 0, 0))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=4),
        st.integers(min_value=-7, max_value=7).filter(lambda k: k != 0),
    )
    def test_idempotent_and_scale_invariant(self, coords, k):
        if all(x == 0 for x in coords):
            return
        pt = canonicalize(coords)
        assert canonicalize(pt.coords) == pt
        assert canonicalize(tuple(k * x for x in coords)) == pt

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(min_value=-60, max_value=60), min_size=1, max_size=4),
        st.tuples(st.integers(min_value=-60, max_value=60), st.integers(min_value=-60, max_value=60)),
    )
    def test_one_normalization(self, coords, pair):
        # ProjectivePointQ accepts exactly the canonical tuples, and P1PointQ(a, c)
        # reduces (c, a) by the same rule
        cs = tuple(coords)
        if any(cs):
            if canonicalize(cs).coords == cs:
                assert ProjectivePointQ(cs).coords == cs
            else:
                with pytest.raises(ValueError):
                    ProjectivePointQ(cs)
        c, a = pair
        if any(pair):
            point = P1PointQ(a, c)
            assert (point.c, point.a) == canonicalize((c, a)).coords


def test_is_prime_matches_sympy():
    import sympy

    for n in range(0, 2000):
        assert is_prime(n) == sympy.isprime(n)
    for n in (2**61 - 1, 2**61 + 15, 10**12 + 39):
        assert is_prime(n) == sympy.isprime(n)


class TestParseMultiplicity:
    def test_tokens(self):
        assert parse_multiplicity(" inf ") == INFINITY
        assert parse_multiplicity("7") == 7
        for bad in ("0", "-2", "x", "", "2.5", "infinity"):
            with pytest.raises(ValueError):
                parse_multiplicity(bad)
