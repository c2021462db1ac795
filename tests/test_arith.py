import math
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constel.arith import (
    INFINITY,
    PRIMALITY_LIMIT,
    ProjectivePointQ,
    _as_int,
    _powerful_radicals,
    _rad_table,
    canonicalize,
    factorize,
    is_n_powerful,
    is_prime,
    parse_multiplicity,
    powerful_numbers,
    radical,
    valuation,
)
from constel.curves import MultiplicityProfile, minimal_general_type_profiles, parse_profile, profile_text
from constel.errors import MathDomainError, ResourceLimitError
from constel.firmaments import (
    ExponentMap,
    Firmament,
    ReductionDatum,
    face_restriction,
    from_text,
    supported_constellation,
    to_text,
)
from constel.heights import AbcTriple, Form
from constel.monoids import LatticeMonoid, min_multiple, monoid, ray_restriction
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


def spf_radicals(limit):
    """rad 0..limit from the oracle's smallest-prime-factor table, rad 0 = 1."""
    spf = _oracles.spf_table(limit)
    return [1] + [math.prod(_oracles.factor_by_sieve(n, spf)) for n in range(1, limit + 1)]


class TestRadTable:
    def test_matches_spf_oracle_up_to_300(self):
        expected = spf_radicals(300)
        for n in range(301):
            assert list(_rad_table(n)) == expected[: n + 1]

    def test_matches_spf_oracle_across_the_fill_chunks(self):
        # the table is filled 4096 entries at a time
        expected = array("q", spf_radicals(8193))
        for n in [*range(5001), 8191, 8192, 8193]:
            table = _rad_table(n)
            assert len(table) == n + 1
            assert table == expected[: n + 1], n

    def test_matches_spf_oracle_at_1e5(self):
        assert list(_rad_table(10**5)) == spf_radicals(10**5)

    def test_layout(self):
        table = _rad_table(50)
        assert table.typecode == "q"
        assert table[0] == 1


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

    @pytest.mark.parametrize("m", [1, 2, INFINITY])
    @pytest.mark.parametrize("limit", [50.5, 50.0])
    def test_powerful_numbers_refuse_a_float_limit(self, m, limit):
        with pytest.raises(MathDomainError):
            powerful_numbers(m, limit)

    def test_radicals_come_with_the_numbers(self):
        for m in (2, 3, 4):
            rads = _powerful_radicals(m, 5000)
            assert sorted(rads) == powerful_numbers(m, 5000)
            assert all(r == radical(n) for n, r in rads.items())
        assert _powerful_radicals(INFINITY, 10**6) == {1: 1}
        assert _powerful_radicals(2, 0) == {}


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


def test_is_prime_past_the_twelve_base_pseudoprime():
    # psi_12, the least strong pseudoprime to the bases 2..37, is caught by
    # base 41; psi_13 passes 2..41 too, and no proof covers it
    psi12 = 318665857834031151167461
    assert not is_prime(psi12)
    assert factorize(psi12).factors == ((399165290221, 1), (798330580441, 1))
    with pytest.raises(ResourceLimitError):
        is_prime(PRIMALITY_LIMIT)
    assert not is_prime(PRIMALITY_LIMIT + 1)  # even: trial division decides
    assert not is_prime(PRIMALITY_LIMIT * 43)  # some base finds it composite


class TestParseMultiplicity:
    def test_tokens(self):
        assert parse_multiplicity(" inf ") == INFINITY
        assert parse_multiplicity("7") == 7
        for bad in ("0", "-2", "x", "", "2.5", "infinity"):
            with pytest.raises(ValueError):
                parse_multiplicity(bad)


class TestIntegersOnly:
    def test_as_int(self):
        assert _as_int(7) == 7 and type(_as_int(True)) is int
        for bad in (1.5, 2.0, Fraction(1, 2), Fraction(4, 2), "3", None):
            with pytest.raises(MathDomainError):
                _as_int(bad)

    def test_constructors_refuse_non_integers(self):
        # each of these used to truncate through int()
        refused = [
            lambda: canonicalize((1.5, 2)),
            lambda: ProjectivePointQ((1.0, 2)),
            lambda: P1PointQ(2.9, 4),
            lambda: LatticeMonoid(1, ((1.5,),)),
            lambda: monoid(2, 3).member((2.5,)),
            lambda: ExponentMap(((1.5, 1),)),
            lambda: ReductionDatum(2, (0.5,)),
            lambda: min_multiple([monoid((2, 0), (0, 3), (1, 1))], (1.5, 1.5)),
            lambda: ray_restriction([monoid(2, 3)], (1.5,), 4),
            lambda: ray_restriction([monoid(2, 3)], (1,), 2.5),
            lambda: minimal_general_type_profiles(4, 7.5),
            lambda: supported_constellation(Firmament(1, (monoid(2, 3),)), [(1.5,)]),
            lambda: Form(2, (((1.9, 0), 1), ((0, 1), 1.7))),
            lambda: Form.coordinate(0, 2).evaluate((2.5, 1)),
        ]
        for build in refused:
            with pytest.raises(MathDomainError):
                build()
        assert canonicalize((2, 4)).coords == (1, 2)
        assert (P1PointQ(4, 6).a, P1PointQ(4, 6).c) == (2, 3)
        assert monoid(2, 3).member((5,))

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: Firmament(n, (monoid(2, 3),)),
            lambda n: MultiplicityProfile(n),
            lambda n: LatticeMonoid(n, ((2,), (3,))),
            lambda n: Form(n, (((1,), 1),)),
            lambda n: Form.coordinate(0, n),
            lambda n: face_restriction(Firmament(2, (monoid((1, 0), (0, 1)),)), (n,)),
        ],
        ids=["Firmament", "MultiplicityProfile", "LatticeMonoid", "Form", "Form.coordinate", "face_restriction"],
    )
    def test_integer_fields_are_stored_as_ints(self, build):
        # a bool is kept as its int, as _as_int documents; a float is refused
        assert repr(build(True)) == repr(build(1))
        with pytest.raises(MathDomainError):
            build(1.0)

    @pytest.mark.parametrize(
        "refused, with_bool, expected",
        [
            ([lambda: is_prime(7.0)], lambda: is_prime(True), False),
            ([lambda: valuation(2.0, 8), lambda: valuation(2, 8.5)], lambda: valuation(2, True), 0),
            (
                [lambda: AbcTriple(1.0, 8, 9), lambda: AbcTriple(1, 8.0, 9), lambda: AbcTriple(1, 8, 9.0)],
                lambda: AbcTriple(True, 8, 9).radical_product,
                6,
            ),
        ],
        ids=["is_prime", "valuation", "AbcTriple"],
    )
    def test_integer_arguments_go_through_as_int(self, refused, with_bool, expected):
        # a float used to be taken (is_prime(7.0) was True) or to fail later
        for call in refused:
            with pytest.raises(MathDomainError):
                call()
        assert with_bool() == expected

    def test_bool_fields_round_trip_through_text(self):
        firm = Firmament(True, (monoid(2, 3),))
        assert to_text(firm).startswith("dim 1\n") and from_text(to_text(firm)) == firm
        profile = MultiplicityProfile(True)
        assert profile_text(profile) == "g=1;m=" and parse_profile(profile_text(profile)) == profile
