import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constel.arith import INFINITY
from constel.curves import (
    Kappa,
    MultiplicityProfile,
    Prediction,
    arithmetic_prediction,
    classify,
    constellation_degree,
    curve_iitaka_dimension,
    delta_from_fibers,
    is_classical,
    minimal_general_type_profiles,
    parse_profile,
    profile_text,
)
from constel.errors import ParseError

P = MultiplicityProfile.of

mult_strategy = st.one_of(st.integers(min_value=1, max_value=30), st.just(INFINITY))


class TestDegree:
    def test_examples(self):
        assert constellation_degree(P(0, (2, 3, 7))) == Fraction(1, 42)
        assert constellation_degree(P(0, (2, 3, 6))) == 0
        assert constellation_degree(P(1, ())) == 0

    def test_boundary_faces(self):
        # all-1 marks reduce to the closed-curve degree, all-infinite marks
        # to the punctured-curve degree
        for g in range(4):
            for n in range(4):
                assert constellation_degree(P(g, (1,) * n)) == 2 * g - 2
                assert constellation_degree(P(g, (INFINITY,) * n)) == 2 * g - 2 + n

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=3),
        st.lists(mult_strategy, max_size=5),
        st.data(),
    )
    def test_monotone_in_marks(self, genus, mults, data):
        base = constellation_degree(P(genus, mults))
        assert constellation_degree(P(genus, mults + [2])) > base
        if mults:
            i = data.draw(st.integers(min_value=0, max_value=len(mults) - 1))
            bumped = list(mults)
            bumped[i] = INFINITY if bumped[i] == INFINITY else bumped[i] + 1
            assert constellation_degree(P(genus, bumped)) >= base


class TestClassify:
    def test_examples(self):
        cls = classify(P(2, ()))
        assert cls.general_type and cls.degree == 2 and cls.kappa == Kappa.ONE
        cls = classify(P(0, (2, 2, 2, 2)))
        assert not cls.general_type and cls.kappa == Kappa.ZERO
        cls = classify(P(0, (INFINITY, INFINITY)))
        assert cls.kappa == Kappa.ZERO and cls.degree == 0

    def test_sign_agreement_random(self):
        rng = random.Random(11)
        for _ in range(10**4):
            genus = rng.randrange(0, 4)
            mults = [
                rng.choice((1, 2, 3, 4, 5, 7, 12, INFINITY)) for _ in range(rng.randrange(0, 5))
            ]
            cls = classify(P(genus, mults))
            deg = constellation_degree(P(genus, mults))
            assert cls.degree == deg
            assert cls.general_type == (deg > 0)
            expected = Kappa.ONE if deg > 0 else (Kappa.ZERO if deg == 0 else Kappa.NEGATIVE)
            assert cls.kappa == expected

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            MultiplicityProfile(-1, ())
        with pytest.raises(ValueError):
            MultiplicityProfile(0, (("p", 0),))
        with pytest.raises(ValueError):
            MultiplicityProfile(0, (("p", 2), ("p", 3)))


class TestDeltaFromFibers:
    def test_examples(self):
        assert delta_from_fibers([("0", [2, 3])]) == (("0", 2),)
        assert delta_from_fibers([("0", [2, 1])]) == (("0", 1),)
        assert delta_from_fibers([("0", [3, 4])]) == (("0", 3),)

    def test_errors(self):
        with pytest.raises(ValueError):
            delta_from_fibers([("0", [])])
        with pytest.raises(ValueError):
            delta_from_fibers([("0", [0, 2])])
        with pytest.raises(ValueError):
            delta_from_fibers([("0", [True])])


class TestMinimalProfiles:
    def test_reference_bounds(self):
        got = minimal_general_type_profiles(5, 7)
        assert got == [(2, 2, 2, 2, 2), (2, 2, 2, 3), (2, 3, 7), (2, 4, 5), (3, 3, 4)]
        degrees = [constellation_degree(P(0, t)) for t in got]
        assert degrees == [
            Fraction(1, 2),
            Fraction(1, 6),
            Fraction(1, 42),
            Fraction(1, 20),
            Fraction(1, 12),
        ]

    def test_tight_bounds(self):
        # with at most 3 marks of multiplicity <= 6, the two triples that
        # need neither a 7 nor a fourth mark survive
        assert minimal_general_type_profiles(3, 6) == [(2, 4, 5), (3, 3, 4)]

    def test_stable_under_larger_bounds(self):
        assert minimal_general_type_profiles(5, 100) == minimal_general_type_profiles(5, 7)
        assert minimal_general_type_profiles(10**6, 10**9) == minimal_general_type_profiles(5, 7)

    def test_general_type_and_weakenings_special(self):
        for mults in minimal_general_type_profiles(5, 12):
            assert classify(P(0, mults)).general_type
            for i, m in enumerate(mults):
                weakened = list(mults)
                if m == 2:
                    weakened.pop(i)
                else:
                    weakened[i] = m - 1
                assert not classify(P(0, weakened)).general_type, (mults, i)

    @pytest.mark.parametrize("max_marks, max_mult", [(4, 8), (6, 12)])
    def test_matches_direct_filter(self, max_marks, max_mult):
        # independent enumeration: every multiset over [2, max_mult] with at
        # most max_marks marks, filtered by the definition directly
        import itertools

        expected = []
        for k in range(1, max_marks + 1):
            for mults in itertools.combinations_with_replacement(range(2, max_mult + 1), k):
                deg = constellation_degree(P(0, mults))
                if deg <= 0:
                    continue
                minimal = True
                for i, m in enumerate(mults):
                    weakened = list(mults)
                    if m == 2:
                        weakened.pop(i)
                    else:
                        weakened[i] = m - 1
                    if constellation_degree(P(0, weakened)) > 0:
                        minimal = False
                        break
                if minimal:
                    expected.append(mults)
        assert minimal_general_type_profiles(max_marks, max_mult) == sorted(expected)


class TestIitaka:
    def test_examples(self):
        assert curve_iitaka_dimension(3, False) == Kappa.ONE
        assert curve_iitaka_dimension(0, True) == Kappa.ZERO
        assert curve_iitaka_dimension(-1, False) == Kappa.NEGATIVE
        assert curve_iitaka_dimension(0, False) == Kappa.NEGATIVE

    def test_inconsistent_flags(self):
        with pytest.raises(ValueError):
            curve_iitaka_dimension(3, True)


class TestPrediction:
    def test_examples(self):
        assert arithmetic_prediction(P(0, ())) == Prediction.POTENTIALLY_DENSE
        assert arithmetic_prediction(P(0, (INFINITY,) * 3)) == Prediction.CONJECTURALLY_NOT_DENSE
        assert arithmetic_prediction(P(0, (2, 2, 2))) == Prediction.POTENTIALLY_DENSE

    def test_classical_flag(self):
        assert is_classical(P(1, ()))
        assert is_classical(P(0, (INFINITY, 1)))
        assert not is_classical(P(0, (2, 3, 7)))


class TestParsing:
    def test_round_trips(self):
        for text in ("g=0;m=2,3,7", "g=1;m=", "g=1;m=inf", "g=2;m=2,inf,9"):
            assert profile_text(parse_profile(text)) == text

    def test_errors_carry_position(self):
        with pytest.raises(ParseError, match="position 2"):
            parse_profile("g=x;m=2")
        with pytest.raises(ParseError, match="position 4"):
            parse_profile("g=0;n=2")
        with pytest.raises(ParseError, match="position 6"):
            parse_profile("g=0;m=q")
        with pytest.raises(ParseError, match="position 8"):
            parse_profile("g=0;m=2,q")
        # positions count in the text as given, to the first character of
        # the bad token
        for text in ("g=0;m= 2,x", " g=0;m=2,x", "g=0;m=2, x"):
            with pytest.raises(ParseError, match=r"'x' at position 9$"):
                parse_profile(text)
        with pytest.raises(ParseError):
            parse_profile("g=0")
