import random
from fractions import Fraction

import pytest

from constel.curves import delta_from_fibers, delta_coefficient
from constel.errors import MathDomainError, ParseError, RayUnsupportedError
from constel.firmaments import (
    ExponentMap,
    Firmament,
    ReductionDatum,
    base_firmament,
    face_restriction,
    firm_integral_test,
    from_text,
    induced_membership,
    morphism_check,
    multiplicity_at,
    supported_constellation,
    to_text,
)
from constel import firmaments, monoids
from constel.monoids import monoid, ray_restriction

HALF = Fraction(1, 2)


def firm(*monoids_):
    return Firmament(monoids_[0].dimension, tuple(monoids_))


class TestExponentMap:
    def test_rejects_zero_column(self):
        with pytest.raises(ValueError):
            ExponentMap(((2, 0), (0, 0)))

    def test_rejects_ragged_and_negative(self):
        with pytest.raises(ValueError):
            ExponentMap(((1, 2), (1,)))
        with pytest.raises(ValueError):
            ExponentMap(((1, -2),))

    def test_apply(self):
        f = ExponentMap(((2, 3), (0, 1)))
        assert f.apply((1, 1)) == (5, 1)
        assert f.columns() == [(2, 0), (3, 1)]

    def test_apply_is_the_matrix_vector_product(self):
        rng = random.Random(11)
        for _ in range(50):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            entries = [[rng.randint(0, 6) for _ in range(cols)] for _ in range(rows)]
            for j in range(cols):
                entries[rng.randrange(rows)][j] += 1  # no all-zero column
            v = tuple(rng.randint(0, 30) for _ in range(cols))
            want = tuple(sum(entries[i][j] * v[j] for j in range(cols)) for i in range(rows))
            assert ExponentMap(tuple(map(tuple, entries))).apply(v) == want

    def test_integer_like_arguments(self):
        np = pytest.importorskip("numpy")
        f = ExponentMap(((2, 3), (0, 1)))
        for arg in ([1, 1], (c for c in (1, 1)), (np.int64(1), np.int32(1)), np.array([1, 1]), (True, 1)):
            got = f.apply(arg)
            assert got == (5, 1) and all(type(x) is int for x in got)

    @pytest.mark.parametrize(
        "arg, error, message",
        [
            ((1.0, 1), MathDomainError, "expected an integer, got 1.0"),
            ((-1, 2), ValueError, "vector (-1, 2) has a negative coordinate"),
            ([0, -2], ValueError, "vector (0, -2) has a negative coordinate"),
            ((1, 2, 3), ValueError, "vector (1, 2, 3) has wrong dimension (want 2)"),
            ([True], ValueError, "vector (1,) has wrong dimension (want 2)"),
            ((), ValueError, "vector () has wrong dimension (want 2)"),
        ],
    )
    def test_bad_arguments(self, arg, error, message):
        with pytest.raises(error) as info:
            ExponentMap(((2, 3), (0, 1))).apply(arg)
        assert str(info.value) == message


class TestBaseFirmament:
    def test_single_square(self):
        fm = base_firmament([ExponentMap(((2,),))])
        assert fm.monoids == (monoid(2),)

    def test_two_three(self):
        fm = base_firmament([ExponentMap(((2, 3),))])
        assert fm.monoids == (monoid(2, 3),)

    def test_disjoint_union_two_monoids(self):
        fm = base_firmament([ExponentMap(((2, 0), (0, 1))), ExponentMap(((1, 0), (0, 2)))])
        assert len(fm.monoids) == 2
        assert not fm.partial

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            base_firmament([ExponentMap(((2,),)), ExponentMap(((1, 0), (0, 1)))])

    def test_irredundancy_reduction(self):
        fm = firm(monoid(2), monoid(2, 3))
        assert fm.monoids == (monoid(2, 3),)
        # equal monoids presented differently collapse to the first
        fm2 = firm(monoid(1), monoid(1, 2))
        assert len(fm2.monoids) == 1

    def test_irredundancy_matches_the_containment_rule(self):
        def by_contains(ms):
            # m_i goes iff some m_j contains it and either m_i does not
            # contain m_j or j < i
            return tuple(
                m
                for i, m in enumerate(ms)
                if not any(o.contains(m) and (not m.contains(o) or j < i) for j, o in enumerate(ms) if j != i)
            )

        rng = random.Random(20)
        seeds = {1: [monoid(1), monoid(1, 2), monoid(2, 3), monoid(3, 5)], 2: [monoid((1, 0), (0, 1))]}
        for trial in range(240):
            dim = 1 + trial % 2
            ms = []
            for _ in range(rng.randint(2, 5)):
                roll = rng.random()
                if ms and roll < 0.25:
                    ms.append(rng.choice(ms))  # a repeat
                elif ms and roll < 0.5:
                    # the same monoid with a redundant generator, reordered
                    gens = list(rng.choice(ms).generators)
                    gens.append(tuple(map(sum, zip(*rng.sample(gens, min(2, len(gens)))))))
                    rng.shuffle(gens)
                    ms.append(monoids.LatticeMonoid(dim, tuple(gens)))
                elif roll < 0.7:
                    ms.append(rng.choice(seeds[dim]))
                else:
                    gens = [tuple(rng.randint(0, 4) for _ in range(dim)) for _ in range(rng.randint(1, 3))]
                    ms.append(monoids.LatticeMonoid(dim, tuple(g for g in gens if any(g)) or ((1,) * dim,)))
            rng.shuffle(ms)
            kept, want = Firmament(dim, tuple(ms)).monoids, by_contains(ms)
            assert kept == want
            assert all(k is w for k, w in zip(kept, want))  # the first of equal monoids

    def test_partial_flag(self):
        assert firm(monoid((1, 1))).partial
        assert not firm(monoid((1, 0), (0, 1))).partial


class TestMultiplicity:
    def test_examples(self):
        assert multiplicity_at(firm(monoid(2)), (1,)) == 2
        assert multiplicity_at(firm(monoid((2, 0), (1, 1), (0, 2))), (1, 0)) == 2
        assert multiplicity_at(firm(monoid(1)), (1,)) == 1

    def test_unsupported(self):
        with pytest.raises(RayUnsupportedError):
            multiplicity_at(firm(monoid((1, 1))), (1, 0))

    def test_supported_constellation(self):
        assert supported_constellation(firm(monoid(2, 3)), [(1,)]) == [((1,), HALF)]
        assert supported_constellation(firm(monoid(3, 4)), [(1,)]) == [((1,), Fraction(2, 3))]
        pair = firm(monoid((2, 0), (0, 1)), monoid((1, 0), (0, 2)))
        got = supported_constellation(pair, [(1, 0), (0, 1), (1, 1)])
        assert [d for _, d in got] == [0, 0, HALF]

    def test_consistency_with_fiber_rule(self):
        # rank-one targets: image monoid multiplicities match min-of-fibers
        cases = [((2,), [2]), ((2, 1), [2, 1]), ((2, 2), [2, 2]), ((2, 3), [2, 3]), ((3, 4), [3, 4])]
        for row, fiber in cases:
            fm = base_firmament([ExponentMap((row,))])
            ((_, delta),) = supported_constellation(fm, [(1,)])
            ((_, m),) = delta_from_fibers([("0", fiber)])
            assert delta == delta_coefficient(m), (row, fiber)

    def test_multiplicity_one_iff_bitmap_all_true(self):
        examples = [
            (firm(monoid(2, 3)), (1,)),
            (firm(monoid(1)), (1,)),
            (firm(monoid((2, 0), (1, 1), (0, 2))), (1, 1)),
            (firm(monoid((2, 0), (1, 1), (0, 2))), (1, 0)),
        ]
        for fm, ray in examples:
            rr = ray_restriction(fm.monoids, ray, 12)
            assert (multiplicity_at(fm, ray) == 1) == all(rr.bitmap)


class TestMorphisms:
    def test_examples(self):
        ident = ExponentMap(((1,),))
        dbl = ExponentMap(((2,),))
        full = firm(monoid(1))
        even = firm(monoid(2))
        assert morphism_check(ident, even, even)
        assert morphism_check(dbl, full, even)
        assert not morphism_check(ident, full, even)

    def test_needs_single_target_monoid(self):
        # each generator lands in some target monoid, but no single monoid
        # holds both, so this is not a morphism
        src = firm(monoid((1, 0), (0, 1)))
        tgt = firm(monoid((2, 0), (0, 1)), monoid((1, 0), (0, 2)))
        ident2 = ExponentMap(((1, 0), (0, 1)))
        assert not morphism_check(ident2, src, tgt)

    def test_induced_membership(self):
        even = firm(monoid(2))
        assert induced_membership(ExponentMap(((2,),)), even, (1,))
        assert not induced_membership(ExponentMap(((1,),)), even, (1,))
        assert induced_membership(ExponentMap(((1,),)), firm(monoid(1)), (7,))

    def test_induced_firmament_is_morphism(self):
        # source = membership-level induced firmament of target: check the
        # morphism property on a sampled box
        f = ExponentMap(((1, 1),))
        tgt = firm(monoid(2))
        src = firm(monoid((2, 0), (1, 1), (0, 2)))
        for x in range(8):
            for y in range(8):
                assert src.monoids[0].member((x, y)) == induced_membership(f, tgt, (x, y))
        assert morphism_check(f, src, tgt)


class TestLeanLookup:
    def test_warm_queries_skip_normalising_and_building(self, monkeypatch):
        # on warm tables, the firmament queries answer every in-box point of
        # plain ints by the lean lookup: no normalising, no table build
        src = firm(monoid((2, 0), (1, 1), (0, 2)))
        tgt = firm(monoid((2, 0), (0, 1)), monoid((1, 0), (0, 2)))
        f = ExponentMap(((1, 0), (0, 1)))
        for m in src.monoids + tgt.monoids:
            m.member((12, 12))
        queries = [lambda: morphism_check(f, src, tgt)]
        for p in ((x, y) for x in range(7) for y in range(7)):
            reductions = [ReductionDatum(5, p), ReductionDatum(7, p[::-1])]
            queries += [
                lambda p=p: src.monoids[0].member(p),
                lambda r=reductions: firm_integral_test(tgt, r),
                lambda p=p: induced_membership(f, tgt, p),
            ]
        answers = [q() for q in queries]

        def refuse(*args):
            raise AssertionError("the lean lookup was not taken")

        monkeypatch.setattr(monoids, "_ReachTable", refuse)
        monkeypatch.setattr(monoids, "_as_int", refuse)
        monkeypatch.setattr(firmaments, "_as_int", refuse)
        assert [q() for q in queries] == answers
        assert any(answers) and not all(answers)


class TestFirmPoints:
    def test_examples(self):
        f = firm(monoid((2, 0), (0, 1)))
        assert not firm_integral_test(f, [ReductionDatum(5, (1, 0))])
        assert firm_integral_test(f, [ReductionDatum(5, (2, 3))])
        assert firm_integral_test(f, [])

    def test_all_reductions_must_pass(self):
        f = firm(monoid((2, 0), (0, 1)))
        data = [ReductionDatum(3, (2, 0)), ReductionDatum(7, (1, 1))]
        assert not firm_integral_test(f, data)

    def test_reduction_datum_validation(self):
        with pytest.raises(ValueError):
            ReductionDatum(6, (1, 0))
        with pytest.raises(ValueError):
            ReductionDatum(5, (-1, 0))
        # a float prime is refused, not kept; 1 and 0 are not prime
        for bad in (3.0, 1, 0):
            with pytest.raises(ValueError):
                ReductionDatum(bad, (1, 2))


class TestFaceRestriction:
    def test_axis_faces(self):
        f = firm(monoid((2, 0), (0, 1)))
        assert face_restriction(f, (0,)).monoids == (monoid(2),)
        assert face_restriction(f, (1,)).monoids == (monoid(1),)

    def test_collection_reduces_on_face(self):
        # on the first axis the pair {2NxN, Nx2N} restricts to {2N, N} = {N}
        f = firm(monoid((2, 0), (0, 1)), monoid((1, 0), (0, 2)))
        assert face_restriction(f, (0,)).monoids == (monoid(1),)

    def test_multiplicities_match_the_full_chart(self):
        cases = [
            (firm(monoid((2, 0), (1, 1), (0, 2))), (0,), (1,), (1, 0)),
            (firm(monoid((2, 0), (1, 1), (0, 2))), (1,), (1,), (0, 1)),
            (firm(monoid((2, 0), (3, 0), (0, 1))), (0,), (1,), (1, 0)),
        ]
        for full, axes, face_ray, full_ray in cases:
            face = face_restriction(full, axes)
            assert multiplicity_at(face, face_ray) == multiplicity_at(full, full_ray)

    def test_origin_only_face(self):
        with pytest.raises(MathDomainError):
            face_restriction(firm(monoid((1, 1))), (0,))

    def test_bad_axes(self):
        f = firm(monoid((2, 0), (0, 1)))
        with pytest.raises(ValueError):
            face_restriction(f, ())
        with pytest.raises(ValueError):
            face_restriction(f, (0, 2))


class TestSerialization:
    def test_round_trip(self):
        fm = firm(monoid((2, 0), (0, 1)), monoid((1, 0), (0, 2)))
        text = to_text(fm)
        assert from_text(text) == fm
        assert to_text(from_text(text)) == text

    def test_round_trip_rank_one(self):
        fm = firm(monoid(3, 4))
        text = to_text(fm)
        assert text == "dim 1\n1; (3) (4)\n"
        assert from_text(text) == fm

    def test_round_trip_random_firmaments(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=60, deadline=None)
        @given(
            st.lists(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=5),
                        st.integers(min_value=0, max_value=5),
                    ).filter(lambda g: any(g)),
                    min_size=1,
                    max_size=3,
                ),
                min_size=1,
                max_size=3,
            )
        )
        def check(gen_lists):
            from constel.monoids import LatticeMonoid

            fm = Firmament(2, tuple(LatticeMonoid(2, tuple(gs)) for gs in gen_lists))
            text = to_text(fm)
            assert from_text(text) == fm
            assert to_text(from_text(text)) == text

        check()

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 1"):
            from_text("dimension 2\n")
        with pytest.raises(ParseError, match="line 2"):
            from_text("dim 2\n(2,0) (0,1)\n")
        with pytest.raises(ParseError, match="line 2"):
            from_text("dim 2\n1; (2)\n")
        with pytest.raises(ParseError, match="line 3"):
            from_text("dim 2\n2; (2,0)\n2; (x,1)\n")
        with pytest.raises(ParseError):
            from_text("")
