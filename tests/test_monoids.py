import dataclasses
import enum
import random
import tracemalloc
from itertools import product
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constel.errors import (
    BoundExceededError,
    InfiniteGapsError,
    MathDomainError,
    RayUnsupportedError,
    ResourceLimitError,
)
from constel import monoids
from constel.monoids import (
    LatticeMonoid,
    cone_coefficients,
    gaps,
    min_multiple,
    monoid,
    ray_restriction,
)

import _oracles


class TestConstruction:
    def test_canonical_generator_order(self):
        assert monoid(3, 2, 3).generators == ((2,), (3,))
        assert monoid((1, 1), (0, 2), (1, 1)).generators == ((0, 2), (1, 1))

    def test_reduces_to_minimal_generating_set(self):
        assert monoid(1, 2).generators == ((1,),)
        assert monoid(2, 3, 5).generators == ((2,), (3,))
        assert monoid(2, 4).generators == ((2,),)
        assert monoid((2, 1), (1, 2), (3, 3)).generators == ((1, 2), (2, 1))
        # irreducibles survive
        assert monoid((2, 0), (1, 1), (0, 2)).generators == ((0, 2), (1, 1), (2, 0))

    def test_rejects_bad_generators(self):
        with pytest.raises(ValueError):
            LatticeMonoid(2, ((0, 0),))
        with pytest.raises(ValueError):
            LatticeMonoid(2, ((1, -1),))
        with pytest.raises(ValueError):
            LatticeMonoid(2, ())
        with pytest.raises(ValueError):
            LatticeMonoid(2, ((1, 2, 3),))


class TestMember:
    def test_rank_one(self):
        m = monoid(2, 3)
        assert not m.member((1,))
        assert m.member((5,))
        assert m.member((0,))

    def test_square_root_monoid(self):
        m = monoid((2, 0), (1, 1), (0, 2))
        assert not m.member((2, 1))  # odd coordinate sum
        assert m.member((1, 1))
        assert m.member((3, 1))

    def test_dimension_checks(self):
        m = monoid(2, 3)
        with pytest.raises(ValueError):
            m.member((1, 1))
        with pytest.raises(ValueError):
            m.member((-1,))

    def test_agrees_with_bfs_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            k = rng.choice((2, 3))
            gens = set()
            while len(gens) < k:
                g = (rng.randint(0, 6), rng.randint(0, 6))
                if g != (0, 0):
                    gens.add(g)
            m = LatticeMonoid(2, tuple(gens))
            bound = (40, 40)
            reachable = _oracles.bfs_reachable(m.generators, bound)
            for x in range(bound[0] + 1):
                for y in range(bound[1] + 1):
                    assert m.member((x, y)) == ((x, y) in reachable), (m.generators, x, y)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_closure_under_addition(self, data):
        dim = data.draw(st.integers(min_value=1, max_value=2))
        gens = data.draw(
            st.lists(
                st.tuples(*[st.integers(min_value=0, max_value=5)] * dim).filter(
                    lambda g: any(g)
                ),
                min_size=1,
                max_size=3,
            )
        )
        m = LatticeMonoid(dim, tuple(gens))
        coeffs = data.draw(
            st.tuples(*[st.integers(min_value=0, max_value=3)] * (2 * len(m.generators)))
        )
        half = len(m.generators)
        u = tuple(sum(c * g[i] for c, g in zip(coeffs[:half], m.generators)) for i in range(dim))
        v = tuple(sum(c * g[i] for c, g in zip(coeffs[half:], m.generators)) for i in range(dim))
        w = tuple(a + b for a, b in zip(u, v))
        assert m.member(u) and m.member(v) and m.member(w)


class TestReachTableCap:
    def test_refused_before_allocating(self, monkeypatch):
        m = monoid((2, 0), (0, 3))
        real = bytearray

        def guarded(n):
            if n > monoids.MAX_REACH_CELLS:
                raise AssertionError("the reach table was allocated")
            return real(n)

        monkeypatch.setattr(monoids, "bytearray", guarded, raising=False)
        for query in (lambda: m.member((100_000, 100_000)), lambda: min_multiple([m], (100_000, 100_000))):
            with pytest.raises(ResourceLimitError):
                query()
        assert m.member((4, 3)) and not m.member((1, 3))

    def test_growth_alone_never_refuses(self, monkeypatch):
        monkeypatch.setattr(monoids, "MAX_REACH_CELLS", 100)
        m = monoid(2, 3)
        assert m.member((60,))
        # doubling to [0, 120] would pass the cap; the exact box [0, 70] fits
        assert m.member((70,))
        assert not m.member((1,))
        with pytest.raises(ResourceLimitError):
            m.member((100,))

    def test_scan_near_the_cap_builds_few_tables(self, monkeypatch):
        cap = 10**5
        monkeypatch.setattr(monoids, "MAX_REACH_CELLS", cap)
        m = monoid((1, 1), (1, 1003), (1003, 1))
        built = []

        class Counted(monoids._ReachTable):
            def __init__(self, bound, generators):
                super().__init__(bound, generators)
                built.append(len(self.bits))

        monkeypatch.setattr(monoids, "_ReachTable", Counted)
        # the answer is 1002, but (2k, k) passes the cap at k = 223
        with pytest.raises(ResourceLimitError):
            min_multiple([m], (2, 1))
        assert sum(built) <= 4 * cap
        assert max(built) > cap // 2  # the last table fills most of the cap


class TestReachTableSweep:
    # the closure takes each generator in turn over the box: whatever the
    # box shape and the generator order, it must give the oracle's cells
    @pytest.mark.parametrize(
        "bound", [(17,), (3, 40), (40, 3), (0, 7), (2, 9, 5), (5, 1, 6), (3, 2, 4, 3), (0,), (0, 0, 0)]
    )
    def test_matches_bfs_oracle(self, bound):
        rng = random.Random(repr(bound))
        d = len(bound)
        for _ in range(12):
            gens = [tuple(rng.randint(0, min(b, 4) + 1) for b in bound) for _ in range(rng.randint(1, 4))]
            # longer than the box on one axis only
            axis = rng.randrange(d)
            gens.append(tuple(b + 1 if i == axis else rng.randint(0, b) for i, b in enumerate(bound)))
            # zero on every axis but the last: its sweep chains within one row
            gens.append((0,) * (d - 1) + (rng.randint(1, 3),))
            gens = [g for g in gens if any(g)]
            reach = _oracles.bfs_reachable(gens, bound)
            want = bytes(v in reach for v in product(*(range(b + 1) for b in bound)))
            for order in (gens, gens[::-1]):
                assert monoids._ReachTable(bound, order).bits == want, (bound, order)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_boxes_match_bfs_oracle(self, d, monkeypatch):
        # tiny pieces spread a table in many of them, the last one cut short
        monkeypatch.setattr(monoids, "_PIECE", 3)
        rng = random.Random(f"closure-{d}")
        assert monoids._ReachTable((0,) * d, [(1,) * d]).bits == b"\x01"  # the one-cell box
        side = (60, 14, 8)[d - 1]
        for _ in range(80):
            # axes of bound 0, and generators with zero coordinates or longer
            # than an axis, come up often
            bound = tuple(rng.choice((0, rng.randint(1, side), side)) for _ in range(d))
            gens = []
            while not gens:
                for _ in range(rng.randint(1, 4)):
                    g = tuple(rng.choice((0, rng.randint(1, 3), rng.randint(1, b + 2))) for b in bound)
                    if any(g):
                        gens.append(g)
            reach = _oracles.bfs_reachable(gens, bound)
            want = bytes(v in reach for v in product(*(range(b + 1) for b in bound)))
            assert monoids._ReachTable(bound, gens).bits == want, (bound, gens)


def test_reach_table_build_peak_stays_near_the_table():
    # the closure's ints and the spread pieces come on top of the byte-a-cell
    # table: at 4 * 10^6 cells they peaked at 1.5 times the table
    gens = [(2, 3), (3, 2), (5, 7)]
    monoids._ReachTable((9, 9), gens)
    tracemalloc.start()
    try:
        table = monoids._ReachTable((1999, 1999), gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.bits) == 4 * 10**6
    assert peak < 2.5 * len(table.bits)


def _outcome(call):
    """A call's answer, or the type and message of the error it raised."""
    try:
        return call()
    except Exception as exc:  # the callers compare it, so nothing is lost
        return type(exc), str(exc)


def _random_monoid(rng, d):
    gens, k = set(), rng.randint(1, 3)
    while len(gens) < k:
        g = tuple(rng.randint(0, 5) for _ in range(d))
        if any(g):
            gens.add(g)
    return LatticeMonoid(d, tuple(gens))


class TestWarmCold:
    """A monoid whose table was built for one box answers every later query
    (inside that box, on its edge or beyond it, in either order) as a fresh
    monoid and the reachability oracle do."""

    @pytest.mark.parametrize("d, side", [(1, 40), (2, 10), (3, 5)])
    def test_answers_match_fresh_monoids_and_oracle(self, d, side):
        rng = random.Random(1000 + d)
        box = (side,) * d
        for _ in range(12):
            m = _random_monoid(rng, d)
            near = [tuple(rng.randint(0, side) for _ in range(d)) for _ in range(8)]
            edge = []
            for _ in range(4):
                p = [rng.randint(0, side) for _ in range(d)]
                p[rng.randrange(d)] = side
                edge.append(tuple(p))
            far = []
            for _ in range(6):
                p = [rng.randint(0, side) for _ in range(d)]
                p[rng.randrange(d)] = rng.randint(side + 1, 2 * side + 3)
                far.append(tuple(p))
            outer = tuple(max(p[i] for p in near + edge + far) for i in range(d))
            reach = _oracles.bfs_reachable(m.generators, outer)
            for order in (far + edge + near, near + edge + far):
                warm = LatticeMonoid(d, m.generators)
                warm.member(box)  # the table now covers exactly the box
                for p in order:
                    want = p in reach
                    assert LatticeMonoid(d, m.generators).member(p) == want, (m.generators, p)
                    assert warm.member(p) == want, (m.generators, p, warm._reach.bound)


def test_replace_builds_its_own_reach_table():
    m = monoid(2, 3)
    assert not m.member((1,))  # warms m's table
    other = dataclasses.replace(m, generators=((1,),))
    assert other.member((1,))
    assert not m.member((1,))
    # the table is no constructor argument
    with pytest.raises(TypeError):
        LatticeMonoid(1, ((2,),), [])


class _Coord(enum.IntEnum):
    TWO = 2


class TestWarmArgumentParity:
    """Arguments that the lean lookup does not take itself are answered, or
    refused, on a warm monoid exactly as on a cold one."""

    def pair(self):
        gens = ((2, 0), (1, 1), (0, 2))
        warm = LatticeMonoid(2, gens)
        warm.member((20, 20))
        return warm, (lambda: LatticeMonoid(2, gens))

    def test_integer_like_arguments(self):
        np = pytest.importorskip("numpy")
        warm, cold = self.pair()
        for x, y in ((3, 1), (2, 1), (0, 0), (1, 0), (4, 6)):
            want = cold().member((x, y))
            for make in (
                lambda: [x, y],
                lambda: (c for c in (x, y)),
                lambda: (np.int64(x), np.int32(y)),
                lambda: np.array([x, y]),
            ):
                assert warm.member(make()) == cold().member(make()) == want
        for arg in ((True, True), (True, False), (False, False), (2, True), (_Coord.TWO, 1)):
            assert warm.member(arg) == cold().member(arg) == cold().member(tuple(map(int, arg)))

    @pytest.mark.parametrize(
        "arg, error",
        [
            ((3.0, 1), MathDomainError),
            ((3, 1.5), MathDomainError),
            (("3", 1), MathDomainError),
            ((-1, 2), ValueError),
            ([0, -2], ValueError),
            ((1, 2, 3), ValueError),
            ((1,), ValueError),
            ((), ValueError),
        ],
    )
    def test_bad_arguments_raise_the_same_error(self, arg, error):
        warm, cold = self.pair()
        got = _outcome(lambda: warm.member(arg))
        assert got == _outcome(lambda: cold().member(arg))
        assert got[0] is error

    def test_past_the_cap_still_refused(self, monkeypatch):
        monkeypatch.setattr(monoids, "MAX_REACH_CELLS", 100)
        warm = monoid(2, 3)
        assert warm.member((70,))
        got = _outcome(lambda: warm.member((100,)))
        assert got[0] is ResourceLimitError
        assert got == _outcome(lambda: monoid(2, 3).member((100,)))
        assert warm.member((69,)) and not warm.member((1,))


class TestContains:
    def test_examples(self):
        assert monoid(1).contains(monoid(2))
        assert not monoid(2).contains(monoid(2, 3))
        assert monoid(2, 3).contains(monoid(4, 6))

    def test_mutual_containment_means_equality_on_box(self):
        m1 = monoid(1)
        m2 = monoid(1, 2)
        assert m1.contains(m2) and m2.contains(m1)
        for k in range(30):
            assert m1.member((k,)) == m2.member((k,))


class TestMinMultiple:
    def test_paper_examples(self):
        assert min_multiple([monoid(2)], (1,)) == 2
        assert min_multiple([monoid(3, 4)], (1,)) == 3
        pair = [monoid((2, 0), (0, 1)), monoid((1, 0), (0, 2))]
        assert min_multiple(pair, (1, 1)) == 2

    def test_unsupported_ray(self):
        with pytest.raises(RayUnsupportedError):
            min_multiple([monoid((1, 1))], (1, 0))
        with pytest.raises(RayUnsupportedError):
            min_multiple([monoid((2, 1), (1, 2))], (3, 1))

    def test_cap_exceeded_signals_bug(self, monkeypatch):
        # a clearing multiple of 3 claims 3*(1,) is in <5>: the scan to 3
        # disproves it, which is a fault, not a math condition
        monkeypatch.setattr(monoids, "cone_coefficients", lambda gens, n: [Fraction(1, 3)])
        with pytest.raises(BoundExceededError, match="up to its clearing multiple 3"):
            min_multiple([monoid(5)], (1,))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_minimality(self, data):
        gens = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)
                ).filter(lambda g: any(g)),
                min_size=1,
                max_size=3,
            )
        )
        m = LatticeMonoid(2, tuple(gens))
        ray = data.draw(st.sampled_from(sorted(m.generators)))
        k = min_multiple([m], ray)
        assert m.member(tuple(k * x for x in ray))
        for j in range(1, k):
            assert not m.member(tuple(j * x for x in ray))


class TestRayRestriction:
    def test_gap_examples(self):
        assert ray_restriction([monoid(2, 3)], (1,), 10).gaps() == {1}
        assert ray_restriction([monoid(3, 4)], (1,), 12).gaps() == {1, 2, 5}
        assert all(ray_restriction([monoid(1)], (1,), 5).bitmap)

    def test_periods(self):
        assert ray_restriction([monoid(2, 3)], (1,), 10).period == 1
        assert ray_restriction([monoid(2)], (1,), 10).period == 2
        assert ray_restriction([monoid(1)], (1,), 6).period == 1

    def test_diagonal_ray(self):
        pair = [monoid((2, 0), (0, 1)), monoid((1, 0), (0, 2))]
        rr = ray_restriction(pair, (1, 1), 8)
        assert rr.bitmap == (True, False, True, False, True, False, True, False, True)

    @pytest.mark.parametrize(
        "scan",
        [min_multiple, lambda ms, n: ray_restriction(ms, n, 5)],
        ids=["min_multiple", "ray_restriction"],
    )
    @pytest.mark.parametrize("ray", [(1, 1), (0,)], ids=["wrong_dimension", "zero"])
    def test_bad_rays_are_math_domain_errors(self, scan, ray):
        # bad input, never a fault of the linear algebra underneath
        with pytest.raises(MathDomainError):
            scan([monoid(2, 3)], ray)

    def test_closure_for_single_monoid(self):
        rng = random.Random(3)
        for _ in range(20):
            gens = tuple(
                (rng.randint(0, 4), rng.randint(0, 4))
                for _ in range(rng.randint(1, 3))
            )
            gens = tuple(g for g in gens if any(g)) or ((1, 0),)
            rr = ray_restriction([LatticeMonoid(2, gens)], (1, 1), 20)
            true_set = [k for k, b in enumerate(rr.bitmap) if b]
            for i in true_set:
                for j in true_set:
                    if i + j <= 20:
                        assert rr.bitmap[i + j], (gens, i, j)


class TestGaps:
    def test_examples(self):
        assert gaps(monoid(2, 3)) == {1}
        assert gaps(monoid(3, 4)) == {1, 2, 5}
        assert gaps(monoid(1)) == set()

    def test_infinite_gap_set(self):
        with pytest.raises(InfiniteGapsError):
            gaps(monoid(2, 4))

    def test_three_generators_pairwise_non_coprime(self):
        # gcd(6,10,15)=1 though no pair is coprime; Frobenius number is 29
        got = gaps(monoid(6, 10, 15))
        assert max(got) == 29
        assert 23 in got and 28 not in got and 30 not in got

    def test_matches_ray_restriction(self):
        for gens in [(2, 3), (3, 4), (3, 5), (5, 7), (4, 7, 9)]:
            m = monoid(*gens)
            g = gaps(m)
            bound = (max(g) if g else 1) + 20
            assert {k for k in ray_restriction([m], (1,), bound).gaps() if k} == g

    def test_refused_before_allocating(self, monkeypatch):
        real = bytearray

        def guarded(n):
            if n > monoids.MAX_REACH_CELLS:
                raise AssertionError("the reach table was allocated")
            return real(n)

        monkeypatch.setattr(monoids, "bytearray", guarded, raising=False)
        monkeypatch.setattr(monoids, "MAX_REACH_CELLS", 100)
        # Schur's bound (11 - 1)(13 - 1) = 120 asks for 121 cells
        with pytest.raises(ResourceLimitError):
            gaps(monoid(11, 13))
        assert gaps(monoid(3, 4)) == {1, 2, 5}


class TestThreeDimensions:
    def test_even_coordinate_sum_monoid(self):
        m = monoid((1, 1, 0), (0, 1, 1), (1, 0, 1))
        assert m.member((2, 2, 2))  # sum of all three generators
        assert not m.member((1, 1, 1))  # odd coordinate sum is unreachable
        assert min_multiple([m], (1, 1, 1)) == 2

    def test_agrees_with_bfs_oracle_small_box(self):
        gens = ((2, 0, 1), (0, 3, 1), (1, 1, 0))
        m = LatticeMonoid(3, gens)
        reachable = _oracles.bfs_reachable(gens, (10, 10, 10))
        for x in range(11):
            for y in range(11):
                for z in range(11):
                    assert m.member((x, y, z)) == ((x, y, z) in reachable)


def test_cone_coefficients_clears_denominators():
    lam = cone_coefficients(((3,), (4,)), (1,))
    assert lam is not None
    total = sum(l * g[0] for l, g in zip(lam, ((3,), (4,))))
    assert total == 1
    assert cone_coefficients(((2, 1), (1, 2)), (1, 0)) is None
    assert cone_coefficients(((2, 1), (1, 2)), (1, 1)) is not None


class TestConeGuards:
    @pytest.mark.parametrize(
        "scan",
        [min_multiple, lambda ms, n: ray_restriction(ms, n, 3)],
        ids=["min_multiple", "ray_restriction"],
    )
    def test_no_monoids_are_refused(self, scan):
        with pytest.raises(ValueError, match="need at least one monoid"):
            scan([], (1,))

    @pytest.mark.parametrize(
        "gens, target",
        [(((1, 2),), (1,)), (((1,),), (1, 2)), (((1, 0), (1,)), (1, 0))],
        ids=["longer", "shorter", "one_of_two_shorter"],
    )
    def test_generator_lengths_must_match_the_target(self, monkeypatch, gens, target):
        def no_solve(*args):
            raise AssertionError("a generator subset was solved")

        monkeypatch.setattr(monoids._linalg, "solve_columns", no_solve)
        with pytest.raises(MathDomainError):
            cone_coefficients(gens, target)


class TestConeSubsetCap:
    def test_refuses_before_the_first_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("a generator subset was solved")

        monkeypatch.setattr(monoids._linalg, "solve_columns", no_solve)
        units = [tuple(int(i == j) for i in range(24)) for j in range(24)]
        with pytest.raises(ResourceLimitError, match="16777215 generator subsets"):
            cone_coefficients(units, (1,) * 24)
        # 256 generators in the plane: 256 + C(256, 2) = 32896 subsets
        with pytest.raises(ResourceLimitError):
            cone_coefficients([(1, j) for j in range(256)], (1, 0))

    def test_plane_generators_under_the_cap_run(self):
        # 255 + C(255, 2) = 32640 subsets; (1, 0) is the first one tried
        assert monoids.MAX_CONE_SUBSETS == 2**15
        assert cone_coefficients([(1, j) for j in range(255)], (1, 0))[0] == 1

    @pytest.mark.parametrize("cap, refused", [(13, True), (14, False)])
    def test_counts_subsets_up_to_the_dimension(self, monkeypatch, cap, refused):
        # 4 generators in dimension 3: 4 + 6 + 4 = 14 subsets, not 2^4 - 1
        monkeypatch.setattr(monoids, "MAX_CONE_SUBSETS", cap)
        gens = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
        if refused:
            with pytest.raises(ResourceLimitError):
                cone_coefficients(gens, (2, 1, 1))
        else:
            assert cone_coefficients(gens, (2, 1, 1)) is not None
