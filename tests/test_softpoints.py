import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constel import softpoints
from constel.arith import INFINITY
from constel.errors import MathDomainError, PointOnBoundaryError
from constel.softpoints import (
    DeltaSupport3,
    GeneralDeltaQ,
    P1PointQ,
    campana_abc_bound_check,
    campana_abc_bound_exact,
    enumerate_soft_points,
    is_soft_integral_3pt,
    is_soft_integral_general,
    is_soft_integral_weighted,
)

import _oracles

D222 = DeltaSupport3(2, 2, 2)
ALL_DELTAS = list(itertools.product((1, 2, 3, INFINITY), repeat=3))


def small_bound(ms):
    # the brute oracle scans the whole grid; keep it small when two roles
    # take every value
    return 25 if ms.count(1) >= 2 else 90


def soft_rows(*args):
    """The rows of softpoints._soft_rows, its blocks joined."""
    return [row for block in softpoints._soft_rows(*args) for row in block]


def order_label(roles):
    """The outer and inner role of a _pair_rows call, as "c,a", "c,b" or "a,b"."""
    return ",".join("abc"[r] for r in roles[:2])


def std_support(m=2):
    return GeneralDeltaQ(((P1PointQ(0, 1), m), (P1PointQ(1, 1), m), (P1PointQ(1, 0), m)))


class TestP1PointQ:
    def test_canonicalization(self):
        assert (P1PointQ(9, 25).a, P1PointQ(9, 25).c) == (9, 25)
        assert (P1PointQ(-3, -6).a, P1PointQ(-3, -6).c) == (1, 2)
        assert (P1PointQ(4, -6).a, P1PointQ(4, -6).c) == (-2, 3)
        assert (P1PointQ(-5, 0).a, P1PointQ(-5, 0).c) == (1, 0)
        assert P1PointQ(7, 0).is_infinity

    def test_b_coordinate(self):
        assert P1PointQ(9, 25).b == 16
        assert P1PointQ(-8, 1).b == 9

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            P1PointQ(0, 0)


class TestSoft3pt:
    def test_examples(self):
        assert is_soft_integral_3pt(P1PointQ(9, 25), D222)
        assert is_soft_integral_3pt(P1PointQ(1, 9), D222)  # b = 8 = 2^3
        assert not is_soft_integral_3pt(P1PointQ(2, 3), D222)

    def test_boundary_points_rejected(self):
        for pt in (P1PointQ(0, 1), P1PointQ(1, 1), P1PointQ(1, 0)):
            with pytest.raises(PointOnBoundaryError):
                is_soft_integral_3pt(pt, D222)
            with pytest.raises(PointOnBoundaryError):
                is_soft_integral_3pt(pt, DeltaSupport3(INFINITY, INFINITY, INFINITY))

    def test_infinite_multiplicity_demands_units(self):
        dinf = DeltaSupport3(INFINITY, INFINITY, INFINITY)
        assert not is_soft_integral_3pt(P1PointQ(1, 2), dinf)  # c = 2 is no unit
        assert not is_soft_integral_3pt(P1PointQ(-1, 1), dinf)  # b = 2 is no unit
        assert is_soft_integral_3pt(P1PointQ(-1, 1), DeltaSupport3(INFINITY, 1, INFINITY))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=-400, max_value=400).filter(lambda a: a != 0),
        st.integers(min_value=1, max_value=400),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([1, 2, 3]),
    )
    def test_monotone_in_multiplicities(self, a, c, n0, n1, ninf):
        pt = P1PointQ(a, c)
        if pt.a == 0 or pt.b == 0 or pt.c == 0:
            return
        if is_soft_integral_3pt(pt, DeltaSupport3(n0, n1, ninf)):
            weaker = DeltaSupport3(max(1, n0 - 1), max(1, n1 - 1), max(1, ninf - 1))
            assert is_soft_integral_3pt(pt, weaker)


class TestSoftGeneral:
    def test_standard_support_matches_3pt(self):
        std = std_support()
        for a in range(-60, 61):
            for c in range(1, 61):
                if math.gcd(abs(a), c) != 1:
                    continue
                pt = P1PointQ(a, c)
                if pt.a == 0 or pt.b == 0 or pt.c == 0:
                    continue
                assert is_soft_integral_general(pt, std) == is_soft_integral_3pt(pt, D222)

    def test_standard_support_matches_3pt_on_enumerated_points(self):
        # the enumerated soft points up to height 1e4 all pass the general
        # test on the standard support too
        std = std_support()
        for pt in enumerate_soft_points(D222, 10**4):
            assert is_soft_integral_general(pt, std)

    def test_examples(self):
        one = GeneralDeltaQ(((P1PointQ(1, 2), 2),))
        assert is_soft_integral_general(P1PointQ(1, 3), one)  # det -1, no prime meets
        assert not is_soft_integral_general(P1PointQ(1, 5), one)  # v_3(-3) = 1 < 2

    def test_s_excludes_primes(self):
        one = GeneralDeltaQ(((P1PointQ(1, 2), 2),), primes=frozenset({3}))
        assert is_soft_integral_general(P1PointQ(1, 5), one)

    def test_infinite_support_point(self):
        one = GeneralDeltaQ(((P1PointQ(1, 2), INFINITY),))
        assert is_soft_integral_general(P1PointQ(1, 3), one)
        assert not is_soft_integral_general(P1PointQ(1, 5), one)

    def test_support_point_equality_rejected(self):
        one = GeneralDeltaQ(((P1PointQ(1, 2), 2),))
        with pytest.raises(PointOnBoundaryError):
            is_soft_integral_general(P1PointQ(1, 2), one)

    def test_collision_invariant(self):
        with pytest.raises(ValueError):
            GeneralDeltaQ(((P1PointQ(0, 1), 2), (P1PointQ(3, 1), 2)))
        GeneralDeltaQ(((P1PointQ(0, 1), 2), (P1PointQ(3, 1), 2)), primes=frozenset({3}))
        with pytest.raises(ValueError):
            GeneralDeltaQ(((P1PointQ(1, 2), 2), (P1PointQ(1, 2), 3)))

    def test_multiplicity_floor(self):
        with pytest.raises(ValueError):
            GeneralDeltaQ(((P1PointQ(1, 2), 1),))

    @pytest.mark.parametrize("bad", [1, 0, 4, -2, 2.0, True], ids=repr)
    def test_s_holds_only_primes(self, bad):
        # S = {1} used to hang the soft test, {0} to divide by zero, and
        # {4} to strip 4 as if it were a prime
        with pytest.raises(ValueError):
            GeneralDeltaQ(((P1PointQ(1, 2), 2),), primes=frozenset({bad}))


class TestSoftWeighted:
    def test_examples(self):
        assert is_soft_integral_weighted(P1PointQ(9, 25), std_support())
        one = GeneralDeltaQ(((P1PointQ(1, 2), 2),))
        assert not is_soft_integral_weighted(P1PointQ(1, 5), one)  # 1/2 < 1
        assert is_soft_integral_weighted(P1PointQ(1, 3), one)  # empty condition

    def test_implied_by_general_up_to_1000(self):
        std = std_support()
        for pt in enumerate_soft_points(D222, 1000):
            assert is_soft_integral_weighted(pt, std)

    def test_agreement_on_random_points(self):
        std = std_support()
        for a in range(-40, 41):
            for c in range(1, 41):
                if math.gcd(abs(a), c) != 1:
                    continue
                pt = P1PointQ(a, c)
                if pt.a == 0 or pt.b == 0 or pt.c == 0:
                    continue
                general = is_soft_integral_general(pt, std)
                if general:
                    assert is_soft_integral_weighted(pt, std)


class TestEnumeration:
    def test_golden_positive_window(self):
        pts = enumerate_soft_points(D222, 100, positive_only=True)
        assert [(p.a, p.c) for p in pts] == [
            (1, 9),
            (8, 9),
            (9, 25),
            (16, 25),
            (32, 81),
            (49, 81),
        ]

    def test_matches_brute_oracle(self):
        for delta in (D222, DeltaSupport3(2, 1, 2), DeltaSupport3(3, 3, 3), DeltaSupport3(1, 1, 1)):
            bound = 60 if delta.n0 == 1 and delta.n1 == 1 else 300
            got = [(p.a, p.c) for p in enumerate_soft_points(delta, bound)]
            expected = _oracles.brute_soft_points(delta.n0, delta.n1, delta.n_inf, bound)
            assert got == expected, delta

    def test_all_units_empty(self):
        dinf = DeltaSupport3(INFINITY, INFINITY, INFINITY)
        assert enumerate_soft_points(dinf, 100) == []

    def test_trivial_structure_counts_coprime_pairs(self):
        pts = enumerate_soft_points(DeltaSupport3(1, 1, 1), 5)
        expected = [
            (a, c)
            for c in range(1, 6)
            for a in range(-5, 6)
            if a != 0 and a != c and math.gcd(abs(a), c) == 1
        ]
        assert [(p.a, p.c) for p in pts] == sorted(expected, key=lambda t: (t[1], t[0]))

    def test_monotone_in_delta(self):
        stronger = [(p.a, p.c) for p in enumerate_soft_points(DeltaSupport3(3, 3, 3), 1000)]
        weaker = {(p.a, p.c) for p in enumerate_soft_points(D222, 1000)}
        assert set(stronger) <= weaker

    def test_rejects_tiny_bound(self):
        with pytest.raises(ValueError):
            enumerate_soft_points(D222, 1)

    @pytest.mark.parametrize("ms", [(2, 2, 2), (1, 2, 2)])
    @pytest.mark.parametrize("bound", [100.0, 100.5])
    def test_refuses_a_float_bound(self, ms, bound):
        with pytest.raises(MathDomainError):
            enumerate_soft_points(DeltaSupport3(*ms), bound)

    def test_worker_counts_agree(self):
        single = enumerate_soft_points(D222, 2000)
        assert enumerate_soft_points(D222, 2000, workers=3) == single


class TestSoftRows:
    @pytest.mark.parametrize("ms", ALL_DELTAS, ids=lambda ms: ",".join(map(str, ms)))
    def test_matches_brute_oracle_with_radicals(self, ms):
        bound = small_bound(ms)
        rows = soft_rows(DeltaSupport3(*ms), bound, False, 1)
        assert [(a, c) for c, a, _ in rows] == _oracles.brute_soft_points(*ms, bound)
        for c, a, rad in rows:
            assert rad == _oracles.sympy_radical(abs(a * (c - a) * c))
        positive = soft_rows(DeltaSupport3(*ms), bound, True, 1)
        assert positive == [row for row in rows if 0 < row[1] < row[0]]

    def test_every_order_and_radical_source_runs(self, monkeypatch):
        seen = set()

        def spy(name, original, label=None):
            def wrapped(*args):
                seen.add(label(args) if label else name)
                return original(*args)

            return wrapped

        pair_rows = spy("_pair_rows", softpoints._pair_rows, lambda args: order_label(args[0]))
        monkeypatch.setattr(softpoints, "_pair_rows", pair_rows)
        for name in ("radical", "_rad_table"):
            monkeypatch.setattr(softpoints, name, spy(name, getattr(softpoints, name)))
        for ms in ALL_DELTAS:
            soft_rows(DeltaSupport3(*ms), small_bound(ms), False, 1)
        # radical is the fallback for a sieve longer than the pairs visited
        assert seen == {"c,a", "c,b", "a,b", "radical", "_rad_table"}

    @pytest.mark.parametrize("entry", softpoints._ORDERS, ids=order_label)
    def test_forced_order_matches_brute_oracle(self, monkeypatch, entry):
        # each order alone, also for the deltas where another has fewer pairs
        monkeypatch.setattr(softpoints, "_ORDERS", (entry,))
        for ms in ALL_DELTAS:
            bound = small_bound(ms)
            rows = soft_rows(DeltaSupport3(*ms), bound, False, 1)
            assert [(a, c) for c, a, _ in rows] == _oracles.brute_soft_points(*ms, bound), ms
            for c, a, rad in rows:
                assert rad == _oracles.sympy_radical(abs(a * (c - a) * c)), (ms, a, c)
            positive = soft_rows(DeltaSupport3(*ms), bound, True, 1)
            assert positive == [row for row in rows if 0 < row[1] < row[0]], ms

    def test_larger_bound_per_order(self):
        # one delta per loop order, each against the brute oracle
        for ms, bound in (((3, 1, 1), 400), ((1, 3, 1), 400), ((2, 2, 1), 600)):
            got = [(p.a, p.c) for p in enumerate_soft_points(DeltaSupport3(*ms), bound)]
            assert got == _oracles.brute_soft_points(*ms, bound), ms


    @pytest.mark.parametrize(
        "ms, bound, order",
        # the table path for (c, a); (c, b) and (a, b) with a powerful
        # looked-up role only arise where the table would outgrow the pairs
        [((2, 2, 2), 5000, "c,a"), ((2, 3, 2), 20000, "c,b"), ((3, 3, 2), 20000, "a,b")],
    )
    def test_powerful_lookup_per_order(self, monkeypatch, ms, bound, order):
        delta = DeltaSupport3(*ms)
        seen = []
        pair_rows = softpoints._pair_rows
        monkeypatch.setattr(softpoints, "_pair_rows", lambda *a: seen.append(order_label(a[0])) or pair_rows(*a))
        rows = soft_rows(delta, bound, False, 1)
        assert seen == [order]
        assert [(a, c) for c, a, _ in rows] == _oracles.brute_soft_points(*ms, bound)
        positive = [row for row in rows if 0 < row[1] < row[0]]
        assert soft_rows(delta, bound, True, 1) == positive
        for workers in (2, 3):
            assert soft_rows(delta, bound, False, workers) == rows
            assert soft_rows(delta, bound, True, workers) == positive

    def test_table_and_set_hits_agree(self):
        rng = random.Random(12)
        for _ in range(300):
            Y = sorted(rng.sample(range(1, 400), rng.randint(1, 60)))
            k = rng.randint(1, 50)
            X = range(1, k + 1) if rng.random() < 0.2 else sorted(rng.sample(range(1, 200), k))
            off = rng.randint(1, 200)
            n = 2 * off + X[-1] + 1
            table = softpoints._pair_hits(X, None, softpoints._hit_table(Y, off, n), off)
            lookup = softpoints._pair_hits(X, set(Y), None, off)
            for o in range(1, off + 1):
                diff = [x for x in X if abs(o - x) in Y]
                add = [x for x in X if o + x in Y]
                assert list(table(o)) == list(lookup(o)) == diff
                assert list(table(-o)) == list(lookup(-o)) == add

    def test_wheel_hits_are_the_class_prime_to_the_outer_value(self):
        rng = random.Random(16)
        for _ in range(200):
            Y = sorted(rng.sample(range(1, 400), rng.randint(1, 60)))
            in_y = set(Y)
            k = rng.randint(1, 60)
            # every role holds 1
            X = range(1, k + 1) if rng.random() < 0.2 else sorted({1, *rng.sample(range(2, 200), k)})
            off = rng.randint(1, 200)
            n = 2 * off + X[-1] + 1
            for lookup in ((None, softpoints._hit_table(Y, off, n), off), (in_y, None, off)):
                hits = softpoints._wheel_hits(X, lookup)
                assert sorted(hits) == [1, 2, 3, 6]
                for o in range(1, off + 1):
                    w = math.gcd(o, 6)
                    prime = [x for x in X if math.gcd(x, w) == 1]
                    h = hits[w]
                    assert list(h(o)) == [x for x in prime if abs(o - x) in in_y]
                    assert list(h(-o)) == [x for x in prime if o + x in in_y]

    @pytest.fixture(params=["table", "set"])
    def hit_path(self, request, monkeypatch):
        """Every pair scan finds its hits by the given path, whatever the
        table and pair lengths."""
        pair_hits = softpoints._pair_hits

        def forced(X, in_y, table, off):
            if request.param == "set":
                table = None
            elif table is None:
                table = softpoints._hit_table(sorted(in_y), off, 2 * off + X[-1] + 1)
            return pair_hits(X, in_y, table, off)

        monkeypatch.setattr(softpoints, "_pair_hits", forced)
        return request.param

    @pytest.mark.parametrize(
        "ms, bound, order",
        [((3, 1, 1), 400, "c,a"), ((1, 3, 1), 400, "c,b"), ((2, 2, 1), 600, "a,b"), ((2, 2, 2), 3000, "c,a")],
        ids=["3,1,1", "1,3,1", "2,2,1", "2,2,2"],
    )
    def test_wheel_per_order_and_hit_path(self, monkeypatch, hit_path, ms, bound, order):
        delta = DeltaSupport3(*ms)
        seen = []
        pair_rows = softpoints._pair_rows
        monkeypatch.setattr(softpoints, "_pair_rows", lambda *a: seen.append(order_label(a[0])) or pair_rows(*a))
        rows = soft_rows(delta, bound, False, 1)
        assert set(seen) == {order}
        expected = _oracles.brute_soft_points(*ms, bound)
        assert [(a, c) for c, a, _ in rows] == expected
        # outer values in every class of the wheel give rows
        assert {math.gcd(c if order != "a,b" else abs(a), 6) for c, a, _ in rows} == {1, 2, 3, 6}
        for c, a, rad in rows:
            assert rad == _oracles.sympy_radical(abs(a * (c - a) * c))
        positive = [row for row in rows if 0 < row[1] < row[0]]
        for workers in (1, 2, 3):
            assert soft_rows(delta, bound, True, workers) == positive
            if workers > 1:
                assert soft_rows(delta, bound, False, workers) == rows

    def test_hit_table_only_where_it_is_no_longer_than_the_pairs(self, monkeypatch):
        built = []
        hit_table = softpoints._hit_table
        monkeypatch.setattr(softpoints, "_hit_table", lambda *a: built.append(a[2]) or hit_table(*a))
        # the benchmark's shape: 4.0e6 pairs against a 1.5e6-byte table
        rows = soft_rows(D222, 500_000, False, 1)
        assert len(rows) == 4200 and built == [1_500_001]
        # one c against 2e4 values of a: the table would take 1e8 bytes
        built.clear()
        tracemalloc.start()
        try:
            rows = soft_rows(DeltaSupport3(2, 2, INFINITY), 10**8, False, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built == [] and peak < 10**7
        assert rows == [(1, a, _oracles.sympy_radical(abs(a * (1 - a)))) for _, a, _ in rows]

class TestBlocks:
    def test_a_block_ends_with_the_c_that_fills_it(self, monkeypatch):
        monkeypatch.setattr(softpoints, "BLOCK_ROWS", 50)
        for ms, bound in (((3, 1, 1), 400), ((1, 3, 1), 400), ((2, 2, 2), 3000)):
            delta = DeltaSupport3(*ms)
            blocks = list(softpoints._soft_rows(delta, bound, False, 1))
            assert len(blocks) > 2, ms
            # the workers' one block is sorted whole
            assert [row for block in blocks for row in block] == soft_rows(delta, bound, False, 2), ms
            for block in blocks[:-1]:
                assert block == sorted(block), ms
                before_its_last_c = [row for row in block if row[0] < block[-1][0]]
                assert len(before_its_last_c) < 50 <= len(block), ms
            # the last block holds the rest, which may be none
            assert blocks[-1] == sorted(blocks[-1]) and len(blocks[-1]) < 50, ms

    @pytest.mark.parametrize("ms, workers", [((2, 2, 1), 1), ((3, 1, 1), 2), ((2, 2, 2), 3)])
    def test_the_a_b_order_and_workers_give_one_block(self, monkeypatch, ms, workers):
        monkeypatch.setattr(softpoints, "BLOCK_ROWS", 1)
        blocks = softpoints._soft_rows(DeltaSupport3(*ms), 600, False, workers)
        assert len(blocks) == 1 and blocks[0] == soft_rows(DeltaSupport3(*ms), 600, False, 1)

    def test_checks_and_tables_come_before_the_first_block(self, monkeypatch):
        built = []
        hit_table = softpoints._hit_table
        monkeypatch.setattr(softpoints, "_hit_table", lambda *a: built.append(a[2]) or hit_table(*a))
        with pytest.raises(MathDomainError):
            softpoints._soft_rows(D222, 1, False, 1)
        blocks = softpoints._soft_rows(D222, 5000, False, 1)
        assert built == [15001]
        assert next(blocks)


class TestBoundCheck:
    def test_examples(self):
        bc = campana_abc_bound_check(P1PointQ(9, 25), D222)
        assert bc.holds
        assert bc.lhs == pytest.approx(1.5 * math.log(25), abs=1e-12)
        assert bc.rhs == pytest.approx(math.log(30), abs=1e-12)
        bc = campana_abc_bound_check(P1PointQ(1, 9), D222)
        assert bc.holds
        assert bc.lhs == pytest.approx(1.5 * math.log(9), abs=1e-12)
        assert bc.rhs == pytest.approx(math.log(6), abs=1e-12)
        bc = campana_abc_bound_check(P1PointQ(8, 9), D222)
        assert bc.holds and bc.rhs == pytest.approx(math.log(6), abs=1e-12)

    def test_exact_variant_agrees(self):
        for pt in enumerate_soft_points(D222, 2000):
            check = campana_abc_bound_check(pt, D222)
            assert check.holds
            assert campana_abc_bound_exact(pt, D222)

    def test_preconditions(self):
        with pytest.raises(MathDomainError):
            campana_abc_bound_check(P1PointQ(2, 3), D222)
        with pytest.raises(MathDomainError):
            campana_abc_bound_check(P1PointQ(9, 25), DeltaSupport3(2, 2, INFINITY))
        with pytest.raises(PointOnBoundaryError):
            campana_abc_bound_check(P1PointQ(1, 0), D222)
