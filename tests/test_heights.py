import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constel.arith import canonicalize, radical
from constel import arith, heights
from constel.errors import (
    MathDomainError,
    PointOnBoundaryError,
    ResourceLimitError,
    UnsupportedFieldError,
)
from constel.heights import (
    AbcTriple,
    Form,
    FormDivisor,
    abc_quality,
    counting_function,
    log_discriminant_term,
    naive_height,
    scan_abc,
    scan_vojta_gap,
    vojta_gap,
)

import _oracles

XYZ = FormDivisor.coordinate_axes(3)


class TestForms:
    def test_rejects_bad_forms(self):
        with pytest.raises(ValueError):
            Form(2, ())  # zero form
        with pytest.raises(ValueError):
            Form(2, ((((1, 0)), 2), (((0, 1)), 2)))  # content 2
        with pytest.raises(ValueError):
            Form(2, ((((2, 0)), 1), (((0, 1)), 1)))  # inhomogeneous

    @pytest.mark.parametrize(
        "build",
        [lambda: Form.coordinate(5, 2), lambda: Form.coordinate(-1, 3), lambda: Form(0, (((), 1),))],
        ids=["index_past_nvars", "negative_index", "no_variables"],
    )
    def test_refuses_coordinates_that_do_not_exist(self, build):
        # each of these used to give a constant form of degree 0
        with pytest.raises(ValueError):
            build()
        assert Form.coordinate(1, 2).terms == (((0, 1), 1),)

    def test_merges_terms(self):
        f = Form(2, ((((1, 1)), 2), (((1, 1)), -1)))
        assert f.terms == (((1, 1), 1),)
        assert f.evaluate((3, 5)) == 15

    def test_line_form(self):
        line = Form(3, ((((1, 0, 0)), 1), (((0, 1, 0)), 1), (((0, 0, 1)), 1)))
        assert line.evaluate((1, 8, -9)) == 0
        assert line.degree == 1


class TestNaiveHeight:
    def test_examples(self):
        assert naive_height(canonicalize((4, 6, 15))).H == 15
        report = naive_height(canonicalize((0, 1)))
        assert report.H == 1 and report.h == 0.0
        assert naive_height(canonicalize((1, 8, -9))).H == 9

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(min_value=-90, max_value=90), min_size=2, max_size=4),
        st.integers(min_value=1, max_value=9),
    )
    def test_scale_invariance(self, coords, k):
        if all(x == 0 for x in coords):
            return
        base = naive_height(canonicalize(coords))
        scaled = naive_height(canonicalize([k * x for x in coords]))
        assert base == scaled
        assert base.h == pytest.approx(math.log(base.H), rel=1e-12)


class TestCounting:
    def test_abc_instance(self):
        p = canonicalize((1, 8, -9))
        rep = counting_function(XYZ, p)
        assert rep.per_prime == ((2, 3), (3, 2))
        assert rep.N == pytest.approx(math.log(72), rel=1e-12)
        assert rep.N_trunc == pytest.approx(math.log(6), rel=1e-12)

    def test_excluded_prime(self):
        rep = counting_function(XYZ, canonicalize((1, 8, -9)), excluded={2})
        assert rep.per_prime == ((3, 2),)
        assert rep.N == pytest.approx(2 * math.log(3), rel=1e-12)
        assert rep.N_trunc == pytest.approx(math.log(3), rel=1e-12)

    def test_unit_values_count_nothing(self):
        rep = counting_function(FormDivisor((Form.coordinate(0, 2),)), canonicalize((1, 5)))
        assert rep.N == 0 and rep.N_trunc == 0 and rep.per_prime == ()

    def test_point_on_divisor(self):
        with pytest.raises(PointOnBoundaryError):
            counting_function(FormDivisor((Form.coordinate(0, 2),)), canonicalize((0, 5)))

    def test_quadric_component(self):
        # x^2 + yz vanishes to order v_p(1 + 6) = v_7(7) at (1:2:3)
        quadric = Form(3, ((((2, 0, 0)), 1), (((0, 1, 1)), 1)))
        rep = counting_function(FormDivisor((quadric,)), canonicalize((1, 2, 3)))
        assert rep.per_prime == ((7, 1),)
        assert rep.N == pytest.approx(math.log(7), rel=1e-12)
        mixed = FormDivisor((quadric, Form.coordinate(0, 3)))
        rep2 = counting_function(mixed, canonicalize((2, 2, 3)))
        # x^2+yz = 10, x = 2: multiplicities 2 -> 2, 5 -> 1
        assert rep2.per_prime == ((2, 2), (5, 1))

    def test_truncated_below_full(self):
        for a in range(1, 40):
            for b in range(a, 40):
                if math.gcd(a, b) != 1:
                    continue
                rep = counting_function(XYZ, canonicalize((a, b, -(a + b))))
                assert rep.N_trunc <= rep.N + 1e-15

    def test_truncated_equals_log_radical(self):
        for a in range(1, 60):
            for b in range(a, 60):
                if math.gcd(a, b) != 1:
                    continue
                c = a + b
                rep = counting_function(XYZ, canonicalize((a, b, -c)))
                assert rep.N_trunc == pytest.approx(math.log(radical(a * b * c)), rel=1e-12)


class TestAbcQuality:
    def test_examples(self):
        assert abc_quality(AbcTriple(1, 8, 9)) == pytest.approx(
            math.log(9) / math.log(6), rel=1e-15
        )
        assert abc_quality(AbcTriple(1, 1, 2)) == 1.0
        assert abc_quality(AbcTriple(1, 2, 3)) == pytest.approx(
            math.log(3) / math.log(6), rel=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            AbcTriple(2, 2, 4)
        with pytest.raises(ValueError):
            AbcTriple(1, 2, 4)
        with pytest.raises(ValueError):
            AbcTriple(0, 2, 2)

    def test_quality_above_one_iff_c_beats_radical(self):
        for a in range(1, 80):
            for b in range(a, 80):
                if math.gcd(a, b) != 1:
                    continue
                t = AbcTriple(a, b, a + b)
                assert (abc_quality(t) > 1) == (t.c > t.radical_product)


class TestDiscriminant:
    def test_rational_field(self):
        assert log_discriminant_term("Q") == 0.0
        assert log_discriminant_term("Q") == 0.0  # pure

    def test_other_fields_rejected(self):
        with pytest.raises(UnsupportedFieldError):
            log_discriminant_term("Q(i)")


class TestVojtaGap:
    def test_example(self):
        gap = vojta_gap(canonicalize((1, 8, -9)), 0.2)
        assert gap == pytest.approx(0.8 * math.log(9) - math.log(6), abs=1e-12)

    def test_small_point(self):
        assert vojta_gap(canonicalize((1, 1, -2)), 0.5) < 0

    def test_degenerate_point(self):
        with pytest.raises(PointOnBoundaryError):
            vojta_gap(canonicalize((1, -1, 0)), 0.2)

    def test_off_line(self):
        with pytest.raises(MathDomainError):
            vojta_gap(canonicalize((1, 2, 3)), 0.2)

    @pytest.mark.parametrize("eps_prime", [0, 1, -0.5, 1.5])
    def test_eps_prime_outside_the_interval(self, eps_prime):
        with pytest.raises(MathDomainError):
            vojta_gap(canonicalize((1, 8, -9)), eps_prime)

    def test_translation_identity_signs(self):
        # h <= (1+eps) N1 iff (1-eps') h <= N1 with 1-eps' = 1/(1+eps)
        for eps in (0.1, 0.25, 0.5, 1.0):
            eps_prime = 1 - 1 / (1 + eps)
            for a, b in ((1, 8), (3, 125), (1, 1), (5, 27), (49, 576)):
                p = canonicalize((a, b, -(a + b)))
                h = naive_height(p).h
                n1 = counting_function(XYZ, p).N_trunc
                lhs = h - (1 + eps) * n1
                rhs = (1 - eps_prime) * h - n1
                assert (lhs > 1e-12) == (rhs > 1e-12 * (1 - eps_prime))

    def test_scan_trace(self):
        events = scan_vojta_gap(0.2, 1000)
        gaps = [e.gap for e in events]
        assert gaps == sorted(gaps)
        # final event is the window maximum; recompute it independently
        best = max(
            (1 - 0.2) * math.log(a + b) - math.log(radical(a * b * (a + b)))
            for a in range(1, 500)
            for b in range(a + 1, 1001 - a)
            if math.gcd(a, b) == 1
        )
        assert events[-1].gap == pytest.approx(best, abs=1e-12)
        assert (events[-1].a, events[-1].b, events[-1].c) == (3, 125, 128)


def test_rad_sieves_match_factorize():
    from constel.heights import _rad_table

    table = _rad_table(1500)
    for n in range(1, 1501):
        assert table[n] == radical(n)


class TestAbcScan:
    def test_small_window(self):
        hits = scan_abc(10, Fraction(1))
        assert [(h.a, h.b, h.c) for h in hits] == [(1, 8, 9), (1, 1, 2)]

    def test_minimal_window(self):
        hits = scan_abc(2, Fraction(1))
        assert [(h.a, h.b, h.c, h.rad, h.quality) for h in hits] == [(1, 1, 2, 2, 1.0)]

    def test_matches_brute_oracle(self):
        got = {(h.a, h.b, h.c, h.rad) for h in scan_abc(800, Fraction(1))}
        assert got == _oracles.brute_abc_set(800, 1, 1)

    def test_threshold_is_exact(self):
        # (1,8,9) has quality log9/log6 = 1.2262...; a rational threshold
        # just above/below must include/exclude it exactly
        below = Fraction(12262, 10000)
        above = Fraction(12263, 10000)
        assert any(h.c == 9 for h in scan_abc(10, below))
        assert not any(h.c == 9 for h in scan_abc(10, above))

    def test_worker_counts_agree(self):
        single = scan_abc(600, Fraction(1))
        assert scan_abc(600, Fraction(1), workers=2) == single
        assert scan_abc(600, Fraction(1), workers=8) == single

    def test_sorted_by_quality(self):
        hits = scan_abc(300, Fraction(1))
        qualities = [h.quality for h in hits]
        assert qualities == sorted(qualities, reverse=True)

    def test_float_order_is_the_exact_order(self):
        # the scan sorts by the float quality; ln c / ln rad to 60 digits
        # orders the hits the same way, so no near-tie is misplaced
        hits = scan_abc(10**5, Fraction(1))
        with localcontext() as ctx:
            ctx.prec = 60
            exact = sorted(hits, key=lambda h: (-(Decimal(h.c).ln() / Decimal(h.rad).ln()), h.c, h.a))
        assert len(hits) == 420
        assert hits == exact

    # q = 1/3 is left out: all 608 294 coprime pairs are hits, T >= c^2
    # skips nothing, and test_below_one_third_admits_every_coprime_triple
    # covers that threshold
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "quality",
        [
            Fraction(1),
            Fraction(6, 5),
            Fraction(12262, 10000),
            Fraction(3, 2),
            Fraction(2, 3),
            Fraction(1001, 1000),
            Fraction(2),
        ],
    )
    def test_matches_brute_oracle_at_2000(self, quality, workers):
        got = {(h.a, h.b, h.c, h.rad) for h in scan_abc(2000, quality, workers=workers)}
        assert got == _oracles.brute_abc_set(2000, quality.numerator, quality.denominator)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("max_c", [2, 3, 4, 9])
    @pytest.mark.parametrize(
        "quality",
        [Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(1001, 1000), Fraction(6, 5), Fraction(3, 2), Fraction(2)],
    )
    def test_matches_brute_oracle_in_tiny_windows(self, quality, max_c, workers):
        # a c with T < 2 is never visited, nor at quality >= 1 a squarefree
        # c > 2; (1, 1, 2) stays a hit up to q = 1
        got = {(h.a, h.b, h.c, h.rad) for h in scan_abc(max_c, quality, workers=workers)}
        assert got == _oracles.brute_abc_set(max_c, quality.numerator, quality.denominator)
        assert ((1, 1, 2, 2) in got) == (quality <= 1)

    @pytest.mark.parametrize("quality", [Fraction(1, 3), Fraction(9, 10), Fraction(1), Fraction(6, 5)])
    def test_squarefree_c_are_not_dealt_out(self, quality, monkeypatch):
        dealt = []
        real = heights.fork_map

        def recording(func, items, workers):
            dealt.append(list(items))
            return real(func, items, workers)

        monkeypatch.setattr(heights, "fork_map", recording)
        scan_abc(300, quality, workers=2)
        if quality >= 1:
            assert dealt == [[2] + [c for c in range(3, 301) if radical(c) < c]]
        else:
            assert dealt == [list(range(2, 301))]

    def test_radical_products_do_not_overflow(self):
        # radical products here pass 2^63; as int64 they wrapped negative
        # and reached math.log
        from constel.heights import _RadicalIndex, _scan_abc_chunk

        hits = _scan_abc_chunk(_RadicalIndex(4_000_000), Fraction(1), range(3_999_990, 4_000_001))
        assert hits
        for a, b, c, rad, _ in hits:
            assert 3_999_990 <= c <= 4_000_000
            assert AbcTriple(a, b, c).radical_product == rad
            assert c >= rad


class TestVojtaScan:
    @pytest.mark.parametrize(
        "eps_prime, max_c",
        [
            pytest.param(e, n, id=str(e) if n == 1500 and e in (0.05, 0.2, 0.5) else f"{e}-{n}")
            for e in (0.001, 0.05, 0.2, 0.5, 0.999)
            for n in (3, 4, 5, 1500)
        ],
    )
    def test_matches_brute_trace(self, eps_prime, max_c):
        events = scan_vojta_gap(eps_prime, max_c)
        got = [(e.a, e.b, e.c, e.gap) for e in events]
        assert got == _oracles.brute_vojta_trace(eps_prime, max_c)

    def test_window_of_1e5(self):
        last = scan_vojta_gap(0.2, 10**5)[-1]
        # 7^3 + 3^10 = 2^11 * 29
        assert (last.a, last.b, last.c) == (343, 59049, 59392)
        assert last.gap == pytest.approx(0.8 * math.log(59392) - math.log(7 * 3 * 2 * 29), abs=1e-12)


class ClassOne:
    """An index whose every class reads its class-1 order: the scan with
    no wheel, for the differential tests."""

    def __init__(self, index):
        self.index, self.rad, self.order = index, index.rad, self

    def __getitem__(self, k):
        return self.index.order[1]

    def count_upto(self, s, k=1):
        return self.index.count_upto(s)


class TestWheelIndex:
    def assert_classes(self, index):
        rad, one = index.rad, index.order[1]
        assert one == sorted((n for n in range(1, len(rad)) if rad[n] <= index.cap), key=lambda n: (rad[n], n))
        assert sorted(index.order) == sorted(index.keys) == [1, 2, 3, 6]
        for k, order in index.order.items():
            assert order == [n for n in one if math.gcd(n, k) == 1]
            keys = list(index.keys[k])
            assert keys == [index.rad[n] for n in order] == sorted(keys)

    @pytest.mark.parametrize("limit", [1, 2, 7, 100, 2000])
    def test_every_class_is_the_class_one_order_prime_to_k(self, limit):
        index = heights._RadicalIndex(limit)
        assert index.cap == math.isqrt(limit)
        self.assert_classes(index)
        # one step past the cap at least doubles it; the limit takes all
        index.count_upto(index.cap + 1)
        assert index.cap == min(max(2 * math.isqrt(limit), 1), limit)
        self.assert_classes(index)
        for k in (1, 2, 3, 6):
            assert index.count_upto(limit, k) == len(index.order[k])
        assert index.cap == limit
        assert len(index.order[1]) == limit
        self.assert_classes(index)

    @staticmethod
    def recorded(monkeypatch, scan, one_class):
        """The (c, candidates) that _pruned_triples yields during scan()."""
        seen = []
        real = heights._pruned_triples

        def recording(index, cs, log_bound):
            for c, candidates in real(ClassOne(index) if one_class else index, cs, log_bound):
                seen.append((c, candidates))
                yield c, candidates

        with monkeypatch.context() as m:
            m.setattr(heights, "_pruned_triples", recording)
            scan()
        return seen

    # at q = 1/3 every coprime pair is a candidate, 608 294 of them at 2000
    # (about 4 s), so that threshold stops at 700
    @pytest.mark.parametrize(
        "scan, max_c",
        [
            *(
                pytest.param(lambda n, q=q: heights._abc_rows(n, q, 1), n, id=f"abc-{q}-{n}")
                for q in (Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(6, 5), Fraction(2))
                for n in (3, 40, 700, 2000)
                if n < 2000 or q > Fraction(1, 3)
            ),
            *(
                pytest.param(lambda n, e=e: scan_vojta_gap(e, n), n, id=f"vojta-{e}-{n}")
                for e in (0.05, 0.2, 0.9)
                for n in (3, 40, 700, 2000)
            ),
        ],
    )
    def test_pruned_triples_equal_the_scan_without_the_wheel(self, monkeypatch, scan, max_c):
        wheel = self.recorded(monkeypatch, lambda: scan(max_c), False)
        assert wheel
        assert wheel == self.recorded(monkeypatch, lambda: scan(max_c), True)


class TestQualityThresholds:
    def test_below_one_third_admits_every_coprime_triple(self):
        everything = scan_abc(60, Fraction(1, 3))
        pairs = {(a, c - a, c) for c in range(2, 61) for a in range(1, c // 2 + 1) if math.gcd(a, c) == 1}
        assert {(h.a, h.b, h.c) for h in everything} == pairs
        for tiny in (Fraction(1, 4), Fraction(1, 10**300), Fraction(1, 10**400)):
            assert scan_abc(60, tiny) == everything

    def test_long_terms_are_refused_before_the_sieve(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("the radical sieve was allocated")

        monkeypatch.setattr(arith, "array", no_table)
        cap = heights.MAX_THRESHOLD_TERM
        for q in (Fraction("1.4142135623730951"), Fraction(cap + 1, cap), Fraction(cap, cap + 1)):
            with pytest.raises(ResourceLimitError):
                scan_abc(30, q)


@pytest.mark.parametrize(
    "scan",
    [
        lambda: scan_abc(1000.0, Fraction(1)),
        lambda: scan_abc(1000.5, Fraction(1)),
        lambda: scan_vojta_gap(0.2, 1000.0),
        lambda: scan_vojta_gap(0.2, 1000.5),
    ],
    ids=["abc-1000.0", "abc-1000.5", "vojta-1000.0", "vojta-1000.5"],
)
def test_scans_refuse_a_float_window(scan):
    with pytest.raises(MathDomainError):
        scan()


def test_sieve_cap_refuses_before_allocating(monkeypatch):
    def no_table(*args):
        raise AssertionError("the radical sieve was allocated")

    monkeypatch.setattr(arith, "array", no_table)
    over = heights.MAX_SIEVE_LIMIT + 1
    with pytest.raises(ResourceLimitError):
        scan_abc(over, Fraction(1))
    with pytest.raises(ResourceLimitError):
        scan_vojta_gap(0.2, over)
