import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import dualitylab.extremal
from dualitylab import (
    INF,
    ClassificationError,
    ClassTagError,
    ConsistencyError,
    DeltaFunction,
    HypothesisViolationError,
    PLConvex1D,
    WitnessPair,
    almost_linear_bounds,
    as_fraction,
    cover_witness_search,
    is_inf,
    leq,
    make_delta,
    make_indicator,
    make_linear,
    make_triangle,
    monotone_envelope,
    quasi_linear_sandwich,
    sup2,
    witness_is_valid,
)
from dualitylab.corpus import _ratio_any

from helpers import (
    random_cover_case,
    random_geometric,
    reference_almost_linear_bounds,
    reference_cover_witness_search,
    reference_delta_leq,
    reference_delta_ratio,
)


def _witness_case(f, ctilde) -> str:
    """Which case of the closed-form construction decides f."""
    if f.is_indicator:
        return "indicator"
    if not is_inf(f.domain_end):
        return "bounded"
    if almost_linear_bounds(f, ctilde):
        return "almost-linear"
    return "zero-start" if f.zero_end() > 0 else "steep-tail"


class TestConstructors:
    def test_indicator_shapes(self):
        f = make_indicator(3)
        assert f(3) == 0 and f(Fraction(7, 2)) == INF
        assert make_indicator(INF).is_zero
        assert make_indicator(0).is_point_indicator
        with pytest.raises(ValueError):
            make_indicator(-1)

    def test_linear_shapes(self):
        f = make_linear(Fraction(2, 3))
        assert f(3) == 2
        assert make_linear(0).is_zero
        assert make_linear(INF).is_point_indicator
        with pytest.raises(ValueError):
            make_linear(-2)

    def test_triangle_two_parameterizations(self):
        t = make_triangle(2, 3)
        assert t(2) == 6 and t(1) == 3 and t(Fraction(5, 2)) == INF
        for bad in ((0, 1), (1, 0), (-1, 1)):
            with pytest.raises(ValueError):
                make_triangle(*bad)

    def test_triangle_is_sup_of_ray_and_indicator(self):
        t = make_triangle(2, 3)
        assert t == sup2(make_linear(3), make_indicator(2))


class TestDelta:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeltaFunction(math.inf, 1.0)
        with pytest.raises(ValueError):
            DeltaFunction(1.0, -1.0)
        with pytest.raises(ValueError):
            DeltaFunction((1.0, math.nan), 0.0)

    def test_empty_pin_rejected(self):
        for theta in ((), []):
            with pytest.raises(ValueError):
                make_delta(theta, 1)

    def test_theta_normalized(self):
        assert make_delta((1, 2), 3).theta == (1.0, 2.0)
        assert make_delta(2, 0).theta == 2.0

    def test_order(self):
        d = make_delta(1.0, 2.0)
        assert _ratio_any(d, make_delta(1.0, 3.0))[0] <= 1
        assert not _ratio_any(d, make_delta(1.0, 1.0))[0] <= 1
        assert _ratio_any(d, make_delta(1.0, 1.0))[0] <= 2
        # different pins never compare, whatever the factor
        assert not _ratio_any(d, make_delta(2.0, 100.0))[0] <= 100

    @pytest.mark.parametrize("factor", [0, 0.0, -1, Fraction(-1, 2), "-3"])
    def test_nonpositive_factor_rejected(self, factor):
        # the same check as `leq`, which raises for these factors too
        with pytest.raises(ValueError, match="factor must be positive"):
            leq(make_linear(1), make_linear(2), factor)

    def test_matches_the_former_rules(self):
        # the corpus ratio's pinned rule agrees with the former separate
        # statements of the ratio and of the order, on every positive factor
        rng = random.Random(7)
        pins = (0.0, 1.0, -2.5, (1.0, 2.0), (1.0, -2.0))
        values = (0.0, 0.0, 0.5, 1.0, 3.0, 5e-324, 1e300)
        factors = (1, 2, Fraction(3, 2), Fraction(2, 3), 0.1, 5e-324, 1e300, "5/7")
        seen = Counter()
        for _ in range(4000):
            theta = rng.choice(pins)
            d = make_delta(theta, rng.choice(values + (rng.uniform(0, 10),)))
            e = make_delta(theta if rng.random() < 0.8 else rng.choice(pins),
                           rng.choice(values + (rng.uniform(0, 10),)))
            ratio = _ratio_any(d, e)
            assert ratio == reference_delta_ratio(d, e)
            for factor in factors + (rng.uniform(0.01, 10), ratio[0]):
                if is_inf(factor) or factor == 0:
                    continue
                got = ratio[0] <= as_fraction(factor)
                assert got == reference_delta_leq(d, e, factor)
                seen[d.theta == e.theta, d.c == 0, e.c == 0, got] += 1
        # (same pin, d.c == 0, e.c == 0, d <= factor * e): distinct pins
        # never compare, a zero d is below every e on its pin, and a positive
        # d is above a zero e
        assert set(seen) == {(False, dz, ez, False) for dz in (False, True) for ez in (False, True)} | {
            (True, True, True, True), (True, True, False, True),
            (True, False, True, False), (True, False, False, True),
            (True, False, False, False)}


class TestWitnessSearch:
    def test_indicators_are_irreducible(self):
        for z in (Fraction(1, 4), 1, 8):
            assert cover_witness_search(make_indicator(z), 2) is None

    def test_linears_are_irreducible(self):
        for a in (Fraction(1, 4), 1, 8):
            assert cover_witness_search(make_linear(a), 2) is None

    def test_flat_then_steep_triangle_is_covered(self):
        # 1 at z=1 but slope 64 overall: dominated by sup(1*x, 1_[0,1])
        # while neither factor alone gets within ctilde^3.
        f = make_triangle(1, 64)
        pair = cover_witness_search(f, Fraction(3, 2))
        assert pair is not None
        assert witness_is_valid(f, pair, Fraction(3, 2))

    def test_witness_validity_is_exact(self):
        f = make_triangle(1, 64)
        good = cover_witness_search(f, Fraction(3, 2))
        assert witness_is_valid(f, good, Fraction(3, 2))
        # the covering inequality must be exact, not approximate
        bad = WitnessPair(good.g, make_indicator(Fraction(1, 2)))
        assert leq(f, sup2(bad.g, bad.h)) or not witness_is_valid(f, bad, Fraction(3, 2))

    def test_no_witness_on_nearly_linear(self):
        # within ctilde^3 of its starting ray, so the ray alone dominates
        f = PLConvex1D(((0, 0), (1, 1)), Fraction(3, 2))
        assert almost_linear_bounds(f, Fraction(3, 2))
        assert cover_witness_search(f, Fraction(3, 2)) is None

    def test_search_results_verify_on_random_corpus(self):
        rng = random.Random(31)
        found = 0
        for _ in range(80):
            f = random_geometric(rng, max_knots=6, allow_extremes=False)
            pair = cover_witness_search(f, Fraction(6, 5))
            if pair is not None:
                found += 1
                assert witness_is_valid(f, pair, Fraction(6, 5))
        assert found > 5  # loose: the family is rich enough to cover often

    def test_rejects_small_constant(self):
        with pytest.raises(ValueError):
            cover_witness_search(make_triangle(1, 2), 1)

    @pytest.mark.parametrize(
        "f, ctilde, expected",
        [
            (make_triangle(1, 64), Fraction(3, 2), (64, 1)),
            (PLConvex1D(((0, 0), (1, 0)), 1), Fraction(3, 2), (Fraction(4, 27), Fraction(27, 23))),
            (PLConvex1D(((0, 0), (1, 1)), 9), 2, (1, 1)),
            (PLConvex1D(((0, 0), (1, 1)), 8), 2, None),
            (make_indicator(INF), 2, None),
        ],
        ids=["bounded", "zero-start", "steep-tail", "almost-linear", "indicator"],
    )
    def test_pinned_pair_per_case(self, f, ctilde, expected):
        pair = cover_witness_search(f, ctilde)
        if expected is None:
            assert pair is None
        else:
            a, x1 = expected
            assert pair == WitnessPair(make_linear(a), make_indicator(x1))

    def test_matches_the_candidate_search(self):
        # same existence decision as the former candidate search, every case
        rng = random.Random(9)
        constants = (Fraction(11, 10), Fraction(3, 2), 2, 1.5)
        cases = Counter()
        for n in range(1000):
            ctilde = constants[n // 5 % 4]
            f = random_cover_case(rng, n % 5, ctilde)
            cases[_witness_case(f, ctilde)] += 1
            pair = cover_witness_search(f, ctilde)
            assert (pair is None) == (reference_cover_witness_search(f, ctilde) is None), n
            if not f.is_indicator:
                assert almost_linear_bounds(f, ctilde) == reference_almost_linear_bounds(
                    f, ctilde
                ), n
        assert len(cases) == 5 and min(cases.values()) >= 100, cases

    def test_shrunk_ray_trips_the_reverification(self, monkeypatch):
        make_linear_exact = dualitylab.extremal.make_linear
        monkeypatch.setattr(
            dualitylab.extremal, "make_linear",
            lambda a: make_linear_exact(a * (1 - Fraction(1, 10**9))),
        )
        for f, ctilde in (
            (make_triangle(1, 64), Fraction(3, 2)),
            (PLConvex1D(((0, 0), (1, 0)), 1), Fraction(3, 2)),
            (PLConvex1D(((0, 0), (1, 1)), 9), 2),
        ):
            with pytest.raises(ConsistencyError):
                cover_witness_search(f, ctilde)


class TestAlmostLinearBounds:
    def test_boundary_equality_counts(self):
        # f = x on [0,1] then slope 8 == ctilde^3 * 1 exactly
        f = PLConvex1D(((0, 0), (1, 1)), 8)
        assert almost_linear_bounds(f, 2)
        g = PLConvex1D(((0, 0), (1, 1)), 9)
        assert not almost_linear_bounds(g, 2)

    def test_zero_first_slope_fails(self):
        f = PLConvex1D(((0, 0), (1, 0)), 1)
        assert not almost_linear_bounds(f, 2)

    def test_indicator_raises(self):
        with pytest.raises(ClassificationError):
            almost_linear_bounds(make_indicator(1), 2)

    def test_linear_always_passes(self):
        assert almost_linear_bounds(make_linear(5), Fraction(11, 10))


class TestMonotoneEnvelope:
    def test_running_max(self):
        env = monotone_envelope([(0, 1.0), (1, 0.5), (2, 2.0), (3, 1.0)])
        assert env == [(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0)]

    def test_two_sided_proxy_under_hypothesis(self):
        rng = random.Random(5)
        C = 2.0
        base = sorted(rng.uniform(0, 10) for _ in range(50))
        xs = sorted(set(base))
        vals = [(x, (1 + x) * rng.uniform(1 / math.sqrt(C), math.sqrt(C))) for x in xs]
        env = monotone_envelope(vals, C=C)
        for (x, v), (_, g) in zip(vals, env):
            assert v <= g <= C * v + 1e-12

    def test_violation_carries_witness(self):
        with pytest.raises(HypothesisViolationError) as ei:
            monotone_envelope([(0, 10.0), (1, 1.0)], C=2.0)
        assert ei.value.witness == ((0.0, 10.0), (1.0, 1.0))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            monotone_envelope([(1, 1.0), (1, 2.0)])
        with pytest.raises(ValueError):
            monotone_envelope([(0, -1.0)])
        with pytest.raises(ValueError):
            monotone_envelope([(0, 1.0)], C=0.5)
        assert monotone_envelope([]) == []


class TestQuasiLinearSandwich:
    def test_exactly_linear(self):
        samples = [((x,), a, a * (1 + x)) for x in (0.0, 1.0, 2.0) for a in (0.0, 1.0, 2.0)]
        # h(x, a) = a*(1+x): ratios v/a span [1, 3]
        cprime, ok = quasi_linear_sandwich(samples, C=4.0)
        assert ok and cprime == 3.0

    def test_zero_slice_must_vanish(self):
        with pytest.raises(HypothesisViolationError):
            quasi_linear_sandwich([((1.0,), 0.0, 0.5)], C=2.0)

    def test_collinear_violation_detected(self):
        # h jumps on the midpoint of a collinear triple
        samples = [((0.0,), 1.0, 1.0), ((1.0,), 1.0, 100.0), ((2.0,), 1.0, 1.0)]
        with pytest.raises(HypothesisViolationError):
            quasi_linear_sandwich(samples, C=2.0)

    def test_infinite_when_value_vanishes(self):
        cprime, ok = quasi_linear_sandwich([((0.0,), 1.0, 0.0)], C=2.0)
        assert not ok and math.isinf(cprime)

    def test_scalar_x_accepted(self):
        cprime, ok = quasi_linear_sandwich([(1.0, 2.0, 2.0)], C=2.0)
        assert ok and cprime == 1.0


class TestNonFiniteSamples:
    """Both sampled-data envelopes reject a NaN or infinite entry."""

    @pytest.mark.parametrize("samples, C", [
        ([(0.0, 1.0), (math.nan, 2.0)], None),
        ([(0.0, 1.0), (math.inf, 2.0)], None),
        ([(0.0, 1.0), (math.inf, 2.0)], 1.5),
    ], ids=["nan-abscissa", "inf-abscissa", "inf-abscissa-with-C"])
    def test_envelope_rejects(self, samples, C):
        with pytest.raises(ValueError, match="samples must be finite"):
            monotone_envelope(samples, C=C)

    @pytest.mark.parametrize("samples", [
        [(0.0, math.nan, 1.0), (1.0, 1.0, 1.0)],
        [(math.nan, 1.0, 1.0), (1.0, 1.0, 1.0)],
        [((0.0, math.nan), 1.0, 1.0), ((1.0, 1.0), 1.0, 1.0)],
        [(0.0, math.inf, 1.0), (1.0, 1.0, 1.0)],
    ], ids=["nan-a", "nan-coordinate", "nan-second-coordinate", "inf-a"])
    def test_sandwich_rejects(self, samples):
        with pytest.raises(ValueError, match="samples must be finite"):
            quasi_linear_sandwich(samples, 1.5)
