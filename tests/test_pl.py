import dataclasses
import math
import random
from bisect import bisect
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualitylab import (
    INF,
    ClassTag,
    ClassTagError,
    ConvexityError,
    DomainError,
    PLConvex1D,
    as_extended,
    as_fraction,
    compose_dilate,
    hat_inf2,
    leq,
    leq_witness,
    scale,
    sup2,
)
from dualitylab.pl import (
    _affine,
    _breakpoints,
    _eq,
    _hull_function,
    _lower_hull,
    _lt,
    _slope,
    _value_on,
    ratio_sup,
    ratio_sup_abscissae,
)
from dualitylab.transforms import _gauge_hull, gauge_transform, legendre

from helpers import (
    geometric_functions,
    random_geometric,
    random_nonnegative,
    reference_canonical,
    reference_gauge_hull,
    reference_hat_inf2,
    reference_hull_function,
    reference_leq_witness,
    reference_lower_hull,
    reference_operator_breakpoints,
    reference_operator_canonical,
    reference_operator_gauge_hull,
    reference_operator_gauge_transform,
    reference_operator_hull_function,
    reference_operator_legendre,
    reference_operator_lower_hull,
    reference_operator_ratio_sup_abscissae,
    reference_operator_sup2,
    reference_operator_value_on,
    reference_ratio_sup,
    reference_sup2,
    sample_points,
)


class TestScalars:
    def test_as_fraction_exact_float(self):
        assert as_fraction(0.1) == Fraction(0.1)
        assert as_fraction("3/7") == Fraction(3, 7)
        assert as_fraction(5) == 5

    def test_as_fraction_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_fraction(INF)
        with pytest.raises(ValueError):
            as_fraction(float("nan"))
        with pytest.raises(TypeError):
            as_fraction(True)

    def test_as_fraction_reads_strings_exactly(self):
        assert as_fraction("1.1") == Fraction(11, 10)
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            as_fraction("1/0")

    def test_as_extended(self):
        assert as_extended("inf") == INF
        assert as_extended(INF) == INF
        assert as_extended("2/3") == Fraction(2, 3)


class TestCanonicalForm:
    def test_collinear_interior_knot_merges(self):
        f = PLConvex1D(((0, 0), (1, 1), (2, 2), (3, 5)), INF)
        assert f.knots == ((0, 0), (2, 2), (3, 5))

    def test_collinear_last_knot_merges_into_finite_tail(self):
        f = PLConvex1D(((0, 0), (1, 1), (2, 3)), 2)
        assert f.knots == ((0, 0), (1, 1))
        assert f.tail_slope == 2

    def test_infinite_tail_keeps_last_knot(self):
        f = PLConvex1D(((0, 0), (1, 0)), INF)
        assert f.knots == ((0, 0), (1, 0))
        assert math.isinf(f.tail_slope)

    def test_rejects_nonzero_first_abscissa(self):
        with pytest.raises(ConvexityError):
            PLConvex1D(((1, 0),), 1)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            PLConvex1D(((0, 0), (1, -1)), 5)

    def test_rejects_decreasing_slopes(self):
        with pytest.raises(ConvexityError):
            PLConvex1D(((0, 0), (1, 2), (2, 3)), INF)

    def test_rejects_tail_below_last_chord(self):
        with pytest.raises(ConvexityError):
            PLConvex1D(((0, 0), (1, 2)), 1)

    def test_geometric_requires_zero_at_origin(self):
        with pytest.raises(ConvexityError):
            PLConvex1D(((0, 1),), 1)
        # fine with the nonnegative tag
        f = PLConvex1D(((0, 1),), 1, tag=ClassTag.NONNEGATIVE)
        assert f(0) == 1

    def test_geometric_flat_start_is_fine(self):
        f = PLConvex1D(((0, 0), (1, 0), (2, 1)), 2)
        assert f.tag is ClassTag.GEOMETRIC and f.zero_end() == 1

    def test_equality_is_semantic(self):
        a = PLConvex1D(((0, 0), (Fraction(1, 2), Fraction(1, 2)), (1, 1)), 3)
        b = PLConvex1D(((0, 0), (1, 1)), 3)
        assert a == b


class TestEvaluation:
    def test_piecewise_values(self):
        f = PLConvex1D(((0, 0), (1, 0), (3, 4)), 5)
        assert f(0) == 0
        assert f(Fraction(1, 2)) == 0
        assert f(2) == 2
        assert f(3) == 4
        assert f(5) == 14  # tail slope 5

    def test_bounded_domain_is_infinite_beyond(self):
        f = PLConvex1D(((0, 0), (1, 2)), INF)
        assert f(1) == 2
        assert math.isinf(f(Fraction(3, 2)))

    def test_negative_abscissa_rejected(self):
        f = PLConvex1D(((0, 0),), 1)
        with pytest.raises(DomainError):
            f(-1)


class TestProperties:
    def test_indicator_flags(self):
        zero = PLConvex1D(((0, 0),), 0)
        point = PLConvex1D(((0, 0),), INF)
        ind = PLConvex1D(((0, 0), (2, 0)), INF)
        lin = PLConvex1D(((0, 0),), 3)
        assert zero.is_zero and zero.is_indicator and not zero.is_point_indicator
        assert point.is_point_indicator and point.is_indicator
        assert ind.is_indicator and not ind.is_zero
        assert lin.is_linear and not lin.is_indicator
        assert zero.is_linear  # slope-0 ray

    def test_domain_and_zero_end(self):
        ind = PLConvex1D(((0, 0), (2, 0)), INF)
        assert ind.domain_end == 2 and ind.zero_end() == 2
        lin = PLConvex1D(((0, 0),), 3)
        assert math.isinf(lin.domain_end) and lin.zero_end() == 0
        hockey = PLConvex1D(((0, 0), (1, 0)), 2)
        assert hockey.zero_end() == 1
        assert math.isinf(PLConvex1D(((0, 0),), 0).zero_end())

    def test_zero_end_needs_geometric_tag(self):
        f = PLConvex1D(((0, 1),), 1, tag=ClassTag.NONNEGATIVE)
        with pytest.raises(ClassTagError):
            f.zero_end()

    def test_first_slope(self):
        assert PLConvex1D(((0, 0),), 3).first_slope == 3
        assert PLConvex1D(((0, 0), (1, 2)), 5).first_slope == 2


class TestLattice:
    def test_sup2_pointwise_max(self):
        rng = random.Random(7)
        for _ in range(40):
            f = random_geometric(rng)
            g = random_geometric(rng)
            s = sup2(f, g)
            for x in sample_points(f) + sample_points(g):
                fv, gv = f(x), g(x)
                want = max(fv, gv)
                got = s(x)
                if math.isinf(want):
                    assert math.isinf(got), (f, g, x)
                else:
                    assert got == want, (f, g, x)

    def test_hat_inf2_below_min_and_convex(self):
        rng = random.Random(8)
        for _ in range(40):
            f = random_geometric(rng)
            g = random_geometric(rng)
            h = hat_inf2(f, g)
            assert leq(h, f) and leq(h, g)

    def test_hat_inf2_is_largest_on_examples(self):
        # min of two rays is convex already: envelope equals the min(=flatter)
        f = PLConvex1D(((0, 0),), 1)
        g = PLConvex1D(((0, 0),), 3)
        assert hat_inf2(f, g) == f
        # indicator vs ray: envelope is the ray clipped by nothing (ray is
        # below on [0, z]... compute a known case: min(1_[0,1], l_1) has
        # envelope l_1 on [0,1] then stays below both
        ind = PLConvex1D(((0, 0), (1, 0)), INF)
        lin = PLConvex1D(((0, 0),), 1)
        env = hat_inf2(ind, lin)
        assert env(Fraction(1, 2)) == 0
        assert env(2) <= lin(2)

    def test_absorption_laws(self):
        rng = random.Random(9)
        for _ in range(30):
            f = random_geometric(rng)
            g = random_geometric(rng)
            assert sup2(f, hat_inf2(f, g)) == f
            assert hat_inf2(f, sup2(f, g)) == f

    def test_mixed_tags_rejected(self):
        f = PLConvex1D(((0, 0),), 1)
        g = PLConvex1D(((0, 1),), 1, tag=ClassTag.NONNEGATIVE)
        with pytest.raises(ClassTagError):
            sup2(f, g)


class TestOrder:
    def test_leq_witness_points_at_violation(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(200):
            f = random_geometric(rng)
            g = random_geometric(rng)
            w = leq_witness(f, g, Fraction(3, 2))
            if w is None:
                continue
            checked += 1
            fw, gw = f(w), g(w)
            if math.isinf(fw):
                assert not math.isinf(gw)
            else:
                assert fw > Fraction(3, 2) * gw
        assert checked > 20

    def test_leq_scaling_factor(self):
        f = PLConvex1D(((0, 0),), 2)
        g = PLConvex1D(((0, 0),), 1)
        assert not leq(f, g)
        assert leq(f, g, 2)
        assert not leq(f, g, Fraction(199, 100))

    def test_leq_rejects_nonpositive_factor(self):
        f = PLConvex1D(((0, 0),), 1)
        with pytest.raises(ValueError):
            leq(f, f, 0)

    def test_ratio_sup_decides_leq(self):
        rng = random.Random(17)
        seen = {"zero": 0, "finite": 0, "inf": 0}
        for i in range(600):
            if i % 2:
                f, g = random_geometric(rng), random_geometric(rng)
            else:
                f, g = random_nonnegative(rng), random_nonnegative(rng)
            if i % 5 == 0:  # comparable pairs, so finite sups are common
                g = scale(f, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            r, x = ratio_sup(f, g)
            if math.isinf(r):
                seen["inf"] += 1
                assert not leq(f, g, 10**12)
                if x is not None:
                    fx, gx = f(x), g(x)
                    assert not math.isinf(gx)
                    assert math.isinf(fx) or gx == 0 < fx
            elif r == 0:
                seen["zero"] += 1
                assert leq(f, g, Fraction(1, 10**12))
            else:
                seen["finite"] += 1
                assert leq(f, g, r)
                assert not leq(f, g, r * (1 - Fraction(1, 10**6)))
                if x is not None and g(x) > 0:
                    assert f(x) / g(x) == r
            if x is None:  # only a tail limit reaches the sup
                assert math.isinf(g.domain_end)
        assert min(seen.values()) >= 10, seen

    def test_ratio_sup_conventions(self):
        ray, flat = PLConvex1D(((0, 0),), 2), PLConvex1D(((0, 0), (1, 0)), 3)
        ind = PLConvex1D(((0, 0), (1, 0)), INF)
        cap = sup2(ind, ray)  # 2x on [0, 1], +inf beyond
        point = PLConvex1D(((0, 0),), INF)
        # the ratio 3(x - 1) / 2x rises towards its tail limit 3/2
        assert ratio_sup(flat, ray) == (Fraction(3, 2), None)
        assert ratio_sup(ray, flat) == (INF, 1)  # f > 0 against g = 0
        assert ratio_sup(ind, ray) == (INF, 2)  # f = +inf where g is finite
        assert ratio_sup(ray, ind) == (INF, 1)  # f > 0 against g = 0 at x = 1
        assert ratio_sup(ray, point) == (0, 0)  # g = +inf is ignored, 0/0 is 0
        assert ratio_sup(ind, cap) == (0, 0)
        assert ratio_sup(ray, ray) == (1, 1)  # constant ratio, reached past 0

    def test_walk_matches_the_candidate_scans(self):
        """`ratio_sup` and `sup2` on one breakpoint walk give the same values,
        abscissae and types as the former scans; `leq_witness` makes the
        former scan's decision and reads its witness off `ratio_sup`: the
        abscissa of the sup, or a violating point on the tail rays."""
        rng = random.Random(23)
        seen = Counter()
        for n in range(5000):
            if n % 2:
                f, g = random_geometric(rng, 6), random_geometric(rng, 6)
            else:
                f, g = random_nonnegative(rng, 6), random_nonnegative(rng, 6)
            if n % 5 == 0:  # comparable pairs and shared knots
                g = scale(f, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            elif n % 5 == 1:
                g = compose_dilate(f, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            for a, b in ((f, g), (g, f)):
                got, want = ratio_sup(a, b), reference_ratio_sup(a, b)
                assert got == want, (a, b)
                assert [type(v) for v in got] == [type(v) for v in want], (a, b)
                seen[type(got[0]).__name__, type(got[1]).__name__] += 1
            r, at = ratio_sup(f, g)
            factors = [1, Fraction(3, 2), Fraction(1, 3), 2]
            if 0 < r < INF:  # at the sup, and just below it
                factors += [r, r * (1 - Fraction(1, 10**6))]
            for factor in factors:
                w = leq_witness(f, g, factor)
                want = reference_leq_witness(f, g, factor)
                assert (w is None) == (want is None), (f, g, factor)
                if w is None:
                    seen["holds"] += 1
                    continue
                assert type(w) is Fraction
                fw, gw = f(w), g(w)
                assert not math.isinf(gw) and (math.isinf(fw) or fw > factor * gw)
                if at is not None:
                    assert w == at, (f, g, factor)
                    seen["witness"] += 1
                else:
                    seen["tail"] += 1
            assert sup2(f, g) == reference_sup2(f, g), (f, g)
        for key in (("Fraction", "Fraction"), ("Fraction", "NoneType"),
                    ("float", "Fraction"), ("float", "NoneType"),
                    "witness", "tail", "holds"):
            assert seen[key] >= 50, seen

    def test_ray_pairs_match_the_candidate_scans(self):
        """Two rays a*x and b*x with b > 0 are settled by the slope quotient
        a/b: `ratio_sup` and `leq_witness` give the former scans' values,
        abscissae and types.  A zero-slope denominator, an offset start and
        a bounded domain keep the walk and are checked alongside: the same
        sup and the same decision."""
        rng = random.Random(79)
        edge = (Fraction(10**400 + 1), Fraction(1, 10**400), Fraction(2**53 + 1, 3), Fraction(0))
        seen = Counter()
        for _ in range(4000):
            tag = rng.choice(tuple(ClassTag))
            pair = []
            for _ in range(2):
                a = rng.choice(edge) if rng.random() < 0.4 else Fraction(
                    rng.randint(0, 40), rng.randint(1, 40))
                roll = rng.random()
                if roll < 0.1 and tag is ClassTag.NONNEGATIVE:
                    pair.append(PLConvex1D(((0, rng.randint(1, 3)),), a, tag))
                elif roll < 0.15:
                    pair.append(PLConvex1D(((0, 0),), INF, tag))
                else:
                    pair.append(PLConvex1D(((0, 0),), a, tag))
            f, g = pair
            got, want = ratio_sup(f, g), reference_ratio_sup(f, g)
            assert got == want, (f, g)
            assert [type(v) for v in got] == [type(v) for v in want], (f, g)
            closed = f.is_linear and g.is_linear and g.tail_slope > 0
            seen["closed form" if closed else "walk"] += 1
            seen[tag, got[0] == 0] += closed
            seen["huge"] += closed and max(f.tail_slope, g.tail_slope) > 2**53
            r = got[0]
            factors = [1, Fraction(3, 2), Fraction(1, 3)]
            if 0 < r < INF:  # at the sup, and just below it
                factors += [r, r * (1 - Fraction(1, 10**6))]
            for factor in factors:
                w, want_w = leq_witness(f, g, factor), reference_leq_witness(f, g, factor)
                if closed:  # both are 1, where a*x first exceeds factor*b*x
                    assert w == want_w and type(w) is type(want_w), (f, g, factor)
                    seen["witness"] += w is not None
                else:  # the walk's witness is where f/g peaks, not the first violation
                    assert (w is None) == (want_w is None), (f, g, factor)
        assert min(seen.values()) >= 50 and len(seen) == 8, seen


class TestScaling:
    def test_scale_values(self):
        f = PLConvex1D(((0, 0), (1, 2)), 4)
        g = scale(f, Fraction(1, 2))
        assert g(1) == 1 and g(2) == 3
        with pytest.raises(ValueError):
            scale(f, 0)

    def test_compose_dilate_values(self):
        f = PLConvex1D(((0, 0), (1, 2)), 4)
        g = compose_dilate(f, 2)  # g(x) = f(x/2)
        assert g(2) == 2 and g(4) == 6
        assert g.domain_end == INF

    def test_unit_dilation_is_the_function_itself(self):
        f = PLConvex1D(((0, 0), (1, 2)), 4)
        assert compose_dilate(f, 1) is f and compose_dilate(f, Fraction(2, 2)) is f

    def test_dilate_indicator_moves_support(self):
        ind = PLConvex1D(((0, 0), (1, 0)), INF)
        assert compose_dilate(ind, 3).domain_end == 3


@settings(max_examples=150, deadline=None)
@given(geometric_functions())
def test_random_functions_are_canonical(f):
    # re-building from the canonical data is identity
    assert PLConvex1D(f.knots, f.tail_slope, tag=f.tag) == f
    # slopes strictly increase and tail stays above the last chord
    ss = f.slopes
    assert all(a < b for a, b in zip(ss, ss[1:]))
    if ss and not math.isinf(f.tail_slope):
        assert f.tail_slope > ss[-1]


@settings(max_examples=100, deadline=None)
@given(geometric_functions(), geometric_functions())
def test_lattice_bounds_random(f, g):
    s, h = sup2(f, g), hat_inf2(f, g)
    assert leq(f, s) and leq(g, s)
    assert leq(h, f) and leq(h, g)


def _chords(knots):
    return tuple((vb - va) / (xb - xa) for (xa, va), (xb, vb) in zip(knots, knots[1:]))


def _outcome(build, *args):
    """What a construction gives: its result, or its exception class and message."""
    try:
        return build(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _new_canonical(knots, tail, tag):
    f = PLConvex1D(knots, tail, tag)
    return f.knots, f.tail_slope, f.slopes


def _knot_list(rng):
    """Seeded constructor input: pieces whose slopes repeat (collinear runs),
    a tail that may continue the last piece, and one input defect in six."""
    tag = rng.choice((ClassTag.GEOMETRIC, ClassTag.NONNEGATIVE))
    geometric = tag is ClassTag.GEOMETRIC
    slope = Fraction(rng.randint(0 if geometric else -4, 3), rng.randint(1, 3))
    x, v = Fraction(0), Fraction(0) if geometric else Fraction(rng.randint(0, 12), rng.randint(1, 2))
    knots = [(x, v)]
    for _ in range(rng.randint(0, 7)):
        if rng.random() < 0.5:  # else the next piece continues this one
            slope += Fraction(rng.randint(1, 5), rng.randint(1, 4))
        w = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        x, v = x + w, v + slope * w
        knots.append((x, v))
    tail = rng.choice((INF, "inf", slope, slope, slope + Fraction(rng.randint(1, 4), rng.randint(1, 3))))
    defect = rng.randrange(12)
    if defect == 0 and len(knots) > 1:  # abscissae out of order or repeated
        i = rng.randrange(1, len(knots))
        knots[i] = (knots[i - 1][0] - rng.randint(0, 1), knots[i][1])
    elif defect == 1:
        i = rng.randrange(len(knots))
        knots[i] = (knots[i][0], -Fraction(rng.randint(1, 3)))
    elif defect == 2:
        tail = -Fraction(rng.randint(1, 3), 2)
    elif defect == 3:
        knots[0] = (Fraction(rng.randint(1, 3)), knots[0][1])
    elif defect == 4 and len(knots) > 2:  # a concave kink
        i = rng.randrange(1, len(knots) - 1)
        knots[i] = (knots[i][0], knots[i][1] + rng.randint(1, 9))
    elif defect == 5 and not isinstance(tail, str):
        tail = rng.choice((INF, slope - Fraction(rng.randint(0, 2), 3)))
    elif defect == 6:
        knots = knots[:1]
        knots[0] = (knots[0][0], rng.randint(0, 2))
    elif defect == 7:
        knots = []
    if rng.random() < 0.3:  # integer and string coordinates convert too
        knots = [(int(x) if x.denominator == 1 else str(x), v) for x, v in knots]
    return tuple(knots), tail, tag


class TestCanonicalization:
    def test_running_slopes_match_the_former_merge(self):
        """Construction with one chord slope per knot gives the knots, tail,
        slopes, exception classes and messages the former merge did."""
        rng = random.Random(43)
        seen = Counter()
        for _ in range(4000):
            knots, tail, tag = _knot_list(rng)
            got = _outcome(_new_canonical, knots, tail, tag)
            want = _outcome(reference_canonical, knots, tail, tag)
            assert got == want, (knots, tail, tag)
            if isinstance(got[1], str):  # an exception: (class, message)
                seen[got[1]] += 1
                continue
            assert [type(t) for t in got[2]] == [Fraction] * len(got[2])
            assert type(got[1]) is type(want[1])
            seen[tag] += 1
            seen["bounded" if math.isinf(got[1]) else "ray"] += 1
            seen["single knot"] += len(got[0]) == 1
            seen["merged"] += len(got[0]) < len(knots)
            seen["tail trimmed"] += (not math.isinf(got[1])
                                     and got[0][-1][0] < as_fraction(knots[-1][0]))
        assert len(seen) == 15 and min(seen.values()) >= 40, seen


class TestStoredSlopes:
    def test_slopes_are_the_chord_slopes(self):
        rng = random.Random(47)
        for n in range(600):
            f = random_geometric(rng) if n % 2 else random_nonnegative(rng)
            assert type(f.slopes) is tuple and f.slopes == _chords(f.knots), f
            assert f.first_slope == (f.slopes[0] if f.slopes else f.tail_slope)

    def test_slopes_take_no_part_in_eq_hash_repr(self):
        spec = next(fl for fl in dataclasses.fields(PLConvex1D) if fl.name == "slopes")
        assert not (spec.init or spec.compare or spec.repr)
        f = PLConvex1D(((0, 0), (1, 1), (3, 7)), 5)
        g = PLConvex1D(f.knots, f.tail_slope)
        object.__setattr__(g, "slopes", (Fraction(-1),))  # tamper with derived data
        assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
        assert "slopes" not in repr(f)

    def test_collinear_splits_build_equal_functions(self):
        rng = random.Random(53)
        for n in range(600):
            f = random_geometric(rng) if n % 2 else random_nonnegative(rng)
            split = [f.knots[0]]
            for (xb, vb), s in zip(f.knots[1:], f.slopes):
                xa, va = split[-1]
                for _ in range(rng.randint(0, 2)):  # extra knots on the chord
                    xa += (xb - xa) / rng.randint(2, 4)
                    split.append((xa, split[-1][1] + s * (xa - split[-1][0])))
                split.append((xb, vb))
            if not math.isinf(f.tail_slope) and rng.random() < 0.5:
                xk, vk = split[-1]
                w = Fraction(rng.randint(1, 5), rng.randint(1, 3))
                split.append((xk + w, vk + f.tail_slope * w))  # on the tail ray
            g = PLConvex1D(tuple(split), f.tail_slope, f.tag)
            assert g == f and hash(g) == hash(f), (split, f)
            assert g.slopes == f.slopes and g.xs == f.xs


def _cloud(rng):
    """Seeded points with x >= 0, v >= 0 and (0, v0) among them: repeated
    abscissae, collinear runs and scattered points."""
    pts = [(Fraction(0), Fraction(rng.randint(0, 4), rng.randint(1, 2)))]
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice((0, 0, 1, 2))
        x0 = Fraction(rng.randint(0, 8), rng.randint(1, 3))
        v0 = Fraction(rng.randint(0, 12), rng.randint(1, 3))
        if kind == 0:  # a collinear run on a line through the point at x = 0
            s = Fraction(rng.randint(-1, 3), rng.randint(1, 3))
            for _ in range(rng.randint(2, 5)):
                v = pts[0][1] + s * x0
                if v >= 0:
                    pts.append((x0, v))
                x0 += Fraction(rng.randint(1, 3), rng.randint(1, 2))
        elif kind == 1:  # one abscissa, several values
            pts += [(x0, v0 + rng.randint(0, 3)) for _ in range(rng.randint(2, 3))]
        else:
            pts.append((x0, v0))
    rng.shuffle(pts)
    return pts


class TestEdgeSlopeHull:
    def test_matches_the_cross_product_hull(self):
        """The hull popped by edge slopes equals the cross-product hull; its
        edges are its chord slopes, also when the points come in ascending
        x; the meet, the gauge hull and the hull function equal their former
        constructions."""
        rng = random.Random(59)
        seen = Counter()
        for n in range(3000):
            pts = _cloud(rng)
            hull, edges = _lower_hull(pts)
            assert hull == reference_lower_hull(pts), pts
            assert tuple(edges) == _chords(hull)
            for up in (1, -1):  # an ascending cloud is not sorted again; ties either way
                run = sorted(pts, key=lambda p: (p[0], up * p[1]))
                assert _lower_hull(run) == (hull, edges), run
            hx = [x for x, _ in hull]
            seen["collinear dropped"] += any(  # a point on an edge, not a vertex
                x not in hx and x < hx[-1] and hull[bisect(hx, x) - 1][1]
                + edges[bisect(hx, x) - 1] * (x - hx[bisect(hx, x) - 1]) == v
                for x, v in pts)
            seen["repeated abscissa"] += len({x for x, _ in pts}) < len(pts)
            tail = rng.choice((INF, Fraction(rng.randint(0, 6), rng.randint(1, 3))))
            for tag in ClassTag:
                got = _outcome(_hull_function, pts, tail, tag)
                assert got == _outcome(reference_hull_function, pts, tail, tag), (pts, tail, tag)
                seen[tag if isinstance(got, PLConvex1D) else "raised"] += 1
            f = random_geometric(rng) if n % 2 else random_nonnegative(rng)
            g = rng.choice((
                f, scale(f, Fraction(rng.randint(1, 9), rng.randint(1, 9))),
                compose_dilate(f, Fraction(rng.randint(1, 9), rng.randint(1, 9))),
                random_geometric(rng) if n % 2 else random_nonnegative(rng),
            ))
            assert hat_inf2(f, g) == reference_hat_inf2(f, g), (f, g)
            if f.tag is ClassTag.GEOMETRIC:
                assert _gauge_hull(f) == reference_gauge_hull(f), f
                seen["gauge"] += 1
        assert min(seen.values()) >= 300, seen


# -- integer kernels ---------------------------------------------------------

_SCALES = (Fraction(1, 2**60), Fraction(1), Fraction(2**60))


def _scaled(rng, knots, tail, tag):
    """The input with x scaled by sx and v by sv, each 2^-60, 1 or 2^60, as
    in the certify corpus; scaling keeps every defect and collinear run.
    Returns the input and whether it was scaled."""
    sx, sv = rng.choice(_SCALES), rng.choice(_SCALES)
    if sx == sv == 1:
        return (knots, tail, tag), False
    knots = tuple((as_fraction(x) * sx, as_fraction(v) * sv) for x, v in knots)
    if not (isinstance(tail, str) or math.isinf(tail)):
        tail = as_fraction(tail) * sv / sx
    return (knots, tail, tag), True


def _kernel_function(rng, tag=None):
    """A seeded function of the given tag (any when None): a scaled
    `_knot_list` input that builds, or a scaled random function."""
    while True:
        if rng.random() < 0.5:
            (knots, tail, t), _ = _scaled(rng, *_knot_list(rng))
            if tag in (None, t):
                try:
                    return PLConvex1D(knots, tail, t)
                except ValueError:
                    pass
            continue
        if tag is ClassTag.GEOMETRIC or (tag is None and rng.random() < 0.5):
            f = random_geometric(rng)
        else:
            f = random_nonnegative(rng)
        return scale(compose_dilate(f, rng.choice(_SCALES)), rng.choice(_SCALES))


def _assert_same(got, want):
    """Equal knots, slopes, tails and tags, every finite entry a Fraction."""
    assert (got.knots, got.slopes, got.tail_slope, got.tag) == (
        want.knots, want.slopes, want.tail_slope, want.tag), (got, want)
    entries = [t for p in got.knots for t in p] + list(got.slopes)
    if not math.isinf(got.tail_slope):
        entries.append(got.tail_slope)
    assert all(type(t) is Fraction for t in entries), got


def _rates(rng, f):
    """Descending rates for a feasibility sweep over f: its tail slope, chord
    slopes and knot ratios v/x, and a few scaled ones; one list in ten is
    out of order."""
    rates = list(f.slopes) + [v / x for x, v in f.knots if x]
    rates += [Fraction(rng.randint(0, 9), rng.randint(1, 9)) * rng.choice(_SCALES) for _ in range(3)]
    if not math.isinf(f.tail_slope):
        rates.append(f.tail_slope)
    rates.sort(reverse=True)
    if rng.random() < 0.1:
        rng.shuffle(rates)
    return rates


class TestIntegerKernels:
    """The integer cross-product kernels give every result, exception class
    and message that the Fraction operators gave (`reference_operator_*`)."""

    def test_constructor_matches_the_operator_checks(self):
        rng = random.Random(61)
        seen = Counter()
        for _ in range(3000):
            (knots, tail, tag), scaled = _scaled(rng, *_knot_list(rng))
            got = _outcome(_new_canonical, knots, tail, tag)
            want = _outcome(reference_operator_canonical, knots, tail, tag)
            assert got == want, (knots, tail, tag)
            if isinstance(got[1], str):  # an exception: (class, message)
                seen[got[1]] += 1
                continue
            assert all(type(t) is Fraction for p in got[0] for t in p), got
            assert all(type(t) is Fraction for t in got[2]), got
            seen[tag] += 1
            seen["scaled"] += scaled
            seen["merged"] += len(got[0]) < len(knots)
            seen["zero slope"] += 0 in got[2] or got[1] == 0
        assert len(seen) == 13 and min(seen.values()) >= 40, seen

    def test_operations_match_the_operator_forms(self):
        rng = random.Random(67)
        seen = Counter()
        for _ in range(1200):
            f = _kernel_function(rng)
            if rng.random() < 0.3:
                g = scale(f, rng.choice(_SCALES) * rng.randint(1, 3))
            else:
                g = _kernel_function(rng, f.tag)
            join = sup2(f, g)
            _assert_same(join, reference_operator_sup2(f, g))
            seen["crossing"] += any(x not in f.xs and x not in g.xs for x in join.xs)
            seen["bounded" if math.isinf(f.tail_slope) else "ray"] += 1
            seen[f.tag] += 1
            if f.domain_end >= g.domain_end:
                assert list(_breakpoints(f, g)) == list(reference_operator_breakpoints(f, g))
            for i in range(1, len(f.knots) + (not math.isinf(f.tail_slope))):
                xa = f.knots[i - 1][0]
                x = (xa + f.knots[i][0]) / 2 if i < len(f.knots) else xa + rng.choice(_SCALES)
                got = _value_on(f, i, x)
                assert type(got) is Fraction and got == reference_operator_value_on(f, i, x)

            for pts in (list(f.knots + g.knots), _cloud(rng)):
                rng.shuffle(pts)
                assert _lower_hull(pts) == reference_operator_lower_hull(pts), pts
                tail = rng.choice((INF, f.tail_slope, Fraction(rng.randint(0, 6), rng.randint(1, 3))))
                got = _outcome(_hull_function, pts, tail, f.tag)
                want = _outcome(reference_operator_hull_function, pts, tail, f.tag)
                if isinstance(got, PLConvex1D):
                    _assert_same(got, want)
                else:
                    assert got == want, (pts, tail)
                    seen["hull raised"] += 1

            if f.tag is ClassTag.GEOMETRIC:
                _assert_same(legendre(f), reference_operator_legendre(f))
                _assert_same(_gauge_hull(f), reference_operator_gauge_hull(f))
                _assert_same(gauge_transform(f), reference_operator_gauge_transform(f))
                rates = _rates(rng, f)
                got = _outcome(ratio_sup_abscissae, f, rates)
                assert got == _outcome(reference_operator_ratio_sup_abscissae, f, rates), (f, rates)
                if isinstance(got, tuple):
                    seen["rates out of order"] += 1
                else:
                    assert all(x is None or type(x) is Fraction for x in got)
                    seen["rate with no bound"] += None in got
                    seen["sweep"] += 1
        assert len(seen) == 9 and min(seen.values()) >= 40, seen


_INTS = st.one_of(st.integers(-3, 3), st.integers(-2**200, 2**200))
_FRACTIONS = st.builds(Fraction, _INTS, _INTS.filter(bool))


@settings(max_examples=300, deadline=None)
@given(_FRACTIONS, _FRACTIONS, st.integers(1, 2**70))
def test_lt_and_eq_match_the_operators(a, b, k):
    for b in (b, Fraction(a.numerator * k, a.denominator * k)):  # and an equal value built apart
        assert _lt(a, b) is (a < b) and _lt(b, a) is (b < a)
        assert _eq(a, b) is (a == b)


@settings(max_examples=300, deadline=None)
@given(_FRACTIONS, _FRACTIONS, _FRACTIONS, _FRACTIONS)
def test_slope_matches_the_operators(px, pv, qx, qv):
    assume(px != qx)
    got = _slope((px, pv), (qx, qv))
    assert type(got) is Fraction and got == (qv - pv) / (qx - px)


@settings(max_examples=300, deadline=None)
@given(_FRACTIONS, _FRACTIONS, _FRACTIONS, _FRACTIONS)
def test_affine_matches_the_operators(va, s, x, xa):
    got = _affine(va, s, x, xa)
    assert type(got) is Fraction and got == va + s * (x - xa)
