import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualitylab import (
    INF,
    ClassTag,
    ClassTagError,
    ConsistencyError,
    GridFunction2D,
    GridSpec,
    GridValidationError,
    PLConvex1D,
    a_grid,
    compose_dilate,
    gauge_grid,
    gauge_transform,
    gauge_value,
    geometric_dual,
    hat_inf2,
    legendre,
    legendre_grid,
    leq,
    make_indicator,
    make_linear,
    make_triangle,
    scale,
    sup2,
)
import dualitylab.grid
from dualitylab.pl import ratio_sup_abscissae

from helpers import (
    assert_close,
    bench_like_grids,
    dense_numeric_dual,
    geometric_functions,
    matmul_a_grid,
    matmul_legendre_grid,
    numeric_dual,
    numeric_gauge,
    numeric_legendre,
    random_asymmetric_grid,
    random_geometric,
    random_geometric_grid,
    random_nonnegative,
    random_pd_matrix,
    reference_a_grid,
    reference_gauge_transform,
    reference_geometric_dual,
    reference_hat_inf2,
    reference_legendre_grid,
    sample_points,
    single_rate_scan,
    tiled_a_grid,
)

fractions_st = st.fractions(min_value=0, max_value=64, max_denominator=64)

ZERO = PLConvex1D(((0, 0),), 0)
POINT = PLConvex1D(((0, 0),), INF)


class TestLegendre:
    def test_extreme_swap(self):
        assert legendre(ZERO) == POINT
        assert legendre(POINT) == ZERO

    def test_indicator_ray_swap(self):
        ind = make_indicator(Fraction(3, 2))
        assert legendre(ind) == make_linear(Fraction(3, 2))
        assert legendre(make_linear(4)) == make_indicator(4)

    def test_matches_sup_oracle(self):
        rng = random.Random(21)
        for _ in range(60):
            f = random_geometric(rng)
            g = legendre(f)
            for y in sample_points(g, n=17):
                assert_close(g(y), numeric_legendre(f, y), msg=f"L at {y}")

    def test_requires_geometric(self):
        f = PLConvex1D(((0, 1),), 1, tag=ClassTag.NONNEGATIVE)
        with pytest.raises(ClassTagError):
            legendre(f)

    @settings(max_examples=150, deadline=None)
    @given(geometric_functions())
    def test_involution(self, f):
        assert legendre(legendre(f)) == f

    @settings(max_examples=80, deadline=None)
    @given(geometric_functions(), geometric_functions())
    def test_order_reversal(self, f, g):
        s = sup2(f, g)
        assert leq(legendre(s), legendre(f))
        assert leq(legendre(s), legendre(g))


class TestGeometricDual:
    def test_extreme_swap(self):
        assert geometric_dual(ZERO) == POINT
        assert geometric_dual(POINT) == ZERO

    def test_indicator_polar(self):
        assert geometric_dual(make_indicator(2)) == make_indicator(Fraction(1, 2))
        assert geometric_dual(make_linear(2)) == make_linear(Fraction(1, 2))

    def test_matches_parametric_oracle(self):
        rng = random.Random(22)
        for _ in range(60):
            f = random_geometric(rng)
            g = geometric_dual(f)
            for x in sample_points(g, n=17):
                assert_close(g(x), numeric_dual(f, x)[0], msg=f"A at {x}")

    def test_exact_oracle_bounds_and_attains_the_dense_scan(self):
        rng = random.Random(37)
        for _ in range(30):
            f = random_geometric(rng)
            for x in sample_points(geometric_dual(f), n=2):
                value, y = numeric_dual(f, x)
                dense = dense_numeric_dual(f, x)
                assert value >= dense, (f, x)
                if math.isinf(value):
                    assert math.isinf(dense)
                elif y is None:  # the tail limit
                    assert math.isinf(f.domain_end) and value == x / f.tail_slope
                else:
                    assert value == (0 if f(y) == 0 else (x * y - 1) / f(y))

    @settings(max_examples=150, deadline=None)
    @given(geometric_functions())
    def test_involution(self, f):
        assert geometric_dual(geometric_dual(f)) == f

    @settings(max_examples=80, deadline=None)
    @given(geometric_functions())
    def test_commutes_with_legendre(self, f):
        assert legendre(geometric_dual(f)) == geometric_dual(legendre(f))

    @settings(max_examples=80, deadline=None)
    @given(geometric_functions())
    def test_homogeneity(self, f):
        lam = Fraction(3, 2)
        assert geometric_dual(scale(f, lam)) == scale(geometric_dual(f), 1 / lam)


class TestGauge:
    def test_extremal_table(self):
        assert gauge_transform(make_indicator(2)) == make_linear(Fraction(1, 2))
        assert gauge_transform(make_linear(2)) == make_indicator(Fraction(1, 2))
        tri = make_triangle(2, 3)
        assert gauge_transform(tri) == make_triangle(Fraction(1, 3), Fraction(1, 2))
        assert gauge_transform(ZERO) == ZERO
        assert gauge_transform(POINT) == POINT

    def test_value_formula_matches_composition(self):
        rng = random.Random(23)
        for _ in range(40):
            f = random_geometric(rng)
            j = gauge_transform(f)
            for y in sample_points(j, n=13):
                assert_close(j(y), numeric_gauge(f, y), msg=f"J at {y}")

    def test_gauge_value_direct(self):
        tri = make_triangle(1, 2)  # 2x on [0,1], inf beyond
        ref = make_triangle(Fraction(1, 2), 1)
        for y in (0, Fraction(1, 4), Fraction(1, 2), 2):
            assert gauge_value(tri, y) == ref(y)

    def test_consistency_check_trips_on_bad_formula(self, monkeypatch):
        import dualitylab.transforms as tr

        monkeypatch.setattr(
            tr, "ratio_sup_abscissae", lambda f, rates: [Fraction(17)] * len(rates)
        )
        with pytest.raises(ConsistencyError):
            tr.gauge_transform(make_triangle(2, 3))

    def test_consistency_check_trips_on_tiny_knot_error(self, monkeypatch):
        import dualitylab.transforms as tr

        exact = tr._hull_function

        def off_by_1e9(pts, tail, tag):
            g = exact(pts, tail, tag)
            (x, v), rest = g.knots[-1], g.knots[:-1]
            return PLConvex1D(rest + ((x, v * (1 + Fraction(1, 10**9))),), g.tail_slope)

        monkeypatch.setattr(tr, "_hull_function", off_by_1e9)
        for f in (make_triangle(2, 3), PLConvex1D(((0, 0), (1, 1), (3, 4)), 3)):
            with pytest.raises(ConsistencyError):
                tr.gauge_transform(f)

    @settings(max_examples=150, deadline=None)
    @given(geometric_functions(), st.lists(fractions_st, max_size=12))
    def test_sweep_matches_single_rate_scan(self, f, rates):
        # the knot ratios and the tail slope are where the walk changes piece
        rates += [v / x for x, v in f.knots if x > 0]
        if not math.isinf(f.tail_slope):
            rates.append(f.tail_slope)
        rates.sort(reverse=True)
        assert ratio_sup_abscissae(f, rates) == [single_rate_scan(f, a) for a in rates]

    def test_sweep_rejects_ascending_rates(self):
        with pytest.raises(ValueError):
            ratio_sup_abscissae(make_triangle(2, 3), [1, 2])

    @settings(max_examples=100, deadline=None)
    @given(geometric_functions())
    def test_involution(self, f):
        assert gauge_transform(gauge_transform(f)) == f

    @settings(max_examples=60, deadline=None)
    @given(geometric_functions(), geometric_functions())
    def test_order_preserving(self, f, g):
        s = sup2(f, g)
        assert leq(gauge_transform(f), gauge_transform(s))


def _bench_style(rng, n, bounded):
    """n knots with slopes from 0..3/4 up by 1/5..9/2 per knot, as the benchmark draws them."""
    x, v, slope = Fraction(0), Fraction(0), Fraction(rng.randint(0, 3), 4)
    knots = [(x, v)]
    for _ in range(n - 1):
        dx = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))
        x, v = x + dx, v + slope * dx
        knots.append((x, v))
        slope += Fraction(rng.randint(1, 9), rng.choice((2, 3, 4, 5)))
    return PLConvex1D(tuple(knots), INF if bounded else slope)


class TestHullDifferential:
    """J as the hull of polar points, A = L o J and the meet, against the
    former upper-envelope dual, its conjugate and the former meet."""

    FUNCTIONS = 2400

    @staticmethod
    def _draw(rng):
        kind = rng.choice(("random", "extreme", "zero set", "bounded", "bench", "variant"))
        if kind == "extreme":
            return kind, rng.choice((ZERO, POINT))
        if kind == "bench":
            return kind, _bench_style(rng, rng.randint(8, 40), rng.random() < 0.25)
        f = random_geometric(rng)
        if kind == "zero set":  # f shifted right by w: zero set [0, w + z0]
            w = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            return kind, PLConvex1D(((0, 0),) + tuple((x + w, v) for x, v in f.knots),
                                    f.tail_slope)
        if kind == "bounded":
            return kind, PLConvex1D(f.knots, INF)
        if kind == "variant":
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            return kind, rng.choice((scale, compose_dilate))(f, lam)
        return kind, f

    def test_matches_the_upper_envelope_construction(self):
        rng = random.Random(71)
        seen = Counter()
        prev = ZERO
        for _ in range(self.FUNCTIONS):
            kind, f = self._draw(rng)
            assert geometric_dual(f) == reference_geometric_dual(f), f
            assert gauge_transform(f) == reference_gauge_transform(f), f
            assert hat_inf2(f, prev) == reference_hat_inf2(f, prev), (f, prev)
            seen[kind] += 1
            seen["zero set [0, z0], z0 > 0"] += 0 < f.zero_end() < INF
            prev = f
        assert min(seen.values()) >= 300, seen

    def test_nonnegative_meets_match(self):
        rng = random.Random(73)
        for _ in range(2000):
            f, g = random_nonnegative(rng), random_nonnegative(rng)
            assert hat_inf2(f, g) == reference_hat_inf2(f, g), (f, g)


class TestGridTransforms:
    def test_legendre_grid_quadratic_fixed_point(self):
        g = GridFunction2D.from_function(lambda x, y: (x * x + y * y) / 2, R=4.0, N=65)
        lt = legendre_grid(g)
        tol = 2 * g.spec.step * 4.0
        assert np.abs(lt.values - g.values).max() <= tol

    def test_a_grid_cone_fixed_point(self):
        g = GridFunction2D.from_function(math.hypot, R=16.0, N=129)
        at = a_grid(g)
        tol = 2 * g.spec.step * 1.0
        m = np.isfinite(g.values) & np.isfinite(at.values)
        assert np.abs(at.values[m] - g.values[m]).max() <= tol

    def test_a_grid_ball_indicator_fixed_point(self):
        def ball(x, y):
            return 0.0 if math.hypot(x, y) <= 1.0 else INF

        g = GridFunction2D.from_function(ball, R=4.0, N=129)
        at = a_grid(g)
        step = g.spec.step
        cs = g.spec.coords
        xx, yy = np.meshgrid(cs, cs, indexing="ij")
        r = np.hypot(xx, yy)
        # support can move by at most one cell diagonal
        assert np.isfinite(at.values[r <= 1.0 - 2 * step]).all()
        assert np.isinf(at.values[r >= 1.0 + 2 * step]).all()
        assert np.abs(at.values[np.isfinite(at.values)]).max() == 0.0

    def test_gauge_grid_ball_to_support_cone(self):
        def ball(x, y):
            return 0.0 if math.hypot(x, y) <= 2.0 else INF

        g = GridFunction2D.from_function(ball, R=4.0, N=65)
        jt = gauge_grid(g)
        cs = g.spec.coords
        xx, yy = np.meshgrid(cs, cs, indexing="ij")
        r = np.hypot(xx, yy)
        want = 0.5 * r
        assert np.isfinite(jt.values).all()
        # support snapping moves the dual radius by O(step/2), amplified by |x|
        assert (np.abs(jt.values - want) <= 2 * g.spec.step * (1 + r / 2)).all()

    def test_requires_geometric_tag(self):
        v = np.ones((5, 5))
        from dualitylab import GridSpec

        f = GridFunction2D(GridSpec(2.0, 5), v, tag=ClassTag.NONNEGATIVE)
        with pytest.raises(ClassTagError):
            legendre_grid(f)

    def test_rejects_invalid_grid(self):
        v = np.zeros((5, 5))
        v[2, 2] = 1.0  # concave bump at the origin is fine? no: midpoint test
        from dualitylab import GridSpec

        with pytest.raises((GridValidationError, ValueError)):
            f = GridFunction2D(GridSpec(2.0, 5), v)
            legendre_grid(f)


class TestGridDifferential:
    """The separable `legendre_grid` and the tiled `a_grid` against brute
    forces with the same float association, and against the former BLAS
    versions."""

    GRIDS = 240

    def test_bit_identical_to_the_brute_forces(self, monkeypatch):
        rng = random.Random(61)
        seen = Counter()
        for _ in range(self.GRIDS):
            f = random_geometric_grid(rng)
            # the bits must not depend on the tiling
            monkeypatch.setattr(dualitylab.grid, "_TILE_ROWS", rng.choice((1, 3, 8, 64)))
            assert np.array_equal(legendre_grid(f).values, reference_legendre_grid(f))
            assert np.array_equal(a_grid(f).values, reference_a_grid(f))
            v = f.values
            seen["+inf nodes"] += bool(np.isinf(v).any())
            seen["zero set beyond the origin"] += int((v == 0).sum()) > 1
            seen["no positive node"] += not (np.isfinite(v) & (v > 0)).any()
            seen["zero function"] += not v.any()
        assert len(seen) == 4 and min(seen.values()) >= 20, seen

    def test_agrees_with_the_matmul_versions(self):
        # within 4 ulps of the result's scale; a_grid divides the rounding of
        # each numerator <x, y> - 1 (at most |x1*y1| + |x2*y2| + 1 <=
        # R*|y|_1 + 1) by f(y), so its scale also counts the largest quotient
        rng = random.Random(67)
        eps = np.finfo(float).eps
        for _ in range(self.GRIDS):
            f = random_geometric_grid(rng)
            v = f.values
            pos = np.isfinite(v) & (v > 0)
            y1, y2 = (np.abs(f.spec.coords[k]) for k in np.nonzero(pos))
            quotient = ((f.spec.R * (y1 + y2) + 1.0) / v[pos]).max(initial=0.0)
            for new, old, extra in ((legendre_grid(f), matmul_legendre_grid(f), 0.0),
                                    (a_grid(f), matmul_a_grid(f), quotient)):
                a, b = new.values, old.values
                assert np.array_equal(np.isinf(a), np.isinf(b))
                fin = np.isfinite(a)
                scale = np.abs(a[fin]).max(initial=0.0) + 1.0 + extra
                assert np.abs(a[fin] - b[fin]).max(initial=0.0) <= 4 * eps * scale


class TestAsymmetricGrids:
    """`a_grid` prunes each quadrant of x nodes on its own, so the grids here
    are not centrally symmetric: a pruning that swapped quadrants would not
    agree with the brute force.  `legendre_grid` gives the brute force's
    values, and a zero among them may carry the other sign."""

    GRIDS = 240
    TILES = (1, 3, 8, 64)

    def test_bit_identical_to_the_brute_forces(self, monkeypatch):
        rng = random.Random(71)
        seen = Counter()
        for k in range(self.GRIDS):
            f = random_asymmetric_grid(rng)
            tile = self.TILES[k % len(self.TILES)]
            monkeypatch.setattr(dualitylab.grid, "_TILE_ROWS", tile)
            got, want = a_grid(f).values, reference_a_grid(f)
            assert np.array_equal(got, want), (k, tile)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (k, tile)
            got, want = legendre_grid(f).values, reference_legendre_grid(f)
            assert np.array_equal(got, want), (k, tile)
            flipped = np.signbit(got) != np.signbit(want)
            assert np.all(got[flipped] == 0.0), (k, tile)  # only a zero may change sign
            seen["legendre zero of the other sign"] += bool(flipped.any())
            v, o = f.values, f.spec.origin
            pos = np.isfinite(v) & (v > 0)
            quadrants = {(i > o, j > o) for i, j in np.argwhere(pos)}
            seen["not centrally symmetric"] += not np.array_equal(v, v[::-1, ::-1])
            seen["constant along rows or columns"] += bool(
                np.all(v == v[:, :1]) or np.all(v == v[:1, :]))
            seen["positive nodes in one open quadrant"] += (
                len(quadrants) == 1 and not (pos[o].any() or pos[:, o].any()))
            seen["zero set beyond the origin"] += int((v == 0).sum()) > 1
            seen["+inf nodes"] += bool(np.isinf(v).any())
        assert seen["not centrally symmetric"] >= 200, seen
        assert seen.pop("legendre zero of the other sign") > 0, seen
        assert len(seen) == 5 and min(seen.values()) >= 20, seen


class TestBoundedDualScan:
    """`grid._dual_max` scans a cell of positive nodes at a node x only when
    an upper bound of the cell's quotients exceeds a lower bound of the max.
    `a_grid` must keep the values and the signs of the former tiled scan and
    of the brute force, at every cell size (10**9: one cell per quadrant) and
    tile size, and on inputs whose quotients or bounds leave the float range."""

    @staticmethod
    def _same(got, want, what):
        assert np.array_equal(got, want), what
        assert np.array_equal(np.signbit(got), np.signbit(want)), what

    @pytest.mark.parametrize("n", (65, 129))
    def test_matches_the_tiled_scan(self, n, monkeypatch):
        # the bench's seeded quadratics and cones (the three cases of seed 1
        # at n = 129, of seeds 1 and 2 at n = 65) and asymmetric grids; cell
        # sizes on the first quadratic and cone, tile sizes on the rest
        rng = random.Random(n)
        grids = [g for seed in (1, 2) for _ in range(3)
                 for g in bench_like_grids(random.Random(seed), n)][:6 if n == 129 else 12]
        grids += [random_asymmetric_grid(rng, n) for _ in range(2 if n == 129 else 8)]
        for k, f in enumerate(grids):
            want = tiled_a_grid(f)
            self._same(a_grid(f).values, want, k)
            if k < 2:
                for cell in ((3, 10**9) if n == 129 else (1, 3, 10**9)):
                    monkeypatch.setattr(dualitylab.grid, "_CELL", cell)
                    self._same(a_grid(f).values, want, (k, cell))
                monkeypatch.undo()
            elif n == 65:
                monkeypatch.setattr(dualitylab.grid, "_TILE_ENTRIES", (1, 100, 1 << 20)[k % 3])
                self._same(a_grid(f).values, want, (k, "tiles"))
                monkeypatch.undo()

    def test_bounds_cover_every_quotient(self, monkeypatch):
        # with one to three points a cell's bound is nearly tight, so a
        # margin short of the roundings lets some quotient exceed it
        rng = random.Random(97)
        for k in range(60):
            f = (random_geometric_grid, random_asymmetric_grid)[k % 2](rng)
            scale = (1.0, 1e-300, 1e300, 3.0)[k % 4]
            c, v = f.spec.coords, scale * f.values
            monkeypatch.setattr(dualitylab.grid, "_CELL", (1, 2, 3)[k % 3])
            w = np.where(np.isfinite(v) & (v > 0.0), v, np.inf)
            h = int(np.searchsorted(c, 0.0))
            for (s1, r), (s2, q) in itertools.product(((1, slice(h, None)), (-1, slice(0, h))),
                                                      repeat=2):
                keep = dualitylab.grid._maximal(w, s1, s2)
                if not (keep.any() and c[r].size and c[q].size):
                    continue
                x1, x2 = (a.ravel() for a in np.meshgrid(c[r], c[q], indexing="ij"))
                y1, y2 = (c[i] for i in np.nonzero(keep))
                order, starts, A1, A2, cc = dualitylab.grid._cell_bounds(
                    x1, x2, y1, y2, v[keep], s1, s2)
                cell = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(order))))
                y1, y2, fy = y1[order], y2[order], v[keep][order]
                quotient = (np.multiply.outer(y1, x1) + np.multiply.outer(y2, x2) - 1.0) / fy[:, None]
                bound = (np.multiply.outer(A1, x1) + np.multiply.outer(A2, x2) + cc[:, None])[cell]
                assert not (quotient > bound).any(), (k, s1, s2)

    def test_extreme_values(self, monkeypatch):
        # f from 1e-320 to 1e300: y/f and 1/f overflow at the small scales
        # (such cells are always scanned), and so do most quotients
        rng = random.Random(83)
        seen = Counter()
        scales = (1e-320, 1e-310, 1e-300, 1e-150, 1.0, 1e150, 1e300)
        for k, (s, power, R) in enumerate(itertools.product(scales, (1, 2, 4), (1e-3, 16.0))):
            spec = GridSpec(R, (9, 17, 33)[k % 3])
            P = np.stack(np.meshgrid(spec.coords, spec.coords, indexing="ij"), axis=-1)
            r = np.sqrt(np.einsum("...i,ij,...j->...", P, random_pd_matrix(rng), P))
            f = GridFunction2D(spec, s * r**power)
            monkeypatch.setattr(dualitylab.grid, "_CELL", (1, 3, 8)[k % 3])
            with np.errstate(over="ignore"):
                got, want = a_grid(f).values, reference_a_grid(f)
                pos = f.values > 0
                slopes = f.spec.coords[np.nonzero(pos)[0]] / f.values[pos]
            self._same(got, want, (k, s))
            seen["y/f beyond the float range"] += bool(np.isinf(slopes).any())
            seen["1/f beyond the float range"] += bool((f.values[pos] < 2.0**-1024).any())
            seen["infinite result"] += bool(np.isinf(got).any())
            seen["tiny positive result"] += bool(((got > 0) & (got < 1e-100)).any())
        assert len(seen) == 4 and min(seen.values()) >= 3, seen

    @pytest.mark.parametrize("R", (16.0, 16 / 3, 0.3))
    @pytest.mark.parametrize("n", (17, 33))
    def test_tied_quotients(self, n, R, monkeypatch):
        # l1 and max-norm cones: for x on a diagonal every node of a level
        # line in a quadrant gives the same exact quotient, which rounding
        # splits into near ties unless the lattice is dyadic
        c = GridSpec(R, n).coords
        y1, y2 = np.meshgrid(c, c, indexing="ij")
        for k, v in enumerate((np.abs(y1) + np.abs(y2), np.maximum(np.abs(y1), np.abs(y2)),
                               3 * np.abs(y1) + np.abs(y2))):
            f = GridFunction2D(GridSpec(R, n), v)
            for cell in (1, 2, 3, 32):
                monkeypatch.setattr(dualitylab.grid, "_CELL", cell)
                self._same(a_grid(f).values, reference_a_grid(f), (k, cell))

    def test_zero_set_beyond_the_origin(self, monkeypatch):
        # 0 on an ellipse around the origin, so the polar test masks nodes
        rng = random.Random(89)
        masked = 0
        for k in range(24):
            spec = GridSpec(rng.choice((1.0, 4.0, 16.0)), rng.choice((17, 25, 33)))
            P = np.stack(np.meshgrid(spec.coords, spec.coords, indexing="ij"), axis=-1)
            r = np.sqrt(np.einsum("...i,ij,...j->...", P, random_pd_matrix(rng), P)) / spec.R
            v = rng.uniform(0.1, 10.0) * np.maximum(r - rng.uniform(0.1, 0.6), 0.0) ** rng.choice((1, 2))
            if k % 3 == 0:
                v = np.where(r <= rng.uniform(0.8, 1.2), v, np.inf)
            f = GridFunction2D(spec, v)
            monkeypatch.setattr(dualitylab.grid, "_CELL", (1, 3, 8)[k % 3])
            got = a_grid(f).values
            self._same(got, reference_a_grid(f), k)
            masked += int(np.isinf(got).sum())
        assert masked > 0

    def test_most_quotients_are_skipped(self, monkeypatch):
        # on the bench's cones and quadratics at N = 129 about 15% of the
        # (x, y) quotients over the undominated nodes are formed
        formed, full = [0], [0]
        quotients, dual_max = dualitylab.grid._quotients, dualitylab.grid._dual_max

        def counted_quotients(x1, x2, y1, y2, f):
            formed[0] += len(x1) * len(y1)
            return quotients(x1, x2, y1, y2, f)

        def counted_dual_max(x1, x2, y1, *rest):
            full[0] += len(x1) * len(y1)
            return dual_max(x1, x2, y1, *rest)

        monkeypatch.setattr(dualitylab.grid, "_quotients", counted_quotients)
        monkeypatch.setattr(dualitylab.grid, "_dual_max", counted_dual_max)
        for f in bench_like_grids(random.Random(1), 129):
            a_grid(f)
        assert 0 < formed[0] <= 0.25 * full[0], (formed, full)

    def test_bounded_memory(self):
        # the former tiled scan peaked at 3.0 to 4.0 MB on the bench's grids
        for f in bench_like_grids(random.Random(1), 129):
            a_grid(f)
            tracemalloc.start()
            try:
                a_grid(f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 2**20, peak
