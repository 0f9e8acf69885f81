import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dualitylab import (
    INF,
    ClassTag,
    ClassTagError,
    DomainError,
    GridFunction2D,
    GridSpec,
    GridValidationError,
    LatticeMismatchError,
    PLConvex1D,
    ensure_valid,
    hat_inf2_grid,
    is_ray_supported,
    make_linear,
    ray_restrict,
    read_grid_csv,
    sup2_grid,
    validate,
    write_grid_csv,
)

from helpers import dense_hat_inf2_grid, random_pd_matrix


def cone(x, y):
    return math.hypot(x, y)


class TestGridSpec:
    def test_geometry(self):
        s = GridSpec(4.0, 5)
        assert s.step == 2.0
        assert s.origin == 2
        assert list(s.coords) == [-4.0, -2.0, 0.0, 2.0, 4.0]

    @pytest.mark.parametrize("bad", [(0.0, 5), (-1.0, 5), (math.inf, 5), (1.0, 4), (1.0, 1)])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            GridSpec(*bad)


class TestGridFunction:
    def test_shape_and_sign_checks(self):
        s = GridSpec(1.0, 3)
        with pytest.raises(GridValidationError):
            GridFunction2D(s, np.zeros((3, 4)))
        with pytest.raises(GridValidationError):
            GridFunction2D(s, np.full((3, 3), np.nan))
        v = np.zeros((3, 3))
        v[0, 0] = -1.0
        with pytest.raises(GridValidationError):
            GridFunction2D(s, v)

    def test_geometric_needs_zero_origin(self):
        s = GridSpec(1.0, 3)
        with pytest.raises(GridValidationError):
            GridFunction2D(s, np.ones((3, 3)))
        GridFunction2D(s, np.ones((3, 3)), tag=ClassTag.NONNEGATIVE)

    def test_immutable(self):
        g = GridFunction2D.from_function(cone, R=1.0, N=3)
        with pytest.raises(AttributeError):
            g.tag = ClassTag.NONNEGATIVE
        with pytest.raises(ValueError):
            g.values[0, 0] = 5.0

    def test_finite_nodes(self):
        def pin(x, y):
            return 0.0 if (x, y) == (0.0, 0.0) else INF

        g = GridFunction2D.from_function(pin, R=1.0, N=3)
        pts, vals = g.finite_nodes()
        assert pts.shape == (1, 2) and vals.tolist() == [0.0]


class TestValidation:
    def test_convex_is_clean(self):
        g = GridFunction2D.from_function(lambda x, y: x * x + 2 * y * y, R=2.0, N=33)
        assert validate(g) == []
        ensure_valid(g)

    def test_dent_detected(self):
        v = np.fromfunction(lambda i, j: (i - 2.0) ** 2 + (j - 2.0) ** 2, (5, 5))
        v[1, 1] += 3.0  # bump breaks midpoint convexity around it
        g = GridFunction2D(GridSpec(2.0, 5), v)
        msgs = validate(g)
        assert msgs
        with pytest.raises(GridValidationError) as ei:
            ensure_valid(g)
        assert ei.value.violations

    def test_indicator_support_is_convex_enough(self):
        def ball(x, y):
            return 0.0 if math.hypot(x, y) <= 1.0 else INF

        g = GridFunction2D.from_function(ball, R=2.0, N=33)
        assert validate(g) == []


class TestLattice:
    def test_sup_is_pointwise_max(self):
        f = GridFunction2D.from_function(lambda x, y: x * x + y * y, R=2.0, N=17)
        g = GridFunction2D.from_function(cone, R=2.0, N=17)
        s = sup2_grid(f, g)
        assert np.array_equal(s.values, np.maximum(f.values, g.values))

    def test_inf_hat_is_convex_minorant(self):
        f = GridFunction2D.from_function(lambda x, y: (x - 0) ** 2 + y * y, R=2.0, N=17)
        g = GridFunction2D.from_function(cone, R=2.0, N=17)
        h = hat_inf2_grid(f, g)
        assert validate(h) == []
        m = np.minimum(f.values, g.values)
        assert (h.values <= m + 1e-9).all()

    def test_inf_hat_keeps_exact_zero_at_origin(self):
        # anisotropic pair whose float envelope at the origin is not exactly 0
        A = np.array([[0.81, 0.331], [0.331, 0.861]])
        M = np.array([[1.476, 0.529], [0.529, 1.285]])
        f = GridFunction2D.from_function(lambda x, y: (A @ [x, y]) @ [x, y] / 2, R=4.0, N=65)
        g = GridFunction2D.from_function(lambda x, y: ((M @ [x, y]) @ [x, y]) ** 0.5, R=4.0, N=65)
        h = hat_inf2_grid(f, g)
        assert validate(h) == []
        o = h.spec.origin
        assert h.values[o, o] == 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_inf_hat_in_bounded_memory(self, seed):
        # N = 65: one dense nodes x facets matrix peaks at 32-116 MB
        import scipy.spatial  # noqa: F401  (its import is not the op's memory)

        rng = random.Random(seed)
        spec = GridSpec(4.0, 65)
        P = np.stack(np.meshgrid(spec.coords, spec.coords, indexing="ij"), axis=-1)
        A, M = random_pd_matrix(rng), random_pd_matrix(rng)
        f = GridFunction2D(spec, 0.5 * np.einsum("...i,ij,...j->...", P, A, P))
        g = GridFunction2D(spec, np.sqrt(np.einsum("...i,ij,...j->...", P, M, P)))
        tracemalloc.start()
        try:
            h = hat_inf2_grid(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20
        assert np.array_equal(h.values, dense_hat_inf2_grid(f, g))
        # the former BLAS evaluation, within 4 ulps of the scale
        old = dense_hat_inf2_grid(f, g, matmul=True)
        assert np.array_equal(np.isinf(h.values), np.isinf(old))
        fin = np.isfinite(old)
        scale = np.abs(old[fin]).max() + 1.0
        assert np.abs(h.values[fin] - old[fin]).max() <= 4 * np.finfo(float).eps * scale

    def test_inf_hat_of_a_point_cloud(self):
        def pin(x, y):
            return 0.0 if (x, y) == (0.0, 0.0) else INF

        f = GridFunction2D.from_function(pin, R=1.0, N=5)
        assert np.array_equal(hat_inf2_grid(f, f).values, f.values)

    def test_inf_hat_of_a_collinear_cloud(self):
        # rays x and -2x along the x axis: their min is already convex on it
        def ray(slope, sign):
            return lambda x, y: slope * abs(x) if y == 0 and sign * x >= 0 else INF

        f = GridFunction2D.from_function(ray(1.0, 1), R=2.0, N=9)
        g = GridFunction2D.from_function(ray(2.0, -1), R=2.0, N=9)
        h = hat_inf2_grid(f, g)
        c = h.spec.coords
        want = [[(x if x >= 0 else -2 * x) if y == 0 else INF for y in c] for x in c]
        assert np.array_equal(h.values, want)

    def test_inf_hat_of_a_flat_cloud(self):
        # disc and square indicators: 0 on their union, a lattice-convex set
        def disc(x, y):
            return 0.0 if x * x + y * y <= 4 else INF

        def square(x, y):
            return 0.0 if max(abs(x), abs(y)) <= 1.5 else INF

        f = GridFunction2D.from_function(disc, R=2.0, N=9)
        g = GridFunction2D.from_function(square, R=2.0, N=9)
        h = hat_inf2_grid(f, g)
        c = h.spec.coords
        want = [[min(disc(x, y), square(x, y)) for y in c] for x in c]
        assert np.array_equal(h.values, want)
        assert np.isfinite(h.values).sum() == 53  # the 7 x 7 square and 4 axis tips

    def test_mismatches_rejected(self):
        f = GridFunction2D.from_function(cone, R=2.0, N=17)
        g = GridFunction2D.from_function(cone, R=2.0, N=33)
        with pytest.raises(LatticeMismatchError):
            sup2_grid(f, g)
        h = GridFunction2D.from_function(cone, R=2.0, N=17, tag=ClassTag.NONNEGATIVE)
        with pytest.raises(ClassTagError):
            sup2_grid(f, h)


class TestRays:
    def test_restrict_axis(self):
        g = GridFunction2D.from_function(lambda x, y: 2 * abs(x) + abs(y), R=4.0, N=9)
        f = ray_restrict(g, (1, 0))
        assert f == make_linear(2)

    def test_restrict_pythagorean_direction(self):
        g = GridFunction2D.from_function(cone, R=16.0, N=65)
        f = ray_restrict(g, (3, 4))
        # along (3,4)/5 the cone is exactly t; lattice nodes at multiples of 5*step
        assert f == make_linear(1)

    def test_restrict_stops_at_infinite_node(self):
        def tube(x, y):
            return 0.0 if (y == 0.0 and abs(x) <= 2.0) else INF

        g = GridFunction2D.from_function(tube, R=4.0, N=9)
        f = ray_restrict(g, (1, 0))
        assert f.domain_end == 2 and f(Fraction(2)) == 0

    def test_bad_directions(self):
        g = GridFunction2D.from_function(cone, R=4.0, N=9)
        with pytest.raises(DomainError):
            ray_restrict(g, (0, 0))
        with pytest.raises(DomainError):
            ray_restrict(g, (1.0, math.pi))

    def test_ray_supported_detection(self):
        g = GridFunction2D.from_function(
            lambda x, y: x / 2 if (x >= 0 and y == x / 2) else INF, R=4.0, N=9
        )
        assert is_ray_supported(g) == (2, 1)

    def test_ray_supported_negative_cases(self):
        def pin(x, y):
            return 0.0 if (x, y) == (0.0, 0.0) else INF

        g = GridFunction2D.from_function(pin, R=1.0, N=3)
        assert is_ray_supported(g) is None  # no mass off the origin
        h = GridFunction2D.from_function(cone, R=1.0, N=3)
        assert is_ray_supported(h) is None  # full window, not one ray


class TestCsv:
    def test_round_trip_bytes(self, tmp_path):
        def f(x, y):
            return x * x + math.e * y * y if abs(x) + abs(y) < 3 else INF

        g = GridFunction2D.from_function(f, R=2.0, N=17)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_grid_csv(g, p1)
        h = read_grid_csv(p1)
        assert h.spec == g.spec and h.tag is g.tag
        assert np.array_equal(h.values, g.values)
        write_grid_csv(h, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_read_rejects_malformed(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,4\n")
        with pytest.raises(GridValidationError):
            read_grid_csv(str(p))
        p.write_text("1.0,3,geometric\n0,0,0\n")
        with pytest.raises(GridValidationError):
            read_grid_csv(str(p))
