"""End-to-end acceptance checks, one per shipped property.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible under
``pytest -s``) and asserts the property at its stated tolerance.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from dualitylab import (
    INF,
    AlmostOrderConstant,
    Corpus,
    CorpusTransform,
    GridFunction2D,
    TransformClass,
    a_grid,
    analyze,
    check_almost_preserving,
    check_almost_reversing,
    check_delta_structure,
    delta_corpus,
    fuzz_delta_transform,
    fuzz_transform,
    gauge_transform,
    gauge_value,
    geometric_dual,
    hyers_ulam_approx,
    is_inf,
    legendre,
    legendre_grid,
    leq,
    make_indicator,
    make_linear,
    make_triangle,
    monotone_envelope,
    quasi_linear_sandwich,
    sup2,
    verify_ray_mapping,
)

from helpers import random_geometric, sample_points


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


def _corpus(seed: int, n: int, max_knots: int = 12):
    rng = random.Random(seed)
    return [random_geometric(rng, max_knots=max_knots) for _ in range(n)]


def test_criterion_1_involutions():
    t0 = time.perf_counter()
    fs = _corpus(101, 200)
    bad = sum(
        1
        for f in fs
        if legendre(legendre(f)) != f or geometric_dual(geometric_dual(f)) != f
    )
    elapsed = time.perf_counter() - t0
    _report(
        1,
        bad == 0 and elapsed < 5.0,
        f"LL = AA = id exactly on {len(fs)} random functions "
        f"({bad} failures, {elapsed:.2f}s < 5s)",
    )


def test_criterion_2_commutativity_and_parametric_gauge():
    fs = _corpus(102, 200)
    bad_comm = 0
    worst_rel = 0.0
    for f in fs:
        left = legendre(geometric_dual(f))
        right = geometric_dual(legendre(f))
        if left != right:
            bad_comm += 1
            continue
        for y in sample_points(left, n=64):
            composed, direct = left(y), gauge_value(f, y)
            if is_inf(composed) or is_inf(direct):
                if composed != direct:
                    worst_rel = math.inf
                continue
            denom = max(1.0, abs(float(direct)))
            worst_rel = max(worst_rel, abs(float(composed - direct)) / denom)
    _report(
        2,
        bad_comm == 0 and worst_rel <= 1e-6,
        f"LA = AL exactly on {len(fs)} functions ({bad_comm} failures); "
        f"composition vs parametric gauge at 64 pts: max rel err {worst_rel:.2e} <= 1e-6",
    )


def test_criterion_3_extremal_table():
    grid = [Fraction(2) ** k for k in range(-9, 11)]  # 20-point log grid
    assert len(grid) == 20
    bad = 0
    for z in grid:
        if gauge_transform(make_indicator(z)) != make_linear(1 / z):
            bad += 1
        for a in grid:
            if gauge_transform(make_triangle(z, a)) != make_triangle(1 / a, 1 / z):
                bad += 1
    for a in grid:
        if gauge_transform(make_linear(a)) != make_indicator(1 / a):
            bad += 1
    _report(
        3,
        bad == 0,
        f"J maps indicators<->rays and triangles to swapped-reciprocal "
        f"triangles exactly on the 20-point log grid ({bad} failures)",
    )


def test_criterion_4_order_laws():
    rng = random.Random(104)
    violations = 0
    for _ in range(500):
        f = random_geometric(rng, max_knots=8)
        g = sup2(f, random_geometric(rng, max_knots=8))  # f <= g by construction
        if not leq(legendre(g), legendre(f)):
            violations += 1
        if not leq(geometric_dual(g), geometric_dual(f)):
            violations += 1
        if not leq(gauge_transform(f), gauge_transform(g)):
            violations += 1
    _report(
        4,
        violations == 0,
        f"on 500 random comparable pairs L and A reverse order and J "
        f"preserves it ({violations} violations)",
    )


def test_criterion_5_sampled_data_lemmas():
    rng = random.Random(105)
    C = 2.0
    env_bad = 0
    for _ in range(100):
        xs = sorted({round(rng.uniform(0, 10), 6) for _ in range(40)})
        base = 0.0
        samples = []
        for x in xs:
            base = max(base, rng.uniform(0, 5))
            samples.append((x, base * rng.uniform(1 / math.sqrt(C), math.sqrt(C))))
        env = monotone_envelope(samples, C=C)
        for (x, v), (_, g) in zip(samples, env):
            if not (g / C - 1e-12 <= v <= g + 1e-12):
                env_bad += 1

    qs = [((x,), a, a * (1.0 + 0.5 * x)) for x in (0.0, 1.0, 2.0, 4.0)
          for a in (0.0, 0.5, 1.0, 2.0)]
    cprime, finite = quasi_linear_sandwich(qs, C=4.0)

    hu_bad = 0
    for _ in range(50):
        slope = rng.uniform(0.5, 5.0)
        delta = rng.uniform(0.01, 0.2)
        pitch = rng.uniform(0.1, 1.0)
        f = {i * pitch: slope * i * pitch + rng.uniform(-delta, delta)
             for i in range(-25, 26)}
        eps = 3 * delta
        _, sup_error = hyers_ulam_approx(f, eps=eps)
        if sup_error > eps:
            hu_bad += 1
    _report(
        5,
        env_bad == 0 and finite and hu_bad == 0,
        f"monotone envelope sandwiches 100 C-monotone sets ({env_bad} bad); "
        f"quasi-linear fit finite (C' = {cprime}); additive approximation "
        f"within eps on 50 jittered-linear instances ({hu_bad} bad)",
    )


def test_criterion_6_stability_pipeline():
    t0 = time.perf_counter()
    expected = {
        "identity": (TransformClass.IDENTITY, 1.0),
        "gauge": (TransformClass.GAUGE, -1.0),
    }
    failures = []
    for ctilde in (1.1, 1.5, 2.0):
        k = AlmostOrderConstant(ctilde)
        for seed in range(20):
            for base, (cls, gamma_sign) in expected.items():
                t = fuzz_transform(seed, k, base=base)
                if check_almost_preserving(t, k):
                    failures.append((ctilde, seed, base, "not certified"))
                    continue
                rep = analyze(t, k)
                if not rep.certified or rep.classification is not cls:
                    failures.append((ctilde, seed, base, "class"))
                    continue
                if abs(rep.gamma - gamma_sign) > 0.05:
                    failures.append((ctilde, seed, base, f"gamma {rep.gamma}"))
                    continue
                spread = rep.sandwich_upper / rep.sandwich_lower
                if spread > ctilde**2 + 1e-12 or not rep.within_regime:
                    failures.append((ctilde, seed, base, f"spread {spread}"))
    elapsed = time.perf_counter() - t0
    _report(
        6,
        not failures and elapsed < 60.0,
        f"3 constants x 20 seeds x 2 bases certified, classified, exponent "
        f"within 0.05, C/c <= ctilde^2 and within the ctilde^7 regime "
        f"({len(failures)} failures, {elapsed:.1f}s < 60s)"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_7_reversing_duals():
    expected = {
        "legendre": TransformClass.REVERSING_LEGENDRE,
        "a": TransformClass.REVERSING_GEOMETRIC_DUAL,
    }
    failures = []
    for ctilde in (1.1, 1.5, 2.0):
        k = AlmostOrderConstant(ctilde)
        for seed in range(10):
            for base, cls in expected.items():
                t = fuzz_transform(seed, k, base=base)
                if check_almost_reversing(t, k):
                    failures.append((ctilde, seed, base, "not certified"))
                    continue
                rep = analyze(t, k)
                if not rep.certified or rep.classification is not cls:
                    failures.append((ctilde, seed, base, rep.classification))
    _report(
        7,
        not failures,
        f"legendre/a fuzzes certify the reversing conditions and classify "
        f"via the dual composition ({len(failures)} failures)"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_8_delta_pipeline():
    k = AlmostOrderConstant(2)
    lo, hi = 1 / math.sqrt(2), math.sqrt(2)

    t1 = fuzz_delta_transform(201, k, point_map=lambda th: 2.0 * th + 1.0, beta=3.0)
    r1 = check_delta_structure(t1, k)
    ok1 = (
        r1.is_delta_structure
        and abs(r1.point_matrix - 2.0) <= 1e-6
        and abs(r1.point_offset - 1.0) <= 1e-6
        and not r1.flagged_nonaffine
        and 3.0 * lo <= r1.beta <= 3.0 * hi
    )

    rot = ((0.0, -1.0), (1.0, 0.0))
    off = (0.5, -1.0)

    def point_map(th):
        return (
            rot[0][0] * th[0] + rot[0][1] * th[1] + off[0],
            rot[1][0] * th[0] + rot[1][1] * th[1] + off[1],
        )

    from dualitylab.corpus import DELTA_POINTS_2D

    t2 = fuzz_delta_transform(
        202, k, point_map=point_map, beta=0.5,
        corpus=delta_corpus(points=DELTA_POINTS_2D),
    )
    r2 = check_delta_structure(t2, k)
    m = np.array(r2.point_matrix)
    ok2 = (
        r2.is_delta_structure
        and np.abs(m - np.array(rot)).max() <= 1e-6
        and np.abs(np.array(r2.point_offset) - np.array(off)).max() <= 1e-6
        and 0.5 * lo <= r2.beta <= 0.5 * hi
    )

    t3 = fuzz_delta_transform(203, k, point_map=lambda th: th * th)
    r3 = check_delta_structure(t3, k)
    ok3 = r3.flagged_nonaffine and r3.point_residual > 1e-6

    _report(
        8,
        ok1 and ok2 and ok3,
        "pinned-point pipeline recovers the affine point maps to 1e-6 "
        f"(1-d A={r1.point_matrix:.8f}, b={r1.point_offset:.8f}; 2-d rotation "
        f"residual {r2.point_residual:.2e}), beta within jitter bounds "
        f"({r1.beta:.4f}, {r2.beta:.4f}), quadratic map flagged "
        f"(residual {r3.point_residual:.3f})",
    )


def _ray_grid(p, q, R=16.0, N=129):
    spec_step = 2.0 * R / (N - 1)

    def fn(x, y):
        t = (x * p + y * q) / (spec_step * (p * p + q * q))
        if (
            t >= 0
            and abs(t - round(t)) < 1e-9
            and abs(x - round(t) * p * spec_step) < 1e-9
            and abs(y - round(t) * q * spec_step) < 1e-9
        ):
            return math.hypot(x, y)
        return INF

    return GridFunction2D.from_function(fn, R=R, N=N)


def test_criterion_9_grid_oracle():
    quad = GridFunction2D.from_function(lambda x, y: (x * x + y * y) / 2, R=4.0, N=65)
    tol_q = 2 * quad.spec.step * 4.0  # max gradient norm on the window
    err_q = float(np.abs(legendre_grid(quad).values - quad.values).max())

    cone = GridFunction2D.from_function(math.hypot, R=16.0, N=129)
    tol_c = 2 * cone.spec.step * 1.0
    ac = a_grid(cone)
    m = np.isfinite(cone.values) & np.isfinite(ac.values)
    err_c = float(np.abs(ac.values[m] - cone.values[m]).max())

    def ball(x, y):
        return 0.0 if math.hypot(x, y) <= 1.0 else INF

    disc = GridFunction2D.from_function(ball, R=4.0, N=129)
    ad = a_grid(disc)
    step_d = disc.spec.step
    cs = disc.spec.coords
    xx, yy = np.meshgrid(cs, cs, indexing="ij")
    r = np.hypot(xx, yy)
    disc_ok = (
        np.isfinite(ad.values[r <= 1.0 - 2 * step_d]).all()
        and np.isinf(ad.values[r >= 1.0 + 2 * step_d]).all()
        and float(np.abs(ad.values[np.isfinite(ad.values)]).max()) == 0.0
    )

    def rot_345(p, q):
        num = (3 * p - 4 * q, 4 * p + 3 * q)
        assert num[0] % 5 == 0 and num[1] % 5 == 0  # stays a lattice ray
        return (num[0] // 5, num[1] // 5)

    cases = {
        "quarter turn": (lambda p, q: (-q, p), [(1, 0), (0, 1), (2, 1), (1, -1)]),
        "3-4-5 turn": (rot_345, [(5, 0), (0, 5), (4, 3), (3, -4)]),
    }
    residuals = {}
    for name, (rot, dirs) in cases.items():
        els = tuple(_ray_grid(p, q) for p, q in dirs)
        imgs = tuple(_ray_grid(*rot(p, q)) for p, q in dirs)
        corpus = Corpus(els, tuple(f"ray({p},{q})" for p, q in dirs), name, ())
        rep = verify_ray_mapping(CorpusTransform(corpus, imgs))
        assert rep.violations == ()
        residuals[name] = rep.residual
    cell = 2.0 * 16.0 / (129 - 1)
    rays_ok = all(res <= cell for res in residuals.values())

    _report(
        9,
        err_q <= tol_q and err_c <= tol_c and disc_ok and rays_ok,
        f"legendre grid fixes |x|^2/2 ({err_q:.3f} <= {tol_q:.3f}); dual grid "
        f"fixes the cone ({err_c:.4f} <= {tol_c:.3f}) and the unit disc "
        f"(support within two cells); rotation residuals "
        f"{ {k: round(v, 12) for k, v in residuals.items()} } <= one cell {cell}",
    )
