"""Shared oracles and generators for the test suite.

The oracles here recompute expected values by definitions only — dense
sup/inf scans and direct formula evaluation — never by calling the code
under test, so that transform results are checked against an independent
path.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import replace
from pathlib import Path
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from hypothesis import strategies as st

import dualitylab
from dualitylab import (
    INF,
    ClassTag,
    ClassificationError,
    ClassTagError,
    ConsistencyError,
    ConvexityError,
    Corpus,
    CorpusError,
    DeltaFunction,
    GridFunction2D,
    GridSpec,
    HypothesisViolationError,
    PLConvex1D,
    TransformClass,
    Violation,
    WitnessPair,
    almost_linear_bounds,
    check_extremes,
    classify,
    compose_dilate,
    delta_corpus,
    estimate_exponent,
    fit_sandwich,
    geometric_corpus,
    hat_inf2,
    is_inf,
    legendre,
    leq,
    leq_witness,
    make_delta,
    make_indicator,
    make_linear,
    scale,
    sup2,
    witness_is_valid,
)
from dualitylab.corpus import _ratio_any
from dualitylab.pl import (
    Extended,
    _require_same_tag,
    Scalar,
    _slope,
    as_extended,
    as_fraction,
    ratio_sup_abscissae,
)
from dualitylab.stability import (
    _FUZZ_BASES,
    _JITTER_MARGIN,
    SANDWICH_FLAG_POWER,
    SANDWICH_REGIME_POWER,
    AlmostOrderConstant,
    CorpusTransform,
    StabilityReport,
    _geometric_mean_fraction,
    _nonnegative,
    _positive_linear,
    _proper_indicator,
    _ratio_extrema,
    _violations,
)
from dualitylab.transforms import _require_geometric, gauge_transform, geometric_dual

_F0 = Fraction(0)
_F1 = Fraction(1)

SRC = str(Path(dualitylab.__file__).resolve().parents[1])


def subprocess_env() -> dict:
    """This environment for a fresh interpreter: the package's source tree
    first on PYTHONPATH, and no DUALITYLAB_TOL."""
    env = dict(os.environ)
    env.pop("DUALITYLAB_TOL", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# random function generators (plain random.Random for corpus-style loops)


def random_geometric(
    rng: random.Random, max_knots: int = 12, allow_extremes: bool = True
) -> PLConvex1D:
    """Random canonical geometric function with at most max_knots knots."""
    if allow_extremes:
        roll = rng.random()
        if roll < 0.05:
            return PLConvex1D(((0, 0),), 0)  # zero function
        if roll < 0.10:
            return PLConvex1D(((0, 0),), INF)  # indicator of {0}
    n_seg = rng.randint(0, max_knots - 1)
    # strictly increasing nonnegative slopes
    slopes: List[Fraction] = []
    cur = Fraction(rng.randint(0, 3), rng.randint(1, 4))
    if rng.random() < 0.5:
        cur = Fraction(0)
    for _ in range(n_seg):
        slopes.append(cur)
        cur = cur + Fraction(rng.randint(1, 8), rng.randint(1, 8))
    knots = [(Fraction(0), Fraction(0))]
    x, v = Fraction(0), Fraction(0)
    for s in slopes:
        w = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        x, v = x + w, v + s * w
        knots.append((x, v))
    if rng.random() < 0.3:
        tail: object = INF
    else:
        tail = cur if slopes else cur + Fraction(rng.randint(0, 4))
        if not slopes and tail == 0 and rng.random() < 0.5:
            tail = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    return PLConvex1D(tuple(knots), tail)


def random_nonnegative(rng: random.Random, max_knots: int = 8) -> PLConvex1D:
    """Random canonical nonnegative convex function (may dip then rise)."""
    n_seg = rng.randint(0, max_knots - 1)
    slopes: List[Fraction] = []
    cur = Fraction(-rng.randint(0, 6), rng.randint(1, 3))
    for _ in range(n_seg):
        slopes.append(cur)
        cur = cur + Fraction(rng.randint(1, 7), rng.randint(1, 6))
    v0 = Fraction(rng.randint(0, 8), rng.randint(1, 3))
    knots = [(Fraction(0), v0)]
    x, v = Fraction(0), v0
    for s in slopes:
        w = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        nx, nv = x + w, v + s * w
        if nv < 0:  # shrink the step to stay nonnegative
            w = (v - 0) / (-s) if s < 0 else w
            nx, nv = x + w, v + s * w
            if nv < 0 or w == 0:
                break
        x, v = nx, nv
        knots.append((x, v))
    tail = INF if rng.random() < 0.3 else max(cur, Fraction(0)) + Fraction(
        rng.randint(0, 3)
    )
    if tail != INF and knots[-1][0] > 0:
        last = (knots[-1][1] - knots[-2][1]) / (knots[-1][0] - knots[-2][0])
        if tail <= last:
            tail = last + 1
    return PLConvex1D(tuple(knots), tail, tag=ClassTag.NONNEGATIVE)


# ---------------------------------------------------------------------------
# dense numeric oracles


def sample_points(f: PLConvex1D, n: int = 60) -> List[Fraction]:
    """Abscissae spread over the effective domain plus its boundary."""
    end = f.domain_end
    hi = (end if not math.isinf(end) else (f.knots[-1][0] + 4)) or Fraction(2)
    pts = [Fraction(i, n) * hi for i in range(n + 1)]
    pts += [x for x, _ in f.knots]
    if not math.isinf(end):
        pts.append(Fraction(end))
    return sorted(set(pts))


def numeric_legendre(f: PLConvex1D, y: Fraction, n: int = 4000) -> Fraction:
    """sup_x (x*y - f(x)) by exact scan over knots and a dense grid.

    For piecewise-linear f the sup over each piece is at an endpoint, so
    scanning knots plus a far tail probe is exact for finite answers.
    """
    best = None
    xs = [x for x, _ in f.knots]
    end = f.domain_end
    if math.isinf(end):
        # beyond the last knot the objective is linear with slope y - tail
        if y > f.tail_slope:
            return INF
        xs.append(f.knots[-1][0] + 1)
    for x in xs:
        v = f(x)
        if math.isinf(v):
            continue
        cand = x * y - v
        best = cand if best is None else max(best, cand)
    return best


def numeric_dual(f: PLConvex1D, x: Fraction) -> Tuple[object, Optional[Fraction]]:
    """sup over {y : f(y) > 0} of (x*y - 1)/f(y), exactly, and a maximiser.

    On each affine piece of f the objective is a Moebius function of y,
    hence monotone, so the sup is taken at a knot with f > 0 (a bounded
    domain ends at one) or is the limit x/m along an unbounded tail of
    slope m; the maximiser is None for that limit.  The zero set [0, z0]
    contributes the constraint x*z0 <= 1 (value 0 inside the polar, attained
    at y = 0; +inf outside).  When x*z0 = 1 the limit y -> z0+ is no extra
    candidate: on the piece right of z0, f(y) = s*(y - z0), so the objective
    is the constant x/s there, reached at the piece's right knot or equal to
    the tail limit.
    """
    z0 = f.zero_end()
    if math.isinf(z0):  # f is the zero function: dual is indicator of {0}
        return (_F0, _F0) if x == 0 else (INF, None)
    if z0 > 0 and x * z0 > 1:
        return INF, None
    best, arg = _F0, _F0
    for y, v in f.knots:
        if v > 0 and (x * y - 1) / v > best:
            best, arg = (x * y - 1) / v, y
    if math.isinf(f.domain_end) and f.tail_slope > 0 and x / f.tail_slope > best:
        best, arg = x / f.tail_slope, None
    return best, arg


def dense_numeric_dual(f: PLConvex1D, x: Fraction, n: int = 2000) -> Fraction:
    """sup over {y : f(y) > 0} of (x*y - 1)/f(y) by dense exact scan.

    The candidates are knots, dense fill, and the tail limit; exact Fraction
    arithmetic keeps the scan deterministic.  The zero set contributes the
    constraint x*y <= 1 (value 0 inside the polar, +inf outside).  The former
    `numeric_dual` oracle, kept to check the exact one against.
    """
    z0 = f.zero_end()
    if math.isinf(z0):  # f is the zero function: dual is indicator of {0}
        return Fraction(0) if x == 0 else INF
    if z0 > 0 and x * z0 > 1:
        return INF
    best = Fraction(0)
    end = f.domain_end
    hi = end if not math.isinf(end) else f.knots[-1][0] + 64
    if hi <= z0:
        hi = z0 + 64 if math.isinf(end) else hi
    ys = [z0 + (hi - z0) * Fraction(i, n) for i in range(1, n + 1)]
    ys += [y for y, _ in f.knots if y > z0]
    if not math.isinf(end):
        ys.append(Fraction(end))
    for y in ys:
        fy = f(y)
        if math.isinf(fy) or fy <= 0:
            continue
        best = max(best, Fraction(x * y - 1, 1) / fy)
    if math.isinf(end) and f.tail_slope > 0:
        best = max(best, Fraction(x, 1) / f.tail_slope)
    return best


def numeric_gauge(f: PLConvex1D, y: Fraction, n: int = 4000) -> Fraction:
    """Parametric gauge value y / sup{x : y*f(x) <= x} by exact piece solve."""
    if y == 0:
        return Fraction(0)
    best: Optional[Fraction] = None  # sup of feasible x
    unbounded = False
    knots = f.knots
    for i, (x, v) in enumerate(knots):
        if y * v <= x:
            best = x if best is None else max(best, x)
        if i + 1 < len(knots):
            xa, va = knots[i]
            xb, vb = knots[i + 1]
            s = (vb - va) / (xb - xa)
            c = y * s - 1
            d = y * (va - s * xa)
            # solve c*x + d <= 0 on [xa, xb]
            if c < 0:
                if c * xb + d <= 0:
                    best = xb if best is None else max(best, xb)
                elif c * xa + d <= 0:
                    r = -d / c
                    best = r if best is None else max(best, r)
            elif c == 0:
                if d <= 0:
                    best = xb if best is None else max(best, xb)
            else:
                if c * xa + d <= 0:
                    r = min(xb, -d / c)
                    best = r if best is None else max(best, r)
    if not math.isinf(f.domain_end):
        pass
    else:
        xk, vk = knots[-1]
        m = f.tail_slope
        c = y * m - 1
        d = y * (vk - m * xk)
        if c < 0 or (c == 0 and d <= 0):
            unbounded = True
        elif c > 0:
            r = -d / c
            if r >= xk:
                best = r if best is None else max(best, r)
    if unbounded:
        return Fraction(0)
    if best is None or best == 0:
        return INF
    return Fraction(y, 1) / best


def single_rate_scan(f: PLConvex1D, a: Fraction) -> Optional[Fraction]:
    """Largest x with f(x) <= a*x (None if every x > 0 qualifies).

    The feasible set is an interval [0, x*] because f(x)/x is nondecreasing.
    A piece-by-piece scan for a single rate, kept as the reference for the
    one-walk sweep `pl.ratio_sup_abscissae`.
    """
    x_sup = _F0
    for (xa, va), (xb, vb) in zip(f.knots, f.knots[1:]):
        s = (vb - va) / (xb - xa)
        c = s - a
        d = va - s * xa
        if c <= 0:
            if c * xb + d <= 0:
                x_sup = max(x_sup, xb)
        else:
            r = -d / c
            if r >= xa:
                x_sup = max(x_sup, min(r, xb))
    if not is_inf(f.tail_slope):
        xk, vk = f.knots[-1]
        m = f.tail_slope
        c = m - a
        d = vk - m * xk
        if c < 0 or (c == 0 and d <= 0):
            return None
        if c > 0:
            r = -d / c
            if r >= xk:
                x_sup = max(x_sup, r)
    return x_sup


# ---------------------------------------------------------------------------
# reference transforms: the former upper-envelope construction of the
# geometric dual, the gauge transform as its conjugate, and the former meet,
# kept verbatim for the differential test of the hull construction


def _upper_envelope(
    lines: Sequence[Tuple[Fraction, Fraction]], end: Extended
) -> Tuple[Tuple[Tuple[Fraction, Fraction], ...], Extended]:
    """Pointwise max of affine lines (slope, intercept) on [0, end].

    Returns (knots, tail_slope) of the envelope; the domain is cut at a
    finite ``end`` (tail +inf), otherwise the steepest active line rules.
    """
    best = {}
    for s, b in lines:
        if s not in best or b > best[s]:
            best[s] = b
    ordered = sorted(best.items())

    hull: List[Tuple[Fraction, Fraction]] = []
    for s, b in ordered:
        while hull:
            s1, b1 = hull[-1]
            x_new = (b1 - b) / (s - s1)  # where the new line overtakes hull[-1]
            if len(hull) >= 2:
                s0, b0 = hull[-2]
                if x_new <= (b0 - b1) / (s1 - s0):
                    hull.pop()
                    continue
            break
        hull.append((s, b))

    breaks = [
        (hull[i][1] - hull[i + 1][1]) / (hull[i + 1][0] - hull[i][0])
        for i in range(len(hull) - 1)
    ]
    i0 = 0
    while i0 < len(breaks) and breaks[i0] <= 0:
        i0 += 1

    knots: List[Tuple[Fraction, Fraction]] = [(_F0, hull[i0][1])]
    active = i0
    for j in range(i0, len(breaks)):
        if not is_inf(end) and breaks[j] >= end:
            break
        s, b = hull[j]
        knots.append((breaks[j], s * breaks[j] + b))
        active = j + 1
    if is_inf(end):
        return tuple(knots), hull[-1][0]
    s, b = hull[active]
    knots.append((end, s * end + b))
    return tuple(knots), INF


def reference_geometric_dual(f: PLConvex1D) -> PLConvex1D:
    """Polar-type dual (sup of (x*y - 1)/f(y) over 0 < f(y) < inf).  Exact.

    The result vanishes nowhere it shouldn't: it is +inf outside [0, 1/z0]
    where [0, z0] is the zero set of f, and on that interval equals the upper
    envelope of one affine function per knot with positive value (attained
    endpoints), one for the tail limit x / tail_slope, and the zero function
    (the sup-over-empty-set floor).  An exact involution.
    """
    _require_geometric(f, "geometric_dual")
    if f.is_zero:
        return PLConvex1D(((_F0, _F0),), INF, ClassTag.GEOMETRIC)
    z0 = f.zero_end()
    end: Extended = INF if z0 == 0 else _F1 / z0

    lines: List[Tuple[Fraction, Fraction]] = [(_F0, _F0)]
    for x, v in f.knots:
        if v > 0:
            lines.append((x / v, -_F1 / v))
    if not is_inf(f.tail_slope):
        lines.append((_F1 / f.tail_slope, _F0))

    knots, tail = _upper_envelope(lines, end)
    return PLConvex1D(knots, tail, ClassTag.GEOMETRIC)


def reference_gauge_transform(f: PLConvex1D) -> PLConvex1D:
    return legendre(reference_geometric_dual(f))


def reference_hat_inf2(f: PLConvex1D, g: PLConvex1D) -> PLConvex1D:
    """Largest convex lsc minorant of min(f, g) (the lattice meet).  Exact.

    Computed as the lower convex hull of the union of knot sets, with the
    recession ray of slope min(tail_f, tail_g) folded in by an exact
    inf-convolution (trimming hull edges steeper than the ray).
    """
    tag = _require_same_tag(f, g)
    hull = reference_lower_hull(list(f.knots) + list(g.knots))

    tails = [m for m in (f.tail_slope, g.tail_slope) if not is_inf(m)]
    if tails:
        m = min(tails)
        while len(hull) >= 2 and _slope(hull[-2], hull[-1]) >= m:
            hull.pop()
        tail: Extended = m
    else:
        tail = INF
    return PLConvex1D(tuple(hull), tail, tag)


# ---------------------------------------------------------------------------
# reference canonicalization and hulls: the merge-and-validate body of
# `PLConvex1D.__post_init__` that recomputed chord slopes, and the
# cross-product lower hull, both of which stored chord slopes replaced, kept
# verbatim


def reference_canonical(knots, tail_slope=INF, tag=ClassTag.GEOMETRIC):
    """The former validation and collinear merge of `PLConvex1D`.

    Returns the canonical ``(knots, tail_slope, slopes)`` or raises the
    ConvexityError the former constructor raised."""
    pts = [(as_fraction(x), as_fraction(v)) for x, v in knots]
    if not pts:
        raise ConvexityError("at least one knot is required")
    if pts[0][0] != 0:
        raise ConvexityError("the first knot must sit at x = 0")
    for (xa, _), (xb, _) in zip(pts, pts[1:]):
        if xb <= xa:
            raise ConvexityError("knot abscissae must be strictly increasing")
    for _, v in pts:
        if v < 0:
            raise ConvexityError("knot values must be nonnegative")
    tail = as_extended(tail_slope)
    if not is_inf(tail) and tail < 0:
        raise ConvexityError("tail slope must be nonnegative or +inf")

    # Merge collinear interior knots, then a last knot collinear with the tail.
    merged: list = [pts[0]]
    for p in pts[1:]:
        while len(merged) >= 2 and _slope(merged[-2], merged[-1]) == _slope(merged[-1], p):
            merged.pop()
        merged.append(p)
    if not is_inf(tail):
        while len(merged) >= 2 and _slope(merged[-2], merged[-1]) == tail:
            merged.pop()

    slopes = [_slope(a, b) for a, b in zip(merged, merged[1:])]
    for sa, sb in zip(slopes, slopes[1:]):
        if sa >= sb:
            raise ConvexityError("chord slopes must be strictly increasing")
    if slopes and not is_inf(tail) and tail <= slopes[-1]:
        raise ConvexityError("tail slope must exceed the last chord slope")

    if tag is ClassTag.GEOMETRIC:
        if merged[0][1] != 0:
            raise ConvexityError("geometric functions require f(0) = 0")
        first = slopes[0] if slopes else (tail if not is_inf(tail) else _F0)
        if first < 0:
            raise ConvexityError("geometric functions are nondecreasing")
    return tuple(merged), tail, tuple(slopes)


def reference_lower_hull(pts: Sequence[Tuple[Fraction, Fraction]]) -> list:
    """Lower convex hull of 2-D points, as a left-to-right vertex chain."""
    best: dict = {}
    for x, v in pts:
        if x not in best or v < best[x]:
            best[x] = v
    ordered = sorted(best.items())
    hull: list = []
    for p in ordered:
        while len(hull) >= 2:
            (ox, ov), (ax, av) = hull[-2], hull[-1]
            # pop if the middle point is on or above segment (o, p)
            if (ax - ox) * (p[1] - ov) - (av - ov) * (p[0] - ox) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def reference_hull_function(
    pts: Sequence[Tuple[Fraction, Fraction]], tail: Extended, tag: ClassTag
) -> PLConvex1D:
    """The former `pl._hull_function`, on the cross-product hull."""
    hull = reference_lower_hull(pts)
    if not is_inf(tail):
        while len(hull) >= 2 and _slope(hull[-2], hull[-1]) >= tail:
            hull.pop()
    return PLConvex1D(tuple(hull), tail, tag)


def reference_gauge_hull(f: PLConvex1D) -> PLConvex1D:
    """The former `transforms._gauge_hull`, on the cross-product hull."""
    pts = [(_F0, _F0)] + [(x / v, _F1 / v) for x, v in f.knots if v > 0]
    m = f.tail_slope
    if not is_inf(m) and m > 0:
        pts.append((_F1 / m, _F0))
    z0 = f.zero_end()
    tail: Extended = INF if z0 == 0 else _F0 if is_inf(z0) else _F1 / z0
    return reference_hull_function(pts, tail, ClassTag.GEOMETRIC)


# ---------------------------------------------------------------------------
# reference pairwise primitives: the candidate-set scans (a sorted set of
# both functions' knots, each evaluated through PLConvex1D.__call__) that the
# one breakpoint walk of `pl._breakpoints` replaced, kept verbatim


def reference_ratio_sup(f: PLConvex1D, g: PLConvex1D) -> Tuple[Extended, Optional[Fraction]]:
    """Exact sup of f/g on [0, inf), and an abscissa where it is reached.

    Conventions match `leq`: points where g = +inf are ignored; f = +inf
    against a finite g, or f > 0 against g = 0, gives +inf; 0/0 counts as 0.
    So ``leq(f, g, c)`` holds exactly when the sup is at most c.  On each
    common affine piece f/g is a Moebius function of x, hence monotone, so
    the sup sits at a merged breakpoint or is the tail limit; the abscissa
    is None when only the tail limit reaches it.
    """
    df, dg = f.domain_end, g.domain_end
    if df < dg:
        # f jumps to +inf strictly inside the region where g is finite
        return INF, (df + 1 if is_inf(dg) else df + (dg - df) / 2)
    cand = {x for x in f.xs if x <= dg} | {x for x in g.xs if x <= dg}
    if not is_inf(dg):
        cand.add(dg)
    best: Extended = -1  # below every ratio, so the first candidate sets arg
    for x in sorted(cand):
        fv, gv = f(x), g(x)
        if gv == 0:
            if fv > 0:
                return INF, x
            r = _F0
        else:
            r = fv / gv
        if r > best:
            best, arg = r, x
    if is_inf(dg):
        # past the last breakpoint x both are affine and f/g tends to mf/mg;
        # when g(x) = 0 = f(x) the ratio is that constant all along the tail
        mf, mg = f.tail_slope, g.tail_slope
        lim = mf / mg if mg else (INF if mf else _F0)
        if lim > best:
            return lim, (x + 1 if gv == 0 else None)
    return best, arg


def reference_leq_witness(f: PLConvex1D, g: PLConvex1D, factor: Scalar = 1) -> Optional[Fraction]:
    """Exact decision of ``f <= factor * g`` on [0, inf); returns a violating x or None.

    Conventions: where g = +inf the inequality holds for any factor; where g
    is finite and f = +inf it fails; factor never multiplies an infinity.
    """
    factor = as_fraction(factor)
    if factor <= 0:
        raise ValueError("factor must be positive")
    df, dg = f.domain_end, g.domain_end
    if df < dg:
        # f jumps to +inf strictly inside the region where g is finite
        return df + 1 if is_inf(dg) else df + (dg - df) / 2

    cand = {x for x in f.xs if x <= dg} | {x for x in g.xs if x <= dg}
    if not is_inf(dg):
        cand.add(dg)
    xs = sorted(cand)
    for x in xs:
        if f(x) > factor * g(x):
            return x
    if is_inf(dg):
        slope_gap = f.tail_slope - factor * g.tail_slope
        if slope_gap > 0:
            x_last = xs[-1]
            deficit = factor * g(x_last) - f(x_last)
            return x_last + deficit / slope_gap + 1
    return None


def reference_sup2(f: PLConvex1D, g: PLConvex1D) -> PLConvex1D:
    """Pointwise maximum (the lattice join).  Exact.

    The effective domain is the intersection of the two domains.
    """
    tag = _require_same_tag(f, g)
    end = min(f.domain_end, g.domain_end)

    cand = {x for x in f.xs if x <= end} | {x for x in g.xs if x <= end}
    if not is_inf(end):
        cand.add(end)
    xs = sorted(cand)
    fv = [f(x) for x in xs]
    gv = [g(x) for x in xs]

    pts = []
    for i, x in enumerate(xs):
        pts.append((x, max(fv[i], gv[i])))
        if i + 1 < len(xs):
            d0 = fv[i] - gv[i]
            d1 = fv[i + 1] - gv[i + 1]
            if (d0 < 0 < d1) or (d1 < 0 < d0):
                xc = xs[i] + (xs[i + 1] - xs[i]) * d0 / (d0 - d1)
                pts.append((xc, f(xc)))

    if is_inf(end):
        # Both tails are finite rays here; insert their crossing if it lies
        # beyond the last candidate, then the steeper ray wins.
        mf, mg = f.tail_slope, g.tail_slope
        x_last = xs[-1]
        d_last = fv[-1] - gv[-1]
        ds = mf - mg
        if ds != 0 and d_last != 0 and (d_last < 0) == (ds > 0):
            xc = x_last - d_last / ds
            if xc > x_last:
                pts.append((xc, f(xc)))
        tail: Extended = max(mf, mg)
    else:
        tail = INF
    return PLConvex1D(tuple(pts), tail, tag)


# ---------------------------------------------------------------------------
# reference pairwise checkers and ratio extrema: the per-pair `leq` loops and
# the Moebius scan that the ratio matrices and `pl.ratio_sup` replaced, and
# the two former statements of the pinned-point rule


def reference_delta_leq(d: DeltaFunction, e: DeltaFunction, factor: Scalar = 1) -> bool:
    """The former `delta_leq`, with no factor check."""
    return d.theta == e.theta and Fraction(d.c) <= as_fraction(factor) * Fraction(e.c)


def reference_delta_ratio(f: DeltaFunction, g: DeltaFunction):
    """The former pinned-point branch of `corpus._ratio_any`."""
    if f.theta != g.theta or (g.c == 0 and f.c > 0):
        return INF, g.theta
    return (Fraction(f.c) / Fraction(g.c) if g.c else Fraction(0)), g.theta


# ---------------------------------------------------------------------------
# the former corpus ratio matrix: `_ratio_any` on every ordered pair


def reference_ratio_matrix(fs: Sequence) -> Tuple[Tuple[object, ...], ...]:
    return tuple(
        tuple(None if i == j else _ratio_any(f, g)[0] for j, g in enumerate(fs))
        for i, f in enumerate(fs)
    )


def _ref_leq(f, g, factor=1):
    if isinstance(f, PLConvex1D) and isinstance(g, PLConvex1D):
        w = leq_witness(f, g, factor)
        return (w is None), (None if w is None else float(w))
    assert isinstance(f, DeltaFunction) and isinstance(g, DeltaFunction)
    if reference_delta_leq(f, g, factor):
        return True, None
    return False, g.theta


def _ref_pairs(t):
    n = len(t)
    for i in range(n):
        for j in range(n):
            if i != j:
                yield i, j


def reference_check_almost_preserving(t, k) -> Tuple[Violation, ...]:
    els, imgs, labels = t.corpus.elements, t.images, t.corpus.labels
    out: List[Violation] = []
    for i, j in _ref_pairs(t):
        plain, _ = _ref_leq(els[i], els[j])
        if plain:
            ok, w = _ref_leq(imgs[i], imgs[j], k.ctilde)
            if not ok:
                out.append(
                    Violation("preserving-a", labels[i], labels[j], w,
                              "f <= g but not Tf <= C*Tg")
                )
        strict, _ = _ref_leq(els[i], els[j], k.reciprocal)
        if strict:
            ok, w = _ref_leq(imgs[i], imgs[j])
            if not ok:
                out.append(
                    Violation("preserving-b", labels[i], labels[j], w,
                              "f <= (1/C)*g but not Tf <= Tg")
                )
    return tuple(out)


def reference_check_almost_reversing(t, k) -> Tuple[Violation, ...]:
    els, imgs, labels = t.corpus.elements, t.images, t.corpus.labels
    out: List[Violation] = []
    for i, j in _ref_pairs(t):
        plain, _ = _ref_leq(els[i], els[j])
        if plain:
            # Tf >= (1/C)*Tg, i.e. Tg <= C*Tf
            ok, w = _ref_leq(imgs[j], imgs[i], k.ctilde)
            if not ok:
                out.append(
                    Violation("reversing-a", labels[i], labels[j], w,
                              "f <= g but not Tf >= (1/C)*Tg")
                )
        strict, _ = _ref_leq(els[i], els[j], k.reciprocal)
        if strict:
            ok, w = _ref_leq(imgs[j], imgs[i])
            if not ok:
                out.append(
                    Violation("reversing-b", labels[i], labels[j], w,
                              "f <= (1/C)*g but not Tf >= Tg")
                )
    return tuple(out)


def reference_check_inverse_conditions(t, k) -> Tuple[Violation, ...]:
    els, imgs, labels = t.corpus.elements, t.images, t.corpus.labels
    out: List[Violation] = []
    for i, j in _ref_pairs(t):
        plain, _ = _ref_leq(imgs[i], imgs[j])
        if plain:
            ok, w = _ref_leq(els[i], els[j], k.ctilde)
            if not ok:
                out.append(
                    Violation("inverse-a", labels[i], labels[j], w,
                              "Tf <= Tg but not f <= C*g")
                )
        strict, _ = _ref_leq(imgs[i], imgs[j], k.reciprocal)
        if strict:
            ok, w = _ref_leq(els[i], els[j])
            if not ok:
                out.append(
                    Violation("inverse-b", labels[i], labels[j], w,
                              "Tf <= (1/C)*Tg but not f <= g")
                )
    return tuple(out)


_REF_LATTICE_CONDITIONS = (
    ("lattice-sup-lower", 0, 1, 2, "T(sup) > C^2 * sup(Tf, Tg)"),
    ("lattice-sup-upper", 1, 0, 1, "sup(Tf, Tg) > C * T(sup)"),
    ("lattice-inf-lower", 2, 3, 1, "T(inf) > C * inf(Tf, Tg)"),
    ("lattice-inf-upper", 3, 2, 2, "inf(Tf, Tg) > C^2 * T(inf)"),
)


def reference_check_lattice_stability(t, k) -> Tuple[Violation, ...]:
    """Per designated pair: check the corpus closure, build the images' join
    and meet, and decide each of the four rows with `leq_witness` (1-d only)."""
    els, imgs, labels = t.corpus.elements, t.images, t.corpus.labels
    out: List[Violation] = []
    for i, j, i_sup, i_inf in t.corpus.lattice_pairs:
        f, g = els[i], els[j]
        if sup2(f, g) != els[i_sup] or hat_inf2(f, g) != els[i_inf]:
            raise CorpusError(
                f"designated lattice pair ({labels[i]}, {labels[j]}) is not "
                "closed in the corpus"
            )
        sides = (imgs[i_sup], sup2(imgs[i], imgs[j]),
                 imgs[i_inf], hat_inf2(imgs[i], imgs[j]))
        for condition, lhs, rhs, p, detail in _REF_LATTICE_CONDITIONS:
            ok, w = _ref_leq(sides[lhs], sides[rhs], k.power(p))
            if not ok:
                out.append(Violation(condition, labels[i], labels[j], w, detail))
    return tuple(out)


def reference_closed_lattice_pairs(corpus):
    """The former `Corpus.closed_lattice_pairs`: builds sup2 and hat_inf2 for
    every designation."""
    els, labels = corpus.elements, corpus.labels
    for i, j, s, m in corpus.lattice_pairs:
        if not (
            all(isinstance(els[n], PLConvex1D) for n in (i, j, s, m))
            and sup2(els[i], els[j]) == els[s] and hat_inf2(els[i], els[j]) == els[m]
        ):
            raise CorpusError(
                f"designated lattice pair ({labels[i]}, {labels[j]}) is not "
                "closed in the corpus, or not 1-d"
            )
    return corpus.lattice_pairs


def reference_geometric_corpus(exponents: Sequence[int]) -> Corpus:
    """`geometric_corpus` with the comparable designations it formerly made:
    nested indicators, comparable rays and every pair with an extreme."""
    corpus = geometric_corpus(exponents)
    elements = corpus.elements
    zero_idx, point_idx = len(elements) - 2, len(elements) - 1
    assert elements[zero_idx].is_zero and elements[point_idx].is_point_indicator

    n_ind = len(exponents)
    pairs = []
    # nested indicators: sup is the narrower, meet the wider
    for i in range(n_ind):
        for j in range(i + 1, n_ind):  # z_i < z_j
            pairs.append((i, j, i, j))
    # comparable rays: sup is the steeper, meet the flatter
    for i in range(n_ind):
        for j in range(i + 1, n_ind):
            a, b = n_ind + i, n_ind + j
            pairs.append((a, b, b, a))
    # extremes absorb: sup(0, f) = f, inf(0, f) = 0; sup(p, f) = p, inf(p, f) = f
    for i in range(len(elements)):
        if i != zero_idx:
            pairs.append((zero_idx, i, i, zero_idx))
        if i not in (zero_idx, point_idx):
            pairs.append((point_idx, i, point_idx, i))
    return replace(corpus, lattice_pairs=tuple(pairs))


def reference_analyze(t, k, exponent_tolerance: float = 1e-6):
    """The pipeline on the reference checkers, running each order checker in
    full before it picks the sense."""
    has_extremes = any(
        isinstance(f, PLConvex1D) and (f.is_zero or f.is_point_indicator)
        for f in t.corpus.elements
    )
    pres = reference_check_almost_preserving(t, k)
    if not pres:
        sense = "preserving"
        violations = (reference_check_inverse_conditions(t, k)
                      + reference_check_lattice_stability(t, k))
        if has_extremes:
            violations = violations + check_extremes(t)
    else:
        rev = reference_check_almost_reversing(t, k)
        if not rev:
            sense = "reversing"
            violations = ()
        else:
            report = classify(t, k, sense=None)
            return replace(
                report,
                violations=report.violations + pres + rev,
            )
    report = classify(t, k, sense=sense)
    report = replace(report, violations=report.violations + violations)
    if report.classification is not TransformClass.INCONSISTENT:
        gamma, deviation = estimate_exponent(
            report.phi_samples, tolerance=exponent_tolerance
        )
        report = replace(report, gamma=gamma, exponent_deviation=deviation)
    if report.classification in (TransformClass.IDENTITY, TransformClass.GAUGE):
        report = fit_sandwich(t, report)
    return report


def _right_slope_at(f: PLConvex1D, x0: Fraction) -> Fraction:
    for i in range(1, len(f.knots)):
        if f.knots[i][0] > x0:
            return f.slopes[i - 1]
    return f.tail_slope


def reference_ratio_extrema(
    num: PLConvex1D, den: PLConvex1D
) -> Optional[Tuple[Fraction, Fraction]]:
    """Exact (min, max) of num/den where both are finite positive.

    Requires matching zero sets and effective domains (else no two-sided
    sandwich exists and None is returned).  On each common affine piece the
    ratio is a Moebius function of x, hence monotone, so the extrema are
    attained among piece endpoints and the one-sided limits at the shared
    zero end and at infinity.
    """
    z0n, z0d = num.zero_end(), den.zero_end()
    if z0n != z0d or num.domain_end != den.domain_end:
        return None
    if num.is_zero or num.is_point_indicator or num.is_indicator:
        # scaling does not move an indicator, so support match is equality
        return None if num != den else (Fraction(1), Fraction(1))
    if den.is_indicator:
        return None
    z0, dend = z0n, num.domain_end
    cands: List[Fraction] = []
    for g in (num, den):
        for x, _ in g.knots:
            if z0 < x and (is_inf(dend) or x <= dend):
                cands.append(x)
    vals: List[Fraction] = []
    for x in set(cands):
        nv, dv = num(x), den(x)
        if is_inf(nv) or is_inf(dv):
            return None
        if dv == 0:
            return None
        vals.append(Fraction(nv) / dv)
    if not is_inf(z0):
        sn, sd = _right_slope_at(num, z0), _right_slope_at(den, z0)
        if is_inf(sn) or is_inf(sd) or sd == 0:
            return None
        vals.append(Fraction(sn) / sd)
    if is_inf(dend):
        mn, md = num.tail_slope, den.tail_slope
        if is_inf(mn) or is_inf(md) or md == 0:
            return None
        vals.append(Fraction(mn) / md)
    if not vals:
        return Fraction(1), Fraction(1)
    return min(vals), max(vals)


# ---------------------------------------------------------------------------
# the classifier and sandwich fit with one branch per class


def reference_image_kind(img: PLConvex1D, k: AlmostOrderConstant) -> str:
    if img.is_indicator:
        if not is_inf(img.domain_end) and img.domain_end > 0:
            return "indicator"
        return "other"
    if almost_linear_bounds(img, k.ctilde):
        return "almost-linear"
    return "other"


def reference_classify_at(
    t: CorpusTransform, k: AlmostOrderConstant, sense: Optional[str]
) -> StabilityReport:
    """`classify` at a decided sense; None when neither condition holds."""
    els = t.corpus.elements
    if not all(isinstance(f, PLConvex1D) for f in els):
        raise CorpusError("classification requires a corpus of 1-d functions")
    ind = [i for i, f in enumerate(els) if _proper_indicator(f)]
    lin = [i for i, f in enumerate(els) if _positive_linear(f)]
    if len(ind) < 2 or len(lin) < 2:
        raise CorpusError(
            "classification needs at least two indicators and two rays"
        )

    diagnostics: List[str] = []

    def report(classification, violations, phi=(), slopes=()) -> StabilityReport:
        return StabilityReport(
            classification, float(k.ctilde), tuple(violations), tuple(phi),
            tuple(slopes), diagnostics=tuple(diagnostics), provenance=t.provenance)

    if sense is None:
        return report(TransformClass.INCONSISTENT, [Violation(
            "classification", "", "", None,
            "neither order condition holds on the corpus")])

    imgs = list(t.images)
    if sense == "reversing":
        imgs = [geometric_dual(img) for img in imgs]
        diagnostics.append(
            "samples describe the order-preserving composition with the "
            "geometric dual"
        )

    kinds = {i: reference_image_kind(imgs[i], k) for i in ind}
    labels = t.corpus.labels
    violations: List[Violation] = []
    n_ind = sum(1 for v in kinds.values() if v == "indicator")
    n_lin = sum(1 for v in kinds.values() if v == "almost-linear")
    if n_ind == len(ind):
        base = TransformClass.IDENTITY
    elif n_lin == len(ind):
        base = TransformClass.GAUGE
    else:
        i_bad = next(i for i in ind if kinds[i] == "other") if (
            n_ind + n_lin < len(ind)
        ) else None
        if i_bad is not None:
            violations.append(Violation(
                "classification", labels[i_bad], "", None,
                "indicator image is neither an indicator nor almost linear"))
        else:
            i_a = next(i for i in ind if kinds[i] == "indicator")
            i_b = next(i for i in ind if kinds[i] == "almost-linear")
            violations.append(Violation(
                "classification", labels[i_a], labels[i_b], None,
                "indicator images mix both structural kinds"))
        return report(TransformClass.INCONSISTENT, violations)

    phi: List[Tuple[float, float]] = []
    for i in ind:
        z = float(els[i].domain_end)
        if base is TransformClass.IDENTITY:
            phi.append((z, float(imgs[i].domain_end)))
        else:
            phi.append((z, float(imgs[i].first_slope)))
    phi.sort()

    expect = "almost-linear" if base is TransformClass.IDENTITY else "indicator"
    slope_samples: List[Tuple[float, float]] = []
    for i in lin:
        kind = reference_image_kind(imgs[i], k)
        if kind != expect:
            violations.append(Violation(
                "classification", labels[i], "", None,
                f"ray image should be {expect} for this class, got {kind}"))
            continue
        a = float(els[i].first_slope)
        if base is TransformClass.IDENTITY:
            slope_samples.append((a, float(imgs[i].first_slope)))
        else:
            slope_samples.append((a, float(imgs[i].domain_end)))
    slope_samples.sort()

    if violations:
        label = TransformClass.INCONSISTENT
    elif sense == "reversing":
        label = (
            TransformClass.REVERSING_GEOMETRIC_DUAL
            if base is TransformClass.IDENTITY
            else TransformClass.REVERSING_LEGENDRE
        )
    else:
        label = base
    return report(label, violations, phi, slope_samples)


def reference_fit_sandwich(t: CorpusTransform, report: StabilityReport) -> StabilityReport:
    """Fit dilation and two-sided constants; re-verify the certificate.

    For an identity-like transform the reference is f(x/alpha), for a
    gauge-like one it is (Jf)(x/alpha) with J the gauge transform.  The
    dilation comes from the scaling-invariant support data (indicator image
    supports for identity, ray image supports for gauge), exactly when those
    ratios agree exactly.  c and C are the exact global extrema of the
    image/reference ratio, and c*ref <= Tf <= C*ref is re-verified exactly
    before the report is updated.  C/c beyond ctilde**10 flags the fit;
    within ctilde**7 is reported informationally.
    """
    k = AlmostOrderConstant(Fraction(report.ctilde))
    if report.classification is TransformClass.IDENTITY:
        gauge_like = False
    elif report.classification is TransformClass.GAUGE:
        gauge_like = True
    else:
        raise ClassificationError(
            "sandwich fitting needs an identity-like or gauge-like "
            "classification"
        )
    els, imgs, labels = t.corpus.elements, t.images, t.corpus.labels

    ratios: List[Fraction] = []
    for f, img in zip(els, imgs):
        if not gauge_like and _proper_indicator(f):
            ratios.append(Fraction(img.domain_end) / f.domain_end)
        elif gauge_like and _positive_linear(f):
            ratios.append(Fraction(img.domain_end) * f.first_slope)
    if not ratios:
        raise ClassificationError("no support data to fit a dilation from")
    alpha = _geometric_mean_fraction(ratios)

    refs = []
    for f in els:
        base = gauge_transform(f) if gauge_like else f
        refs.append(compose_dilate(base, alpha))

    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    violations: List[Violation] = []
    for f, img, ref, label in zip(els, imgs, refs, labels):
        if f.is_zero or f.is_point_indicator:
            if img != ref:
                violations.append(Violation(
                    "sandwich", label, "", None,
                    "extreme image does not match its reference exactly"))
            continue
        ext = _ratio_extrema(img, ref)
        if ext is None:
            violations.append(Violation(
                "sandwich", label, "", None,
                "image and reference have mismatched supports"))
            continue
        lo = ext[0] if lo is None else min(lo, ext[0])
        hi = ext[1] if hi is None else max(hi, ext[1])
    if violations:
        return replace(
            report,
            violations=report.violations + tuple(violations),
            alpha=float(alpha),
        )
    if lo is None:
        lo = hi = Fraction(1)

    for img, ref, label in zip(imgs, refs, labels):
        if not (leq(scale(ref, lo), img) and leq(img, scale(ref, hi))):
            raise ConsistencyError(
                f"fitted sandwich fails exact re-verification on {label}"
            )

    spread = hi / lo
    return replace(
        report,
        alpha=float(alpha),
        sandwich_lower=float(lo),
        sandwich_upper=float(hi),
        sandwich_flagged=bool(spread > k.power(SANDWICH_FLAG_POWER)),
        within_regime=bool(spread <= k.power(SANDWICH_REGIME_POWER)),
    )


# ---------------------------------------------------------------------------
# the candidate search that preceded the closed-form cover witness


WITNESS_GRID_FILLERS = 33


def reference_cover_witness_search(f: PLConvex1D, ctilde: Scalar) -> Optional[WitnessPair]:
    """Search for a (linear, indicator) pair refuting irreducibility of f.

    A valid pair (g = a*x, h = 1_[0,x1]) satisfies, exactly:
    sup2(g, h) >= f, not (f <= ctilde^3 * g), not (f <= ctilde^3 * h).
    Candidates for a and x1 come from f's knot structure (chord slopes,
    value/abscissa ratios, the tail slope, their ctilde^3 scalings) plus
    log-spaced fillers; pairs are tried in lexicographic order and the first
    exactly verified pair wins.  An empty result certifies irreducibility
    relative to this two-parameter family only.
    """
    if f.tag is not ClassTag.GEOMETRIC:
        raise ClassTagError("witness search requires a geometric function")
    C = as_fraction(ctilde)
    if C <= 1:
        raise ValueError("ctilde must exceed 1")
    c3 = C**3

    if f.is_indicator:
        # cover forces x1 <= domain end, non-domination by h forces
        # x1 > zero end; for an indicator the two coincide.
        return None

    dom = f.domain_end
    z0 = f.zero_end()

    a_set = set()
    x_set = set()
    for (xa, va), (xb, vb) in zip(f.knots, f.knots[1:]):
        a_set.add((vb - va) / (xb - xa))
    for x, v in f.knots:
        if x > 0:
            x_set.add(x)
            if v > 0:
                a_set.add(v / x)
    if not is_inf(f.tail_slope):
        a_set.add(f.tail_slope)
    for a in list(a_set):
        a_set.add(a * c3)
        a_set.add(a / c3)

    # Constructed candidates covering the three ways irreducibility fails.
    if not is_inf(dom):
        xk, vk = f.knots[-1]
        a_set.add(vk / xk)
        x_set.add(xk)
    else:
        m = f.tail_slope
        s0 = f.first_slope
        if s0 == 0:
            a_t = m / (2 * c3)
            a_set.add(a_t)
            (x_t,) = ratio_sup_abscissae(f, [a_t])
            if x_t is not None and x_t > 0:
                x_set.add(x_t)
        else:
            a_set.add(s0)

    a_pos = sorted(a for a in a_set if a > 0)
    x_pos = sorted(x_set)
    for lo_hi, dest in (((a_pos or [Fraction(1)]), a_set), ((x_pos or [Fraction(1)]), x_set)):
        lo = float(lo_hi[0]) / 8
        hi = float(lo_hi[-1]) * 8
        if lo <= 0 or not math.isfinite(hi) or hi <= lo:
            lo, hi = 1 / 8, 8.0
        r = (hi / lo) ** (1.0 / (WITNESS_GRID_FILLERS - 1))
        for i in range(WITNESS_GRID_FILLERS):
            dest.add(Fraction(lo * r**i))

    a_list = sorted(a for a in a_set if a >= 0)
    x_list = sorted(x for x in x_set if x > 0)

    for a in a_list:
        g = make_linear(a)
        g_dominates = leq(f, g, c3)  # automatically false when dom f is bounded
        if g_dominates:
            continue
        for x1 in x_list:
            if x1 <= z0 or x1 > dom:
                continue
            if f(x1) > a * x1:  # f(x)/x nondecreasing: covering fails
                continue
            pair = WitnessPair(g, make_indicator(x1))
            if witness_is_valid(f, pair, C):
                return pair
    return None


def reference_almost_linear_bounds(f: PLConvex1D, ctilde: Scalar) -> bool:
    """Exact decision of f'(0)*z <= f(z) <= ctilde^3 * f'(0) * z on dom f.

    The lower bound is convexity; the upper bound amounts to the supremum of
    f(z)/z (knot ratios, plus the tail slope as the unbounded limit) staying
    below ctilde^3 * f'(0).  Requires f'(0) > 0, hence returns False whenever
    the first slope vanishes.
    """
    if f.tag is not ClassTag.GEOMETRIC:
        raise ClassTagError("almost_linear_bounds requires a geometric function")
    if f.is_indicator:
        raise ClassificationError("indicators carry no linear bounds")
    C = as_fraction(ctilde)
    if C <= 1:
        raise ValueError("ctilde must exceed 1")
    s0 = f.first_slope
    if s0 <= 0:
        return False
    bound = C**3 * s0
    for x, v in f.knots:
        if x > 0 and v > bound * x:
            return False
    if not is_inf(f.tail_slope) and f.tail_slope > bound:
        return False
    return True


def random_cover_case(rng: random.Random, branch: int, ctilde) -> PLConvex1D:
    """Random geometric f aimed at one case of the cover witness construction.

    ``branch``: 0 an indicator, 1 a bounded domain, 2 almost linear, 3 a
    zero set [0, z0] with z0 > 0, 4 f'(0) > 0 with a tail steeper than
    ctilde^3 * f'(0).  1 to 40 pieces, then a random scaling and dilation.
    """
    if branch == 0:
        return make_indicator(rng.choice((Fraction(rng.randint(1, 64), rng.randint(1, 64)), 0, INF)))
    c3 = as_fraction(ctilde) ** 3
    s0 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    if branch == 2:
        top = s0 * (1 + (c3 - 1) * Fraction(rng.randint(1, 1000), 1000))
    else:
        top = s0 * c3 * (1 + Fraction(rng.randint(1, 1000), 100))
    if branch == 3 or (branch == 1 and rng.random() < 0.5):
        s0 = _F0
    n = max(2 if branch == 1 and not s0 else 1, int(41 ** rng.random() ** 3))  # 1..40, mostly few
    inner = {s0 + (top - s0) * Fraction(rng.randint(1, 999), 1000) for _ in range(n - 1)}
    knots = [(_F0, _F0)]
    for s in [s0] + sorted(inner):
        w = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        knots.append((knots[-1][0] + w, knots[-1][1] + s * w))
    f = PLConvex1D(tuple(knots), INF if branch == 1 else top)
    lam, mu = (Fraction(2) ** rng.randint(-8, 8) * rng.randint(1, 7) for _ in range(2))
    return compose_dilate(scale(f, lam), mu)


def assert_close(a, b, rtol=1e-9, atol=1e-12, msg=""):
    af, bf = float(a), float(b)
    if math.isinf(af) or math.isinf(bf):
        assert af == bf, f"{msg}: {a} vs {b}"
        return
    assert abs(af - bf) <= atol + rtol * max(abs(af), abs(bf)), (
        f"{msg}: {a} vs {b}"
    )


# ---------------------------------------------------------------------------
# 2-d grid references


def random_pd_matrix(rng: random.Random) -> np.ndarray:
    """A symmetric positive-definite 2x2 matrix, eigenvalues in [1/4, 4]."""
    theta = rng.uniform(0.0, math.pi)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([rng.uniform(0.25, 4.0), rng.uniform(0.25, 4.0)]) @ rot.T


def random_geometric_grid(rng: random.Random) -> GridFunction2D:
    """A valid geometric grid with N in {3, 5, ..., 33}: a quadratic, a cone,
    a ball indicator or the zero function; quadratics and cones may be +inf
    off an elliptic domain and 0 on a smaller ellipse (a nonzero zero set)."""
    kind = rng.choice(("quadratic", "cone", "ball", "zero"))
    spec = GridSpec(rng.choice((0.5, 1.0, 2.0, 3.0, 4.0, 16.0)), rng.randrange(3, 34, 2))
    c = spec.coords
    P = np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1)
    norm = np.sqrt(np.einsum("...i,ij,...j->...", P, random_pd_matrix(rng), P)) / spec.R
    if kind == "zero":
        return GridFunction2D(spec, np.zeros((spec.N, spec.N)))
    if kind == "ball":
        return GridFunction2D(spec, np.where(norm <= rng.uniform(0.1, 1.5), 0.0, np.inf))
    r = norm if kind == "cone" else norm**2
    if rng.random() < 0.4:
        r = np.maximum(r - rng.uniform(0.05, 0.5), 0.0)
    v = rng.uniform(0.1, 10.0) * r
    if rng.random() < 0.4:
        v = np.where(norm <= rng.uniform(0.3, 1.2), v, np.inf)
    return GridFunction2D(spec, v)


def _grid_nodes(f: GridFunction2D):
    c = f.spec.coords
    x1, x2 = np.meshgrid(c, c, indexing="ij")
    return x1.ravel()[:, None], x2.ravel()[:, None]


def reference_legendre_grid(f: GridFunction2D) -> np.ndarray:
    """max_p fl(fl(q1*p1) + fl(fl(q2*p2) - f(p))) over finite nodes p, by
    brute force over all node pairs."""
    q1, q2 = _grid_nodes(f)
    pts, vals = f.finite_nodes()
    g = (q1 * pts[:, 0] + (q2 * pts[:, 1] - vals)).max(axis=1)
    return g.reshape(f.values.shape)


def reference_a_grid(f: GridFunction2D) -> np.ndarray:
    """+inf off the discrete polar {x : fl(fl(x1*z1) + fl(x2*z2)) <= 1 + tol
    for every zero node z}, and on it the floored max over nodes y with
    finite positive value of fl(fl(fl(x1*y1) + fl(x2*y2)) - 1) / f(y)."""
    x1, x2 = _grid_nodes(f)
    c, v = f.spec.coords, f.values
    tol = 1e-9 * (f.spec.R**2 + 1.0)
    z1, z2 = (c[k] for k in np.nonzero(v == 0.0))
    polar = (x1 * z1 + x2 * z2 <= 1.0 + tol).all(axis=1)
    pos = np.isfinite(v) & (v > 0.0)
    if pos.any():
        y1, y2 = (c[k] for k in np.nonzero(pos))
        best = np.maximum(((x1 * y1 + x2 * y2 - 1.0) / v[pos]).max(axis=1), 0.0)
    else:
        best = np.zeros(len(polar))
    return np.where(polar, best, np.inf).reshape(v.shape)


def matmul_legendre_grid(f, block: int = 256):
    """The former `legendre_grid`, verbatim but for the input check: a BLAS
    matmul per block of nodes."""
    pts, vals = f.finite_nodes()
    c = f.spec.coords
    gx, gy = np.meshgrid(c, c, indexing="ij")
    nodes = np.column_stack((gx.ravel(), gy.ravel()))
    out = np.empty(len(nodes))
    for i in range(0, len(nodes), block):
        q = nodes[i : i + block]
        out[i : i + block] = (q @ pts.T - vals).max(axis=1)
    return GridFunction2D(f.spec, out.reshape(f.spec.N, f.spec.N), ClassTag.GEOMETRIC)


def matmul_a_grid(f, block: int = 256):
    """The former `a_grid`, verbatim but for the input check: BLAS matmuls
    per block of nodes."""
    c = f.spec.coords
    gx, gy = np.meshgrid(c, c, indexing="ij")
    nodes = np.column_stack((gx.ravel(), gy.ravel()))
    tol = 1e-9 * (f.spec.R**2 + 1.0)

    zero_pts = nodes[(f.values == 0.0).ravel()]
    polar = np.ones(len(nodes), dtype=bool)
    for i in range(0, len(nodes), block):
        x = nodes[i : i + block]
        polar[i : i + block] = (x @ zero_pts.T <= 1.0 + tol).all(axis=1)

    pos_mask = np.isfinite(f.values) & (f.values > 0.0)
    idx = np.argwhere(pos_mask)
    out = np.full(len(nodes), np.inf)
    if idx.size:
        pts = np.column_stack((c[idx[:, 0]], c[idx[:, 1]]))
        vals = f.values[pos_mask]
        which = np.flatnonzero(polar)
        for i in range(0, len(which), block):
            sel = which[i : i + block]
            ratios = (nodes[sel] @ pts.T - 1.0) / vals
            out[sel] = np.maximum(ratios.max(axis=1), 0.0)
    else:
        out[polar] = 0.0
    return GridFunction2D(f.spec, out.reshape(f.spec.N, f.spec.N), ClassTag.GEOMETRIC)


def dense_hat_inf2_grid(f: GridFunction2D, g: GridFunction2D, matmul: bool = False) -> np.ndarray:
    """`hat_inf2_grid` values for a cloud spanning the plane, with every
    lower facet evaluated at every node: fl(fl(fl(x1*a) + fl(x2*b)) + c)
    one facet at a time, or (``matmul``) the former BLAS evaluation
    x @ (a, b) + c.  The shadow test and the clipping are as in
    `hat_inf2_grid`."""
    from scipy.spatial import ConvexHull

    m = np.minimum(f.values, g.values)
    mask = np.isfinite(m)
    c = f.spec.coords
    pts = np.column_stack([c[k] for k in np.nonzero(mask)])
    tol = 1e-9 * (f.spec.R + 1.0)
    eq = ConvexHull(np.column_stack((pts, m[mask]))).equations
    low = eq[eq[:, 2] < -tol]
    planes = -low[:, (0, 1, 3)] / low[:, 2:3]
    x1, x2 = (a.ravel() for a in np.meshgrid(c, c, indexing="ij"))
    if matmul:
        nodes = np.column_stack((x1, x2))
        env = np.full(len(x1), -np.inf)
        for k in range(0, len(planes), 256):
            p = planes[k : k + 256]
            env = np.maximum(env, (nodes @ p[:, :2].T + p[:, 2]).max(axis=1))
    else:
        env = np.full(len(x1), -np.inf)
        for a, b, off in planes:
            env = np.maximum(env, x1 * a + x2 * b + off)
    shadow = ConvexHull(pts).equations
    inside = np.full(len(x1), True)
    for a, b, off in shadow:
        inside &= x1 * a + x2 * b + off <= tol
    env = np.where(inside, env, np.inf).reshape(m.shape)
    return np.minimum(np.maximum(env, m[mask].min()), m)


# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def geometric_functions(draw, max_knots: int = 12) -> PLConvex1D:
    seed = draw(st.integers(min_value=0, max_value=2**48))
    return random_geometric(random.Random(seed), max_knots=max_knots)


# ---------------------------------------------------------------------------
# reference sampled-data lemmas, fuzz builders and plot writer: the copies
# that one sample reader, one grid helper, one jittered builder and one
# table-driven artifact loop replaced, kept verbatim.  The exponent copy keeps
# the last of two samples at one grid point, where the library now raises.


def _reference_finite_samples(
    samples: Union[Mapping[float, float], Sequence[Tuple[float, float]]],
) -> List[Tuple[float, float]]:
    """A mapping or sequence of (x, y) samples as float pairs sorted by x
    (ValueError on a NaN or infinite entry)."""
    items = samples.items() if isinstance(samples, Mapping) else samples
    pairs = [(float(x), float(y)) for x, y in items]
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in pairs):
        raise ValueError("samples must be finite")
    return sorted(pairs)


def reference_estimate_exponent(
    samples: Union[Mapping[float, float], Sequence[Tuple[float, float]]],
    tolerance: float = 1e-6,
) -> Tuple[float, float]:
    """Recover the power-law exponent of positive samples z -> phi(z).

    The abscissae must sit on a multiplicative grid (integer powers of the
    smallest one above 1) closed under squaring up to a cap.  With
    h(s) = log phi(exp(s)) the estimate is the dyadic-doubling slope
    h(2^n s0)/(2^n s0) at the largest in-range n; an exact power law is
    therefore recovered exactly, and multiplicative noise decays like the
    reciprocal of the cap.  Returns (gamma, sup deviation |h - gamma*s|).
    A NaN, infinite or nonpositive sample raises ValueError.
    """
    tolerance = _nonnegative(tolerance, "tolerance")
    pairs = _reference_finite_samples(samples)
    if len(pairs) < 2:
        raise ValueError("need at least two samples")
    if not all(z > 0 and p > 0 for z, p in pairs):
        raise ValueError("samples must be positive")
    hs = [(math.log(z), math.log(p)) for z, p in pairs]
    nonzero = [abs(s) for s, _ in hs if abs(s) > tolerance]
    if not nonzero:
        raise ValueError("all abscissae equal 1; no scale to fit")
    pitch = min(nonzero)
    index: Dict[int, float] = {}
    for s, h in hs:
        j = round(s / pitch)
        if abs(s - j * pitch) > tolerance * max(1.0, abs(j)):
            raise ValueError("abscissae do not sit on a multiplicative grid")
        index[j] = h
    pos = sorted(j for j in index if j > 0)
    if pos:
        j = pos[0]
        while 2 * j in index:
            j *= 2
    else:
        neg = sorted((j for j in index if j < 0), reverse=True)
        if not neg:
            raise ValueError("need at least one abscissa away from 1")
        j = neg[0]
        while 2 * j in index:
            j *= 2
    gamma = index[j] / (j * pitch)
    deviation = max(abs(h - gamma * s) for s, h in hs)
    return gamma, deviation


def reference_hyers_ulam_approx(
    samples: Union[Mapping[float, float], Sequence[Tuple[float, float]]],
    eps: float,
) -> Tuple[Dict[float, float], float]:
    """Additive approximation of an eps-approximately-additive sample map.

    The abscissae must sit on a uniform grid through 0.  Every in-range pair
    is first checked for the Cauchy defect |f(x)+f(y)-f(x+y)| <= eps (a
    failure raises HypothesisViolationError with the witnessing pair); the
    approximation is the dyadic limit g(x) = f(2^n x)/2^n at the largest
    in-range n, and telescoping the defect gives sup|f - g| <= eps.  A NaN
    or infinite sample raises ValueError.
    """
    eps = _nonnegative(eps, "eps")
    pairs = _reference_finite_samples(samples)
    if not pairs:
        raise ValueError("need at least one sample")
    xs = [x for x, _ in pairs]
    gaps = [b - a for a, b in zip(xs, xs[1:]) if b - a > 0]
    pitch = min(gaps) if gaps else 1.0
    index: Dict[int, float] = {}
    keys: Dict[int, float] = {}
    for x, v in pairs:
        steps = x / pitch
        if not math.isfinite(steps):
            raise ValueError("abscissae span more grid steps than a float holds")
        j = round(steps)
        if abs(x - j * pitch) > 1e-6 * pitch * max(1.0, abs(j)):
            raise ValueError("abscissae do not sit on a uniform grid")
        if j in index:
            raise ValueError(f"duplicate abscissa near {x!r}")
        index[j] = v
        keys[j] = x
    js = sorted(index)
    for a_pos, i in enumerate(js):
        for j in js[a_pos:]:
            if i + j in index:
                defect = abs(index[i] + index[j] - index[i + j])
                if defect > eps:
                    raise HypothesisViolationError(
                        f"additive defect {defect} exceeds {eps} at "
                        f"({keys[i]}, {keys[j]})",
                        witness=(keys[i], keys[j]),
                    )
    g: Dict[float, float] = {}
    sup_error = 0.0
    for j in js:
        if j == 0:
            gj = 0.0
        else:
            m, n = j, 0
            while 2 * m in index:
                m, n = 2 * m, n + 1
            gj = index[m] / (1 << n)
        g[keys[j]] = gj
        sup_error = max(sup_error, abs(index[j] - gj))
    return g, sup_error


def _reference_self_certified(
    t: CorpusTransform, k: AlmostOrderConstant, sense: str
) -> CorpusTransform:
    """``t``, once no pair violates ``sense``; else a ConsistencyError naming
    the first failing condition and pair (the jitter band [C**-0.5, C**0.5]
    can reach across a corpus spaced finer than C)."""
    bad = next(_violations(t, k, sense), None)
    if bad is not None:
        raise ConsistencyError(
            f"fuzzed transform failed its own certification: {bad.condition} "
            f"on ({bad.f_label}, {bad.g_label}): {bad.detail}"
        )
    return t


def _reference_jitter_factors(seed: int, k: AlmostOrderConstant, n: int) -> List[Fraction]:
    rng = random.Random(seed)
    half = 0.5 * math.log(float(k.ctilde)) * (1.0 - _JITTER_MARGIN)
    return [Fraction(math.exp(rng.uniform(-half, half))) for _ in range(n)]


def reference_fuzz_transform(
    seed: int,
    k: AlmostOrderConstant,
    base: str = "identity",
    alpha=1,
    corpus: Optional[Corpus] = None,
) -> CorpusTransform:
    """Deterministic jittered transform certified at construction.

    Each corpus element f maps to kappa(f) * (base image of f)(x/alpha),
    with kappa drawn per element from the seeded generator, log-uniform in
    [ctilde**-0.5, ctilde**0.5] (shrunk by a hair so the certified
    inequalities stay strict).  The matching condition checker re-verifies
    the construction before it is returned.
    """
    if base not in _FUZZ_BASES:
        raise ValueError(f"unknown base transform {base!r}")
    op, sense = _FUZZ_BASES[base]
    if corpus is None:
        corpus = geometric_corpus()
    if not all(isinstance(f, PLConvex1D) for f in corpus.elements):
        raise CorpusError("fuzzing needs a corpus of 1-d functions")
    alpha = as_fraction(alpha)
    if alpha <= 0:
        raise ValueError("dilation must be positive")
    kappas = _reference_jitter_factors(seed, k, len(corpus))
    images = []
    for f, kap in zip(corpus.elements, kappas):
        img = f if op is None else op(f)
        if alpha != 1:
            img = compose_dilate(img, alpha)
        images.append(scale(img, kap))
    t = CorpusTransform(
        corpus,
        tuple(images),
        provenance=(
            f"fuzz(base={base}, ctilde={float(k.ctilde)!r}, seed={seed}, "
            f"alpha={float(alpha)!r}, corpus={corpus.description})"
        ),
    )
    return _reference_self_certified(t, k, sense)


def reference_fuzz_delta_transform(
    seed: int,
    k: AlmostOrderConstant,
    point_map: Callable,
    beta: float = 1.0,
    corpus: Optional[Corpus] = None,
) -> CorpusTransform:
    """Jittered pinned-point transform: D(theta)+c -> D(point_map(theta)) + kappa*beta*c."""
    if corpus is None:
        corpus = delta_corpus()
    if not all(isinstance(f, DeltaFunction) for f in corpus.elements):
        raise CorpusError("delta fuzzing needs a corpus of pinned-point functions")
    if not beta > 0:
        raise ValueError("value scaling must be positive")
    kappas = _reference_jitter_factors(seed, k, len(corpus))
    images = []
    for f, kap in zip(corpus.elements, kappas):
        images.append(make_delta(point_map(f.theta), float(kap) * beta * f.c))
    t = CorpusTransform(
        corpus,
        tuple(images),
        provenance=(
            f"fuzz-delta(ctilde={float(k.ctilde)!r}, seed={seed}, "
            f"beta={beta!r}, corpus={corpus.description})"
        ),
    )
    return _reference_self_certified(t, k, "preserving")


_SVG_W, _SVG_H = 480, 360
_MARGIN = 48.0


def _reference_svg_scatter_lines(
    series: Sequence[Tuple[str, Sequence[Tuple[float, float]]]],
    title: str,
    log_axes: bool = True,
) -> str:
    """Flat SVG with one polyline per series; points carry small markers."""
    pts_all: List[Tuple[float, float]] = []
    plotted: List[Tuple[str, List[Tuple[float, float]]]] = []
    for name, pts in series:
        keep = []
        for x, y in pts:
            if log_axes:
                if x <= 0 or y <= 0:
                    continue
                keep.append((math.log10(x), math.log10(y)))
            else:
                keep.append((float(x), float(y)))
        if keep:
            plotted.append((name, keep))
            pts_all.extend(keep)
    if not pts_all:
        pts_all = [(0.0, 0.0), (1.0, 1.0)]
    x0 = min(p[0] for p in pts_all)
    x1 = max(p[0] for p in pts_all)
    y0 = min(p[1] for p in pts_all)
    y1 = max(p[1] for p in pts_all)
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0

    def to_px(p):
        px = _MARGIN + (p[0] - x0) / dx * (_SVG_W - 2 * _MARGIN)
        py = _SVG_H - _MARGIN - (p[1] - y0) / dy * (_SVG_H - 2 * _MARGIN)
        return f"{px:.2f},{py:.2f}"

    colors = ("#1f5fa8", "#bb3311", "#227744", "#886600")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{_MARGIN:.2f}" y="{_MARGIN:.2f}" '
        f'width="{_SVG_W - 2 * _MARGIN:.2f}" '
        f'height="{_SVG_H - 2 * _MARGIN:.2f}" fill="none" stroke="#333"/>',
        f'<text x="{_MARGIN:.2f}" y="{_MARGIN - 12:.2f}" '
        f'font-family="monospace" font-size="13">{title}</text>',
    ]
    scale_note = "log10/log10" if log_axes else "linear"
    parts.append(
        f'<text x="{_MARGIN:.2f}" y="{_SVG_H - 12:.2f}" '
        f'font-family="monospace" font-size="11">axes: {scale_note}; '
        f'x in [{x0:.4g}, {x1:.4g}], y in [{y0:.4g}, {y1:.4g}]</text>'
    )
    for i, (name, pts) in enumerate(plotted):
        color = colors[i % len(colors)]
        coords = " ".join(to_px(p) for p in pts)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
        for p in pts:
            px, py = to_px(p).split(",")
            parts.append(
                f'<circle cx="{px}" cy="{py}" r="2.5" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{_SVG_W - _MARGIN:.2f}" y="{_MARGIN + 14 * (i + 1):.2f}" '
            f'text-anchor="end" font-family="monospace" font-size="11" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _reference_write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _reference_csv_rows(header: Sequence[str], rows: Sequence[Sequence[float]]) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(repr(float(v)) for v in row))
    return "\n".join(out) + "\n"


def reference_emit_plots(obj: dict, directory: str) -> List[str]:
    """Write phi(z), c(a), and sandwich-envelope CSV + SVG artifacts."""
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []

    phi = [(float(z), float(p)) for z, p in obj.get("phi_samples", ())]
    if phi:
        path = os.path.join(directory, "phi.csv")
        _reference_write(path, _reference_csv_rows(("z", "phi"), phi))
        written.append(path)
        path = os.path.join(directory, "phi.svg")
        _reference_write(path, _reference_svg_scatter_lines([("phi(z)", phi)], "indicator support map phi(z)"))
        written.append(path)

    slopes = [(float(a), float(c)) for a, c in obj.get("slope_samples", ())]
    if slopes:
        path = os.path.join(directory, "slope.csv")
        _reference_write(path, _reference_csv_rows(("a", "c"), slopes))
        written.append(path)
        path = os.path.join(directory, "slope.svg")
        _reference_write(path, _reference_svg_scatter_lines([("c(a)", slopes)], "ray image map c(a)"))
        written.append(path)

    # the sandwich constants bound values, so the envelope is drawn around
    # whichever sample family carries value jitter: image slopes in both cases
    lo, hi = obj.get("sandwich_lower"), obj.get("sandwich_upper")
    alpha = obj.get("alpha")
    gauge_like = obj.get("classification") == "gauge"
    family = phi if gauge_like else slopes
    if family and lo is not None and hi is not None and alpha:
        rows = []
        band_lo = []
        band_hi = []
        for x, v in family:
            ref = (1.0 / (alpha * x)) if gauge_like else (x / alpha)
            rows.append((x, v, lo * ref, hi * ref))
            band_lo.append((x, lo * ref))
            band_hi.append((x, hi * ref))
        name = "phi(z)" if gauge_like else "c(a)"
        path = os.path.join(directory, "sandwich.csv")
        _reference_write(path, _reference_csv_rows(("x", "value", "lower", "upper"), rows))
        written.append(path)
        path = os.path.join(directory, "sandwich.svg")
        _reference_write(
            path,
            _reference_svg_scatter_lines(
                [(name, family), ("c*ref", band_lo), ("C*ref", band_hi)],
                "sandwich envelope around the value-jittered samples",
            ),
        )
        written.append(path)
    return written
