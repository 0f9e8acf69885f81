"""Duality transforms on the exact piecewise-linear classes.

Three order transforms act on geometric functions (convex, lsc, f(0) = 0,
nondecreasing on [0, inf)):

* ``legendre`` (L) - the convex conjugate sup_x (x*y - f(x)); order reversing.
* ``gauge_transform`` (J) - the order-preserving involution induced by the
  point map (x, v) -> (x/v, 1/v): the lower convex hull of the images of
  f's knots (and of its tail's point at infinity), with the recession slope
  that f's zero set fixes.
* ``geometric_dual`` (A) - the polar-type dual sup {(x*y - 1)/f(y) : 0 <
  f(y) < inf}, with sup over the empty set equal to 0 and +inf outside the
  polar interval of the zero set; order reversing, built as A = L o J.

All three are exact: rational in, rational out, canonical representations.
``gauge_transform`` checks every result against the variational formula of
the gauge transform, exactly and completely, on every call; the formula's
feasibility sweep is `pl.ratio_sup_abscissae`, and ``gauge_value`` is its
pointwise form.  The check shares no code with the hull construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .exceptions import ClassTagError, ConsistencyError
from .pl import (
    INF,
    ClassTag,
    Extended,
    PLConvex1D,
    _affine,
    _hull_function,
    _lt,
    as_fraction,
    is_inf,
    ratio_sup_abscissae,
)

_F0 = Fraction(0)
_F1 = Fraction(1)
_HALF = Fraction(1, 2)


def _require_geometric(f: PLConvex1D, op: str) -> None:
    if f.tag is not ClassTag.GEOMETRIC:
        raise ClassTagError(f"{op} requires a geometric function, got {f.tag.value}")


def legendre(f: PLConvex1D) -> PLConvex1D:
    """Convex conjugate g(y) = sup_x (x*y - f(x)), restricted to y >= 0.  Exact.

    On geometric functions the conjugate swaps knots and slopes: the chord
    slopes of f become the knot abscissae of g and vice versa, so the
    operation is an exact involution on canonical representations.
    """
    _require_geometric(f, "legendre")
    ys: List[Tuple[Fraction, Fraction]] = [(_F0, _F0)]
    # the knot (s, xa*s - va) is minus the value at 0 of the piece's line
    for (xa, va), s in zip(f.knots, f.slopes):
        if s.numerator > 0:
            ys.append((s, -_affine(va, s, _F0, xa)))
    m = f.tail_slope
    xk, vk = f.knots[-1]
    if is_inf(m):
        tail: Extended = xk
    else:
        if _lt(ys[-1][0], m):
            ys.append((m, -_affine(vk, m, _F0, xk)))
        tail = INF
    return PLConvex1D(tuple(ys), tail, ClassTag.GEOMETRIC)


def _gauge_hull(f: PLConvex1D) -> PLConvex1D:
    """J f, unchecked: the hull function of the polar points of f's graph.

    J is induced by the point map (x, v) -> (x/v, 1/v): J f is the lower hull
    of the origin, the image of each knot with v > 0 and, for a finite tail
    slope m > 0, the tail's image (1/m, 0); its recession slope is 1/z0 for
    the zero set [0, z0] (+inf when z0 = 0, 0 for the zero function).  The
    points are listed in ascending x, so the hull sorts nothing: f(x)/x
    rises along the knots towards m, so x/v falls and stays at least 1/m."""
    pts = [(_F0, _F0)]
    m = f.tail_slope
    if not is_inf(m) and m > 0:
        pts.append((_F1 / m, _F0))
    for x, v in reversed(f.knots):
        if v.numerator:  # (x/v, 1/v), each normalised once
            pts.append((Fraction(x.numerator * v.denominator, x.denominator * v.numerator),
                        Fraction(v.denominator, v.numerator)))
    z0 = f.zero_end()
    tail: Extended = INF if z0 == 0 else _F0 if is_inf(z0) else _F1 / z0
    return _hull_function(pts, tail, ClassTag.GEOMETRIC)


def geometric_dual(f: PLConvex1D) -> PLConvex1D:
    """Polar-type dual (sup of (x*y - 1)/f(y) over 0 < f(y) < inf).  Exact.

    A = L o J: the conjugate of the hull that builds the gauge transform.
    The result is +inf outside [0, 1/z0], where [0, z0] is the zero set of
    f, and 0 where no y with 0 < f(y) < inf gives a positive quotient.  An
    exact involution.
    """
    _require_geometric(f, "geometric_dual")
    return legendre(_gauge_hull(f))


def gauge_value(f: PLConvex1D, y) -> Extended:
    """Gauge transform evaluated pointwise from its variational formula.

    The value at y is y / sup{x in dom f : y * f(x) <= x} (so 0 when the sup
    is infinite and +inf when only x = 0 is feasible).  This is the pointwise
    form of the sweep `ratio_sup_abscissae` that `gauge_transform` checks
    its result with, at the single rate 1/y.
    """
    _require_geometric(f, "gauge_value")
    y = as_fraction(y)
    if y < 0:
        raise ValueError("gauge_value requires y >= 0")
    if y == 0:
        return _F0
    (x,) = ratio_sup_abscissae(f, [_F1 / y])
    if x is None:
        return _F0
    return INF if x == 0 else y / x


def gauge_transform(f: PLConvex1D) -> PLConvex1D:
    """Gauge transform J f, the hull of f's polar points.  Exact, order preserving.

    The hull g is checked, exactly and completely, against the variational
    formula J(y) = y / sup{x : y*f(x) <= x}; a mismatch raises
    ConsistencyError.  J is convex, so agreeing with an affine piece of g at
    both ends and at its midpoint means agreeing on the whole piece: one
    `ratio_sup_abscissae` sweep evaluates J at every knot of g, every piece
    midpoint, and one point past the last knot.  The rest is fixed by f's own
    data: with zero set {0}, J is finite exactly on [0, 1/f'(0+)]; with zero
    set [0, z0], z0 > 0, J(y)/y tends to 1/z0, which pins the tail ray of g.
    """
    _require_geometric(f, "gauge_transform")
    g = _gauge_hull(f)
    z0 = f.zero_end()
    if z0 == 0:
        s0 = f.first_slope
        shape_ok = g.domain_end == (_F0 if is_inf(s0) else _F1 / s0)
    else:
        shape_ok = g.tail_slope == (_F0 if is_inf(z0) else _F1 / z0)
    if not shape_ok:
        raise ConsistencyError(f"gauge transform {g} does not fit the zero set [0, {z0}] of f")

    pts: List[Tuple[Fraction, Fraction]] = []
    for (ya, va), (yb, vb) in zip(g.knots, g.knots[1:]):
        pts.append((_affine(ya, _HALF, yb, ya), _affine(va, _HALF, vb, va)))  # the midpoint
        pts.append((yb, vb))
    if not is_inf(g.tail_slope):
        yk, vk = g.knots[-1]
        pts.append((yk + 1, vk + g.tail_slope))
    xs = ratio_sup_abscissae(f, [Fraction(y.denominator, y.numerator) for y, _ in pts])
    for (y, v), x in zip(pts, xs):
        # J(y) = y / x, read as 0 for x = None and +inf for x = 0
        if not (v == 0 if x is None else v.numerator * x.numerator * y.denominator
                == y.numerator * v.denominator * x.denominator):
            raise ConsistencyError(
                f"gauge transform mismatch at y={y}: hull {v}, "
                f"variational formula {y} / {'inf' if x is None else x}"
            )
    return g


# -- 2-D sampled oracles ---------------------------------------------------


def _grid_geometric(f, op: str):
    from .grid import ensure_valid

    if f.tag is not ClassTag.GEOMETRIC:
        raise ClassTagError(f"{op} requires a geometric grid function")
    ensure_valid(f)


def legendre_grid(f):
    """Conjugate on the lattice: g(q) = max over finite nodes p of <q, p> - f(p).

    Two 1-d passes, O(N^3) time: t(p1, q2) = max_p2 fl(q2*p2 - f(p1, p2)), then
    g(q1, q2) = max_p1 fl(q1*p1 + t(p1, q2)); +inf nodes enter as -inf terms.
    Each pass goes `grid._TILE_ROWS` rows at a time, so memory is O(N^2).
    Rounding is monotone, so the values equal those of the brute force
    max_p fl(fl(q1*p1) + fl(fl(q2*p2) - f(p))); a 0 may carry the other sign,
    since a max over a tied +0.0 and -0.0 keeps whichever comes first."""
    import numpy as np

    from . import grid

    _grid_geometric(f, "legendre_grid")
    v, n, tile = f.values, f.spec.N, grid._TILE_ROWS
    qp = np.multiply.outer(f.spec.coords, f.spec.coords)  # qp[q, p] = q*p
    t = np.empty((n, n))  # t[p1, q2]
    g = np.empty((n, n))
    for a in range(0, n, tile):
        t[a : a + tile] = (qp[None, :, :] - v[a : a + tile, None, :]).max(axis=2)
    for a in range(0, n, tile):
        g[a : a + tile] = (qp[a : a + tile, :, None] + t[None, :, :]).max(axis=1)
    return grid.GridFunction2D(f.spec, g, ClassTag.GEOMETRIC)


def a_grid(f):
    """Polar-type dual on the lattice, bit-identical to the brute force over
    node pairs: +inf outside the discrete polar of the zero set (pairwise
    <x, y> <= 1 test), and on it the floored max of fl(fl(<x, y> - 1) / f(y))
    over nodes y with finite positive value, <x, y> = fl(fl(x1*y1) + fl(x2*y2)).

    On a quadrant of x nodes with signs (s1, s2) every rounded step is
    monotone in s1*y1 and s2*y2, and a numerator >= 0 over a smaller f(y) is
    no smaller (a negative quotient is floored to 0), so only the nodes that
    `grid._maximal` keeps can set the max, in the polar test too.  Those
    nodes go into cells of 32 to 64, and `grid._dual_max` scans a cell at x
    only when an exact upper bound of its float quotients exceeds a lower
    bound of the max (see `grid._cell_bounds` for the bound, its rounding
    margin and its non-finite guard); on the quadratics and cones of the
    benchmark it forms about 15% of the quotients over those nodes.
    O(N^2 * M) at worst for M positive nodes, in tiles of bounded size."""
    import numpy as np

    from .grid import GridFunction2D, _dual_max, _lattice_max, _maximal

    _grid_geometric(f, "a_grid")
    c, v = f.spec.coords, f.values
    tol = 1e-9 * (f.spec.R**2 + 1.0)
    zero = np.where(v == 0.0, 0.0, np.inf)
    w = np.where(np.isfinite(v) & (v > 0.0), v, np.inf)
    h = int(np.searchsorted(c, 0.0))  # c[h:] >= 0 > c[:h]
    halves = ((1, slice(h, None)), (-1, slice(0, h)))
    out = np.full_like(v, np.inf)
    for s1, r in halves:
        for s2, q in halves:
            z1, z2 = (c[k] for k in np.nonzero(_maximal(zero, s1, s2)))
            i, j = np.nonzero(_lattice_max(c[r], c[q], z1, z2) <= 1.0 + tol)
            keep = _maximal(w, s1, s2)  # empty only when no node is positive
            block = out[r, q]  # a view: its polar nodes are set below
            if keep.any() and i.size:
                y1, y2 = (c[k] for k in np.nonzero(keep))
                block[i, j] = _dual_max(c[r][i], c[q][j], y1, y2, v[keep], s1, s2)
            else:
                block[i, j] = 0.0
    return GridFunction2D(f.spec, out, ClassTag.GEOMETRIC)


def gauge_grid(f):
    """Sampled gauge transform: the composition legendre_grid(a_grid(f))."""
    return legendre_grid(a_grid(f))
