"""Sampled extended-value convex functions on an origin-centered 2-D lattice.

A GridFunction2D holds an N x N array of values (float64, ``numpy.inf`` for
+infinity) over the nodes ``(coords[i], coords[j])`` with
``coords = linspace(-R, R, N)``; index order is ``values[ix, iy]``.  N is odd
so the origin is a node.  Validation checks discrete midpoint convexity along
the axis and diagonal directions with slack ``CONVEXITY_SLACK * (value scale
+ 1)``; an infinite node strictly between finite ones along any of those
directions also counts as a violation (lattice convexity of the finite
region, one-cell resolution).

The lattice meet ``hat_inf2_grid`` is the resampled lower convex envelope of
the epigraph point cloud (3-D lower hull; infinite nodes omitted; domain is
the hull's shadow).  ``ray_restrict`` turns the restriction to a lattice ray
into an exact 1-D PL function.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .exceptions import (
    ClassTagError,
    DomainError,
    GridValidationError,
    LatticeMismatchError,
)
from .pl import INF, ClassTag, PLConvex1D, _lower_hull

CONVEXITY_SLACK = 1e-6
_GEOM_TOL = 1e-9

_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1))


@dataclass(frozen=True)
class GridSpec:
    """Origin-centered square lattice: half-width R, N nodes per axis (odd)."""

    R: float
    N: int

    def __post_init__(self):
        if not (self.R > 0 and math.isfinite(self.R)):
            raise ValueError("half-width R must be positive and finite")
        if self.N < 3 or self.N % 2 == 0:
            raise ValueError("resolution N must be odd and >= 3")

    @property
    def step(self) -> float:
        return 2.0 * self.R / (self.N - 1)

    @property
    def coords(self) -> np.ndarray:
        """``linspace(-R, R, N)`` with its middle node exactly 0.0, which
        linspace can miss by an ulp (-4.4e-16 at R = 4, N = 99)."""
        import numpy as np
        c = np.linspace(-self.R, self.R, self.N)
        c[self.origin] = 0.0
        return c

    @property
    def origin(self) -> int:
        return (self.N - 1) // 2


class GridFunction2D:
    """Immutable sampled function on a GridSpec lattice."""

    __slots__ = ("spec", "values", "tag")
    extreme = None  # `check_extremes` fixes only the 1-d extremes

    def __init__(self, spec: GridSpec, values, tag: ClassTag = ClassTag.GEOMETRIC):
        import numpy as np
        arr = np.array(values, dtype=float)
        if arr.shape != (spec.N, spec.N):
            raise GridValidationError(
                f"values must be {spec.N}x{spec.N}, got {arr.shape}"
            )
        if np.isnan(arr).any():
            raise GridValidationError("values must not contain NaN")
        if np.any(arr[np.isfinite(arr)] < 0) or np.any(np.isneginf(arr)):
            raise GridValidationError("values must be >= 0 (or +inf)")
        if tag is ClassTag.GEOMETRIC:
            o = spec.origin
            if arr[o, o] != 0.0:
                raise GridValidationError("geometric grids require value 0 at the origin")
        arr.setflags(write=False)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "tag", tag)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction2D is immutable")

    @classmethod
    def from_function(
        cls,
        fn: Callable[[float, float], float],
        R: float = 4.0,
        N: int = 129,
        tag: ClassTag = ClassTag.GEOMETRIC,
    ) -> "GridFunction2D":
        spec = GridSpec(R, N)
        c = spec.coords
        vals = [[float(fn(x, y)) for y in c] for x in c]
        return cls(spec, vals, tag)

    def finite_nodes(self) -> Tuple[np.ndarray, np.ndarray]:
        """(M x 2 coordinates, M values) of the finite nodes."""
        import numpy as np
        mask = np.isfinite(self.values)
        idx = np.argwhere(mask)
        c = self.spec.coords
        pts = np.column_stack((c[idx[:, 0]], c[idx[:, 1]]))
        return pts, self.values[mask]


def validate(g: GridFunction2D) -> List[str]:
    """Midpoint-convexity violations along axes and diagonals (with slack)."""
    import numpy as np
    v = g.values
    scale = 0.0
    finite = v[np.isfinite(v)]
    if finite.size:
        scale = float(np.max(np.abs(finite)))
    slack = CONVEXITY_SLACK * (scale + 1.0)

    out: List[str] = []
    for di, dj in _DIRECTIONS:
        center = v[abs(di) : v.shape[0] - abs(di) or None, abs(dj) : v.shape[1] - abs(dj) or None]
        before = v[
            abs(di) - di : v.shape[0] - abs(di) - di or None,
            abs(dj) - dj : v.shape[1] - abs(dj) - dj or None,
        ]
        after = v[
            abs(di) + di : v.shape[0] - abs(di) + di or None,
            abs(dj) + dj : v.shape[1] - abs(dj) + dj or None,
        ]
        avg = (before + after) / 2.0
        bad = ~(center <= avg + slack)
        for i, j in np.argwhere(bad):
            ii, jj = i + abs(di), j + abs(dj)
            out.append(
                f"midpoint convexity fails at node ({ii},{jj}) along ({di},{dj}): "
                f"value {center[i, j]}, neighbor average {avg[i, j]}"
            )
    return out


def ensure_valid(g: GridFunction2D) -> None:
    violations = validate(g)
    if violations:
        raise GridValidationError(
            f"{len(violations)} convexity violations (first: {violations[0]})",
            violations=tuple(violations),
        )


def _require_matching(f: GridFunction2D, g: GridFunction2D) -> None:
    if f.spec != g.spec:
        raise LatticeMismatchError(f"lattice mismatch: {f.spec} vs {g.spec}")
    if f.tag is not g.tag:
        raise ClassTagError(f"mixed class tags: {f.tag.value} vs {g.tag.value}")


def sup2_grid(f: GridFunction2D, g: GridFunction2D) -> GridFunction2D:
    """Pointwise maximum; re-validated."""
    import numpy as np
    _require_matching(f, g)
    out = GridFunction2D(f.spec, np.maximum(f.values, g.values), f.tag)
    ensure_valid(out)
    return out


_TILE_ROWS = 8  # lattice rows per tile of `legendre_grid`
_TILE_ENTRIES = 1 << 15  # (node, point) entries per tile of `_lattice_max` and `_dual_max`
_CELL = 32  # least points per cell of `_dual_max` (at most twice as many)


def _maximal(w: np.ndarray, s1: int, s2: int) -> np.ndarray:
    """Mask of the nodes of ``w`` that no other node dominates, where (k, l)
    dominates (i, j) when s1*k >= s1*i, s2*l >= s2*j and w[k, l] <= w[i, j];
    an absent node is +inf and is never in the mask.

    Two suffix-minimum passes over the flipped array give, at each node, the
    smallest value in its closed dominating quadrant; a node is kept when it
    is strictly below that minimum over the next row and the next column.
    """
    import numpy as np
    u = w[::s1, ::s2]
    m = np.minimum.accumulate(np.minimum.accumulate(u[::-1, ::-1], axis=0), axis=1)[::-1, ::-1]
    nxt = np.full(u.shape, np.inf)
    nxt[:-1] = m[1:]
    np.minimum(nxt[:, :-1], m[:, 1:], out=nxt[:, :-1])
    return (u < nxt)[::s1, ::s2]


def _lattice_max(
    x1: np.ndarray,
    x2: np.ndarray,
    y1: np.ndarray,
    y2: np.ndarray,
    offset: Optional[np.ndarray] = None,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """len(x1) x len(x2) array: at each node (x1[i], x2[j]), the max over m
    of fl(<x, y_m> + offset[m]) with <x, y_m> = fl(fl(x1*y1[m]) +
    fl(x2*y2[m])) (a missing offset is skipped); +inf where ``mask`` is
    False.

    A tile holds at most `_TILE_ENTRIES` entries (at least one node): whole
    rows of nodes when they fit, else part of one row.  So memory is
    O(len(x2) * M) for M >= 1 points, and every entry is formed elementwise,
    so the bits do not depend on the tiling.  The nodes of a tile are only
    evaluated between its first and last unmasked column.
    """
    import numpy as np
    n1, n2 = len(x1), len(x2)
    out = np.full((n1, n2), np.inf)
    p2 = np.multiply.outer(x2, y2)
    span = max(1, _TILE_ENTRIES // len(y1))  # nodes per tile
    rows = max(1, span // n2)
    live = np.ones(out.shape, dtype=bool) if mask is None else mask
    for i in range(0, n1, rows):
        cols = np.flatnonzero(live[i : i + rows].any(axis=0))
        if cols.size == 0:
            continue
        p1 = np.multiply.outer(x1[i : i + rows], y1)[:, None]
        for a in range(cols[0], cols[-1] + 1, span):
            b = min(a + span, cols[-1] + 1)
            tile = p2[a:b] + p1
            if offset is not None:
                tile += offset
            out[i : i + rows, a:b] = tile.max(axis=2)
    out[~live] = np.inf
    return out


def _cells(k1: np.ndarray, k2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """An order of the points (k1[m], k2[m]) and the starts of 2^L cells of
    consecutive points in it, each of `_CELL` to 2 * `_CELL` points (one
    cell when there are fewer): a median split, L times, of every cell along
    the coordinate over which it spreads wider."""
    import numpy as np
    k = len(k1)
    pos, order = np.arange(k), np.arange(k)
    levels = max(0, (k // _CELL).bit_length() - 1)
    for level in range(levels):
        n = 1 << level
        cell = pos * n // k
        starts = -(-np.arange(n) * k // n)
        c1, c2 = k1[order], k2[order]
        wide = (np.maximum.reduceat(c1, starts) - np.minimum.reduceat(c1, starts)
                >= np.maximum.reduceat(c2, starts) - np.minimum.reduceat(c2, starts))
        order = order[np.lexsort((np.where(wide[cell], c1, c2), cell))]
    n = 1 << levels
    return order, -(-np.arange(n) * k // n)


def _cell_bounds(
    x1: np.ndarray,
    x2: np.ndarray,
    y1: np.ndarray,
    y2: np.ndarray,
    f: np.ndarray,
    s1: int,
    s2: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cells of the points y_m and upper bounds of their quotients
    fl(fl(<x, y_m> - 1) / f[m]) at the nodes x = (x1[i], x2[i]), all with
    s1*x1 >= 0 and s2*x2 >= 0: the order of the points, the starts of the
    cells in it (by `_cells` on (|x1|max * y1/f, |x2|max * y2/f)), and
    (A1, A2, c) such that fl(fl(x1*A1) + fl(x2*A2)) + c bounds every
    quotient of a cell at every such x, or is NaN.

    The exact quotient is x1*y1/f + x2*y2/f - 1/f.  So A1 = s1 * max(s1 *
    y1/f) over the cell, A2 alike, and c = tau - min 1/f, with tau =
    64 * 2^-53 * (|x1|max * |y1/f|max + |x2|max * |y2/f|max + max 1/f) +
    (|x1|max + |x2|max + 4) * 2^-1074: its first term covers the roundings
    of the quotient and of the bound, the second those below the normal
    range.  A cell with a non-finite y/f or 1/f gets NaN, and every cell
    does when the products x*y may overflow.
    """
    import numpy as np
    w1, w2 = np.abs(x1).max(initial=0.0), np.abs(x2).max(initial=0.0)
    with np.errstate(all="ignore"):
        a1, a2, b = y1 / f, y2 / f, 1.0 / f
        fin = np.isfinite(a1) & np.isfinite(a2) & np.isfinite(b)
        order, starts = _cells(np.where(fin, w1 * a1, 0.0), np.where(fin, w2 * a2, 0.0))
        a1, a2, b, fin = a1[order], a2[order], b[order], fin[order]
        tau = (64 * 2.0**-53 * (w1 * np.abs(a1[fin]).max(initial=0.0)
                                + w2 * np.abs(a2[fin]).max(initial=0.0)
                                + b[fin].max(initial=0.0))
               + (w1 + w2 + 4) * 2.0**-1074)
        c = tau - np.minimum.reduceat(b, starts)
        if not np.isfinite(w1 * np.abs(y1).max() + w2 * np.abs(y2).max()):
            c[:] = np.nan
        c[~np.logical_and.reduceat(fin, starts)] = np.nan
        A1 = s1 * np.maximum.reduceat(s1 * a1, starts)
        A2 = s2 * np.maximum.reduceat(s2 * a2, starts)
    return order, starts, A1, A2, c


def _dual_max(
    x1: np.ndarray,
    x2: np.ndarray,
    y1: np.ndarray,
    y2: np.ndarray,
    f: np.ndarray,
    s1: int,
    s2: int,
) -> np.ndarray:
    """At each node x = (x1[i], x2[i]) with s1*x1 >= 0 and s2*x2 >= 0, the
    floored max(0, max over m of fl(fl(<x, y_m> - 1) / f[m])), <x, y_m> =
    fl(fl(x1*y1[m]) + fl(x2*y2[m])), for M >= 1 points y_m and f > 0.

    An exact branch and bound over the cells of `_cell_bounds`: the first
    point of every cell gives a lower bound L of the max at x, and only the
    cells whose bound U at x is not <= max(L, 0) are scanned there (a NaN
    bound is never <= L).  Every quotient skipped is at most the result,
    whose zero is always +0.0, so the bits are those of the full scan.
    O(len(x1) * M) at worst.
    """
    import numpy as np
    n = len(x1)
    order, starts, A1, A2, c = _cell_bounds(x1, x2, y1, y2, f, s1, s2)
    y1, y2, f = y1[order], y2[order], f[order]
    best = np.empty(n)
    live = np.empty((len(starts), n), dtype=bool)
    step = max(1, _TILE_ENTRIES // len(starts))
    for i in range(0, n, step):
        u1, u2 = x1[i : i + step], x2[i : i + step]
        best[i : i + step] = _quotients(u1, u2, y1[starts], y2[starts], f[starts]).max(axis=0)
        with np.errstate(all="ignore"):
            bound = np.multiply.outer(A1, u1) + np.multiply.outer(A2, u2) + c[:, None]
            np.logical_not(bound <= np.maximum(best[i : i + step], 0.0), out=live[:, i : i + step])
    ends = np.append(starts[1:], len(y1))
    for k in np.flatnonzero(live.any(axis=1)):
        a, e = starts[k], ends[k]
        xs = np.flatnonzero(live[k])
        step = max(1, _TILE_ENTRIES // (e - a))
        for j in range(0, len(xs), step):
            t = xs[j : j + step]
            q = _quotients(x1[t], x2[t], y1[a:e], y2[a:e], f[a:e]).max(axis=0)
            best[t] = np.maximum(best[t], q)
    return np.maximum(best, 0.0)


def _quotients(x1, x2, y1, y2, f) -> np.ndarray:
    """len(y1) x len(x1) array of fl(fl(fl(x1*y1) + fl(x2*y2)) - 1) / f."""
    import numpy as np
    t = np.multiply.outer(y1, x1)
    t += np.multiply.outer(y2, x2)
    t -= 1.0
    t /= f[:, None]
    return t


def _envelope_from_cloud(
    spec: GridSpec, pts: np.ndarray, vals: np.ndarray
) -> np.ndarray:
    """Resample the lower convex envelope of epigraph points to the lattice."""
    import numpy as np
    from scipy.spatial import ConvexHull, QhullError

    n = spec.N
    out = np.full((n, n), np.inf)
    if len(vals) == 0:
        return out
    c = spec.coords
    gx, gy = np.meshgrid(c, c, indexing="ij")
    nodes = np.column_stack((gx.ravel(), gy.ravel()))
    tol = _GEOM_TOL * (spec.R + 1.0)

    centered = pts - pts.mean(axis=0)
    rank = np.linalg.matrix_rank(centered, tol=tol) if len(pts) > 1 else 0

    if rank == 0:
        # single location: the envelope is one pinned value
        d = np.abs(nodes - pts[0]).max(axis=1)
        on = d <= tol
        out.ravel()[np.flatnonzero(on)] = vals.min()
        return out

    if rank == 1:
        # all locations on one line: 1-D envelope along it
        direction = centered[np.argmax(np.abs(centered).sum(axis=1))]
        direction = direction / np.linalg.norm(direction)
        t = (pts - pts[0]) @ direction
        hull, _ = _lower_hull([(Fraction(float(a)), Fraction(float(b))) for a, b in zip(t, vals)])
        hx = [float(x) for x, _ in hull]
        hv = [float(v) for _, v in hull]
        node_t = (nodes - pts[0]) @ direction
        perp = nodes - pts[0] - np.outer(node_t, direction)
        on = (np.abs(perp).max(axis=1) <= tol) & (node_t >= hx[0] - tol) & (node_t <= hx[-1] + tol)
        vals_on = np.interp(np.clip(node_t[on], hx[0], hx[-1]), hx, hv)
        out.ravel()[np.flatnonzero(on)] = vals_on
        return out

    cloud = np.column_stack((pts, vals))
    try:
        eq = ConvexHull(cloud).equations  # a.x + b = 0, outward normal a
        low = eq[eq[:, 2] < -tol]  # lower facets
        planes = -low[:, (0, 1, 3)] / low[:, 2:3]  # z = p0*x + p1*y + p2
    except QhullError:
        # coplanar cloud: the envelope is the single affine interpolant
        A = np.column_stack((pts, np.ones(len(vals))))
        coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
        planes = coef[None, :]

    shadow = ConvexHull(pts).equations
    inside = _lattice_max(c, c, shadow[:, 0], shadow[:, 1], shadow[:, 2]) <= tol
    return _lattice_max(c, c, planes[:, 0], planes[:, 1], planes[:, 2], mask=inside)


def hat_inf2_grid(f: GridFunction2D, g: GridFunction2D) -> GridFunction2D:
    """Largest convex minorant of min(f, g), resampled to the lattice."""
    import numpy as np
    _require_matching(f, g)
    low = GridFunction2D(f.spec, np.minimum(f.values, g.values), f.tag)
    pts, vals = low.finite_nodes()
    env = _envelope_from_cloud(f.spec, pts, vals)
    # The exact envelope lies between the smallest cloud value and each finite
    # node's own value; clipping to both keeps a geometric meet's exact 0.
    env = np.minimum(np.maximum(env, vals.min(initial=np.inf)), low.values)
    out = GridFunction2D(f.spec, env, f.tag)
    ensure_valid(out)
    return out


# -- lattice rays --------------------------------------------------------------


def _primitive_direction(u: Sequence[float]) -> Tuple[int, int]:
    """Snap a direction to a primitive integer lattice vector."""
    ux, uy = float(u[0]), float(u[1])
    norm = math.hypot(ux, uy)
    if norm == 0:
        raise DomainError("direction must be nonzero")
    best = None
    for q in range(1, 65):
        p0, p1 = ux / norm * q, uy / norm * q
        r0, r1 = round(p0), round(p1)
        if (r0, r1) != (0, 0) and abs(p0 - r0) < 1e-9 * q and abs(p1 - r1) < 1e-9 * q:
            g = math.gcd(abs(r0), abs(r1))
            best = (r0 // g, r1 // g)
            break
    if best is None:
        raise DomainError(f"direction {u!r} is not aligned with a lattice ray")
    return best


def ray_restrict(f: GridFunction2D, u: Sequence[float]) -> PLConvex1D:
    """Restriction t -> f(t * u/|u|) along a lattice ray, as an exact 1-D PL
    function of arc length.

    Nodes are walked outward from the origin until the window's edge or the
    first infinite node.  A walk that runs out of window while still finite
    extends with its last chord slope; one stopped by an infinite node ends
    its effective domain there.
    """
    p, q = _primitive_direction(u)
    spec = f.spec
    o = spec.origin
    step = spec.step * math.hypot(p, q)
    pts = []
    k = 0
    hit_edge = True
    while 0 <= o + k * p < spec.N and 0 <= o + k * q < spec.N:
        v = f.values[o + k * p, o + k * q]
        if not math.isfinite(v):
            hit_edge = False
            break
        pts.append((Fraction(k * step), Fraction(v)))
        k += 1
    if not pts:
        raise DomainError("ray has no finite value at the origin")
    hull, edges = _lower_hull(pts)
    tail = edges[-1] if hit_edge and edges else INF
    return PLConvex1D(tuple(hull), tail, f.tag)


def is_ray_supported(f: GridFunction2D) -> Optional[Tuple[int, int]]:
    """The primitive direction whose ray carries every finite non-origin node,
    or None (no finite mass off the origin, or support off a single ray)."""
    import numpy as np
    o = f.spec.origin
    idx = np.argwhere(np.isfinite(f.values))
    offsets = [(i - o, j - o) for i, j in idx if (i, j) != (o, o)]
    if not offsets:
        return None
    di, dj = offsets[0]
    g = math.gcd(abs(di), abs(dj))
    p, q = di // g, dj // g
    for di, dj in offsets:
        t, rem = divmod(di, p) if p else divmod(dj, q)
        if rem or t <= 0 or (t * p, t * q) != (di, dj):
            return None
    return (p, q)


# -- CSV I/O -------------------------------------------------------------------


def write_grid_csv(f: GridFunction2D, path: str) -> None:
    """Header row ``R,N,tag`` then N rows of N values (x index = row)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([repr(f.spec.R), f.spec.N, f.tag.value])
        for row in f.values:
            w.writerow(["inf" if math.isinf(v) else repr(float(v)) for v in row])


def read_grid_csv(path: str) -> GridFunction2D:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    try:
        (R, N, tag), *data = rows
        spec, tag = GridSpec(float(R), int(N)), ClassTag(tag)
        # float() reads "inf" too; GridFunction2D checks the shape
        return GridFunction2D(spec, [[float(c) for c in row] for row in data], tag)
    except ValueError as exc:  # a short header, a cell that is no number, ragged rows
        raise GridValidationError(f"bad grid CSV: {exc}") from exc
