"""Exact calculus for piecewise-linear convex functions on the half-line.

A function is stored as its knot list ``(x_0, v_0), ..., (x_k, v_k)`` with
``x_0 = 0`` plus a tail slope governing ``x > x_k``.  A tail slope of ``+inf``
means the function jumps to ``+inf`` beyond ``x_k`` (bounded effective
domain).  All finite data is kept as `fractions.Fraction`, so every operation
in this module is exact and equality of canonical representations is literal
equality of the underlying functions.  Construction also keeps the chord
slopes of the canonical knots, each divided out once; evaluation, the
breakpoint walk and the transforms read them instead of dividing again.
Construction, the hull and the breakpoint walk compare rationals as integer
cross-products and build each new value as one ``Fraction(n, d)``, with one
normalisation, rather than through a chain of Fraction operators.

Two classes are tagged:

* ``GEOMETRIC`` - convex, lower semicontinuous, ``f(0) = 0``, nondecreasing.
* ``NONNEGATIVE`` - convex, lower semicontinuous, values ``>= 0``; the value
  at 0 is unconstrained (half-line window of a nonnegative convex function).
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .exceptions import ClassTagError, ConvexityError, DomainError

INF = math.inf

Scalar = Union[int, float, Fraction, str]
#: A nonnegative rational, or +inf.
Extended = Union[Fraction, float]

_F0 = Fraction(0)
_F1 = Fraction(1)


def as_fraction(x: Scalar) -> Fraction:
    """Convert to an exact Fraction: a float as its binary value, a str as "p/q" or a decimal."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:  # a "p/0" string
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, float):
        if math.isinf(x) or math.isnan(x):
            raise ValueError(f"not a finite number: {x!r}")
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def as_extended(x: Union[Scalar, float]) -> Extended:
    """Convert to a Fraction or +inf."""
    if isinstance(x, float) and math.isinf(x):
        if x < 0:
            raise ValueError("-inf is not an extended value")
        return INF
    if isinstance(x, str) and x.strip().lower() in ("inf", "+inf", "infinity"):
        return INF
    return as_fraction(x)


def is_inf(v: Extended) -> bool:
    return isinstance(v, float) and math.isinf(v)


class ClassTag(enum.Enum):
    GEOMETRIC = "geometric"
    NONNEGATIVE = "nonnegative"


# Integer kernels.  A Fraction is in lowest terms with a positive denominator,
# so a == b iff their numerators and denominators match, and a < b iff
# a.n * b.d < b.n * a.d; a value built from several is one Fraction(n, d),
# normalised once, where each Fraction operator would reduce it again.


def _lt(a: Fraction, b: Fraction) -> bool:
    return a.numerator * b.denominator < b.numerator * a.denominator


def _eq(a: Fraction, b: Fraction) -> bool:
    return a.numerator == b.numerator and a.denominator == b.denominator


def _slope(p: Tuple[Fraction, Fraction], q: Tuple[Fraction, Fraction]) -> Fraction:
    """(v_q - v_p) / (x_q - x_p)."""
    (px, pv), (qx, qv) = p, q
    a, b, c, d = px.denominator, qx.denominator, pv.denominator, qv.denominator
    return Fraction((qv.numerator * c - pv.numerator * d) * a * b,
                    (qx.numerator * a - px.numerator * b) * c * d)


def _affine(va: Fraction, s: Fraction, x: Fraction, xa: Fraction) -> Fraction:
    """va + s * (x - xa)."""
    h, d, e, g = va.denominator, s.denominator, x.denominator, xa.denominator
    dx = x.numerator * g - xa.numerator * e  # (x - xa) * e * g
    return Fraction(va.numerator * d * e * g + h * s.numerator * dx, h * d * e * g)


@dataclass(frozen=True)
class PLConvex1D:
    """Piecewise-linear convex function on [0, inf) with extended values.

    Instances canonicalize on construction: collinear knots are merged
    (including a last knot collinear with the tail ray), so two instances are
    equal as dataclasses iff they are equal as functions.  ``slopes`` holds
    the chord slope of each pair of adjacent canonical knots; like ``xs`` it
    is derived data and takes no part in equality, hashing or repr.

    Args:
        knots: ascending ``(x, v)`` pairs, ``x_0 = 0``, finite ``v >= 0``.
        tail_slope: slope beyond the last knot; ``math.inf`` ends the domain.
        tag: class of the function (GEOMETRIC by default).
    """

    knots: Tuple[Tuple[Fraction, Fraction], ...]
    tail_slope: Extended = INF
    tag: ClassTag = ClassTag.GEOMETRIC
    xs: Tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    slopes: Tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = [(as_fraction(x), as_fraction(v)) for x, v in self.knots]
        if not pts:
            raise ConvexityError("at least one knot is required")
        if pts[0][0].numerator:
            raise ConvexityError("the first knot must sit at x = 0")
        for (xa, _), (xb, _) in zip(pts, pts[1:]):
            if not _lt(xa, xb):
                raise ConvexityError("knot abscissae must be strictly increasing")
        for _, v in pts:
            if v.numerator < 0:
                raise ConvexityError("knot values must be nonnegative")
        tail = as_extended(self.tail_slope)
        if not is_inf(tail) and tail.numerator < 0:
            raise ConvexityError("tail slope must be nonnegative or +inf")

        # Merge collinear interior knots, then a last knot collinear with the
        # tail.  slopes[k] is the chord slope from merged[k] to merged[k + 1]:
        # each knot p divides out one slope s, and dropping a knot collinear
        # with p leaves the merged chord at that same slope s.
        merged: list = [pts[0]]
        slopes: list = []
        for p in pts[1:]:
            s = _slope(merged[-1], p)
            while slopes and _eq(slopes[-1], s):
                slopes.pop()
                merged.pop()
            merged.append(p)
            slopes.append(s)
        if not is_inf(tail):
            while slopes and _eq(slopes[-1], tail):
                slopes.pop()
                merged.pop()

        for sa, sb in zip(slopes, slopes[1:]):
            if not _lt(sa, sb):
                raise ConvexityError("chord slopes must be strictly increasing")
        if slopes and not is_inf(tail) and not _lt(slopes[-1], tail):
            raise ConvexityError("tail slope must exceed the last chord slope")

        if self.tag is ClassTag.GEOMETRIC:
            if merged[0][1].numerator:
                raise ConvexityError("geometric functions require f(0) = 0")

        object.__setattr__(self, "knots", tuple(merged))
        object.__setattr__(self, "tail_slope", tail)
        object.__setattr__(self, "xs", tuple(x for x, _ in merged))
        object.__setattr__(self, "slopes", tuple(slopes))

    # -- basic queries ---------------------------------------------------

    def __call__(self, x: Scalar) -> Extended:
        """Evaluate at x >= 0.  Returns a Fraction or +inf."""
        x = as_fraction(x)
        if x < 0:
            raise DomainError(f"negative abscissa: {x}")
        xs = self.xs
        if x > xs[-1]:
            if is_inf(self.tail_slope):
                return INF
            xk, vk = self.knots[-1]
            return _affine(vk, self.tail_slope, x, xk)
        i = bisect_right(xs, x) - 1
        xk, vk = self.knots[i]
        if x == xk:
            return vk
        return _affine(vk, self.slopes[i], x, xk)

    @property
    def domain_end(self) -> Extended:
        """Right end of the effective domain (+inf if unbounded)."""
        return self.xs[-1] if is_inf(self.tail_slope) else INF

    @property
    def first_slope(self) -> Extended:
        """Right derivative at 0: the first stored chord slope, or the tail
        slope if there is a single knot."""
        return self.slopes[0] if self.slopes else self.tail_slope

    def zero_end(self) -> Extended:
        """Largest x with f(x) = 0, for geometric functions.

        The zero set of a geometric function is an interval [0, z0]; returns
        z0 (+inf for the zero function).
        """
        if self.tag is not ClassTag.GEOMETRIC:
            raise ClassTagError("zero_end applies to geometric functions")
        last = _F0
        for x, v in self.knots:
            if v == 0:
                last = x
            else:
                return last
        if is_inf(self.tail_slope):
            return last
        return last if self.tail_slope > 0 else INF

    # -- structural predicates -------------------------------------------

    @property
    def is_zero(self) -> bool:
        return len(self.knots) == 1 and self.knots[0][1] == 0 and self.tail_slope == 0

    @property
    def is_point_indicator(self) -> bool:
        """True for the indicator of {0} (0 at the origin, +inf elsewhere)."""
        return len(self.knots) == 1 and self.knots[0][1] == 0 and is_inf(self.tail_slope)

    @property
    def extreme(self) -> Optional[str]:
        """The order extreme f is: "zero", "point" (the indicator of {0}) or None."""
        return "zero" if self.is_zero else "point" if self.is_point_indicator else None

    @property
    def is_indicator(self) -> bool:
        """True iff the function takes no value in (0, inf)."""
        if any(v != 0 for _, v in self.knots):
            return False
        return is_inf(self.tail_slope) or self.tail_slope == 0

    @property
    def is_linear(self) -> bool:
        return len(self.knots) == 1 and self.knots[0][1] == 0 and not is_inf(self.tail_slope)


def _require_same_tag(f: PLConvex1D, g: PLConvex1D) -> ClassTag:
    if f.tag is not g.tag:
        raise ClassTagError(f"mixed class tags: {f.tag.value} vs {g.tag.value}")
    return f.tag


def sup2(f: PLConvex1D, g: PLConvex1D) -> PLConvex1D:
    """Pointwise maximum (the lattice join).  Exact.

    The effective domain is the intersection of the two domains.  Both
    functions are read off one `_breakpoints` walk up to that end (the
    arguments swapped when dom f < dom g); between two breakpoints both are
    affine, so a sign change of f - g adds one crossing.
    """
    tag = _require_same_tag(f, g)
    end = min(f.domain_end, g.domain_end)
    if f.domain_end < g.domain_end:
        walk = [(x, fx, gx) for x, gx, fx in _breakpoints(g, f)]
    else:
        walk = list(_breakpoints(f, g))

    # the sign of f - g at each breakpoint, as an integer cross-product
    signs = [fx.numerator * gx.denominator - gx.numerator * fx.denominator for _, fx, gx in walk]
    pts = []
    for i, (x, fx, gx) in enumerate(walk):
        pts.append((x, fx if signs[i] >= 0 else gx))
        if i + 1 < len(walk) and signs[i] * signs[i + 1] < 0:
            x1, fx1, gx1 = walk[i + 1]
            d0 = fx - gx
            t = d0 / (d0 - fx1 + gx1)  # f is affine on [x, x1]
            pts.append((x + (x1 - x) * t, fx + (fx1 - fx) * t))

    if is_inf(end):
        # Both tails are finite rays here; past the last breakpoint they
        # cross once when f - g and its slope mf - mg have opposite signs,
        # then the steeper ray wins.
        mf, mg = f.tail_slope, g.tail_slope
        x_last, fx, gx = walk[-1]
        ds = mf - mg
        if signs[-1] * ds.numerator < 0:
            dx = (gx - fx) / ds  # f is on its tail ray past x_last
            pts.append((x_last + dx, fx + mf * dx))
        tail: Extended = max(mf, mg)
    else:
        tail = INF
    return PLConvex1D(tuple(pts), tail, tag)


def _lower_hull(pts: Sequence[Tuple[Fraction, Fraction]]) -> Tuple[list, list]:
    """Lower convex hull of 2-D points, as a left-to-right vertex chain and
    its edge slopes (``edges[k]`` runs from ``hull[k]`` to ``hull[k + 1]``).

    A vertex a before a new point p goes when its incoming edge is at least
    as steep as the chord from a to p; each test divides out that one chord,
    which becomes the new edge once the pops stop.  Of the points at one
    abscissa the least is kept: one below the last vertex replaces it (it pops
    all that vertex popped), and one on or above it is dropped.  The points
    may come in any order; a list already ascending in x, as `hat_inf2` and
    the gauge hull pass it, is walked as it is, with no sort."""
    if any(_lt(q[0], p[0]) for p, q in zip(pts, pts[1:])):
        pts = sorted(pts, key=itemgetter(0))
    hull: list = []
    edges: list = []
    for p in pts:
        if hull and _eq(hull[-1][0], p[0]):
            if not _lt(p[1], hull[-1][1]):
                continue
            hull.pop()
            if edges:
                edges.pop()
        if hull:
            s = _slope(hull[-1], p)
            while edges and not _lt(edges[-1], s):
                edges.pop()
                hull.pop()
                s = _slope(hull[-1], p)
            edges.append(s)
        hull.append(p)
    return hull, edges


def _hull_function(
    pts: Sequence[Tuple[Fraction, Fraction]], tail: Extended, tag: ClassTag
) -> PLConvex1D:
    """Largest convex lsc function below ``pts`` with recession slope ``tail``.

    The lower hull of the points, trimmed of edges at least as steep as a
    finite ``tail`` (an exact inf-convolution with the ray); a ``tail`` of
    +inf ends the domain at the last vertex."""
    hull, edges = _lower_hull(pts)
    if not is_inf(tail):
        while edges and not _lt(edges[-1], tail):
            edges.pop()
            hull.pop()
    return PLConvex1D(tuple(hull), tail, tag)


def hat_inf2(f: PLConvex1D, g: PLConvex1D) -> PLConvex1D:
    """Largest convex lsc minorant of min(f, g) (the lattice meet).  Exact.

    The hull function of both knot sets, merged in ascending x, recession
    slope min(tail_f, tail_g)."""
    tag = _require_same_tag(f, g)
    a, b = f.knots, g.knots
    pts = []
    i = j = 0
    while i < len(a) and j < len(b):
        if _lt(b[j][0], a[i][0]):
            pts.append(b[j])
            j += 1
        else:
            pts.append(a[i])
            i += 1
    return _hull_function(pts + list(a[i:] or b[j:]), min(f.tail_slope, g.tail_slope), tag)


def _value_on(f: PLConvex1D, i: int, x: Fraction) -> Fraction:
    """Value at x of f, where x lies strictly between knots i-1 and i, or past
    the last knot when i == len: knot i-1 plus the stored slope of that piece
    (or the tail slope) times the offset, with no division."""
    xa, va = f.knots[i - 1]
    s = f.slopes[i - 1] if i < len(f.knots) else f.tail_slope
    return _affine(va, s, x, xa)


def _breakpoints(f: PLConvex1D, g: PLConvex1D) -> Iterator[Tuple[Fraction, Fraction, Fraction]]:
    """Yield ``(x, f(x), g(x))`` at every knot x of f or g with x <= dom g, ascending.

    Needs dom f >= dom g, so every value is finite.  One merge pass over the
    two knot lists, O(k_f + k_g): a knot of one function is valued on the
    other's current piece, or on its tail ray past its last knot.  Between
    two breakpoints, and past the last one, both functions are affine.
    """
    fk, gk = f.knots, g.knots
    nf, ng = len(fk), len(gk)
    g_ray = not is_inf(g.tail_slope)
    yield fk[0][0], fk[0][1], gk[0][1]  # both lists start at x = 0
    i = j = 1
    while j < ng or (g_ray and i < nf):
        if j == ng or (i < nf and _lt(fk[i][0], gk[j][0])):
            x, fx = fk[i]
            gx = _value_on(g, j, x)
            i += 1
        else:
            x, gx = gk[j]
            if i < nf and _eq(fk[i][0], x):
                fx = fk[i][1]
                i += 1
            else:
                fx = _value_on(f, i, x)
            j += 1
        yield x, fx, gx


def leq_witness(f: PLConvex1D, g: PLConvex1D, factor: Scalar = 1) -> Optional[Fraction]:
    """Exact decision of ``f <= factor * g`` on [0, inf); returns a violating x or None.

    Conventions: where g = +inf the inequality holds for any factor; where g
    is finite and f = +inf it fails; factor never multiplies an infinity.
    It holds exactly when `ratio_sup` is at most factor, and the witness is
    that sup's abscissa, a point where f/g is largest.  When only the tail
    limit mf/mg exceeds factor, f - factor*g grows at mf - factor*mg > 0
    past the last breakpoint x_L, and the witness lies one unit past the
    point where it turns positive (or at x_L + 1).
    """
    factor = as_fraction(factor)
    if factor <= 0:
        raise ValueError("factor must be positive")
    r, x = ratio_sup(f, g)
    if r <= factor:
        return None
    if x is not None:
        return x
    x_last = max(f.xs[-1], g.xs[-1])
    deficit = factor * g(x_last) - f(x_last)
    return x_last + max(deficit, _F0) / (f.tail_slope - factor * g.tail_slope) + 1


def leq(f: PLConvex1D, g: PLConvex1D, factor: Scalar = 1) -> bool:
    """True iff f(x) <= factor * g(x) for every x >= 0.  Exact."""
    return leq_witness(f, g, factor) is None


def ratio_sup(f: PLConvex1D, g: PLConvex1D) -> Tuple[Extended, Optional[Fraction]]:
    """Exact sup of f/g on [0, inf), and an abscissa where it is reached.

    Points where g = +inf are ignored; f = +inf against a finite g, or
    f > 0 against g = 0, gives +inf; 0/0 counts as 0.  This is the one
    order decision of the module: `leq_witness` (and so `leq`) holds at c
    exactly when the sup is at most c, and reads its witness off the
    abscissa.  On each common affine piece f/g is a Moebius function of x,
    hence monotone, so the sup sits at a merged breakpoint or is the tail
    limit; the abscissa is None when only the tail limit reaches it.  Two
    rays a*x and b*x with b > 0 are settled by their slope quotient a/b,
    reached at x = 1 (at 0 when a = 0), with no walk.  Any other pair takes
    one `_breakpoints` walk, O(k_f + k_g); ratios are compared as integer
    cross-products and one Fraction is built at the end, so the result is
    still exact.
    """
    mf, mg = f.tail_slope, g.tail_slope
    if f.is_linear and g.is_linear and mg:
        return (Fraction(mf.numerator * mg.denominator, mf.denominator * mg.numerator),
                _F1 if mf else _F0)
    df, dg = f.domain_end, g.domain_end
    if df < dg:
        # f jumps to +inf strictly inside the region where g is finite
        return INF, (df + 1 if is_inf(dg) else df + (dg - df) / 2)
    bn, bd = -1, 1  # best ratio bn/bd, below every ratio, so the first sets arg
    for x, fx, gx in _breakpoints(f, g):
        if gx == 0:
            if fx:
                return INF, x
            rn, rd = 0, 1
        else:
            rn, rd = fx.numerator * gx.denominator, fx.denominator * gx.numerator
        if rn * bd > bn * rd:
            bn, bd, arg = rn, rd, x
    if is_inf(dg):
        # past the last breakpoint x both are affine and f/g tends to mf/mg;
        # when g(x) = 0 = f(x) the ratio is that constant all along the tail
        ln, ld = mf.numerator * mg.denominator, mf.denominator * mg.numerator
        if ln * bd > bn * ld:  # ld = 0 only for mg = 0 < mf: the limit is +inf
            return (Fraction(ln, ld) if ld else INF), (x + 1 if gx == 0 else None)
    return Fraction(bn, bd), arg


def scale(f: PLConvex1D, lam: Scalar) -> PLConvex1D:
    """Pointwise multiple ``lam * f`` for lam > 0.  Exact."""
    lam = as_fraction(lam)
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    tail = INF if is_inf(f.tail_slope) else lam * f.tail_slope
    return PLConvex1D(tuple((x, lam * v) for x, v in f.knots), tail, f.tag)


def compose_dilate(f: PLConvex1D, alpha: Scalar) -> PLConvex1D:
    """Dilation ``x -> f(x / alpha)`` for alpha > 0.  Exact; ``f`` itself at alpha = 1."""
    alpha = as_fraction(alpha)
    if alpha <= 0:
        raise ValueError("dilation factor must be positive")
    if alpha == 1:
        return f
    tail = INF if is_inf(f.tail_slope) else f.tail_slope / alpha
    return PLConvex1D(tuple((alpha * x, v) for x, v in f.knots), tail, f.tag)


def ratio_sup_abscissae(
    f: PLConvex1D, rates: Sequence[Scalar]
) -> List[Optional[Fraction]]:
    """For each rate a, the largest x with f(x) <= a*x (None if every x qualifies).

    ``f`` is geometric, so f(x)/x is nondecreasing and each feasible set is
    an interval [0, x*(a)]; x*(a) shrinks as a does.  With ``rates`` in
    descending order, one right-to-left walk over the knots answers them
    all.  Exact.
    """
    if f.tag is not ClassTag.GEOMETRIC:
        raise ClassTagError("ratio_sup_abscissae applies to geometric functions")
    rates = [as_fraction(a) for a in rates]
    if any(_lt(a, b) for a, b in zip(rates, rates[1:])):
        raise ValueError("rates must be in descending order")
    knots, m = f.knots, f.tail_slope
    i = len(knots) - 1
    out: List[Optional[Fraction]] = []
    for a in rates:
        an, ad = a.numerator, a.denominator
        if not is_inf(m) and not _lt(a, m):
            out.append(None)  # f(x)/x increases to the tail slope m <= a
            continue
        # step left while f(x_i) > a * x_i, cross-multiplied
        while i > 0 and (knots[i][1].numerator * ad * knots[i][0].denominator
                         > an * knots[i][0].numerator * knots[i][1].denominator):
            i -= 1
        xa, va = knots[i]
        if i + 1 < len(knots):
            s = f.slopes[i]
        elif is_inf(m):
            out.append(xa)  # bounded domain ending at a feasible knot
            continue
        else:
            s = m
        # f(x) - a*x = s*(x - xa) + va - a*x has its root (s*xa - va) / (s - a)
        # at or past xa, cross-multiplied over the four denominators
        xd, vd, sd = xa.denominator, va.denominator, s.denominator
        out.append(Fraction(ad * (s.numerator * xa.numerator * vd - va.numerator * xd * sd),
                            xd * vd * (s.numerator * ad - an * sd)))
    return out
