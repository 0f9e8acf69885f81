"""Extremal families and near-extremality certificates.

Constructors for the families that generate the convex order structure:
indicators of intervals ``1_[0,z]`` (+inf outside), linear rays ``a*x``,
triangles (linear on a bounded base, +inf beyond), and pinned-point functions
(``c`` at a single point, +inf elsewhere).

The certificates:

* ``cover_witness_search`` - look for a linear/indicator pair whose pointwise
  max dominates ``f`` while neither factor alone nearly dominates it; an
  empty result certifies that ``f`` is irreducible relative to this family.
* ``almost_linear_bounds`` - decide the two-sided bound
  ``f'(0)*z <= f(z) <= ctilde^3 * f'(0) * z`` exactly.
* ``monotone_envelope`` / ``quasi_linear_sandwich`` - sampled-data envelopes
  with constants, used by the stability harness on numeric corpora.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .exceptions import ClassificationError, ClassTagError, HypothesisViolationError
from .pl import (
    INF,
    ClassTag,
    Extended,
    PLConvex1D,
    Scalar,
    as_fraction,
    as_extended,
    is_inf,
    leq,
    ratio_sup_abscissae,
    sup2,
)

_F0 = Fraction(0)

WITNESS_GRID_FILLERS = 33


# -- constructors ------------------------------------------------------------


def make_indicator(z: Union[Scalar, float]) -> PLConvex1D:
    """Indicator of [0, z]: 0 there, +inf beyond.  z = +inf gives the zero
    function, z = 0 the indicator of {0}."""
    z = as_extended(z)
    if is_inf(z):
        return PLConvex1D(((_F0, _F0),), _F0)
    if z < 0:
        raise ValueError("indicator endpoint must be nonnegative")
    if z == 0:
        return PLConvex1D(((_F0, _F0),), INF)
    return PLConvex1D(((_F0, _F0), (z, _F0)), INF)


def make_linear(a: Union[Scalar, float]) -> PLConvex1D:
    """Linear ray a*x.  a = 0 gives the zero function, a = +inf the indicator
    of {0} (the monotone limit of the family)."""
    a = as_extended(a)
    if is_inf(a):
        return PLConvex1D(((_F0, _F0),), INF)
    if a < 0:
        raise ValueError("linear slope must be nonnegative")
    return PLConvex1D(((_F0, _F0),), a)


def make_triangle(z: Scalar, a: Scalar) -> PLConvex1D:
    """Triangle with base [0, z] and slope a: equals max(a*x, 1_[0,z])."""
    z, a = as_fraction(z), as_fraction(a)
    if z <= 0 or a <= 0:
        raise ValueError("triangle needs z > 0 and a > 0")
    return PLConvex1D(((_F0, _F0), (z, a * z)), INF)


def make_triangle_value(z: Scalar, c: Scalar) -> PLConvex1D:
    """Triangle with base [0, z] reaching value c at z (slope c/z).

    Same family as `make_triangle` under the alternative endpoint-value
    parameterization; the two differ by a factor of z.
    """
    z, c = as_fraction(z), as_fraction(c)
    if z <= 0 or c <= 0:
        raise ValueError("triangle needs z > 0 and c > 0")
    return make_triangle(z, c / z)


Theta = Union[float, Tuple[float, ...]]


@dataclass(frozen=True)
class DeltaFunction:
    """Pinned-point function: value c at the single point theta, +inf elsewhere."""

    theta: Theta
    c: float

    def __post_init__(self):
        t = self.theta
        if isinstance(t, (list, tuple)):
            t = tuple(float(u) for u in t)
            if not all(math.isfinite(u) for u in t):
                raise ValueError("pin location must be finite")
        else:
            t = float(t)
            if not math.isfinite(t):
                raise ValueError("pin location must be finite")
        c = float(self.c)
        if not math.isfinite(c) or c < 0:
            raise ValueError("pinned value must be finite and >= 0")
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "c", c)


def make_delta(theta: Theta, c: float) -> DeltaFunction:
    return DeltaFunction(theta, c)


def delta_leq(d: DeltaFunction, e: DeltaFunction, factor: Scalar = 1) -> bool:
    """Pointwise d <= factor * e, decided exactly (floats are binary rationals).
    Distinct pins are never comparable (each is finite where the other is +inf)."""
    return d.theta == e.theta and Fraction(d.c) <= as_fraction(factor) * Fraction(e.c)


def scale_delta(d: DeltaFunction, lam: float) -> DeltaFunction:
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    return DeltaFunction(d.theta, lam * d.c)


# -- irreducibility witness search -------------------------------------------


@dataclass(frozen=True)
class WitnessPair:
    """A linear g and an indicator h with sup2(g, h) >= f while neither g nor
    h alone dominates (1/ctilde^3) * f."""

    g: PLConvex1D
    h: PLConvex1D


def witness_is_valid(f: PLConvex1D, pair: WitnessPair, ctilde: Scalar) -> bool:
    """Exact check of the three defining inequalities of a witness pair."""
    c3 = as_fraction(ctilde) ** 3
    return (
        leq(f, sup2(pair.g, pair.h))
        and not leq(f, pair.g, c3)
        and not leq(f, pair.h, c3)
    )


def cover_witness_search(f: PLConvex1D, ctilde: Scalar) -> Optional[WitnessPair]:
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


def almost_linear_bounds(f: PLConvex1D, ctilde: Scalar) -> bool:
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


# -- sampled-data envelopes ----------------------------------------------------


def monotone_envelope(
    samples: Sequence[Tuple[float, float]], C: Optional[float] = None
) -> List[Tuple[float, float]]:
    """Running maximum g(x) = max_{y <= x} f(y) over sorted samples.

    g is the least nondecreasing majorant of the samples.  When ``C`` is
    given, the input is first required to be C-monotone (x <= y implies
    f(x) <= C*f(y)); that hypothesis makes the envelope a two-sided proxy,
    g/C <= f <= g at every sample.  A violating pair raises
    HypothesisViolationError.
    """
    pts = [(float(x), float(v)) for x, v in samples]
    if not pts:
        return []
    for (xa, va), (xb, _) in zip(pts, pts[1:]):
        if xb <= xa:
            raise ValueError("sample abscissae must be strictly ascending")
    for x, v in pts:
        if x < 0 or v < 0 or not math.isfinite(v):
            raise ValueError("samples must be finite and nonnegative")

    if C is not None:
        if C < 1:
            raise ValueError("monotonicity constant must be >= 1")
        suffix_min = pts[-1]
        mins = [suffix_min]
        for p in reversed(pts[:-1]):
            if p[1] < suffix_min[1]:
                suffix_min = p
            mins.append(suffix_min)
        mins.reverse()
        for p, q in zip(pts, mins):
            if p[1] > C * q[1]:
                raise HypothesisViolationError(
                    f"not {C}-monotone: f({p[0]}) = {p[1]} > {C} * f({q[0]}) = {C * q[1]}",
                    witness=(p, q),
                )

    out: List[Tuple[float, float]] = []
    running = 0.0
    for x, v in pts:
        running = max(running, v)
        out.append((x, running))
    return out


_REL_SLACK = 1e-9


def quasi_linear_sandwich(
    samples: Sequence[Tuple[object, float, float]], C: float
) -> Tuple[float, float]:
    """Fit the tightest C' with a/C' <= h(x, a) <= C'*a over samples of h.

    ``samples`` holds (x, a, value) with x a scalar or coordinate sequence.
    Hypotheses checked first: h(x, 0) = 0, and for every sampled collinear
    triple u_q = lam*u_p + (1-lam)*u_r in (x, a) space the two-sided bound
    h(q)/C <= lam*h(p) + (1-lam)*h(r) <= C*h(q).  A violation raises
    HypothesisViolationError carrying the triple.  Returns (C', ok) where
    ok means C' came out finite.
    """
    if C < 1:
        raise ValueError("hypothesis constant must be >= 1")
    pts: List[Tuple[Tuple[float, ...], float]] = []
    for x, a, v in samples:
        coords = tuple(float(u) for u in x) if isinstance(x, (list, tuple)) else (float(x),)
        a, v = float(a), float(v)
        if a < 0 or v < 0 or not math.isfinite(v):
            raise ValueError("samples must have a >= 0 and finite value >= 0")
        pts.append((coords + (a,), v))

    for u, v in pts:
        if u[-1] == 0 and v != 0:
            raise HypothesisViolationError(
                f"h(x, 0) = {v} != 0 at x = {u[:-1]}", witness=(u, v)
            )

    n = len(pts)
    for ip in range(n):
        up, hp = pts[ip]
        for ir in range(ip + 1, n):
            ur, hr = pts[ir]
            d = [b - a for a, b in zip(up, ur)]
            scale_d = max(abs(c) for c in d)
            if scale_d == 0:
                continue
            k = max(range(len(d)), key=lambda i: abs(d[i]))
            for iq in range(n):
                if iq in (ip, ir):
                    continue
                uq, hq = pts[iq]
                lam = (uq[k] - up[k]) / d[k]
                if not (_REL_SLACK < lam < 1 - _REL_SLACK):
                    continue
                tol = _REL_SLACK * (scale_d + max(abs(c) for c in uq) + 1)
                if any(abs(uq[i] - (up[i] + lam * d[i])) > tol for i in range(len(d))):
                    continue
                comb = (1 - lam) * hp + lam * hr
                slack = _REL_SLACK * (abs(comb) + abs(hq) + 1)
                if comb > C * hq + slack or hq > C * comb + slack:
                    raise HypothesisViolationError(
                        "quasi-convex-combination hypothesis fails: "
                        f"mid value {hq}, combination {comb}, constant {C}",
                        witness=(pts[ip], pts[iq], pts[ir]),
                    )

    cprime = 1.0
    for u, v in pts:
        a = u[-1]
        if a > 0:
            if v == 0:
                return math.inf, False
            cprime = max(cprime, v / a, a / v)
    return cprime, math.isfinite(cprime)
