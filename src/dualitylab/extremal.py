"""Extremal families and near-extremality certificates.

Constructors for the families that generate the convex order structure:
indicators of intervals ``1_[0,z]`` (+inf outside), linear rays ``a*x``,
triangles (linear on a bounded base, +inf beyond), and pinned-point functions
(``c`` at a single point, +inf elsewhere).

The certificates:

* ``cover_witness_search`` - construct a ray/indicator pair whose pointwise
  max dominates ``f`` while neither factor alone comes within ``ctilde^3`` of
  it.  Such a pair exists exactly when ``f`` is not an indicator and either
  its domain is bounded or the almost-linear bounds fail, and it is read off
  ``f``'s own data, so None is an exact certificate of irreducibility.
* ``almost_linear_bounds`` - decide the two-sided bound
  ``f'(0)*z <= f(z) <= ctilde^3 * f'(0) * z`` exactly.
* ``monotone_envelope`` / ``quasi_linear_sandwich`` - sampled-data envelopes
  with constants, used by the stability harness on numeric corpora.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from .exceptions import (
    ClassificationError,
    ClassTagError,
    ConsistencyError,
    HypothesisViolationError,
)
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
            if not t:
                raise ValueError("pin location needs at least one coordinate")
        else:
            t = float(t)
        if not all(map(math.isfinite, t if isinstance(t, tuple) else (t,))):
            raise ValueError("pin location must be finite")
        c = float(self.c)
        if not math.isfinite(c) or c < 0:
            raise ValueError("pinned value must be finite and >= 0")
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "c", c)


def make_delta(theta: Theta, c: float) -> DeltaFunction:
    return DeltaFunction(theta, c)


def _delta_ratio(d: DeltaFunction, e: DeltaFunction) -> Tuple[Extended, Theta]:
    """Exact sup of d/e with the `pl.ratio_sup` conventions, and e's pin.
    Distinct pins are never comparable (each is finite where the other is +inf)."""
    if d.theta != e.theta or (e.c == 0 and d.c > 0):
        return INF, e.theta
    return (Fraction(d.c) / Fraction(e.c) if e.c else _F0), e.theta


def delta_leq(d: DeltaFunction, e: DeltaFunction, factor: Scalar = 1) -> bool:
    """Pointwise d <= factor * e, decided exactly (floats are binary rationals)."""
    factor = as_fraction(factor)
    if factor <= 0:
        raise ValueError("factor must be positive")
    return _delta_ratio(d, e)[0] <= factor


def scale_delta(d: DeltaFunction, lam: float) -> DeltaFunction:
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    return DeltaFunction(d.theta, lam * d.c)


# -- irreducibility witness ---------------------------------------------------


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
    """Construct a (linear, indicator) pair refuting irreducibility of f.

    A pair (g = a*x, h = 1_[0,x1]) must satisfy, exactly: sup2(g, h) >= f,
    not (f <= ctilde^3 * g), not (f <= ctilde^3 * h).  Since f(x)/x is
    nondecreasing these read z0 < x1 <= dom f, f(x1) <= a*x1, and dom f
    bounded or tail slope m > ctilde^3 * a, with [0, z0] the zero set.  So a
    pair exists iff f is not an indicator and either dom f is bounded or
    `almost_linear_bounds` fails; it is built from f's data: the last knot
    (x1, a*x1) of a bounded domain; for z0 > 0, a = m / (2 ctilde^3) and x1
    the largest x with f(x) <= a*x; otherwise a = f'(0) and x1 the end of
    the first piece.  None certifies irreducibility.  The pair is re-checked
    with `witness_is_valid`; a failure raises ConsistencyError.
    """
    if f.tag is not ClassTag.GEOMETRIC:
        raise ClassTagError("witness search requires a geometric function")
    C = as_fraction(ctilde)
    if C <= 1:
        raise ValueError("ctilde must exceed 1")
    if f.is_indicator:
        return None
    if not is_inf(f.domain_end):
        x1, v1 = f.knots[-1]
        a = v1 / x1
    elif almost_linear_bounds(f, C):
        return None
    elif f.zero_end() > 0:
        a = f.tail_slope / (2 * C**3)
        (x1,) = ratio_sup_abscissae(f, [a])
    else:
        a, x1 = f.first_slope, f.knots[1][0]
    pair = WitnessPair(make_linear(a), make_indicator(x1))
    if not witness_is_valid(f, pair, C):
        raise ConsistencyError(f"constructed witness for {f} fails exact re-verification")
    return pair


def almost_linear_bounds(f: PLConvex1D, ctilde: Scalar) -> bool:
    """Exact decision of f'(0)*z <= f(z) <= ctilde^3 * f'(0) * z on dom f.

    The lower bound is convexity.  f(z)/z is nondecreasing, so the upper
    bound amounts to its supremum - v_k/x_k at the end x_k of a bounded
    domain, the tail slope otherwise - staying at most ctilde^3 * f'(0).
    Requires f'(0) > 0, hence returns False whenever the first slope
    vanishes.
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
    xk, vk = f.knots[-1]
    sup = vk / xk if is_inf(f.tail_slope) else f.tail_slope
    return sup <= C**3 * s0


# -- sampled-data envelopes ----------------------------------------------------


def _finite_samples(
    samples: Union[Mapping[float, float], Sequence[Tuple[float, float]]],
) -> List[Tuple[float, float]]:
    """A mapping or sequence of (x, y) samples as float pairs, in input order
    (ValueError unless every item is a pair of finite numbers)."""
    try:
        items = list(samples.items() if isinstance(samples, Mapping) else samples)
        if any(isinstance(p, str) for p in items):  # "12" is no pair
            raise TypeError
        pairs = [(float(x), float(y)) for x, y in items]
        if any(isinstance(v, bool) for p in items for v in p):  # True is no number
            raise TypeError
    except (TypeError, ValueError):
        raise ValueError("samples must be (x, y) pairs of numbers") from None
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in pairs):
        raise ValueError("samples must be finite")
    return pairs


def monotone_envelope(
    samples: Sequence[Tuple[float, float]], C: Optional[float] = None
) -> List[Tuple[float, float]]:
    """Running maximum g(x) = max_{y <= x} f(y) over sorted samples.

    g is the least nondecreasing majorant of the samples.  When ``C`` is
    given, the input is first required to be C-monotone (x <= y implies
    f(x) <= C*f(y)); that hypothesis makes the envelope a two-sided proxy,
    g/C <= f <= g at every sample.  A violating pair raises
    HypothesisViolationError; a NaN, infinite or negative sample raises ValueError.
    """
    pts = _finite_samples(samples)
    if not pts:
        return []
    for (xa, va), (xb, _) in zip(pts, pts[1:]):
        if xb <= xa:
            raise ValueError("sample abscissae must be strictly ascending")
    for x, v in pts:
        if x < 0 or v < 0:
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
    ok means C' came out finite.  Every entry must be finite (else ValueError).
    """
    if C < 1:
        raise ValueError("hypothesis constant must be >= 1")
    pts: List[Tuple[Tuple[float, ...], float]] = []
    for x, a, v in samples:
        coords = tuple(float(u) for u in x) if isinstance(x, (list, tuple)) else (float(x),)
        a, v = float(a), float(v)
        if not all(map(math.isfinite, coords + (a, v))):
            raise ValueError("samples must be finite")
        if a < 0 or v < 0:
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
