"""The paper's sampled-data and pinned-point lemmas, outside the certifier.

``hyers_ulam_approx`` fits an additive approximant to approximately
additive samples.  ``fuzz_delta_transform`` builds jittered pinned-point
transforms, ``check_delta_structure`` recovers their point map and value
scaling, and ``verify_ray_mapping`` fits the direction map of a transform
of ray-supported grids.  None of them is on the path of `analyze` or
`fuzz_transform`, so the ``fuzz`` and ``check order`` commands never
compile this module; numpy and `grid` load inside the two fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .corpus import Corpus, _require_kind, delta_corpus
from .exceptions import CorpusError, HypothesisViolationError
from .extremal import DeltaFunction, _finite_samples, make_delta, quasi_linear_sandwich
from .stability import (
    AlmostOrderConstant,
    CorpusTransform,
    Violation,
    _geometric_mean_fraction,
    _grid_index,
    _jittered,
    _nonnegative,
)


@dataclass(frozen=True)
class DeltaStructureReport:
    is_delta_structure: bool
    point_matrix: Optional[object] = None
    point_offset: Optional[object] = None
    point_residual: Optional[float] = None
    flagged_nonaffine: Optional[bool] = None
    beta: Optional[float] = None
    value_ratio_bound: Optional[float] = None
    psi_ok: Optional[bool] = None
    violations: Tuple[Violation, ...] = ()


@dataclass(frozen=True)
class RayMappingReport:
    direction_map: Tuple[Tuple[Tuple[int, int], Tuple[int, int]], ...]
    matrix: Optional[Tuple[Tuple[float, float], Tuple[float, float]]]
    residual: Optional[float]
    violations: Tuple[Violation, ...] = ()


# ---------------------------------------------------------------------------
# additive approximation


def hyers_ulam_approx(
    samples: Union[Mapping[float, float], Sequence[Tuple[float, float]]],
    eps: float,
) -> Tuple[Dict[float, float], float]:
    """Additive approximation of an eps-approximately-additive sample map.

    The abscissae must sit on a uniform grid through 0: each within 1e-6 of
    a pitch of its grid point, or within the float rounding that the pitch
    (the least gap, a difference of two samples) carries over its steps if
    that is more, so an exact grid point is accepted at any step, 10**9
    included, and 10**6 + 0.2 is off the grid.  Every in-range pair
    is first checked for the Cauchy defect |f(x)+f(y)-f(x+y)| <= eps (a
    failure raises HypothesisViolationError with the witnessing pair); the
    approximation is the dyadic limit g(x) = f(2^n x)/2^n at the largest
    in-range n, and telescoping the defect gives sup|f - g| <= eps.  A NaN
    or infinite sample, or two samples at one grid point, raise ValueError.
    """
    eps = _nonnegative(eps, "eps")
    pairs = sorted(_finite_samples(samples))
    if not pairs:
        raise ValueError("need at least one sample")
    xs = [x for x, _ in pairs]
    gaps = [(b - a, max(abs(a), abs(b))) for a, b in zip(xs, xs[1:]) if b - a > 0]
    pitch, far = min(gaps) if gaps else (1.0, 1.0)
    slack = 8 * math.ulp(far)  # rounding of the pitch and of j * pitch, per step
    index, keys = _grid_index([(x, x, v) for x, v in pairs], pitch,
                              lambda j: max(1e-6 * pitch, slack * abs(j)), "uniform")
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


# ---------------------------------------------------------------------------
# pinned-point structure and ray mappings


def fuzz_delta_transform(
    seed: int,
    k: AlmostOrderConstant,
    point_map: Callable,
    beta: float = 1.0,
    corpus: Optional[Corpus] = None,
) -> CorpusTransform:
    """Jittered pinned-point transform D(theta)+c -> D(point_map(theta)) + kappa*beta*c,
    kappa as in `fuzz_transform`; ConsistencyError unless certified almost preserving."""
    if corpus is None:
        corpus = delta_corpus()
    _require_kind(corpus.elements, DeltaFunction,
                  "delta fuzzing needs a corpus of pinned-point functions")
    if not beta > 0:
        raise ValueError("value scaling must be positive")
    return _jittered(
        seed, k, corpus, corpus.elements,
        lambda f, kappa: make_delta(point_map(f.theta), float(kappa) * beta * f.c),
        "preserving", (
            f"fuzz-delta(ctilde={float(k.ctilde)!r}, seed={seed}, "
            f"beta={beta!r}, corpus={corpus.description})"
        ))


def _as_coords(theta) -> Tuple[float, ...]:
    return theta if isinstance(theta, tuple) else (theta,)


def check_delta_structure(
    t: CorpusTransform, k: AlmostOrderConstant
) -> DeltaStructureReport:
    """Verify point-map/value-map structure of a pinned-point transform.

    Images must be pinned-point functions whose point depends only on the
    source point (the fibre property).  The point map is fitted affinely by
    least squares; a residual beyond 1e-6 flags a non-affine map.  The value
    map is checked against the quasi-linear sandwich at the corpus constant
    and summarized by the geometric mean beta of image/source value ratios.
    """
    import numpy as np
    els, imgs, labels = t.corpus.elements, t.images, t.corpus.labels
    _require_kind(els, DeltaFunction, "delta-structure checks need a pinned-point corpus")
    violations: List[Violation] = []
    for img, label in zip(imgs, labels):
        if not isinstance(img, DeltaFunction):
            violations.append(Violation(
                "delta-image", label, "", None,
                "image is not a pinned-point function"))
    if violations:
        return DeltaStructureReport(False, violations=tuple(violations))

    fibres: Dict[Tuple[float, ...], Tuple[float, ...]] = {}
    for f, img, label in zip(els, imgs, labels):
        key = _as_coords(f.theta)
        val = _as_coords(img.theta)
        if key in fibres and fibres[key] != val:
            violations.append(Violation(
                "delta-fibre", label, "", f.theta,
                "image point varies along a fibre of constant source point"))
        fibres.setdefault(key, val)
    if violations:
        return DeltaStructureReport(False, violations=tuple(violations))

    src = np.array(sorted(fibres), dtype=float)
    dst = np.array([fibres[tuple(row)] for row in sorted(fibres)], dtype=float)
    design = np.hstack([src, np.ones((len(src), 1))])
    coef, *_ = np.linalg.lstsq(design, dst, rcond=None)
    pred = design @ coef
    residual = float(np.abs(pred - dst).max())
    dim = src.shape[1]
    if dim == 1:
        matrix: object = float(coef[0, 0])
        offset: object = float(coef[1, 0])
    else:
        matrix = tuple(tuple(float(v) for v in coef[:dim, j]) for j in range(dim))
        offset = tuple(float(v) for v in coef[dim, :])
    flagged = residual > 1e-6

    psi_ok = True
    for f, img, label in zip(els, imgs, labels):
        if (f.c > 0) != (img.c > 0):
            psi_ok = False
            kind = "positive" if f.c > 0 else "zero"
            violations.append(Violation(
                "delta-value", label, "", f.theta,
                f"{kind}-value source must map to a {kind}-value image"))
    ratios = [(f, Fraction(img.c) / Fraction(f.c), label)
              for f, img, label in zip(els, imgs, labels) if f.c > 0]
    beta = None
    if ratios and min(r for _, r, _ in ratios) > 0:
        beta = _geometric_mean_fraction([r for _, r, _ in ratios])
        for f, r, label in ratios:
            if not k.reciprocal * beta <= r <= k.ctilde * beta:
                psi_ok = False
                violations.append(Violation(
                    "delta-value", label, "", f.theta,
                    "image value leaves the (1/C, C) band around beta"))
    value_bound = None
    if psi_ok and beta is not None:
        samples = [
            (_as_coords(f.theta), f.c, img.c) for f, img in zip(els, imgs)
        ]
        try:
            value_bound, _ = quasi_linear_sandwich(samples, float(k.ctilde))
        except HypothesisViolationError as exc:
            psi_ok = False
            violations.append(Violation(
                "delta-value", "", "", exc.witness,
                "image values fail the quasi-linear combination bound"))
    return DeltaStructureReport(
        is_delta_structure=not violations,
        point_matrix=matrix,
        point_offset=offset,
        point_residual=residual,
        flagged_nonaffine=flagged,
        beta=None if beta is None else float(beta),
        value_ratio_bound=value_bound,
        psi_ok=psi_ok,
        violations=tuple(violations),
    )


def verify_ray_mapping(t: CorpusTransform) -> RayMappingReport:
    """Fit a linear direction map to a transform of ray-supported grids."""
    import numpy as np

    from .grid import GridFunction2D, is_ray_supported
    els, imgs, labels = t.corpus.elements, t.images, t.corpus.labels
    _require_kind(els, GridFunction2D, "ray-mapping checks need a corpus of sampled grids")
    pairs: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
    violations: List[Violation] = []
    for f, img, label in zip(els, imgs, labels):
        u = is_ray_supported(f)
        if u is None:
            raise CorpusError(f"corpus element {label} is not ray supported")
        v = is_ray_supported(img) if isinstance(img, GridFunction2D) else None
        if v is None:
            violations.append(Violation(
                "ray-support", label, "", u,
                "image is not supported on a single lattice ray"))
            continue
        pairs.append((u, v))
    if not pairs:
        return RayMappingReport((), None, None, tuple(violations))
    src = np.array([u for u, _ in pairs], dtype=float)
    dst = np.array([v for _, v in pairs], dtype=float)
    src /= np.linalg.norm(src, axis=1, keepdims=True)
    dst /= np.linalg.norm(dst, axis=1, keepdims=True)
    coef, *_ = np.linalg.lstsq(src, dst, rcond=None)
    matrix = coef.T
    residual = float(np.linalg.norm(src @ coef - dst, axis=1).max())
    return RayMappingReport(
        direction_map=tuple(pairs),
        matrix=tuple(tuple(float(v) for v in row) for row in matrix),
        residual=residual,
        violations=tuple(violations),
    )
