"""Stability harness: certify almost order preservation/reversal on corpora.

A *corpus transform* is a finite mapping from corpus elements to images.
The checkers certify, pair by pair and exactly, the two-sided conditions

  (preserving)  f <= g       implies  Tf <= C*Tg
                f <= (1/C)*g implies  Tf <= Tg

  (reversing)   f <= g       implies  Tf >= (1/C)*Tg
                f <= (1/C)*g implies  Tf >= Tg

at a constant C > 1, together with the inverse implications, lattice
stability on designated join/meet pairs, and exact fixing of the order
extremes.  Certified transforms are then classified (identity-like vs
gauge-like, or their order-reversing counterparts after composing with the
geometric dual), their dilation exponent is recovered by dyadic doubling,
and a two-sided sandwich c*ref <= Tf <= C*ref is fitted with an exact
certificate.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .corpus import Corpus, _ratio_any, _ratio_matrix, delta_corpus, geometric_corpus
from .exceptions import (
    ClassificationError,
    ConsistencyError,
    CorpusError,
    HypothesisViolationError,
)
from .extremal import (
    DeltaFunction,
    _finite_samples,
    almost_linear_bounds,
    make_delta,
    quasi_linear_sandwich,
)
from .grid import GridFunction2D, is_ray_supported
from .pl import (
    PLConvex1D,
    as_fraction,
    compose_dilate,
    hat_inf2,
    is_inf,
    leq,
    leq_witness,
    ratio_sup,
    scale,
    sup2,
)
from .transforms import gauge_transform, geometric_dual, legendre

__all__ = [
    "AlmostOrderConstant",
    "TransformClass",
    "Violation",
    "CorpusTransform",
    "StabilityReport",
    "DeltaStructureReport",
    "RayMappingReport",
    "check_almost_preserving",
    "check_almost_reversing",
    "check_inverse_conditions",
    "check_lattice_stability",
    "check_extremes",
    "classify",
    "estimate_exponent",
    "hyers_ulam_approx",
    "fit_sandwich",
    "fuzz_transform",
    "fuzz_delta_transform",
    "check_delta_structure",
    "verify_ray_mapping",
    "analyze",
]

SANDWICH_FLAG_POWER = 10
SANDWICH_REGIME_POWER = 7
_JITTER_MARGIN = 1e-9


@dataclass(frozen=True)
class AlmostOrderConstant:
    """The constant C > 1 of the almost-order conditions, kept exact.

    The reciprocal c = 1/C is derived, so c*C == 1 holds exactly.
    """

    ctilde: Fraction

    def __post_init__(self):
        object.__setattr__(self, "ctilde", as_fraction(self.ctilde))
        if self.ctilde <= 1:
            raise ValueError("almost-order constant must exceed 1")

    @cached_property
    def reciprocal(self) -> Fraction:
        return 1 / self.ctilde

    def power(self, n: int) -> Fraction:
        return self.ctilde**n


class TransformClass(enum.Enum):
    IDENTITY = "identity"
    GAUGE = "gauge"
    REVERSING_LEGENDRE = "reversing-legendre"
    REVERSING_GEOMETRIC_DUAL = "reversing-geometric-dual"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class Violation:
    """A failed condition, with the pair of labels and a witnessing point."""

    condition: str
    f_label: str
    g_label: str = ""
    witness: object = None
    detail: str = ""


@dataclass(frozen=True)
class CorpusTransform:
    """Finite transform: corpus element i maps to images[i]."""

    corpus: Corpus
    images: Tuple[object, ...]
    provenance: str = ""

    def __post_init__(self):
        if len(self.images) != len(self.corpus):
            raise ValueError("one image per corpus element required")

    def __len__(self) -> int:
        return len(self.corpus)

    @cached_property
    def R_img(self) -> Tuple[Tuple[object, ...], ...]:
        """Exact sup Tf_i/Tf_j for each ordered pair of distinct images.

        Built like `Corpus.R` by `_ratio_matrix`: geometric images split by
        support or zero set are +inf, and 0 where Tf_i vanishes on dom Tf_j,
        with no breakpoint walk."""
        return _ratio_matrix(self.images)


@dataclass(frozen=True)
class StabilityReport:
    classification: TransformClass
    ctilde: Fraction  # exact; `fit_sandwich` reads a float as its binary value
    violations: Tuple[Violation, ...] = ()
    phi_samples: Tuple[Tuple[float, float], ...] = ()
    slope_samples: Tuple[Tuple[float, float], ...] = ()
    alpha: Optional[float] = None
    sandwich_lower: Optional[float] = None
    sandwich_upper: Optional[float] = None
    gamma: Optional[float] = None
    exponent_deviation: Optional[float] = None
    sandwich_flagged: Optional[bool] = None
    within_regime: Optional[bool] = None
    diagnostics: Tuple[str, ...] = ()
    provenance: str = ""

    def __post_init__(self):
        if (
            self.sandwich_lower is not None
            and self.sandwich_upper is not None
            and not self.sandwich_lower <= self.sandwich_upper
        ):
            raise ValueError("sandwich constants must satisfy lower <= upper")

    @property
    def certified(self) -> bool:
        return not self.violations and self.classification is not TransformClass.INCONSISTENT


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
# condition checkers


def _witness(f, g, factor=1) -> object:
    """A point where f <= factor*g fails, or None where it holds."""
    if isinstance(f, PLConvex1D) and isinstance(g, PLConvex1D):
        w = leq_witness(f, g, factor)
        return None if w is None else float(w)
    r, at = _ratio_any(f, g)
    return None if r <= factor else at


# condition -> (hypothesis on the images, conclusion reversed, detail of
# part a, detail of part b).  Part a is "hyp <= 1 implies con <= C", part b
# "hyp <= 1/C implies con <= 1", each read off the pair's exact ratio.
_PAIR_CONDITIONS = {
    "preserving": (False, False, "f <= g but not Tf <= C*Tg",
                   "f <= (1/C)*g but not Tf <= Tg"),
    "reversing": (False, True, "f <= g but not Tf >= (1/C)*Tg",
                  "f <= (1/C)*g but not Tf >= Tg"),
    "inverse": (True, False, "Tf <= Tg but not f <= C*g",
                "Tf <= (1/C)*Tg but not f <= g"),
}


def _violations(
    t: CorpusTransform, k: AlmostOrderConstant, condition: str
) -> Iterator[Violation]:
    """The pairs violating ``condition``, each witness searched when reached."""
    on_images, flip, detail_a, detail_b = _PAIR_CONDITIONS[condition]
    if on_images:
        hyp, con, sides = t.R_img, t.corpus.R, t.corpus.elements
    else:
        hyp, con, sides = t.corpus.R, t.R_img, t.images
    labels = t.corpus.labels
    for i, j in permutations(range(len(t)), 2):
        h = hyp[i][j]
        if h > 1:
            continue
        a, b = (j, i) if flip else (i, j)
        r = con[a][b]
        if r > k.ctilde:
            w = _witness(sides[a], sides[b], k.ctilde)
            yield Violation(f"{condition}-a", labels[i], labels[j], w, detail_a)
        if h <= k.reciprocal and r > 1:
            w = _witness(sides[a], sides[b])
            yield Violation(f"{condition}-b", labels[i], labels[j], w, detail_b)


def _sense(t: CorpusTransform, k: AlmostOrderConstant) -> Optional[str]:
    """The first order sense whose conditions hold on every pair, or None.

    A failing sense stops at its first violation, so it pays for one witness.
    """
    for sense in ("preserving", "reversing"):
        if next(_violations(t, k, sense), None) is None:
            return sense
    return None


def check_almost_preserving(
    t: CorpusTransform, k: AlmostOrderConstant
) -> Tuple[Violation, ...]:
    """Certify both preserving conditions on every ordered corpus pair."""
    return tuple(_violations(t, k, "preserving"))


def check_almost_reversing(
    t: CorpusTransform, k: AlmostOrderConstant
) -> Tuple[Violation, ...]:
    """Certify both reversing conditions on every ordered corpus pair."""
    return tuple(_violations(t, k, "reversing"))


def check_inverse_conditions(
    t: CorpusTransform, k: AlmostOrderConstant
) -> Tuple[Violation, ...]:
    """Certify the converse implications of the preserving conditions."""
    return tuple(_violations(t, k, "inverse"))


# (condition, detail) of the rows T(sup) <= C^2 sup(Tf, Tg) and
# inf(Tf, Tg) <= C^2 T(inf), in the order `check_lattice_stability` reports them
_LATTICE_CONDITIONS = (
    ("lattice-sup-lower", "T(sup) > C^2 * sup(Tf, Tg)"),
    ("lattice-inf-upper", "inf(Tf, Tg) > C^2 * T(inf)"),
)


def check_lattice_stability(
    t: CorpusTransform, k: AlmostOrderConstant
) -> Tuple[Violation, ...]:
    """Certify the join and meet rows on the corpus's designated pairs.

    Requires the corpus to be closed under sup2/hat_inf2 for each designated
    pair of 1-d functions; a wrong designation is a configuration error, not
    a violation.  A closed designation orders f_i, f_j <= f_s and
    f_m <= f_i, f_j, so the rows sup(Tf, Tg) <= C T(sup) and
    T(inf) <= C inf(Tf, Tg) are part a of the preserving condition on those
    pairs (`check_almost_preserving`), and are not checked here.  A row
    whose member is one of the pair holds outright, as each of Tf, Tg lies
    below their join and above their meet; only the others build the
    images' join or meet.
    """
    imgs, labels, bound = t.images, t.corpus.labels, k.power(2)
    out: List[Violation] = []
    for i, j, s, m in t.corpus.closed_lattice_pairs:
        f, g = imgs[i], imgs[j]
        sides = (
            None if s in (i, j) else (imgs[s], sup2(f, g)),
            None if m in (i, j) else (hat_inf2(f, g), imgs[m]),
        )
        for (condition, detail), pair in zip(_LATTICE_CONDITIONS, sides):
            if pair is not None and ratio_sup(*pair)[0] > bound:
                w = _witness(*pair, bound)
                out.append(Violation(condition, labels[i], labels[j], w, detail))
    return tuple(out)


def check_extremes(t: CorpusTransform) -> Tuple[Violation, ...]:
    """The zero function and the indicator of {0}, where present, map to
    themselves; a corpus with neither is a configuration error."""
    out: List[Violation] = []
    seen = False
    for f, img, label in zip(t.corpus.elements, t.images, t.corpus.labels):
        if isinstance(f, PLConvex1D) and (f.is_zero or f.is_point_indicator):
            seen = True
            if img != f:
                name, what = (("zero", "the zero function") if f.is_zero
                              else ("point", "the indicator of {0}"))
                out.append(Violation(f"extreme-{name}", label, "", None,
                                     f"image of {what} differs from it"))
    if not seen:
        raise CorpusError("corpus lacks the order extremes")
    return tuple(out)


# ---------------------------------------------------------------------------
# classification


def _proper_indicator(f: PLConvex1D) -> bool:
    return f.is_indicator and not is_inf(f.domain_end) and f.domain_end > 0


def _positive_linear(f: PLConvex1D) -> bool:
    return f.is_linear and not is_inf(f.first_slope) and f.first_slope > 0


def _image_kind(img: PLConvex1D, k: AlmostOrderConstant) -> str:
    if _proper_indicator(img):
        return "indicator"
    if not img.is_indicator and almost_linear_bounds(img, k.ctilde):
        return "almost-linear"
    return "other"


def _datum(img: PLConvex1D, kind: str) -> float:
    """The datum a sample reads off an image of ``kind``: support end or slope."""
    return float(img.domain_end if kind == "indicator" else img.first_slope)


# (sense, the common kind of the indicator images) -> class, and the kind
# the ray images must take then; `classify` states the rule.
_CLASSES = {
    ("preserving", "indicator"): TransformClass.IDENTITY,
    ("preserving", "almost-linear"): TransformClass.GAUGE,
    ("reversing", "indicator"): TransformClass.REVERSING_GEOMETRIC_DUAL,
    ("reversing", "almost-linear"): TransformClass.REVERSING_LEGENDRE,
}
_RAY_KIND = {"indicator": "almost-linear", "almost-linear": "indicator"}
# the reference base B of each exact class; `fit_sandwich` compares Tf with B f
_REFERENCE_BASES: Dict[TransformClass, Callable] = {
    TransformClass.IDENTITY: lambda f: f,
    TransformClass.GAUGE: gauge_transform,
}


def classify(
    t: CorpusTransform,
    k: AlmostOrderConstant,
    sense: Optional[str] = None,
) -> StabilityReport:
    """Decide identity-like vs gauge-like from the indicator/ray images.

    The class names a reference base B (B f = f identity-like, B f = J f
    gauge-like): the indicator images share the kind of B(indicator), an
    indicator or an almost-linear function, and the ray images take the
    other kind.  Each sample reads its image's datum: the support end of
    an indicator, the first slope of an almost-linear function.
    ``sense`` is "preserving" or "reversing"; when omitted the first sense
    whose conditions hold is taken.  A reversing transform is classified
    after composing with the geometric dual on the left (the composition is
    order preserving, and by homogeneity the per-element scalings survive as
    their reciprocals): a gauge-like composition names a Legendre-like
    original, an identity-like composition names a dual-like original.
    """
    if sense not in (None, "preserving", "reversing"):
        raise ValueError("sense must be 'preserving' or 'reversing'")
    _samples(t)  # a corpus error comes before any ratio matrix
    if sense is None:
        sense = _sense(t, k)
    return _classify(t, k, sense)


def _samples(t: CorpusTransform) -> Tuple[List[int], List[int]]:
    """Indices of the corpus's proper indicators and positive rays.

    A CorpusError unless the corpus and its images are all 1-d, with at
    least two of each: checked before the order sense is decided, so before
    any ratio matrix.
    """
    els = t.corpus.elements
    if not all(isinstance(f, PLConvex1D) for f in els):
        raise CorpusError("classification requires a corpus of 1-d functions")
    if not all(isinstance(f, PLConvex1D) for f in t.images):
        raise CorpusError("classification requires 1-d images")
    ind = [i for i, f in enumerate(els) if _proper_indicator(f)]
    lin = [i for i, f in enumerate(els) if _positive_linear(f)]
    if len(ind) < 2 or len(lin) < 2:
        raise CorpusError(
            "classification needs at least two indicators and two rays"
        )
    return ind, lin


def _classify(
    t: CorpusTransform, k: AlmostOrderConstant, sense: Optional[str]
) -> StabilityReport:
    """`classify` at a decided sense; None when neither condition holds."""
    els = t.corpus.elements
    ind, lin = _samples(t)
    notes: Tuple[str, ...] = ()

    def report(classification, violations, phi=(), slopes=()) -> StabilityReport:
        return StabilityReport(
            classification, k.ctilde, tuple(violations), tuple(phi),
            tuple(slopes), diagnostics=notes, provenance=t.provenance)

    if sense is None:
        return report(TransformClass.INCONSISTENT, [Violation(
            "classification", "", "", None,
            "neither order condition holds on the corpus")])

    imgs = t.images
    if sense == "reversing":
        imgs = tuple(geometric_dual(img) for img in imgs)
        notes = ("samples describe the order-preserving composition with the "
                 "geometric dual",)

    labels = t.corpus.labels
    kinds = [_image_kind(imgs[i], k) for i in ind]
    if "other" in kinds:
        return report(TransformClass.INCONSISTENT, [Violation(
            "classification", labels[ind[kinds.index("other")]], "", None,
            "indicator image is neither an indicator nor almost linear")])
    if len(set(kinds)) > 1:
        return report(TransformClass.INCONSISTENT, [Violation(
            "classification", labels[ind[kinds.index("indicator")]],
            labels[ind[kinds.index("almost-linear")]], None,
            "indicator images mix both structural kinds")])

    kind, expect = kinds[0], _RAY_KIND[kinds[0]]
    phi = sorted((float(els[i].domain_end), _datum(imgs[i], kind)) for i in ind)
    violations: List[Violation] = []
    slopes: List[Tuple[float, float]] = []
    for i in lin:
        got = _image_kind(imgs[i], k)
        if got == expect:
            slopes.append((float(els[i].first_slope), _datum(imgs[i], got)))
        else:
            violations.append(Violation(
                "classification", labels[i], "", None,
                f"ray image should be {expect} for this class, got {got}"))
    label = TransformClass.INCONSISTENT if violations else _CLASSES[sense, kind]
    return report(label, violations, phi, sorted(slopes))


# ---------------------------------------------------------------------------
# exponent recovery and additive approximation


def _nonnegative(value, name: str) -> float:
    """``value`` as a float, when it is a finite number >= 0 (else ValueError)."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not 0 <= x < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    return x


def _grid_index(
    points: Sequence[Tuple[float, float, float]], pitch: float, tol: float, grid: str
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """({j: v}, {j: x}) for samples (x, s, v) whose grid coordinate s lies in
    a window tol * max(1, |j|) < pitch / 2 around j * pitch; ValueError
    otherwise or when two share a step j (the message names the caller's x)."""
    index: Dict[int, float] = {}
    keys: Dict[int, float] = {}
    for x, s, v in points:
        steps = s / pitch
        if not math.isfinite(steps):
            raise ValueError("abscissae span more grid steps than a float holds")
        j = round(steps)
        window = tol * max(1.0, abs(j))
        if 2 * window >= pitch:
            raise ValueError(f"snap tolerance {tol!r} at step {j} reaches half "
                             f"the {grid} grid pitch {pitch!r}")
        if abs(s - j * pitch) > window:
            raise ValueError(f"abscissae do not sit on a {grid} grid")
        if j in index:
            raise ValueError(f"duplicate abscissa near {x!r}")
        index[j] = v
        keys[j] = x
    return index, keys


def estimate_exponent(
    samples: Union[Mapping[float, float], Sequence[Tuple[float, float]]],
    tolerance: float = 1e-6,
) -> Tuple[float, float]:
    """Recover the power-law exponent of positive samples z -> phi(z).

    The abscissae must sit on a multiplicative grid (integer powers of the
    one nearest 1) closed under squaring up to a cap.  With
    h(s) = log phi(exp(s)) the estimate is the dyadic-doubling slope
    h(2^n s0)/(2^n s0) at the largest in-range n; an exact power law is
    therefore recovered exactly, and multiplicative noise decays like the
    reciprocal of the cap.  Returns (gamma, sup deviation |h - gamma*s|).
    A NaN, infinite or nonpositive sample, or two at one grid point, raise
    ValueError.
    """
    tolerance = _nonnegative(tolerance, "tolerance")
    pairs = sorted(_finite_samples(samples))
    if len(pairs) < 2:
        raise ValueError("need at least two samples")
    if not all(z > 0 and p > 0 for z, p in pairs):
        raise ValueError("samples must be positive")
    pts = [(z, math.log(z), math.log(p)) for z, p in pairs]
    nonzero = [abs(s) for _, s, _ in pts if abs(s) > tolerance]
    if not nonzero:
        raise ValueError("all abscissae equal 1; no scale to fit")
    pitch = min(nonzero)
    index, _ = _grid_index(pts, pitch, tolerance, "multiplicative")
    # the sample at |s| = pitch sits at step +-1, so a nonzero step exists
    j = min((j for j in index if j), key=lambda j: (j < 0, abs(j)))
    while 2 * j in index:
        j *= 2
    gamma = index[j] / (j * pitch)
    deviation = max(abs(h - gamma * s) for _, s, h in pts)
    return gamma, deviation


def hyers_ulam_approx(
    samples: Union[Mapping[float, float], Sequence[Tuple[float, float]]],
    eps: float,
) -> Tuple[Dict[float, float], float]:
    """Additive approximation of an eps-approximately-additive sample map.

    The abscissae must sit on a uniform grid through 0.  Every in-range pair
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
    gaps = [b - a for a, b in zip(xs, xs[1:]) if b - a > 0]
    pitch = min(gaps) if gaps else 1.0
    index, keys = _grid_index([(x, x, v) for x, v in pairs], pitch, 1e-6 * pitch, "uniform")
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
# sandwich fitting


def _ratio_extrema(
    num: PLConvex1D, den: PLConvex1D
) -> Optional[Tuple[Fraction, Fraction]]:
    """Exact (min, max) of num/den where both are finite positive, or None.

    The max is sup num/den and the min 1/sup den/num (`pl.ratio_sup`).  A sup
    is +inf, and no two-sided sandwich exists, unless the zero sets and
    domains match; both are 0 only for an indicator against itself: (1, 1).
    """
    hi, _ = ratio_sup(num, den)
    inv, _ = ratio_sup(den, num)
    if is_inf(hi) or is_inf(inv):
        return None
    if hi == 0:
        return Fraction(1), Fraction(1)
    return 1 / inv, hi


def _geometric_mean_fraction(ratios: Sequence[Fraction]) -> Fraction:
    """Common value when all ratios agree exactly, else a float geometric mean."""
    if all(r == ratios[0] for r in ratios):
        return ratios[0]
    return Fraction(math.exp(math.fsum(math.log(r) for r in ratios) / len(ratios)))


def fit_sandwich(t: CorpusTransform, report: StabilityReport) -> StabilityReport:
    """Fit dilation and two-sided constants; re-verify the certificate.

    The reference of f is (Bf)(x/alpha) with B the class's reference base:
    B f = f for an identity-like transform, B f = J f, the gauge transform,
    for a gauge-like one.  The dilation comes from the scaling-invariant
    support ratios Tf.domain_end / Bf.domain_end over the elements whose
    base is a proper indicator, exactly when those ratios agree exactly.
    c and C are the exact global extrema of the image/reference ratio, and
    c*ref <= Tf <= C*ref is re-verified exactly before the report is
    updated.  C/c beyond ctilde**10 flags the fit; within ctilde**7 is
    reported informationally.
    """
    k = AlmostOrderConstant(report.ctilde)
    base = _REFERENCE_BASES.get(report.classification)
    if base is None:
        raise ClassificationError(
            "sandwich fitting needs an identity-like or gauge-like classification")
    els, imgs, labels = t.corpus.elements, t.images, t.corpus.labels
    bases = [base(f) for f in els]
    ratios = [Fraction(img.domain_end) / b.domain_end
              for b, img in zip(bases, imgs) if _proper_indicator(b)]
    if not ratios:
        raise ClassificationError("no support data to fit a dilation from")
    alpha = _geometric_mean_fraction(ratios)
    refs = [compose_dilate(b, alpha) for b in bases]

    extrema: List[Tuple[Fraction, Fraction]] = []
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
        extrema.append(ext)
    if violations:
        return replace(report, violations=report.violations + tuple(violations),
                       alpha=float(alpha))
    lo = min((e[0] for e in extrema), default=Fraction(1))
    hi = max((e[1] for e in extrema), default=Fraction(1))
    for img, ref, label in zip(imgs, refs, labels):
        if not (leq(ref, img, 1 / lo) and leq(img, ref, hi)):
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
# fuzzed transforms


_FUZZ_BASES: Dict[str, Tuple[Optional[Callable], str]] = {
    "identity": (None, "preserving"),
    "gauge": (gauge_transform, "preserving"),
    "legendre": (legendre, "reversing"),
    "a": (geometric_dual, "reversing"),
}


def _jittered(
    seed: int, k: AlmostOrderConstant, corpus: Corpus, image: Callable, sense: str, provenance: str
) -> CorpusTransform:
    """The transform f -> image(f, kappa(f)) with seeded jitter kappa, once no
    pair violates ``sense``; else a ConsistencyError naming the first failing
    condition and pair (the jitter band [C**-0.5, C**0.5] can reach across a
    corpus spaced finer than C)."""
    rng = random.Random(seed)
    half = 0.5 * math.log(float(k.ctilde)) * (1.0 - _JITTER_MARGIN)
    t = CorpusTransform(corpus, tuple(
        image(f, Fraction(math.exp(rng.uniform(-half, half)))) for f in corpus.elements
    ), provenance=provenance)
    bad = next(_violations(t, k, sense), None)
    if bad is not None:
        raise ConsistencyError(
            f"fuzzed transform failed its own certification: {bad.condition} "
            f"on ({bad.f_label}, {bad.g_label}): {bad.detail}"
        )
    return t


def fuzz_transform(
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
    the construction before it is returned, or raises ConsistencyError.
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

    def image(f: PLConvex1D, kappa: Fraction) -> PLConvex1D:
        img = f if op is None else op(f)
        return scale(img if alpha == 1 else compose_dilate(img, alpha), kappa)

    return _jittered(seed, k, corpus, image, sense, (
        f"fuzz(base={base}, ctilde={float(k.ctilde)!r}, seed={seed}, "
        f"alpha={float(alpha)!r}, corpus={corpus.description})"
    ))


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
    if not all(isinstance(f, DeltaFunction) for f in corpus.elements):
        raise CorpusError("delta fuzzing needs a corpus of pinned-point functions")
    if not beta > 0:
        raise ValueError("value scaling must be positive")
    return _jittered(
        seed, k, corpus,
        lambda f, kappa: make_delta(point_map(f.theta), float(kappa) * beta * f.c),
        "preserving", (
            f"fuzz-delta(ctilde={float(k.ctilde)!r}, seed={seed}, "
            f"beta={beta!r}, corpus={corpus.description})"
        ))


# ---------------------------------------------------------------------------
# pinned-point structure and ray mappings


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
    if not all(isinstance(f, DeltaFunction) for f in els):
        raise CorpusError("delta-structure checks need a pinned-point corpus")
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
    els, imgs, labels = t.corpus.elements, t.images, t.corpus.labels
    if not all(isinstance(f, GridFunction2D) for f in els):
        raise CorpusError("ray-mapping checks need a corpus of sampled grids")
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


# ---------------------------------------------------------------------------
# pipeline


def analyze(
    t: CorpusTransform,
    k: AlmostOrderConstant,
    exponent_tolerance: float = 1e-6,
) -> StabilityReport:
    """Run the full certification pipeline on a corpus transform.

    Decides the order sense (reporting both checkers' violations when
    neither holds), then for a preserving transform also checks the inverse
    conditions, lattice stability on designated pairs and the extremes;
    classifies; recovers the exponent (left None, with a diagnostic, when
    the samples are off a multiplicative grid); and fits the sandwich.
    A NaN, infinite or negative ``exponent_tolerance`` raises ValueError; a
    corpus or image list that is not all 1-d, or a corpus with fewer than
    two indicators or two rays, raises CorpusError before any ratio matrix
    is built.
    """
    exponent_tolerance = _nonnegative(exponent_tolerance, "exponent_tolerance")
    _samples(t)  # a corpus error comes before any ratio matrix
    has_extremes = any(f.is_zero or f.is_point_indicator for f in t.corpus.elements)
    sense = _sense(t, k)
    violations: Tuple[Violation, ...] = ()
    if sense == "preserving":
        violations = check_inverse_conditions(t, k) + check_lattice_stability(t, k)
        if has_extremes:
            violations = violations + check_extremes(t)
    elif sense is None:
        violations = check_almost_preserving(t, k) + check_almost_reversing(t, k)
    report = _classify(t, k, sense)
    report = replace(report, violations=report.violations + violations)
    if report.classification is not TransformClass.INCONSISTENT:
        try:
            gamma, deviation = estimate_exponent(
                report.phi_samples, tolerance=exponent_tolerance
            )
        except ValueError as exc:
            report = replace(report, diagnostics=report.diagnostics + (
                f"exponent not estimated: {exc}",))
        else:
            report = replace(report, gamma=gamma, exponent_deviation=deviation)
    if report.classification in (TransformClass.IDENTITY, TransformClass.GAUGE):
        report = fit_sandwich(t, report)
    return report
