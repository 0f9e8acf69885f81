"""Stability harness: certify almost order preservation/reversal on corpora.

A *corpus transform* is a finite mapping from corpus elements to images.
The checkers certify, pair by pair and exactly, the two-sided conditions

  (preserving)  f <= g       implies  Tf <= C*Tg
                f <= (1/C)*g implies  Tf <= Tg

  (reversing)   f <= g       implies  Tf >= (1/C)*Tg
                f <= (1/C)*g implies  Tf >= Tg

at a constant C > 1, together with the inverse implications, lattice
stability on designated join/meet pairs, and exact fixing of the order
extremes.  Each part of a pair condition gets easier as C grows, so each
has an exact threshold, computed once per transform when first read: part
a holds iff C >= Ta and part b iff C > Tb (`_PAIR_CONDITIONS`).  Only a
condition that fails lists its violating pairs and searches their
witnesses.  Certified transforms are then classified (identity-like vs
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
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .corpus import (
    Corpus, _leq_pairs, _ratio_any, _ratio_matrix, _require_kind, geometric_corpus)
from .exceptions import ClassificationError, ConsistencyError, CorpusError
from .extremal import _finite_samples, almost_linear_bounds
from .pl import (
    INF,
    Extended,
    PLConvex1D,
    _lt,
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
from .transforms import geometric_dual

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

    @cached_property
    def _rows(self) -> Dict[str, Tuple[Extended, Extended]]:
        """The (Ta, Tb) rows computed so far, by `_row`."""
        return {}

    @cached_property
    def thresholds(self) -> Dict[str, Tuple[Extended, Extended]]:
        """(Ta, Tb) of every pair condition, by `_row`."""
        return {condition: _row(self, condition) for condition in _PAIR_CONDITIONS}


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
# "hyp <= 1/C implies con <= 1", each read off the pair's exact ratio.  Each
# part gets easier as C grows, so it has one exact threshold: part a holds
# iff C >= Ta, the largest con over the pairs with hyp <= 1, and part b iff
# C > Tb, the largest 1/hyp over those pairs with con > 1 (+inf at hyp = 0).
_PAIR_CONDITIONS = {
    "preserving": (False, False, "f <= g but not Tf <= C*Tg",
                   "f <= (1/C)*g but not Tf <= Tg"),
    "reversing": (False, True, "f <= g but not Tf >= (1/C)*Tg",
                  "f <= (1/C)*g but not Tf >= Tg"),
    "inverse": (True, False, "Tf <= Tg but not f <= C*g",
                "Tf <= (1/C)*Tg but not f <= g"),
}


def _condition_pairs(t: CorpusTransform, condition: str) -> Tuple[Sequence, Sequence, Sequence]:
    """(hyp, con, pairs) of ``condition``: its ratio matrices and, in row
    order, the pairs (i, j) with hyp[i][j] <= 1, the only ones it constrains."""
    if _PAIR_CONDITIONS[condition][0]:
        return t.R_img, t.corpus.R, _leq_pairs(t.R_img)
    return t.corpus.R, t.R_img, t.corpus.leq_pairs


def _violations(
    t: CorpusTransform, k: AlmostOrderConstant, condition: str
) -> Iterator[Violation]:
    """The pairs violating ``condition``, each witness searched when reached."""
    on_images, flip, detail_a, detail_b = _PAIR_CONDITIONS[condition]
    hyp, con, pairs = _condition_pairs(t, condition)
    sides = t.corpus.elements if on_images else t.images
    labels = t.corpus.labels
    for i, j in pairs:
        h = hyp[i][j]
        a, b = (j, i) if flip else (i, j)
        r = con[a][b]
        if r > k.ctilde:
            w = _witness(sides[a], sides[b], k.ctilde)
            yield Violation(f"{condition}-a", labels[i], labels[j], w, detail_a)
        if h <= k.reciprocal and r > 1:
            w = _witness(sides[a], sides[b])
            yield Violation(f"{condition}-b", labels[i], labels[j], w, detail_b)


def _thresholds(t: CorpusTransform, condition: str) -> Tuple[Extended, Extended]:
    """(Ta, Tb) of ``condition`` by integer cross-products, n/0 standing for +inf."""
    flip = _PAIR_CONDITIONS[condition][1]
    hyp, con, pairs = _condition_pairs(t, condition)
    an, ad, bn, bd = 0, 1, 0, 1  # Ta = an/ad, Tb = bn/bd
    for i, j in pairs:
        r = con[j][i] if flip else con[i][j]
        rn, rd = (r.numerator, r.denominator) if type(r) is Fraction else (1, 0)
        if rn * ad > an * rd:
            an, ad = rn, rd
        if rn > rd:
            h = hyp[i][j]  # 1/h = h.d/h.n
            if h.denominator * bd > bn * h.numerator:
                bn, bd = h.denominator, h.numerator
            if ad == bd == 0:
                break
    return (INF if ad == 0 else Fraction(an, ad)), (INF if bd == 0 else Fraction(bn, bd))


def _row(t: CorpusTransform, condition: str) -> Tuple[Extended, Extended]:
    """(Ta, Tb) of ``condition``, computed once per transform when first read,
    so a reversing transform never builds the inverse row."""
    rows = t._rows
    if condition not in rows:
        rows[condition] = _thresholds(t, condition)
    return rows[condition]


def _holds(t: CorpusTransform, k: AlmostOrderConstant, condition: str) -> bool:
    """Whether no pair violates ``condition``: C >= Ta and C > Tb."""
    ta, tb = _row(t, condition)
    c = k.ctilde
    return not (is_inf(ta) or is_inf(tb) or _lt(c, ta)) and _lt(tb, c)


def _sense(t: CorpusTransform, k: AlmostOrderConstant) -> Optional[str]:
    """The first order sense whose conditions hold on every pair, or None."""
    for sense in ("preserving", "reversing"):
        if _holds(t, k, sense):
            return sense
    return None


def _checked(
    t: CorpusTransform, k: AlmostOrderConstant, condition: str
) -> Tuple[Violation, ...]:
    """No violations when ``condition`` holds; else every one, in pair order."""
    return () if _holds(t, k, condition) else tuple(_violations(t, k, condition))


def check_almost_preserving(
    t: CorpusTransform, k: AlmostOrderConstant
) -> Tuple[Violation, ...]:
    """Certify both preserving conditions on every ordered corpus pair."""
    return _checked(t, k, "preserving")


def check_almost_reversing(
    t: CorpusTransform, k: AlmostOrderConstant
) -> Tuple[Violation, ...]:
    """Certify both reversing conditions on every ordered corpus pair."""
    return _checked(t, k, "reversing")


def check_inverse_conditions(
    t: CorpusTransform, k: AlmostOrderConstant
) -> Tuple[Violation, ...]:
    """Certify the converse implications of the preserving conditions."""
    return _checked(t, k, "inverse")


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
            w = None if pair is None else _witness(*pair, bound)
            if w is not None:
                out.append(Violation(condition, labels[i], labels[j], w, detail))
    return tuple(out)


def check_extremes(t: CorpusTransform) -> Tuple[Violation, ...]:
    """The zero function and the indicator of {0}, where present, map to
    themselves; a corpus with neither is a configuration error."""
    out: List[Violation] = []
    seen = False
    for f, img, label in zip(t.corpus.elements, t.images, t.corpus.labels):
        if f.extreme:
            seen = True
            if img != f:
                what = "the zero function" if f.extreme == "zero" else "the indicator of {0}"
                out.append(Violation(f"extreme-{f.extreme}", label, "", None,
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


def _datum(f: PLConvex1D, kind: str, name: str) -> float:
    """The datum a sample reads off ``f`` of ``kind``: support end or slope (a
    CorpusError naming ``name`` and the field if it is outside the float range)."""
    field, v = ("support end", f.domain_end) if kind == "indicator" else ("slope", f.first_slope)
    return _positive_float(v, f"{field} of {name}", CorpusError)


def _positive_float(v: Fraction, what: str, error: type) -> float:
    """float(v) of a positive ``v``; ``error`` naming ``what`` if it overflows or is 0."""
    try:
        x = float(v)
    except OverflowError:
        raise error(f"{what} is beyond the float range") from None
    if not x:
        raise error(f"{what} is below the float range")
    return x


# The paper's four exact transforms by `Corpus.base_images` name: the class each
# yields, its order sense and the kind of its indicator images (composed with A
# when reversing).  `classify`, `fit_sandwich` and the fuzz builder read them here.
_BASES = {
    "identity": (TransformClass.IDENTITY, "preserving", "indicator"),
    "gauge": (TransformClass.GAUGE, "preserving", "almost-linear"),
    "legendre": (TransformClass.REVERSING_LEGENDRE, "reversing", "almost-linear"),
    "a": (TransformClass.REVERSING_GEOMETRIC_DUAL, "reversing", "indicator"),
}
_CLASSES = {(sense, kind): cls for cls, sense, kind in _BASES.values()}
_REFERENCE_BASES = {cls: b for b, (cls, sense, _) in _BASES.items() if sense == "preserving"}
# the kind the ray images must take, given that of the indicator images
_RAY_KIND = {"indicator": "almost-linear", "almost-linear": "indicator"}


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
    ind, lin = _samples(t)  # a corpus error comes before any ratio matrix
    if sense is None:
        sense = _sense(t, k)
    els = t.corpus.elements
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
    phi = sorted((_datum(els[i], "indicator", labels[i]),
                  _datum(imgs[i], kind, "the image of " + labels[i])) for i in ind)
    violations: List[Violation] = []
    slopes: List[Tuple[float, float]] = []
    for i in lin:
        got = _image_kind(imgs[i], k)
        if got == expect:
            slopes.append((_datum(els[i], "almost-linear", labels[i]),
                           _datum(imgs[i], got, "the image of " + labels[i])))
        else:
            violations.append(Violation(
                "classification", labels[i], "", None,
                f"ray image should be {expect} for this class, got {got}"))
    label = TransformClass.INCONSISTENT if violations else _CLASSES[sense, kind]
    return report(label, violations, phi, sorted(slopes))


def _samples(t: CorpusTransform) -> Tuple[List[int], List[int]]:
    """Indices of the corpus's proper indicators and positive rays.

    A CorpusError unless the corpus and its images are all 1-d, with at
    least two of each: checked before the order sense is decided, so before
    any ratio matrix.
    """
    els = t.corpus.elements
    _require_kind(els, PLConvex1D, "classification requires a corpus of 1-d functions")
    _require_kind(t.images, PLConvex1D, "classification requires 1-d images")
    ind = [i for i, f in enumerate(els) if _proper_indicator(f)]
    lin = [i for i, f in enumerate(els) if _positive_linear(f)]
    if len(ind) < 2 or len(lin) < 2:
        raise CorpusError(
            "classification needs at least two indicators and two rays"
        )
    return ind, lin


# ---------------------------------------------------------------------------
# exponent recovery


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
    points: Sequence[Tuple[float, float, float]], pitch: float,
    window: Callable[[int], float], grid: str,
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """({j: v}, {j: x}) for samples (x, s, v) whose grid coordinate s lies
    within window(j) of j * pitch; ValueError otherwise or when two share a
    step j (the message names the caller's x)."""
    index: Dict[int, float] = {}
    keys: Dict[int, float] = {}
    for x, s, v in points:
        steps = s / pitch
        if not math.isfinite(steps):
            raise ValueError("abscissae span more grid steps than a float holds")
        j = round(steps)
        if abs(s - j * pitch) > window(j):
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
    def window(j: int) -> float:
        w = tolerance * max(1.0, abs(j))
        if 2 * w >= pitch:  # every abscissa would snap
            raise ValueError(f"snap tolerance {tolerance!r} at step {j} reaches "
                             f"half the multiplicative grid pitch {pitch!r}")
        return w

    index, _ = _grid_index(pts, pitch, window, "multiplicative")
    # the sample at |s| = pitch sits at step +-1, so a nonzero step exists
    j = min((j for j in index if j), key=lambda j: (j < 0, abs(j)))
    while 2 * j in index:
        j *= 2
    gamma = index[j] / (j * pitch)
    deviation = max(abs(h - gamma * s) for _, s, h in pts)
    return gamma, deviation


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
    for a gauge-like one (`Corpus.base_images`, shared with the fuzz builder).
    The dilation comes from the scaling-invariant support ratios
    Tf.domain_end / Bf.domain_end over the elements whose base is a proper
    indicator, exactly when those ratios agree exactly.
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
    bases = t.corpus.base_images(base)
    ratios = [Fraction(img.domain_end) / b.domain_end
              for b, img in zip(bases, imgs) if _proper_indicator(b)]
    if not ratios:
        raise ClassificationError("no support data to fit a dilation from")
    alpha = _geometric_mean_fraction(ratios)
    refs = [compose_dilate(b, alpha) for b in bases]

    extrema: List[Tuple[Fraction, Fraction]] = []
    violations: List[Violation] = []
    for f, img, ref, label in zip(els, imgs, refs, labels):
        if f.extreme:
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


def _jittered(
    seed: int, k: AlmostOrderConstant, corpus: Corpus, sources: Sequence,
    image: Callable, sense: str, provenance: str,
) -> CorpusTransform:
    """The transform f_i -> image(sources[i], kappa_i) with seeded jitter
    kappa, once no pair violates ``sense``; else a ConsistencyError naming
    the first failing condition and pair (the jitter band [C**-0.5, C**0.5]
    can reach across a corpus spaced finer than C)."""
    rng = random.Random(seed)
    half = 0.5 * math.log(float(k.ctilde)) * (1.0 - _JITTER_MARGIN)
    t = CorpusTransform(corpus, tuple(
        image(f, Fraction(math.exp(rng.uniform(-half, half)))) for f in sources
    ), provenance=provenance)
    if not _holds(t, k, sense):
        bad = next(_violations(t, k, sense))
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
    if base not in _BASES:
        raise ValueError(f"unknown base transform {base!r}")
    if corpus is None:
        corpus = geometric_corpus()
    _require_kind(corpus.elements, PLConvex1D, "fuzzing needs a corpus of 1-d functions")
    alpha = as_fraction(alpha)
    if alpha <= 0:
        raise ValueError("dilation must be positive")
    alpha_float = _positive_float(alpha, "dilation", ValueError)

    def image(img: PLConvex1D, kappa: Fraction) -> PLConvex1D:
        return scale(compose_dilate(img, alpha), kappa)

    return _jittered(seed, k, corpus, corpus.base_images(base), image, _BASES[base][1], (
        f"fuzz(base={base}, ctilde={float(k.ctilde)!r}, seed={seed}, "
        f"alpha={alpha_float!r}, corpus={corpus.description})"
    ))


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
    report = classify(t, k)
    sense = _sense(t, k)  # read off the thresholds `classify` cached
    violations: Tuple[Violation, ...] = ()
    if sense == "preserving":
        violations = check_inverse_conditions(t, k) + check_lattice_stability(t, k)
        if any(f.extreme for f in t.corpus.elements):
            violations = violations + check_extremes(t)
    elif sense is None:
        violations = check_almost_preserving(t, k) + check_almost_reversing(t, k)
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
    if report.classification in _REFERENCE_BASES:
        report = fit_sandwich(t, report)
    return report
