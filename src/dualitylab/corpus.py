"""Finite corpora the stability harness certifies over.

The default geometric corpus holds indicators and linear rays with
parameters on a powers-of-two grid, plus the two order extremes (the zero
function and the indicator of {0}).  The grid is multiplicative, closed
under squaring up to its cap (so exponents can be recovered by dyadic
doubling), and its adjacent ratio 2 keeps every strictly-separated corpus
pair separated by at least a factor 2, the largest constant the tests and
the benchmark certify at (nothing enforces a cap).

Lattice designations list pairs of 1-d functions whose join and meet are
themselves corpus members, as the lattice-stability checker requires.  A
comparable pair is its own join and meet, and the checker has nothing to
decide on it that the preserving condition does not, so the geometric
corpus designates no pairs; a corpus that needs the lattice rows designates
a pair whose join or meet is a new member.  A `Corpus` computes the facts
that depend on it alone once: its exact ratio matrix, the ordered pairs
f_i <= f_j read off it, the closure of its designations and the images
of its elements under each base transform.

The ratio matrix decides most geometric pairs by support and zero set
alone.  If f <= c*g for a finite c, then dom f contains dom g and the zero
set [0, z_f] of f contains that of g; so the ratio sup f/g is +inf when
dom f < dom g or z_f < z_g, and exactly 0 when f vanishes on all of dom g.
Only the pairs these rules leave open go to `ratio_sup`, which settles a pair
of rays by its slope quotient and walks the breakpoints of the rest; any other
pair takes the one comparison that `_ratio_any` maps its element kind to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from .exceptions import CorpusError
from .extremal import DeltaFunction, _delta_ratio, make_delta, make_indicator, make_linear
from .pl import INF, ClassTag, PLConvex1D, hat_inf2, ratio_sup, sup2
from .transforms import gauge_transform, geometric_dual, legendre

if TYPE_CHECKING:
    from .grid import GridFunction2D

EXPONENT_GRID = (-16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16)

_F0 = Fraction(0)


# ---------------------------------------------------------------------------
# exact pointwise ratios


def _grid_ratio(f: GridFunction2D, g: GridFunction2D) -> Tuple[object, object]:
    """Exact max of f/g over the nodes, with the `leq` conventions.

    Float division is correctly rounded, hence monotone, so the exact
    maximiser is among the nodes whose float ratio equals the float maximum;
    those are settled with Fractions.
    """
    import numpy as np
    if f.spec != g.spec:
        raise CorpusError("grid elements must share one lattice")
    a, b = f.values, g.values
    live = np.isfinite(b)
    cs = f.spec.coords
    blown = live & (np.isinf(a) | ((b == 0) & (a > 0)))
    if blown.any():
        ix, iy = np.argwhere(blown)[0]
        return INF, (float(cs[ix]), float(cs[iy]))
    pos = live & (a > 0)
    if not pos.any():
        return Fraction(0), None
    with np.errstate(over="ignore", under="ignore"):
        r = np.divide(a, b, out=np.zeros_like(a), where=pos)
    ties = map(tuple, np.argwhere(pos & (r == r[pos].max())))
    ix, iy = max(ties, key=lambda n: Fraction(a[n]) / Fraction(b[n]))
    return Fraction(a[ix, iy]) / Fraction(b[ix, iy]), (float(cs[ix]), float(cs[iy]))


def _ratio_any(f, g) -> Tuple[object, object]:
    """Exact sup of f/g (see `pl.ratio_sup`) and a point where it is reached,
    by the comparison of their common element kind.  `grid` is imported only
    for a kind outside the 1-d ones: no grid element exists before it is."""
    ratio = {PLConvex1D: ratio_sup, DeltaFunction: _delta_ratio}.get(type(f))
    if ratio is None:
        from .grid import GridFunction2D
        ratio = {GridFunction2D: _grid_ratio}.get(type(f))
    if ratio is None or type(g) is not type(f):
        raise CorpusError(f"cannot compare {type(f).__name__} with {type(g).__name__}")
    return ratio(f, g)


def _require_kind(fs: Sequence, kind: type, message: str) -> None:
    """A CorpusError with ``message`` unless every element of ``fs`` is a ``kind``."""
    if not all(isinstance(f, kind) for f in fs):
        raise CorpusError(message)


def _ratio_matrix(fs: Sequence) -> Tuple[Tuple[object, ...], ...]:
    """Exact sup f_i/f_j (see `_ratio_any`) for each ordered pair, None on
    the diagonal.

    A pair of geometric PL functions is first decided by its ends: with
    d the domain end and z the zero end, the entry is +inf when d_i < d_j
    (f_i = +inf where f_j is finite) or z_i < z_j (f_i > 0 at the knot z_j,
    where f_j = 0), and exactly 0 when z_i >= d_j (f_i = 0 on all of
    dom f_j); `ratio_sup` gives the same value on these pairs.  The ends are
    ranked once, by one sort of their distinct values, so each of these
    pairs costs integer compares; only the rest go to `ratio_sup`, where a
    ray pair is its slope quotient and any other pair walks.
    Any other pair goes through `_ratio_any`.
    """
    ends = [
        (f.domain_end, f.zero_end())
        if isinstance(f, PLConvex1D) and f.tag is ClassTag.GEOMETRIC else None
        for f in fs
    ]
    rank = {v: r for r, v in enumerate(sorted({v for e in ends if e for v in e}))}
    ranks = [None if e is None else (rank[e[0]], rank[e[1]]) for e in ends]
    rows = []
    for i, f in enumerate(fs):
        row = []
        ri = ranks[i]
        for j, g in enumerate(fs):
            rj = ranks[j]
            if i == j:
                row.append(None)
            elif ri is None or rj is None:
                row.append(_ratio_any(f, g)[0])
            elif ri[0] < rj[0] or ri[1] < rj[1]:
                row.append(INF)
            elif ri[1] >= rj[0]:
                row.append(_F0)
            else:
                row.append(ratio_sup(f, g)[0])
        rows.append(tuple(row))
    return tuple(rows)


def _leq_pairs(R: Sequence[Sequence[object]]) -> Tuple[Tuple[int, int], ...]:
    """The ordered pairs (i, j) whose ratio entry R[i][j] is at most 1.  An
    entry is a Fraction, the float +inf, or None on the diagonal."""
    return tuple((i, j) for i, row in enumerate(R) for j, r in enumerate(row)
                 if type(r) is Fraction and r.numerator <= r.denominator)


@dataclass(frozen=True)
class Corpus:
    """Indexed family of functions with labels and designated lattice pairs.

    ``lattice_pairs`` holds (i, j, sup_index, inf_index) of 1-d functions:
    the corpus is closed under sup2/hat_inf2 for exactly these pairs.  One
    label per element and indices into ``elements`` (else ValueError).
    """

    elements: Tuple[object, ...]
    labels: Tuple[str, ...]
    description: str
    lattice_pairs: Tuple[Tuple[int, int, int, int], ...] = ()

    def __post_init__(self):
        if len(self.elements) != len(self.labels):
            raise ValueError("one label per element required")
        if any(not 0 <= i < len(self) for p in self.lattice_pairs for i in p):
            raise ValueError("lattice pair index out of range")

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def R(self) -> Tuple[Tuple[object, ...], ...]:
        """Exact sup f_i/f_j for each ordered pair of distinct elements.

        Built by `_ratio_matrix`: geometric pairs split by support or zero
        set are +inf, pairs where f_i vanishes on dom f_j are 0, and only
        the rest go to `ratio_sup` (a ray pair is its slope quotient)."""
        return _ratio_matrix(self.elements)

    @cached_property
    def leq_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """The ordered pairs with f_i <= f_j, read off `R`: the only pairs the
        preserving and reversing conditions constrain."""
        return _leq_pairs(self.R)

    def base_images(self, base: str) -> Tuple[object, ...]:
        """B f of each element for the fuzz base B named ``base`` ("identity",
        "gauge" J, "legendre" L or "a" A), built when first read."""
        built = self.__dict__.setdefault("_base_images", {"identity": self.elements})
        if base not in built:
            op = {"gauge": gauge_transform, "legendre": legendre, "a": geometric_dual}[base]
            built[base] = tuple(map(op, self.elements))
        return built[base]

    @cached_property
    def closed_lattice_pairs(self) -> Tuple[Tuple[int, int, int, int], ...]:
        """``lattice_pairs``, once each pair's sup2 and hat_inf2 equal its
        designated members (else a CorpusError naming the pair: a
        configuration error).  A comparable designation is checked the same
        way."""
        els, labels = self.elements, self.labels
        for i, j, s, m in self.lattice_pairs:
            message = (f"designated lattice pair ({labels[i]}, {labels[j]}) is not "
                       "closed in the corpus, or not 1-d")
            _require_kind([els[n] for n in (i, j, s, m)], PLConvex1D, message)
            if sup2(els[i], els[j]) != els[s] or hat_inf2(els[i], els[j]) != els[m]:
                raise CorpusError(message)
        return self.lattice_pairs


def geometric_corpus(exponents: Sequence[int] = EXPONENT_GRID) -> Corpus:
    """Indicators and linear rays on the 2**j grid, plus both extremes.

    Every pair of its members is comparable or has a join or meet outside
    it, so it designates no lattice pairs."""
    elements = []
    labels = []
    zs = [Fraction(2) ** j for j in exponents]
    for j, z in zip(exponents, zs):
        elements.append(make_indicator(z))
        labels.append(f"indicator[0,2^{j}]")
    for j, a in zip(exponents, zs):
        elements.append(make_linear(a))
        labels.append(f"linear 2^{j}*x")
    elements += [make_indicator(INF), make_indicator(0)]
    labels += ["zero", "point{0}"]
    return Corpus(
        tuple(elements),
        tuple(labels),
        f"geometric powers-of-two corpus, exponents {tuple(exponents)}",
    )


DELTA_POINTS_1D = (0.0, 1.0, 2.0, 3.0)
DELTA_POINTS_2D = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, 1.0), (1.0, 2.0))
DELTA_VALUES = (0.0, 0.5, 1.0, 2.0)


def delta_corpus(
    points: Optional[Sequence] = None, values: Sequence[float] = DELTA_VALUES
) -> Corpus:
    """Pinned-point functions on a point/value grid (no lattice closure)."""
    if points is None:
        points = DELTA_POINTS_1D
    elements = []
    labels = []
    for theta in points:
        for c in values:
            elements.append(make_delta(theta, c))
            labels.append(f"delta(theta={theta}, c={c})")
    return Corpus(
        tuple(elements),
        tuple(labels),
        f"pinned-point corpus, {len(points)} points x {len(values)} values",
    )
