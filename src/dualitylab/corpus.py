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
that depend on it alone once: its exact ratio matrix and the closure of its
designations.

The ratio matrix decides most geometric pairs by support and zero set
alone.  If f <= c*g for a finite c, then dom f contains dom g and the zero
set [0, z_f] of f contains that of g; so the ratio sup f/g is +inf when
dom f < dom g or z_f < z_g, and exactly 0 when f vanishes on all of dom g.
Only the pairs these rules leave open walk their breakpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Tuple

from .exceptions import CorpusError
from .extremal import DeltaFunction, _delta_ratio, make_delta, make_indicator, make_linear
from .grid import GridFunction2D
from .pl import INF, ClassTag, PLConvex1D, hat_inf2, ratio_sup, sup2

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
    """Exact sup of f/g (see `pl.ratio_sup`) and a point where it is reached."""
    if isinstance(f, PLConvex1D) and isinstance(g, PLConvex1D):
        return ratio_sup(f, g)
    if isinstance(f, DeltaFunction) and isinstance(g, DeltaFunction):
        return _delta_ratio(f, g)
    if isinstance(f, GridFunction2D) and isinstance(g, GridFunction2D):
        return _grid_ratio(f, g)
    raise CorpusError(f"cannot compare {type(f).__name__} with {type(g).__name__}")


def _ratio_matrix(fs: Sequence) -> Tuple[Tuple[object, ...], ...]:
    """Exact sup f_i/f_j (see `_ratio_any`) for each ordered pair, None on
    the diagonal.

    A pair of geometric PL functions is first decided by its ends: with
    d the domain end and z the zero end, the entry is +inf when d_i < d_j
    (f_i = +inf where f_j is finite) or z_i < z_j (f_i > 0 at the knot z_j,
    where f_j = 0), and exactly 0 when z_i >= d_j (f_i = 0 on all of
    dom f_j); `ratio_sup` gives the same value on these pairs.  The ends are
    ranked once, by one sort of their distinct values, so each of these
    pairs costs integer compares; only the rest walk with `ratio_sup`.
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


@dataclass(frozen=True)
class Corpus:
    """Indexed family of functions with labels and designated lattice pairs.

    ``lattice_pairs`` holds (i, j, sup_index, inf_index) of 1-d functions:
    the corpus is closed under sup2/hat_inf2 for exactly these pairs.
    """

    elements: Tuple[object, ...]
    labels: Tuple[str, ...]
    description: str
    lattice_pairs: Tuple[Tuple[int, int, int, int], ...] = ()

    def __post_init__(self):
        if len(self.elements) != len(self.labels):
            raise ValueError("one label per element required")

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def R(self) -> Tuple[Tuple[object, ...], ...]:
        """Exact sup f_i/f_j for each ordered pair of distinct elements.

        Built by `_ratio_matrix`: geometric pairs split by support or zero
        set are +inf, pairs where f_i vanishes on dom f_j are 0, and only
        the rest walk their breakpoints."""
        return _ratio_matrix(self.elements)

    @cached_property
    def closed_lattice_pairs(self) -> Tuple[Tuple[int, int, int, int], ...]:
        """``lattice_pairs``, once each pair's sup2 and hat_inf2 equal its
        designated members (else a CorpusError naming the pair: a
        configuration error).  A comparable designation is checked the same
        way."""
        els, labels = self.elements, self.labels
        for i, j, s, m in self.lattice_pairs:
            if not (
                all(isinstance(els[n], PLConvex1D) for n in (i, j, s, m))
                and sup2(els[i], els[j]) == els[s] and hat_inf2(els[i], els[j]) == els[m]
            ):
                raise CorpusError(
                    f"designated lattice pair ({labels[i]}, {labels[j]}) is not "
                    "closed in the corpus, or not 1-d"
                )
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
