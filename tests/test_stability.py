import dataclasses
import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

import dualitylab.corpus
import dualitylab.pl
import dualitylab.stability
from dualitylab import (
    INF,
    AlmostOrderConstant,
    ClassificationError,
    ClassTag,
    ConsistencyError,
    Corpus,
    CorpusError,
    CorpusTransform,
    GridFunction2D,
    GridSpec,
    HypothesisViolationError,
    PLConvex1D,
    StabilityReport,
    TransformClass,
    Violation,
    analyze,
    check_almost_preserving,
    check_almost_reversing,
    check_delta_structure,
    check_extremes,
    check_inverse_conditions,
    check_lattice_stability,
    classify,
    compose_dilate,
    delta_corpus,
    dump_json,
    estimate_exponent,
    fit_sandwich,
    fuzz_delta_transform,
    fuzz_transform,
    gauge_transform,
    geometric_corpus,
    geometric_dual,
    hat_inf2,
    hyers_ulam_approx,
    legendre,
    make_delta,
    make_indicator,
    make_linear,
    make_triangle,
    report_to_obj,
    scale,
    sup2,
    verify_ray_mapping,
)
from dualitylab.corpus import _ratio_matrix
from dualitylab.grid import hat_inf2_grid, sup2_grid

from helpers import (
    random_geometric,
    random_geometric_grid,
    random_nonnegative,
    reference_analyze,
    reference_check_almost_preserving,
    reference_check_almost_reversing,
    reference_check_inverse_conditions,
    reference_check_lattice_stability,
    reference_classify_at,
    reference_closed_lattice_pairs,
    reference_estimate_exponent,
    reference_fit_sandwich,
    reference_fuzz_delta_transform,
    reference_fuzz_transform,
    reference_geometric_corpus,
    reference_hyers_ulam_approx,
    reference_ratio_extrema,
    reference_ratio_matrix,
    reference_ratio_sup,
)

K15 = AlmostOrderConstant(Fraction(3, 2))
K2 = AlmostOrderConstant(2)


def identity_transform(corpus=None):
    corpus = corpus or geometric_corpus()
    return CorpusTransform(corpus, corpus.elements, provenance="identity")


class TestAlmostOrderConstant:
    def test_requires_excess(self):
        for bad in (1, Fraction(1), 0.5, 0):
            with pytest.raises(ValueError):
                AlmostOrderConstant(bad)

    def test_exact_arithmetic(self):
        k = AlmostOrderConstant(1.5)
        assert k.ctilde == Fraction(3, 2)
        assert k.reciprocal == Fraction(2, 3)
        assert k.power(3) == Fraction(27, 8)

    def test_reciprocal_is_computed_once(self):
        k = AlmostOrderConstant(Fraction(3, 2))
        assert k.reciprocal is k.reciprocal
        assert k == AlmostOrderConstant(Fraction(3, 2)) and hash(k) == hash(
            AlmostOrderConstant(Fraction(3, 2)))


class TestOrderCheckers:
    def test_identity_is_clean(self):
        t = identity_transform()
        assert check_almost_preserving(t, K15) == ()
        assert check_inverse_conditions(t, K15) == ()
        assert check_lattice_stability(t, K15) == ()
        assert check_extremes(t) == ()

    def test_swapped_images_violate(self):
        wide, narrow = make_indicator(2), make_indicator(1)
        corpus = Corpus((wide, narrow), ("wide", "narrow"), "two indicators", ())
        t = CorpusTransform(corpus, (narrow, wide))
        bad = check_almost_preserving(t, K2)
        assert bad
        v = bad[0]
        assert v.condition in ("preserving-a", "preserving-b")
        assert {v.f_label, v.g_label} == {"wide", "narrow"}
        assert v.witness is not None and 1 < v.witness <= 2

    def test_reversal_detected_exactly(self):
        corpus = geometric_corpus()
        t = CorpusTransform(corpus, tuple(legendre(f) for f in corpus.elements))
        assert check_almost_reversing(t, K15) == ()
        assert check_almost_preserving(t, K15)  # order actually reverses

    def test_inverse_conditions_catch_collapse(self):
        wide, narrow = make_indicator(8), make_indicator(1)
        corpus = Corpus((wide, narrow), ("wide", "narrow"), "two indicators", ())
        # both map to the same image: order of images no longer sees the gap
        t = CorpusTransform(corpus, (narrow, narrow))
        bad = check_inverse_conditions(t, K2)
        assert any(v.condition == "inverse-a" for v in bad)

    def test_lattice_designation_must_close(self):
        f, g = make_indicator(1), make_linear(1)
        s, h = sup2(f, g), hat_inf2(f, g)
        corpus = Corpus(
            (f, g, s, h), ("f", "g", "s", "h"), "quad", ((0, 1, 2, 3),)
        )
        t = identity_transform(corpus)
        assert check_lattice_stability(t, K15) == ()
        wrong = Corpus((f, g, s, h), ("f", "g", "s", "h"), "quad", ((0, 1, 3, 2),))
        with pytest.raises(CorpusError):
            check_lattice_stability(identity_transform(wrong), K15)

    def test_lattice_violation_when_images_break_chain(self):
        f, g = make_indicator(1), make_linear(1)
        s, h = sup2(f, g), hat_inf2(f, g)
        corpus = Corpus((f, g, s, h), ("f", "g", "s", "h"), "quad", ((0, 1, 2, 3),))
        # send the sup to something far too large
        t = CorpusTransform(corpus, (f, g, scale(s, 100), h))
        bad = check_lattice_stability(t, K15)
        assert any(v.condition == "lattice-sup-lower" for v in bad)

        # an incomparable designation in the default corpus: the images'
        # sup2/hat_inf2 are built inside the checker, and a sup image too
        # large by C**3 breaks only the lattice condition, not the order
        base = geometric_corpus()
        tri = make_triangle(2, Fraction(1, 2))
        meet = PLConvex1D(((0, 0), (2, 0)), Fraction(1, 2))  # max(0, (x - 2)/2)
        labels = base.labels + ("triangle", "meet")
        quad = tuple(labels.index(name) for name in
                     ("indicator[0,2^1]", "linear 2^-1*x", "triangle", "meet"))
        corpus = Corpus(base.elements + (tri, meet), labels, "with an incomparable pair",
                        base.lattice_pairs + (quad,))
        assert hat_inf2(corpus.elements[quad[0]], corpus.elements[quad[1]]) == meet
        for T in (lambda e: e, gauge_transform):
            images = [T(e) for e in corpus.elements]
            t = CorpusTransform(corpus, tuple(images))
            assert check_almost_preserving(t, K15) == ()
            assert check_lattice_stability(t, K15) == ()
            images[quad[2]] = scale(images[quad[2]], K15.ctilde ** 3)
            t = CorpusTransform(corpus, tuple(images))
            assert check_almost_preserving(t, K15) == ()
            bad = check_lattice_stability(t, K15)
            assert [v.condition for v in bad] == ["lattice-sup-lower"]

    def test_extremes(self):
        corpus = geometric_corpus()
        i_zero = corpus.labels.index("zero")
        images = list(corpus.elements)
        images[i_zero] = make_indicator(5)
        bad = check_extremes(CorpusTransform(corpus, tuple(images)))
        assert [v.condition for v in bad] == ["extreme-zero"]
        images[corpus.labels.index("point{0}")] = make_indicator(1)
        bad = check_extremes(CorpusTransform(corpus, tuple(images)))
        assert [v.condition for v in bad] == ["extreme-zero", "extreme-point"]
        assert bad[1] == Violation("extreme-point", "point{0}", "", None,
                                   "image of the indicator of {0} differs from it")
        no_ext = Corpus((make_indicator(1),), ("i",), "bare", ())
        with pytest.raises(CorpusError):
            check_extremes(identity_transform(no_ext))
        with pytest.raises(CorpusError, match="^corpus lacks the order extremes$"):
            check_extremes(identity_transform(delta_corpus()))


class TestCheckerDifferential:
    """The table-driven checkers against the per-pair `leq` loops they replaced."""

    PAIRS = (
        (check_almost_preserving, reference_check_almost_preserving),
        (check_almost_reversing, reference_check_almost_reversing),
        (check_inverse_conditions, reference_check_inverse_conditions),
    )
    KS = tuple(AlmostOrderConstant(c) for c in (Fraction(11, 10), Fraction(3, 2), 2))

    def _agree(self, t):
        for k in self.KS:
            for check, reference in self.PAIRS:
                assert check(t, k) == reference(t, k), (check.__name__, k)

    @staticmethod
    def _pl_transform(rng):
        # scaled copies of a few bases, so that many pairs are comparable
        bases = [random_geometric(rng, max_knots=6) for _ in range(rng.randint(1, 3))]
        els = []
        for _ in range(rng.randint(2, 9)):
            f = rng.choice(bases) if rng.random() < 0.85 else random_geometric(rng)
            lam = Fraction(rng.choice((1, 2, 3, 4, 6)), rng.randint(1, 4))
            els.append(scale(f, lam))
        mode = rng.choice(("scaled", "legendre", "dilated", "random"))
        imgs = []
        for f in els:
            if mode == "legendre":
                f = legendre(f)
            elif mode == "dilated":
                f = compose_dilate(f, Fraction(rng.randint(1, 6), rng.randint(1, 6)))
            elif mode == "random":
                f = random_geometric(rng, max_knots=6)
            imgs.append(scale(f, Fraction(rng.randint(50, 200), 100)))
        corpus = Corpus(tuple(els), tuple(f"e{i}" for i in range(len(els))), mode, ())
        return CorpusTransform(corpus, tuple(imgs))

    def test_random_pl_corpora(self):
        rng = random.Random(23)
        found = 0
        for _ in range(150):
            t = self._pl_transform(rng)
            self._agree(t)
            found += bool(check_almost_preserving(t, K15))
        assert 20 <= found <= 130  # both verdicts occur

    def test_moved_and_rescaled_pins(self):
        rng = random.Random(29)
        corpus = delta_corpus()
        for _ in range(60):
            imgs = tuple(
                make_delta(
                    f.theta + (rng.choice((1.0, -1.0)) if rng.random() < 0.1 else 0.0),
                    (f.c or rng.choice((0.0, 0.0, 0.5))) * rng.uniform(0.4, 2.5),
                )
                for f in corpus.elements
            )
            self._agree(CorpusTransform(corpus, imgs))

    def test_ratio_matrices_are_computed_once(self, monkeypatch):
        calls = _counting(monkeypatch, dualitylab.stability, "_thresholds")
        t = fuzz_transform(3, K15, base="identity")
        r_src, r_img, pairs, thresholds = t.corpus.R, t.R_img, t.corpus.leq_pairs, t.thresholds
        for k in (K15, K2):
            for check in (check_almost_preserving, check_almost_reversing,
                          check_inverse_conditions):
                check(t, k)
        analyze(t, K15)
        assert t.corpus.R is r_src and t.R_img is r_img
        assert t.corpus.leq_pairs is pairs and t.thresholds is thresholds
        assert len(calls) == 3  # one per pair condition

    def test_threshold_rows_are_computed_when_read(self, monkeypatch):
        # the fuzz certifies its own sense; a reversing analyze then reads the
        # preserving row (which fails) but never the inverse row
        read = []
        thresholds = dualitylab.stability._thresholds
        monkeypatch.setattr(dualitylab.stability, "_thresholds",
                            lambda t, condition: read.append(condition) or thresholds(t, condition))
        for base, sense, rows in (("legendre", "reversing", ["reversing", "preserving"]),
                                  ("a", "reversing", ["reversing", "preserving"]),
                                  ("identity", "preserving", ["preserving", "inverse"])):
            read.clear()
            t = fuzz_transform(5, K15, base=base)
            assert read == [sense], base
            assert analyze(t, K15).certified, base
            assert read == rows and list(t._rows) == rows, base

    def test_gauge_base_images_are_built_once_per_corpus(self, monkeypatch):
        corpus = geometric_corpus((-4, -2, -1, 1, 2, 4))
        ops = ("gauge_transform", "legendre", "geometric_dual")
        calls = {op: _counting(monkeypatch, dualitylab.corpus, op) for op in ops}
        for base in ("identity", "gauge", "legendre", "a"):
            for n in (1, 2):
                t = fuzz_transform(n, K15, base=base, corpus=corpus)
                if base in ("identity", "gauge"):
                    rep = fit_sandwich(t, classify(t, K15))
                    assert rep.classification.value == base and rep.certified
        # two fuzzes and two fits of each base build its images once
        assert {op: len(c) for op, c in calls.items()} == dict.fromkeys(ops, len(corpus))
        assert corpus.base_images("identity") is corpus.elements


def _swapped(t, i, j, copy=False):
    """``t`` with the images of elements i and j exchanged, or with j's image
    copied onto i."""
    imgs = list(t.images)
    imgs[i], imgs[j] = imgs[j], imgs[j if copy else i]
    return CorpusTransform(t.corpus, tuple(imgs), t.provenance)


def _powered(f, p):
    """``f`` with the slope s of each piece and of the tail raised to s**p:
    a -> a**p on rays, triangles and meets, indicators and extremes fixed."""
    knots = [f.knots[0]]
    for (x, _), (y, _), s in zip(f.knots, f.knots[1:], f.slopes):
        knots.append((y, knots[-1][1] + s**p * (y - x)))
    tail = f.tail_slope if f.tail_slope == INF else f.tail_slope**p
    return PLConvex1D(tuple(knots), tail)


def _coupling_transform(p):
    """a -> a**p on a corpus of indicators, rays, and every triangle and meet
    of the two, at exponents -1, 0 and 1 (26 elements)."""
    exponents = (-1, 0, 1)
    corpus = _with_triangles(geometric_corpus(exponents),
                             [(j, k) for j in exponents for k in exponents])
    return CorpusTransform(corpus, tuple(_powered(f, p) for f in corpus.elements),
                           f"a -> a**{p}")


class TestThresholds:
    """Each pair condition decided by its exact thresholds Ta and Tb against
    the pair scan `_violations` that lists its violations."""

    CONDITIONS = ("preserving", "reversing", "inverse")
    CHECKS = (check_almost_preserving, check_almost_reversing, check_inverse_conditions)
    REFERENCES = (reference_check_almost_preserving, reference_check_almost_reversing,
                  reference_check_inverse_conditions)
    EPS = Fraction(1, 10**12)

    @staticmethod
    def _transforms():
        """Seeded fuzzes of every base at every C over the 24- and 48-element
        geometric corpora, pinned-point fuzzes and the coupling transform,
        each as built, with two neighbouring images swapped, and with two
        neighbouring rays' images swapped (a pair at a finite ratio) or made
        equal (a pair at ratio exactly 1)."""
        rng = random.Random(71)
        built = []
        for corpus in (geometric_corpus(), geometric_corpus(range(-33, 34, 3))):
            for n in range(12):
                base = ("identity", "gauge", "legendre", "a")[n % 4]
                k = TestCheckerDifferential.KS[n % 3]
                built.append(fuzz_transform(n, k, base=base, corpus=corpus))
        for n, point_map in enumerate((lambda th: 2.0 * th + 1.0, lambda th: th * th)):
            built.append(fuzz_delta_transform(n, K15, point_map))
        built.append(_coupling_transform(2))
        for t in built:
            rays = [i for i, label in enumerate(t.corpus.labels)
                    if label.startswith(("linear", "delta(theta=1.0"))]
            i, r = rng.randrange(len(t) - 1), rng.choice(rays[:-1])
            yield from (t, _swapped(t, i, i + 1), _swapped(t, r, r + 1),
                        _swapped(t, r, r + 1, copy=True))

    def test_thresholds_decide_like_the_scan(self):
        holds, violations = dualitylab.stability._holds, dualitylab.stability._violations
        seen = Counter()
        for n, t in enumerate(self._transforms()):
            for condition in self.CONDITIONS:
                ta, tb = t.thresholds[condition]
                seen["inf"] += INF in (ta, tb)
                cs = {Fraction(11, 10), Fraction(3, 2), Fraction(2)}
                for th in (ta, tb):
                    if th != INF:
                        cs.update(c for c in (th, th * (1 - self.EPS), th * (1 + self.EPS))
                                  if c > 1)
                for c in sorted(cs):
                    k = AlmostOrderConstant(c)
                    ok = holds(t, k, condition)
                    assert ok == (next(violations(t, k, condition), None) is None), (
                        n, condition, c)
                    # at C = Ta part a holds, at C = Tb part b fails; count the
                    # cases where that part alone decides the verdict
                    seen["a binds"] += c == ta and tb < ta and ok
                    seen["b binds"] += c == tb and ta <= tb and not ok
        assert seen["inf"] and seen["a binds"] and seen["b binds"], seen

    def test_failing_checks_list_the_scan(self):
        violations = dualitylab.stability._violations
        rng = random.Random(73)
        corpus = geometric_corpus()
        cases = [_coupling_transform(2)]
        for n, base in enumerate(("identity", "gauge", "legendre", "a")):
            t = fuzz_transform(n, K15, base=base, corpus=corpus)
            cases.append(_swapped(t, *rng.sample(range(len(t)), 2)))
        failed = Counter()
        for t in cases:
            for k in TestCheckerDifferential.KS:
                for condition, check, reference in zip(
                        self.CONDITIONS, self.CHECKS, self.REFERENCES):
                    got = check(t, k)
                    assert got == tuple(violations(t, k, condition)) == reference(t, k)
                    failed[condition] += bool(got)
                report = dump_json(report_to_obj(analyze(t, k)))
                assert report == dump_json(report_to_obj(reference_analyze(t, k)))
        assert min(failed.values()) >= 3, failed

    def test_self_check_names_the_first_violation(self):
        # a corpus holding indicators, their triangles with a ray and the
        # meets: J and the Legendre transform take an indicator and its
        # triangle, a pair at ratio 0, to a pair at ratio 1, so gauge and
        # Legendre fuzzes fail part b of their own certification
        exponents = (-4, -2, -1, 0, 1, 2, 4)
        corpus = _with_triangles(geometric_corpus(exponents), ((1, -4), (-1, 4)))
        raised = Counter()
        for base in ("identity", "gauge", "legendre"):
            for k in TestCheckerDifferential.KS:
                for seed in range(4):
                    args = (seed, k, base, 1, corpus)
                    got = _outcome(fuzz_transform, *args)
                    assert got == _outcome(reference_fuzz_transform, *args), args
                    raised[base] += isinstance(got, tuple) and got[0] is ConsistencyError
        assert raised["gauge"] == raised["legendre"] == 12 > raised["identity"], raised


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls in a list."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestRatioMatrixRanks:
    """The ranked ratio matrix against `_ratio_any` on every ordered pair."""

    ENDS = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
    CORPORA = (geometric_corpus(), geometric_corpus(range(-33, 34, 3)))

    @classmethod
    def _geometric(cls, rng, pool):
        roll = rng.random()
        if pool and roll < 0.3:  # a scaled or dilated copy shares ends or zero ends
            f = rng.choice(pool)
            q = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
            return scale(f, q) if roll < 0.15 else compose_dilate(f, q)
        if roll < 0.45:
            return make_indicator(rng.choice(cls.ENDS + (0, INF)))
        if roll < 0.55:
            return make_linear(rng.choice(cls.ENDS + (0,)))
        g = random_geometric(rng, max_knots=5)
        if roll < 0.75:  # zero on [0, z], then g shifted right by z
            z = rng.choice(cls.ENDS)
            return PLConvex1D(((0, 0),) + tuple((z + x, v) for x, v in g.knots),
                              g.tail_slope)
        return g

    @classmethod
    def _elements(cls, rng):
        n = rng.randint(2, 8)
        roll = rng.random()
        if roll < 0.05:
            return [make_delta(float(rng.randint(0, 2)), rng.choice((0.0, 0.5, 1.0, 2.0)))
                    for _ in range(n)]
        if roll < 0.08:
            g = random_geometric_grid(rng)
            return [GridFunction2D(g.spec, g.values * rng.choice((0.5, 1.0, 3.0)))
                    for _ in range(n)]
        pool = []
        for _ in range(n):
            if roll < 0.2 and rng.random() < 0.4:
                pool.append(random_nonnegative(rng, max_knots=5))
            else:
                pool.append(cls._geometric(rng, pool))
        if 0.2 <= roll < 0.22:  # a 1-d list with a pin in it cannot be compared
            pool.insert(rng.randrange(n), make_delta(0.0, 1.0))
        return pool

    @staticmethod
    def _outcome(build, fs):
        try:
            return [[(type(r), r) for r in row] for row in build(fs)]
        except CorpusError as exc:
            return f"CorpusError: {exc}"

    def test_matches_every_pair_walk(self):
        rng = random.Random(61)
        rules = Counter()
        for n in range(2000):
            fs = self._elements(rng)
            got = self._outcome(_ratio_matrix, fs)
            assert got == self._outcome(reference_ratio_matrix, fs), n
            geo = [f for f in fs if isinstance(f, PLConvex1D) and f.tag is ClassTag.GEOMETRIC]
            for f, g in permutations(geo, 2):
                if f.domain_end < g.domain_end:
                    rules["domain"] += 1
                elif f.zero_end() < g.zero_end():
                    rules["zero set"] += 1
                elif f.zero_end() >= g.domain_end:
                    rules["vanishes"] += 1
                else:
                    rules["walk"] += 1
            rules.update({f.tag.value if isinstance(f, PLConvex1D) else type(f).__name__
                          for f in fs})
            rules["error"] += isinstance(got, str)
        assert min(rules.values()) >= 20, rules

    @pytest.mark.parametrize("corpus", CORPORA, ids=("n24", "n48"))
    def test_analyze_reports_are_unchanged(self, monkeypatch, corpus):
        with monkeypatch.context() as m:
            m.setattr(dualitylab.corpus, "_ratio_matrix", reference_ratio_matrix)
            m.setattr(dualitylab.stability, "_ratio_matrix", reference_ratio_matrix)
            old_corpus = Corpus(corpus.elements, corpus.labels, corpus.description,
                                corpus.lattice_pairs)
            old_corpus.R
        assert corpus.R == old_corpus.R
        for k in TestCheckerDifferential.KS:
            for base in ("identity", "gauge", "legendre", "a"):
                for seed in range(10):
                    t = fuzz_transform(seed, k, base=base, corpus=corpus)
                    got = dump_json(report_to_obj(analyze(t, k)))
                    with monkeypatch.context() as m:
                        m.setattr(dualitylab.stability, "_ratio_matrix",
                                  reference_ratio_matrix)
                        old = fuzz_transform(seed, k, base=base, corpus=old_corpus)
                        want = dump_json(report_to_obj(analyze(old, k)))
                    assert got == want, (k, base, seed)

    @pytest.mark.parametrize("corpus", CORPORA, ids=("n24", "n48"))
    def test_analyze_reports_match_the_walk(self, monkeypatch, corpus):
        """The ray closed form in `ratio_sup` against the candidate scan:
        with `reference_ratio_sup` in every module that reads `ratio_sup`,
        each report is byte-identical, failing ones and their witnesses too
        (two images swapped at random, two neighbouring rays swapped, one
        ray's image copied onto its neighbour)."""
        rays = [i for i, label in enumerate(corpus.labels) if label.startswith("linear")]

        def reports(corpus):
            rng = random.Random(83)
            out = []
            for k in TestCheckerDifferential.KS:
                for base in ("identity", "gauge", "legendre", "a"):
                    for seed in range(3):
                        t = fuzz_transform(seed, k, base=base, corpus=corpus)
                        r = rng.choice(rays[:-1])
                        for case in (t, _swapped(t, *rng.sample(range(len(t)), 2)),
                                     _swapped(t, r, r + 1), _swapped(t, r, r + 1, copy=True)):
                            out.append(dump_json(report_to_obj(analyze(case, k))))
            return out

        got = reports(corpus)
        with monkeypatch.context() as m:
            for module in (dualitylab.pl, dualitylab.corpus, dualitylab.stability):
                m.setattr(module, "ratio_sup", reference_ratio_sup)
            want = reports(Corpus(corpus.elements, corpus.labels, corpus.description,
                                  corpus.lattice_pairs))
        assert got == want
        assert sum('"certified": false' in r for r in got) >= len(got) // 2

    def test_fuzz_ratio_matrix_walks_no_breakpoints(self, monkeypatch):
        # the rank rules leave only ray pairs open in R_img, and those are
        # settled by their slope quotient
        corpus = self.CORPORA[1]
        corpus.R
        walks = _counting(monkeypatch, dualitylab.pl, "_breakpoints")
        for base in ("identity", "gauge", "legendre", "a"):
            corpus.base_images(base)
            del walks[:]
            fuzz_transform(1, K15, base=base, corpus=corpus)  # builds R_img
            assert walks == [], base

    def test_grid_pair_split_by_support(self):
        # a disc indicator is +inf off the disc, where |x| + |y| is finite,
        # and |x| + |y| is positive where the disc indicator is 0
        disc = GridFunction2D.from_function(
            lambda x, y: 0.0 if x * x + y * y <= 4 else INF, R=2.0, N=9)
        l1 = GridFunction2D.from_function(lambda x, y: abs(x) + abs(y), R=2.0, N=9)
        assert dualitylab.corpus._grid_ratio(disc, l1) == (INF, (-2.0, -2.0))
        assert dualitylab.corpus._grid_ratio(l1, disc) == (INF, (-2.0, 0.0))
        assert Corpus((disc, l1), ("disc", "l1"), "grids").R == ((None, INF), (INF, None))

    def test_grids_on_two_lattices_are_rejected(self):
        fine = GridFunction2D.from_function(lambda x, y: abs(x) + abs(y), R=2.0, N=9)
        coarse = GridFunction2D.from_function(lambda x, y: abs(x) + abs(y), R=2.0, N=5)
        with pytest.raises(CorpusError, match="^grid elements must share one lattice$"):
            Corpus((fine, coarse), ("fine", "coarse"), "two lattices").R

    def test_pinned_walk_counts(self, monkeypatch):
        corpus = self.CORPORA[1]
        corpus.R
        calls = _counting(monkeypatch, dualitylab.corpus, "ratio_sup")
        for base in ("identity", "gauge", "legendre", "a"):
            del calls[:]
            fuzz_transform(1, K15, base=base, corpus=corpus)  # builds R_img
            assert len(calls) == 506, base
        del calls[:]
        geometric_corpus().R
        assert len(calls) == 110  # the ray pairs


class TestLatticeDifferential:
    """The matrix reads of lattice stability against the per-pair `leq` loop."""

    KS = TestCheckerDifferential.KS

    @staticmethod
    def _lattice_transform(rng):
        # a few random functions, their joins and meets, and designations of
        # comparable and incomparable pairs
        els = [random_geometric(rng, max_knots=5) for _ in range(rng.randint(2, 6))]
        n = len(els)
        pairs = []
        for _ in range(rng.randint(1, 4)):
            i, j = rng.randrange(n), rng.randrange(n)
            members = []
            for h in (sup2(els[i], els[j]), hat_inf2(els[i], els[j])):
                if h not in els:
                    els.append(h)
                members.append(els.index(h))
            pairs.append((i, j, *members))
        mode = rng.choice(("scaled", "legendre", "dilated", "random"))
        imgs = []
        for f in els:
            if mode == "legendre":
                f = legendre(f)
            elif mode == "dilated":
                f = compose_dilate(f, Fraction(rng.randint(1, 6), rng.randint(1, 6)))
            elif mode == "random":
                f = random_geometric(rng, max_knots=5)
            lam = rng.choice((1, 1, 1, 4, Fraction(1, 4),
                              Fraction(rng.randint(50, 200), 100)))
            imgs.append(scale(f, lam))
        corpus = Corpus(tuple(els), tuple(f"e{i}" for i in range(len(els))),
                        mode, tuple(pairs))
        return CorpusTransform(corpus, tuple(imgs))

    @staticmethod
    def _join_and_meet_rows(t, k):
        """The four-row reference, in its order, without the two member rows."""
        return tuple(v for v in reference_check_lattice_stability(t, k)
                     if v.condition in ("lattice-sup-lower", "lattice-inf-upper"))

    def test_random_pl_corpora(self):
        rng = random.Random(43)
        seen = set()
        incomparable = 0
        for _ in range(150):
            t = self._lattice_transform(rng)
            incomparable += any(
                s not in (i, j) or m not in (i, j)
                for i, j, s, m in t.corpus.lattice_pairs
            )
            for k in self.KS:
                got = check_lattice_stability(t, k)
                assert got == self._join_and_meet_rows(t, k), k
                seen.update(v.condition for v in got)
        assert incomparable >= 50
        assert seen == {c for c, _ in dualitylab.stability._LATTICE_CONDITIONS}

    def test_scaled_join_and_meet_images(self):
        f, g = make_indicator(2), make_linear(Fraction(1, 2))
        els = (f, g, sup2(f, g), hat_inf2(f, g))
        corpus = Corpus(els, ("f", "g", "s", "m"), "quad", ((0, 1, 2, 3),))
        seen = set()
        for n in range(4):
            for p in range(-3, 4):
                imgs = list(els)
                imgs[n] = scale(els[n], K15.power(p))
                t = CorpusTransform(corpus, tuple(imgs))
                for k in self.KS:
                    got = check_lattice_stability(t, k)
                    assert got == self._join_and_meet_rows(t, k), (n, p)
                    seen.update((n, v.condition) for v in got)
        # a scaled indicator is the same indicator; each row fails when its
        # member's image or the ray's image is scaled far enough
        assert seen == {(1, "lattice-sup-lower"), (1, "lattice-inf-upper"),
                        (2, "lattice-sup-lower"), (3, "lattice-inf-upper")}

    def test_member_rows_follow_from_preserving_part_a(self):
        # a closed designation orders f_a <= f_s and f_m <= f_a for a in the
        # pair, so each member row the reference reports is a preserving-a
        # violation on (a, s) or (m, a), and dropping those rows loses nothing
        rng = random.Random(71)
        found = 0
        for _ in range(300):
            t = self._lattice_transform(rng)
            els, labels = t.corpus.elements, t.corpus.labels
            for k in self.KS:
                part_a = {(v.f_label, v.g_label) for v in check_almost_preserving(t, k)
                          if v.condition == "preserving-a"}
                for i, j, s, m in t.corpus.lattice_pairs:
                    one = CorpusTransform(
                        Corpus(els, labels, "one designation", ((i, j, s, m),)), t.images)
                    for v in reference_check_lattice_stability(one, k):
                        if v.condition == "lattice-sup-upper":
                            pairs = [(labels[a], labels[s]) for a in (i, j)]
                        elif v.condition == "lattice-inf-lower":
                            pairs = [(labels[m], labels[a]) for a in (i, j)]
                        else:
                            continue
                        assert part_a.intersection(pairs), (v, k)
                        found += 1
        assert found >= 1000, found

    def test_second_transform_builds_no_join_or_meet(self, monkeypatch):
        corpus = geometric_corpus()
        first = fuzz_transform(1, K15, base="identity", corpus=corpus)
        second = fuzz_transform(2, K15, base="gauge", corpus=corpus)
        calls = [
            _counting(monkeypatch, module, name)
            for module in (dualitylab.stability, dualitylab.corpus)
            for name in ("sup2", "hat_inf2")
            if hasattr(module, name)
        ]
        assert corpus.lattice_pairs == ()
        assert check_lattice_stability(first, K15) == ()
        # the corpus designates no pairs, so no closure or image join is built
        assert sum(map(len, calls)) == 0
        assert check_lattice_stability(second, K15) == ()
        assert sum(map(len, calls)) == 0
        assert first.corpus.R is second.corpus.R
        # an incomparable designation's closure builds its join and meet once
        f, g = make_indicator(2), make_linear(Fraction(1, 2))
        quad = Corpus((f, g, sup2(f, g), hat_inf2(f, g)), ("f", "g", "s", "m"),
                      "quad", ((0, 1, 2, 3),))
        assert quad.closed_lattice_pairs == ((0, 1, 2, 3),)
        assert sum(map(len, calls)) == 2
        assert quad.closed_lattice_pairs == ((0, 1, 2, 3),)
        assert sum(map(len, calls)) == 2

    def test_grid_designation_is_rejected(self):
        f = GridFunction2D.from_function(lambda x, y: x * x + y * y, R=2.0, N=9)
        g = GridFunction2D.from_function(lambda x, y: abs(x) + 2 * abs(y), R=2.0, N=9)
        corpus = Corpus((f, g, sup2_grid(f, g), hat_inf2_grid(f, g)),
                        ("f", "g", "s", "m"), "grid quad", ((0, 1, 2, 3),))
        with pytest.raises(CorpusError, match="1-d"):
            check_lattice_stability(identity_transform(corpus), K15)

    def test_closure_matches_the_reference(self):
        # accepted designations, s and m swapped, a wrong member; comparable
        # ({s, m} = {i, j}, read off corpus.R) and incomparable ones
        def outcome(closure):
            try:
                return closure()
            except CorpusError as exc:
                return str(exc)

        rng = random.Random(47)
        seen = Counter()
        for _ in range(100):
            els = [random_geometric(rng, max_knots=5) for _ in range(rng.randint(1, 3))]
            els += [scale(f, Fraction(rng.randint(1, 6), rng.randint(1, 6))) for f in els]
            designations = []
            for _ in range(3):
                i, j = rng.randrange(len(els)), rng.randrange(len(els))
                members = []
                for h in (sup2(els[i], els[j]), hat_inf2(els[i], els[j])):
                    if h not in els:
                        els.append(h)
                    members.append(els.index(h))
                s, m = members
                designations += [(i, j, s, m), (i, j, m, s),
                                 (i, j, s, rng.randrange(len(els))),
                                 (i, j, rng.randrange(len(els)), m)]
            labels = tuple(f"e{n}" for n in range(len(els)))
            for pairs in [(d,) for d in designations] + [tuple(designations)]:
                corpus = Corpus(tuple(els), labels, "closure", pairs)
                got = outcome(lambda: corpus.closed_lattice_pairs)
                assert got == outcome(lambda: reference_closed_lattice_pairs(corpus)), pairs
                if len(pairs) == 1:
                    (i, j, s, m), = pairs
                    seen[{s, m} == {i, j}, got == pairs] += 1
        assert min(seen[k] for k in product((True, False), repeat=2)) >= 80, seen


def _with_triangles(corpus, powers):
    """``corpus`` plus, for each (j, k) in ``powers``, the join (a triangle)
    and the meet of indicator[0,2^j] and linear 2^k*x, with that pair
    designated."""
    els, labels = list(corpus.elements), list(corpus.labels)
    pairs = list(corpus.lattice_pairs)
    for j, k in powers:
        i = labels.index(f"indicator[0,2^{j}]")
        r = labels.index(f"linear 2^{k}*x")
        join = make_triangle(Fraction(2) ** j, Fraction(2) ** k)
        assert join == sup2(els[i], els[r])
        els += [join, hat_inf2(els[i], els[r])]
        labels += [f"triangle 2^{j}, 2^{k}", f"meet 2^{j}, 2^{k}"]
        pairs.append((i, r, len(els) - 2, len(els) - 1))
    return Corpus(tuple(els), tuple(labels), "with triangles", tuple(pairs))


class TestSenseDecision:
    def test_reversing_analyze_searches_one_witness(self, monkeypatch):
        corpus = geometric_corpus(range(-33, 34, 3))
        t = fuzz_transform(7, K15, base="legendre", corpus=corpus)
        calls = _counting(monkeypatch, dualitylab.stability, "leq_witness")
        rep = analyze(t, K15)
        assert rep.classification is TransformClass.REVERSING_LEGENDRE
        assert len(calls) <= 1

    def test_analyze_matches_the_reference_pipeline(self):
        # the reference decides all four lattice rows and checks each
        # designation's closure by sup2/hat_inf2; the corpora carry no
        # designations, the former comparable ones, and those plus
        # indicator/ray pairs designated with their triangle join and meet
        rng = random.Random(47)
        exponents = (-4, -2, -1, 0, 1, 2, 4)
        comparable = reference_geometric_corpus(exponents)
        triangles = _with_triangles(comparable, ((1, -4), (-1, 4)))
        ops = {"identity": lambda f: f, "gauge": gauge_transform, "legendre": legendre,
               "a": geometric_dual}
        seen = Counter()
        for corpus in (geometric_corpus(exponents), comparable, triangles):
            for n in range(40):
                k = TestCheckerDifferential.KS[n % 3]
                base = ("identity", "gauge", "legendre", "a")[n % 4]
                # a fuzz over the triangles need not certify (J, for one, maps
                # an indicator and its triangle to touching functions), so
                # they take their exact base images beside the fuzz of the rest
                t = fuzz_transform(n, k, base=base,
                                   corpus=comparable if corpus is triangles else corpus)
                extra = corpus.elements[len(t.images):]
                imgs = list(t.images) + [ops[base](f) for f in extra]
                if extra:  # a designated join up by C^3, or a meet down
                    e = rng.randrange(len(extra))
                    i = len(t.images) + e
                    imgs[i] = scale(imgs[i], k.power(-3 if e % 2 else 3))
                for i in rng.sample(range(len(imgs)), rng.randint(0, 3)):
                    imgs[i] = scale(imgs[i], k.power(rng.choice((-2, -1, 1, 2))))
                if rng.random() < 0.2:
                    rng.shuffle(imgs)
                t = CorpusTransform(corpus, tuple(imgs), t.provenance)
                report = analyze(t, k)
                got = dump_json(report_to_obj(report))
                assert got == dump_json(report_to_obj(reference_analyze(t, k))), n
                seen.update(v.condition for v in report.violations)
        assert seen["lattice-sup-lower"] >= 3 and seen["lattice-inf-upper"] >= 3, seen


class TestElementKinds:
    """Each element kind's comparison and extreme, as `_ratio_any` and the
    checkers read them."""

    GRID = GridFunction2D.from_function(lambda x, y: abs(x) + abs(y), R=2.0, N=5)

    def test_corpus_of_two_kinds_is_rejected(self):
        corpus = Corpus((make_linear(1), make_delta(0.0, 1.0)), ("ray", "pin"), "mixed")
        with pytest.raises(CorpusError, match="^cannot compare PLConvex1D with DeltaFunction$"):
            corpus.R

    def test_grid_image_among_pl_images_is_rejected(self):
        corpus = geometric_corpus((-1, 0, 1))
        t = CorpusTransform(corpus, (corpus.elements[0], self.GRID) + corpus.elements[2:])
        with pytest.raises(CorpusError, match="^cannot compare PLConvex1D with GridFunction2D$"):
            t.R_img

    @pytest.mark.parametrize("f, extreme", [
        (make_indicator(INF), "zero"), (make_linear(0), "zero"),
        (make_indicator(0), "point"), (make_linear(INF), "point"),
        (make_linear(2), None), (make_indicator(1), None),
        (make_delta(0.0, 0.0), None), (GRID, None),
    ], ids=("zero", "flat-ray", "point", "steep-ray", "ray", "indicator", "pin", "grid"))
    def test_extreme(self, f, extreme):
        assert f.extreme == extreme


class TestClassify:
    def test_identity_class(self):
        rep = classify(identity_transform(), K15)
        assert rep.classification is TransformClass.IDENTITY
        assert rep.certified
        # phi maps supports to supports: the identity on the sample grid
        assert all(z == w for z, w in rep.phi_samples)

    def test_gauge_class(self):
        t = fuzz_transform(11, K15, base="gauge")
        rep = classify(t, K15)
        assert rep.classification is TransformClass.GAUGE

    def test_reversing_classes(self):
        t = fuzz_transform(11, K15, base="legendre")
        assert classify(t, K15).classification is TransformClass.REVERSING_LEGENDRE
        t = fuzz_transform(11, K15, base="a")
        assert (
            classify(t, K15).classification
            is TransformClass.REVERSING_GEOMETRIC_DUAL
        )

    def test_mixed_images_inconsistent(self):
        corpus = geometric_corpus()
        images = list(corpus.elements)
        # break one indicator image into a ray while the rest stay put
        i = corpus.labels.index("indicator[0,2^1]")
        images[i] = make_linear(1)
        rep = classify(
            CorpusTransform(corpus, tuple(images)), K15, sense="preserving"
        )
        assert rep.classification is TransformClass.INCONSISTENT
        assert any(v.condition == "classification" for v in rep.violations)
        assert not rep.certified

    def test_needs_generators(self):
        bare = Corpus((make_indicator(1), make_linear(1)), ("i", "l"), "thin", ())
        with pytest.raises(CorpusError):
            classify(identity_transform(bare), K15)

    def test_corpus_checked_before_any_matrix(self):
        bare = Corpus((make_indicator(1), make_linear(1)), ("i", "l"), "thin", ())
        for corpus, text in ((bare, "two indicators"), (delta_corpus(), "1-d")):
            for run in (classify, analyze):
                t = identity_transform(corpus)
                with pytest.raises(CorpusError, match=text):
                    run(t, K15)
                assert "R" not in corpus.__dict__ and "R_img" not in t.__dict__

    def test_pinned_point_images_checked_before_any_matrix(self):
        corpus = geometric_corpus((-1, 0, 1))
        images = tuple(make_delta(0.0, 1.0) for _ in corpus.elements)
        for run in (classify, analyze):
            t = CorpusTransform(corpus, images)
            with pytest.raises(CorpusError, match="1-d images"):
                run(t, K15)
            assert "R" not in corpus.__dict__ and "R_img" not in t.__dict__

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError):
            classify(identity_transform(), K15, sense="sideways")

    @pytest.mark.parametrize("case, message", [
        ("huge", "support end of huge"),
        ("steep", "slope of steep"),
        ("dilated", "support end of the image of indicator[0,2^-1]"),
        ("gauge", "slope of the image of indicator[0,2^-1]"),
        ("tiny", "support end of tiny"),
        ("shallow", "slope of shallow"),
        ("shrunk", "support end of the image of indicator[0,2^-1]"),
    ])
    def test_datum_beyond_the_float_range_is_named(self, case, message):
        # a positive datum that a float rounds to 0 is named like one that overflows
        corpus = geometric_corpus((-1, 0, 1))
        big = Fraction(10**400)
        if case in ("huge", "steep", "tiny", "shallow"):
            f = {"huge": make_indicator(big), "steep": make_linear(big),
                 "tiny": make_indicator(1 / big), "shallow": make_linear(1 / big)}[case]
            corpus = Corpus(corpus.elements + (f,), corpus.labels + (case,), case)
            images = corpus.elements
        elif case in ("dilated", "shrunk"):
            alpha = big if case == "dilated" else 1 / big
            images = tuple(compose_dilate(f, alpha) for f in corpus.elements)
        else:
            images = tuple(compose_dilate(gauge_transform(f), 1 / big) for f in corpus.elements)
        bound = "below" if case in ("tiny", "shallow", "shrunk") else "beyond"
        with pytest.raises(CorpusError,
                           match=f"^{re.escape(message)} is {bound} the float range$"):
            classify(CorpusTransform(corpus, images), K15)
        with pytest.raises(CorpusError, match=f"^{re.escape(message)} is {bound} "):
            analyze(CorpusTransform(corpus, images), K15)


class TestReferenceBaseDifferential:
    """classify, fit_sandwich and analyze against the branch-per-class code."""

    KS = TestCheckerDifferential.KS
    BASES = ("identity", "gauge", "legendre", "a")
    CORPORA = (geometric_corpus(), geometric_corpus((-4, -2, -1, 1, 2, 4)))
    CLASSIFICATION_DETAILS = (
        "neither order condition holds on the corpus",
        "indicator image is neither an indicator nor almost linear",
        "indicator images mix both structural kinds",
        "ray image should be",
    )
    FIT_ERRORS = (
        "sandwich fitting needs an identity-like or gauge-like classification",
        "no support data to fit a dilation from",
    )

    @staticmethod
    def _perturbed(rng, t, k):
        imgs = list(t.images)
        for i in rng.sample(range(len(imgs)), rng.randint(0, 3)):
            q = Fraction(rng.randint(1, 12), rng.randint(1, 4))
            move = rng.randrange(5)
            if move == 0:
                imgs[i] = scale(imgs[i], k.power(rng.choice((-2, -1, 1, 2))))
            elif move == 1:
                imgs[i] = make_linear(q)
            elif move == 2:
                imgs[i] = make_indicator(q)
            elif move == 3:
                imgs[i] = make_triangle(q, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            else:
                imgs[i] = compose_dilate(imgs[i], q)
        return CorpusTransform(t.corpus, tuple(imgs), t.provenance)

    @staticmethod
    def _outcome(fn, *args):
        try:
            return dump_json(report_to_obj(fn(*args)))
        except Exception as exc:  # the exception is part of the behaviour
            return f"{type(exc).__name__}: {exc}"

    def test_matches_the_branch_per_class_code(self, monkeypatch):
        rng = random.Random(59)
        labels, outcomes = Counter(), []
        for n in range(408):
            k = self.KS[n % 3]
            base = self.BASES[n // 3 % 4]
            corpus = self.CORPORA[n // 12 % 2]
            t = self._perturbed(rng, fuzz_transform(n, k, base=base, corpus=corpus), k)
            for sense in ("preserving", "reversing", None):
                rep = classify(t, k, sense)
                at = dualitylab.stability._sense(t, k) if sense is None else sense
                old = reference_classify_at(t, k, at)
                assert dump_json(report_to_obj(rep)) == dump_json(report_to_obj(old)), n
                labels[rep.classification] += 1
                outcomes += [v.detail for v in rep.violations]
                got = self._outcome(fit_sandwich, t, rep)
                assert got == self._outcome(reference_fit_sandwich, t, old), (n, sense)
                outcomes.append(got)
            got = self._outcome(analyze, t, k)
            with monkeypatch.context() as m:
                # the reference reads the indicator and ray indices itself
                m.setattr(dualitylab.stability, "classify", lambda t, k, sense=None: (
                    reference_classify_at(
                        t, k, dualitylab.stability._sense(t, k) if sense is None else sense)))
                m.setattr(dualitylab.stability, "fit_sandwich", reference_fit_sandwich)
                assert got == self._outcome(analyze, t, k), n
        # a corpus without indicators leaves no support ratio to fit
        bare = Corpus((make_triangle(1, 1), make_indicator(INF)), ("tri", "zero"), "bare")
        t = CorpusTransform(bare, bare.elements)
        for cls in (TransformClass.IDENTITY, TransformClass.GAUGE):
            rep = StabilityReport(cls, 1.5)
            got = self._outcome(fit_sandwich, t, rep)
            assert got == self._outcome(reference_fit_sandwich, t, rep)
            outcomes.append(got)
        assert set(labels) == set(TransformClass)
        for text in self.CLASSIFICATION_DETAILS + self.FIT_ERRORS:
            assert any(text in o for o in outcomes), text


class TestEstimateExponent:
    def test_exact_power_laws(self):
        zs = [2.0**j for j in (-4, -2, -1, 1, 2, 4)]
        for gamma in (1.0, -1.0, 2.0):
            est, dev = estimate_exponent([(z, z**gamma) for z in zs])
            assert est == gamma
            assert dev <= 1e-12

    def test_noise_decays_with_range(self):
        rng = random.Random(3)
        zs = [2.0**j for j in (-16, -8, -4, -2, -1, 1, 2, 4, 8, 16)]
        samples = [(z, z * math.exp(rng.uniform(-0.1, 0.1))) for z in zs]
        est, dev = estimate_exponent(samples)
        assert abs(est - 1.0) <= 0.1 / (16 * math.log(2)) + 1e-12
        assert dev <= 0.2 + 1e-12

    def test_negative_side_only(self):
        est, _ = estimate_exponent({0.5: 2.0, 0.25: 4.0})
        assert est == -1.0

    def test_snap_window_must_stay_below_half_a_pitch(self):
        # at tolerance 0.5 every z lies in a window: z = 3 would snap to 2**2
        samples = [(2.0, 2.0), (3.0, 3.0), (8.0, 8.0)]
        message = (r"^snap tolerance 0\.5 at step 1 reaches half the multiplicative "
                   rf"grid pitch {math.log(2)!r}$")
        with pytest.raises(ValueError, match=message):
            estimate_exponent(samples, tolerance=0.5)
        with pytest.raises(ValueError, match="^abscissae do not sit on a multiplicative grid$"):
            estimate_exponent(samples)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_exponent([(2.0, 1.0)])
        with pytest.raises(ValueError):
            estimate_exponent([(1.0, 1.0), (1.0 + 1e-9, 2.0)])
        with pytest.raises(ValueError):
            estimate_exponent([(2.0, 1.0), (3.0, 1.0)])  # 3 not a power of 2
        with pytest.raises(ValueError):
            estimate_exponent([(2.0, 0.0), (4.0, 1.0)])

    @pytest.mark.parametrize("tolerance", [-1.0, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            estimate_exponent([(2.0, 2.0), (4.0, 4.0)], tolerance=tolerance)


class TestHyersUlam:
    def test_near_linear_recovered(self):
        rng = random.Random(41)
        xs = [0.1 * i for i in range(-30, 31)]
        f = {x: 3.0 * x + rng.uniform(-0.1, 0.1) for x in xs}
        g, sup_error = hyers_ulam_approx(f, eps=0.3)
        assert sup_error <= 0.3
        # on the half of the range where doubling applies, g is close to 3x
        for x in xs:
            if 0 < abs(x) <= 1.5:
                assert abs(g[x] - 3.0 * x) <= 0.3
        assert g[0.0] == 0.0

    def test_defect_witnessed(self):
        f = {0.0: 0.0, 1.0: 1.0, 2.0: 3.0}
        with pytest.raises(HypothesisViolationError) as ei:
            hyers_ulam_approx(f, eps=0.5)
        assert ei.value.witness == (1.0, 1.0)

    def test_grid_required(self):
        with pytest.raises(ValueError):
            hyers_ulam_approx({0.0: 0.0, 1.0: 1.0, 2.5: 2.5}, eps=1.0)
        with pytest.raises(ValueError):
            hyers_ulam_approx({}, eps=1.0)
        with pytest.raises(ValueError):  # 1e308 / 5e-324 steps overflow a float
            hyers_ulam_approx({0.0: 0.0, 5e-324: 0.0, 1e308: 1.0}, eps=1.0)

    @pytest.mark.parametrize("far", [10**6, 10**9])
    def test_exact_grid_points_accepted_at_any_step(self, far):
        samples = {0: 0, 1: 1, far: far}
        assert hyers_ulam_approx(samples, 0) == ({0.0: 0.0, 1.0: 1.0, float(far): float(far)}, 0.0)

    @pytest.mark.parametrize("x", [10**6 + 0.4, 10**6 + 0.2, 10**9 + 0.1])
    def test_far_point_off_the_grid_rejected(self, x):
        with pytest.raises(ValueError, match="^abscissae do not sit on a uniform grid$"):
            hyers_ulam_approx({0: 0, 1: 1, x: 10**6}, 0)

    def test_pitch_rounding_is_carried_over_the_steps(self):
        # the pitch 0.1 * 100000 - 0.1 * 99999 is 1.5e-12 short of 0.1, which
        # puts 0.1 * 100000 1.5e-6 of it off step 100000
        xs = (0.0, 0.1 * 99999, 0.1 * 100000)
        assert hyers_ulam_approx({x: 2 * x for x in xs}, 1e-9)[0] == {x: 2 * x for x in xs}

    @pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
            hyers_ulam_approx({0.0: 0.0, 1.0: 1.0, 2.0: 5.0}, eps=eps)

    @pytest.mark.parametrize("samples", [
        [(0, 0), (1, math.nan), (2, 2)], [(0, 0), (1, 1), (math.inf, 2)],
        {0.0: 0.0, 1.0: -math.inf},
    ])
    def test_nonfinite_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be finite"):
            hyers_ulam_approx(samples, eps=0.5)
        with pytest.raises(ValueError, match="samples must be finite"):
            estimate_exponent(samples)

    @pytest.mark.parametrize("samples", [
        [[1]], [1, 2], "ab", ["12"], [(1, None)], 5,
        [[True, 1], [2, 2]], [[0, 0], [1, False]], {True: 1.0, 2: 2.0},
    ])
    def test_malformed_samples_rejected(self, samples):
        message = r"^samples must be \(x, y\) pairs of numbers$"
        with pytest.raises(ValueError, match=message):
            hyers_ulam_approx(samples, eps=0.5)
        with pytest.raises(ValueError, match=message):
            estimate_exponent(samples)


class TestFitSandwich:
    def test_report_constants_must_be_ordered(self):
        assert StabilityReport(TransformClass.GAUGE, Fraction(3, 2), sandwich_lower=1.0,
                               sandwich_upper=1.0).certified
        with pytest.raises(ValueError, match="^sandwich constants must satisfy lower <= upper$"):
            StabilityReport(TransformClass.GAUGE, Fraction(3, 2), sandwich_lower=2.0,
                            sandwich_upper=1.0)

    @pytest.mark.parametrize("power, within, flagged", [(7, False, False), (10, False, True)])
    def test_spread_just_past_a_power_of_eleven_tenths(self, power, within, flagged):
        # the float 1.1 exceeds 11/10, so a float C would pass both spreads
        C = Fraction(11, 10)
        corpus = geometric_corpus((-4, -2, -1, 0, 1, 2, 4))
        images = list(corpus.elements)
        i = corpus.labels.index("linear 2^4*x")
        images[i] = scale(images[i], C**power * (1 + Fraction(1, 10**16)))
        t = CorpusTransform(corpus, tuple(images))
        rep = analyze(t, AlmostOrderConstant(C))
        assert rep.classification is TransformClass.IDENTITY and rep.certified
        assert rep.ctilde == C
        assert (rep.within_regime, rep.sandwich_flagged) == (within, flagged)
        # a float C from a caller still fits, read as the binary value it is
        rep = fit_sandwich(t, dataclasses.replace(rep, ctilde=1.1))
        assert (rep.within_regime, rep.sandwich_flagged) == (power == 7, False)

    def test_pure_dilation_exact(self):
        corpus = geometric_corpus()
        t = CorpusTransform(
            corpus, tuple(compose_dilate(f, 2) for f in corpus.elements)
        )
        rep = analyze(t, K15)
        assert rep.classification is TransformClass.IDENTITY
        assert rep.certified
        assert rep.alpha == 2.0
        assert rep.sandwich_lower == rep.sandwich_upper == 1.0
        assert not rep.sandwich_flagged and rep.within_regime

    def test_jittered_fit_stays_in_band(self):
        t = fuzz_transform(5, K2, base="identity", alpha=Fraction(1, 2))
        rep = analyze(t, K2)
        assert rep.alpha == 0.5  # support ratios are jitter free
        assert rep.sandwich_lower >= float(K2.reciprocal)
        assert rep.sandwich_upper <= float(K2.ctilde)
        assert rep.certified

    def test_wrong_class_rejected(self):
        t = fuzz_transform(5, K15, base="legendre")
        rep = classify(t, K15)
        with pytest.raises(ClassificationError):
            fit_sandwich(t, rep)

    def test_support_mismatch_is_violation(self):
        corpus = geometric_corpus()
        images = list(corpus.elements)
        i = corpus.labels.index("indicator[0,2^1]")
        images[i] = make_indicator(3)  # off-pattern support
        t = CorpusTransform(corpus, tuple(images))
        rep = classify(t, K15, sense="preserving")
        rep = fit_sandwich(t, rep)
        assert any(v.condition == "sandwich" for v in rep.violations)


    def test_ratio_extrema_match_the_moebius_scan(self):
        from dualitylab.stability import _ratio_extrema

        rng = random.Random(31)
        sandwiched = 0
        for i in range(1500):
            f = random_geometric(rng)
            if i % 2:
                g = scale(f, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            else:
                bump = scale(random_geometric(rng), Fraction(1, rng.randint(1, 20)))
                g = sup2(f, bump)
            if i % 3 == 0:
                f, g = g, f
            ext = _ratio_extrema(f, g)
            assert ext == reference_ratio_extrema(f, g), (f, g)
            sandwiched += ext is not None
        assert sandwiched >= 500


class TestFuzz:
    def test_deterministic(self):
        a = fuzz_transform(123, K2, base="gauge")
        b = fuzz_transform(123, K2, base="gauge")
        assert a.images == b.images

    def test_seeds_differ(self):
        a = fuzz_transform(1, K2, base="identity")
        b = fuzz_transform(2, K2, base="identity")
        assert a.images != b.images

    def test_unknown_base(self):
        with pytest.raises(ValueError):
            fuzz_transform(1, K2, base="mystery")

    @pytest.mark.parametrize("scaling, message", [
        ({"alpha": 0}, "dilation must be positive"),
        ({"alpha": -1}, "dilation must be positive"),
        ({"alpha": "-1/2"}, "dilation must be positive"),
        ({"alpha": 10**400}, "dilation is beyond the float range"),
        ({"alpha": Fraction(1, 10**400)}, "dilation is below the float range"),
        ({"beta": 0}, "value scaling must be positive"),
        ({"beta": -1.0}, "value scaling must be positive"),
        ({"beta": math.nan}, "value scaling must be positive"),
    ], ids=["alpha=0", "alpha=-1", "alpha=-1/2", "alpha=10^400", "alpha=10^-400",
            "beta=0", "beta=-1.0", "beta=nan"])
    def test_bad_scaling_rejected(self, scaling, message):
        if "alpha" in scaling:
            corpus = geometric_corpus((-1, 0, 1))
            build = lambda: fuzz_transform(1, K2, "gauge", corpus=corpus, **scaling)
        else:
            corpus = delta_corpus()
            build = lambda: fuzz_delta_transform(1, K2, lambda th: th, corpus=corpus, **scaling)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
        assert "_base_images" not in corpus.__dict__  # rejected before any base image

    def test_jitter_respects_band(self):
        t = fuzz_transform(7, K15, base="identity")
        half = math.sqrt(float(K15.ctilde))
        for f, img in zip(t.corpus.elements, t.images):
            if f.is_linear and not f.is_zero and not f.is_point_indicator:
                r = float(img.first_slope / f.first_slope)
                assert 1 / half < r < half

    def test_analyze_all_bases(self):
        want = {
            "identity": (TransformClass.IDENTITY, 1.0),
            "gauge": (TransformClass.GAUGE, -1.0),
            "legendre": (TransformClass.REVERSING_LEGENDRE, -1.0),
            "a": (TransformClass.REVERSING_GEOMETRIC_DUAL, 1.0),
        }
        for base, (cls, gamma) in want.items():
            t = fuzz_transform(3, K15, base=base)
            rep = analyze(t, K15)
            assert rep.certified, (base, rep.violations)
            assert rep.classification is cls
            assert abs(rep.gamma - gamma) <= 0.05


class TestDeltaStructure:
    def test_pinned_comparison_is_exact(self):
        from dualitylab.stability import _witness

        # 6.155778894472362 <= (100/199) * 12.25 holds in exact arithmetic,
        # but not after rounding the factor to a float
        d, e = make_delta(1.0, 6.155778894472362), make_delta(1.0, 12.25)
        assert _witness(d, e, Fraction(100, 199)) is None
        # and the same pair of values on grids: 0 at the origin, v elsewhere
        f, g = (
            GridFunction2D(GridSpec(2.0, 3), [[v, v, v], [v, 0.0, v], [v, v, v]])
            for v in (6.155778894472362, 12.25)
        )
        assert _witness(f, g, Fraction(100, 199)) is None
        assert _witness(f, g, Fraction(99, 199)) == (-2.0, -2.0)

    def test_affine_point_map_recovered(self):
        t = fuzz_delta_transform(9, K2, point_map=lambda th: 2 * th + 1, beta=3.0)
        rep = check_delta_structure(t, K2)
        assert rep.is_delta_structure and rep.psi_ok
        assert abs(rep.point_matrix - 2.0) <= 1e-9
        assert abs(rep.point_offset - 1.0) <= 1e-9
        assert not rep.flagged_nonaffine
        lo, hi = 3.0 / math.sqrt(2), 3.0 * math.sqrt(2)
        assert lo <= rep.beta <= hi

    def test_nonaffine_flagged(self):
        t = fuzz_delta_transform(9, K2, point_map=lambda th: th * th)
        rep = check_delta_structure(t, K2)
        assert rep.flagged_nonaffine
        assert rep.point_residual > 1e-6

    def test_fibre_violation(self):
        corpus = delta_corpus(points=(1.0,), values=(0.0, 1.0))
        imgs = (make_delta(2.0, 0.0), make_delta(3.0, 1.0))
        rep = check_delta_structure(CorpusTransform(corpus, imgs), K2)
        assert not rep.is_delta_structure
        assert any(v.condition == "delta-fibre" for v in rep.violations)

    def test_non_delta_image(self):
        corpus = delta_corpus(points=(1.0,), values=(1.0,))
        rep = check_delta_structure(
            CorpusTransform(corpus, (make_indicator(1),)), K2
        )
        assert not rep.is_delta_structure
        assert any(v.condition == "delta-image" for v in rep.violations)

    def test_value_band_is_exact(self):
        # beta, the float geometric mean of 0.5 and 1.1250000000000002, is
        # 0.7500000000000001: each image value lies just outside (1/C, C)*beta
        # though the float products round onto the band
        corpus = Corpus((make_delta(0.0, 1.0), make_delta(1.0, 1.0)), ("a", "b"),
                        "two pins")
        imgs = (make_delta(0.0, 0.5), make_delta(1.0, 1.1250000000000002))
        rep = check_delta_structure(CorpusTransform(corpus, imgs), K15)
        assert rep.beta == 0.7500000000000001
        assert not rep.psi_ok
        assert [v.f_label for v in rep.violations if v.condition == "delta-value"] == [
            "a", "b"]

    def test_positive_value_lost(self):
        corpus = delta_corpus()
        imgs = list(corpus.elements)
        i = next(n for n, f in enumerate(imgs) if f.c == 1.0)
        imgs[i] = make_delta(imgs[i].theta, 0.0)
        rep = check_delta_structure(CorpusTransform(corpus, tuple(imgs)), K2)
        assert not rep.is_delta_structure and not rep.psi_ok and rep.beta is None
        assert [(v.condition, v.f_label) for v in rep.violations] == [
            ("delta-value", corpus.labels[i])]

    def test_quasi_linear_bound_violation(self):
        # every value ratio lies in the (1/C, C) band around beta, but the
        # midpoint value 0.65 at a = 0.5 exceeds C times the chord 0.4
        corpus = delta_corpus()
        kappa = {0.0: 1.0, 0.5: 1.3, 1.0: 0.8, 2.0: 1.3}
        imgs = tuple(make_delta(f.theta, f.c * kappa[f.c]) for f in corpus.elements)
        rep = check_delta_structure(CorpusTransform(corpus, imgs), K15)
        assert not rep.psi_ok and not rep.is_delta_structure
        assert rep.value_ratio_bound is None
        assert rep.violations == (Violation(
            "delta-value", "", "", (((0.0, 0.0), 0.0), ((0.0, 0.5), 0.65), ((0.0, 1.0), 0.8)),
            "image values fail the quasi-linear combination bound"),)

    def test_value_band_violation(self):
        corpus = delta_corpus(points=(0.0, 1.0), values=(1.0, 2.0))
        imgs = tuple(
            make_delta(f.theta, f.c if f.theta == 0.0 else 100.0 * f.c)
            for f in corpus.elements
        )
        rep = check_delta_structure(CorpusTransform(corpus, imgs), K2)
        assert not rep.psi_ok


def ray_grid(p, q, slope, R=4.0, N=9):
    def fn(x, y):
        # nodes t*(p,q)*step for t >= 0 carry slope * arclength, rest +inf
        step = 2.0 * R / (N - 1)
        norm = math.hypot(p, q) * step
        t = (x * p + y * q) / (step * (p * p + q * q))
        if t >= 0 and abs(x - t * p * step) < 1e-9 and abs(y - t * q * step) < 1e-9 \
                and abs(t - round(t)) < 1e-9:
            return slope * t * norm
        return INF

    return GridFunction2D.from_function(fn, R=R, N=N)


class TestRayMapping:
    def test_rotation_recovered(self):
        dirs = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]
        corpus = Corpus(
            tuple(ray_grid(p, q, 1.0) for p, q in dirs),
            tuple(f"ray({p},{q})" for p, q in dirs),
            "lattice rays",
            (),
        )
        imgs = tuple(ray_grid(-q, p, 1.0) for p, q in dirs)
        rep = verify_ray_mapping(CorpusTransform(corpus, imgs))
        assert rep.violations == ()
        assert rep.residual <= 1e-9
        m = np.array(rep.matrix)
        assert np.abs(m - np.array([[0.0, -1.0], [1.0, 0.0]])).max() <= 1e-9

    def test_non_ray_image_violates(self):
        corpus = Corpus((ray_grid(1, 0, 1.0),), ("ray(1,0)",), "one ray", ())
        blob = GridFunction2D.from_function(lambda x, y: math.hypot(x, y), R=4.0, N=9)
        rep = verify_ray_mapping(CorpusTransform(corpus, (blob,)))
        assert any(v.condition == "ray-support" for v in rep.violations)

    def test_corpus_must_be_rays(self):
        blob = GridFunction2D.from_function(lambda x, y: math.hypot(x, y), R=4.0, N=9)
        corpus = Corpus((blob,), ("blob",), "not a ray", ())
        with pytest.raises(CorpusError):
            verify_ray_mapping(CorpusTransform(corpus, (blob,)))


class TestAnalyzeEdges:
    def test_inconsistent_when_neither_sense_holds(self):
        corpus = geometric_corpus()
        rng = random.Random(0)
        shuffled = list(corpus.elements)
        rng.shuffle(shuffled)
        t = CorpusTransform(corpus, tuple(shuffled))
        rep = analyze(t, K15)
        assert rep.classification is TransformClass.INCONSISTENT
        assert not rep.certified
        assert rep.violations

    def test_certified_reads_both_fields(self):
        rep = analyze(identity_transform(), K15)
        assert rep.certified and rep.classification is TransformClass.IDENTITY

    def test_one_extreme_is_checked(self):
        full = geometric_corpus()
        assert full.labels[-1] == "point{0}"
        corpus = Corpus(full.elements[:-1], full.labels[:-1], "no point{0}")
        rep = analyze(identity_transform(corpus), K15)
        assert rep.certified and rep.classification is TransformClass.IDENTITY
        images = list(corpus.elements)
        images[corpus.labels.index("zero")] = make_indicator(5)
        bad = check_extremes(CorpusTransform(corpus, tuple(images)))
        assert [v.condition for v in bad] == ["extreme-zero"]

    def test_off_grid_corpus_certifies_without_exponent(self):
        # indicator supports 2 and 3 sit on no common multiplicative grid
        corpus = Corpus(
            (make_indicator(2), make_indicator(3), make_linear(2), make_linear(3),
             make_indicator(INF), make_indicator(0)),
            ("i2", "i3", "l2", "l3", "zero", "point"), "off-grid")
        cases = (
            (CorpusTransform(corpus, corpus.elements), TransformClass.IDENTITY),
            (fuzz_transform(1, K15, base="identity", corpus=corpus), TransformClass.IDENTITY),
            (fuzz_transform(1, K15, base="gauge", corpus=corpus), TransformClass.GAUGE),
        )
        for t, cls in cases:
            rep = analyze(t, K15)
            assert rep.certified and rep.classification is cls
            assert rep.gamma is None and rep.exponent_deviation is None
            assert rep.alpha == 1.0 and rep.sandwich_lower is not None
            assert any("multiplicative grid" in note for note in rep.diagnostics)

    @pytest.mark.parametrize("tol", [-1, math.nan, math.inf, "x"])
    def test_bad_exponent_tolerance_rejected(self, tol):
        t = fuzz_transform(1, K15, corpus=geometric_corpus((-2, -1, 1, 2)))
        with pytest.raises(ValueError, match="exponent_tolerance"):
            analyze(t, K15, exponent_tolerance=tol)
        assert analyze(t, K15, exponent_tolerance=0).certified


def _outcome(fn, *args):
    """repr of fn's result, or its exception type, message and witness."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # compared as data: old and new must agree
        return type(exc), str(exc), getattr(exc, "witness", None)


def _grid_sample_sets(rng: random.Random, n: int) -> list:
    """n seeded sample sets for the two grid lemmas: on a multiplicative or a
    uniform grid (some on the negative side only), noisy, off the grid, with
    a repeated grid point, degenerate, or as a mapping."""
    sets = [
        [], {}, [(2.0, 1.0)], [(1.0, 1.0), (1.0 + 1e-9, 2.0)],
        {0.0: 0.0, 5e-324: 0.0, 1e308: 1.0}, {0.5: 2.0, 0.25: 4.0},
        [(2.0, 2.0), (2.0, 3.0), (4.0, 4.0)], [(0, 0), (1, math.nan), (2, 2)],
        [(2.0, 0.0), (4.0, 1.0)], [(-1.0, 1.0), (-2.0, 2.0)],
    ]
    while len(sets) < n:
        shape = rng.randrange(4)
        if shape < 2:  # multiplicative grid b**j, exponents dyadic
            b = rng.choice((2.0, 3.0, 1.5, math.sqrt(2), 10.0))
            js = [j for j in (-16, -8, -4, -3, -2, -1, 0, 1, 2, 3, 4, 8, 16)
                  if rng.random() < 0.5 and (shape == 0 or j < 0)]
            gamma = rng.choice((1.0, -1.0, 2.0, 0.5, rng.uniform(-3, 3)))
            noise = rng.choice((0.0, 1e-9, 0.05, 0.5))
            pts = [(b**j, b ** (gamma * j) * math.exp(rng.uniform(-noise, noise)))
                   for j in js]
        else:  # uniform grid p*j
            p = rng.choice((1.0, 0.1, 0.5, 3.0, 1e-3))
            js = [j for j in range(-10, 11)
                  if rng.random() < 0.6 and (shape != 2 or j < 0)]
            a = rng.uniform(-4, 4)
            noise = rng.choice((0.0, 0.01, 0.3, 2.0))
            pts = [(p * j, a * p * j + rng.uniform(-noise, noise)) for j in js]
        if pts and rng.random() < 0.3:  # nudge one abscissa, often off the grid
            i = rng.randrange(len(pts))
            x, v = pts[i]
            pts[i] = (x * (1 + rng.choice((1e-12, 1e-8, 1e-5, 1e-3, 0.1))), v)
        if pts and rng.random() < 0.1:  # a second value at one abscissa
            x, v = rng.choice(pts)
            pts.append((x, 2 * v + 1))
        if pts and rng.random() < 0.05:  # a nonpositive value
            pts[0] = (pts[0][0], rng.choice((0.0, -1.0)))
        if pts and rng.random() < 0.03:  # a non-finite entry
            bad = rng.choice((math.nan, math.inf, -math.inf))
            pts[-1] = rng.choice(((bad, pts[-1][1]), (pts[-1][0], bad)))
        rng.shuffle(pts)
        sets.append(dict(pts) if rng.random() < 0.3 else pts)
    return sets


def _uniform_offsets(samples) -> list:
    """(|x - j * pitch|, j, pitch, slack) for each finite abscissa, with the
    pitch and the per-step rounding slack that `hyers_ulam_approx` reads."""
    xs = samples.keys() if isinstance(samples, dict) else [x for x, _ in samples]
    xs = sorted(x for x in map(float, xs) if math.isfinite(x))
    gaps = [(b - a, max(abs(a), abs(b))) for a, b in zip(xs, xs[1:]) if b - a > 0]
    pitch, far = min(gaps) if gaps else (1.0, 1.0)
    steps = [(x, round(x / pitch)) for x in xs if math.isfinite(x / pitch)]
    return [(abs(x - j * pitch), j, pitch, 8 * math.ulp(far)) for x, j in steps]


class TestGridLemmaDifferential:
    """`estimate_exponent` and `hyers_ulam_approx` against their previous
    copies: equal results, or the same exception and message, except where
    the exponent copy kept the last of two samples at one grid point, where
    the exponent snap window reaches half a pitch, and where the additive
    copy's window of 1e-6 of a pitch per step took in a sample that is more
    than 1e-6 of a pitch, and more than the rounding of the pitch over its
    steps, off its grid point."""

    def test_matches_reference_on_seeded_sample_sets(self):
        rng = random.Random(16)
        counts = Counter()
        for samples in _grid_sample_sets(rng, 2400):
            tol = rng.choice((1e-6, 0.0, 1e-3, 0.7))
            eps = rng.choice((0.0, 0.1, 0.5, 5.0, 1e9))
            cases = (
                (estimate_exponent, reference_estimate_exponent, (samples, tol)),
                (hyers_ulam_approx, reference_hyers_ulam_approx, (samples, eps)),
            )
            for new, old, args in cases:
                got, want = _outcome(new, *args), _outcome(old, *args)
                window = got[0] is ValueError and re.fullmatch(
                    r"snap tolerance (\S+) at step (-?\d+) reaches half the "
                    r"multiplicative grid pitch (\S+)", got[1])
                if got != want and new is hyers_ulam_approx:
                    assert got == (ValueError, "abscissae do not sit on a uniform grid", None), got
                    assert any(max(1e-6 * p, slack * abs(j)) < off <= 1e-6 * p * max(1, abs(j))
                               for off, j, p, slack in _uniform_offsets(samples)), (samples, want)
                    counts[new.__name__, "window"] += 1
                    continue
                if got != want and window:
                    tol, j, pitch = window.groups()
                    assert 2 * float(tol) * max(1, abs(int(j))) >= float(pitch), got
                    counts[new.__name__, "window"] += 1
                    continue
                if got != want and new is estimate_exponent:
                    assert got[0] is ValueError, (samples, got, want)
                    assert got[1].startswith("duplicate abscissa near "), (samples, got)
                    xs = samples.keys() if isinstance(samples, dict) else [x for x, _ in samples]
                    assert got[1].rsplit(" ", 1)[1] in {repr(float(x)) for x in xs}
                    counts["duplicate"] += 1
                    continue
                assert got == want, (new.__name__, samples, args[1])
                kind = "ok" if isinstance(got, str) else " ".join(got[1].split()[:2])
                counts[new.__name__, kind] += 1
        # every branch is reached: results, each input error, defects, duplicates
        assert counts["duplicate"] >= 20, counts
        for key in (("estimate_exponent", "ok"), ("hyers_ulam_approx", "ok"),
                    ("estimate_exponent", "abscissae do"), ("hyers_ulam_approx", "abscissae do"),
                    ("hyers_ulam_approx", "additive defect"),
                    ("hyers_ulam_approx", "duplicate abscissa"),
                    ("estimate_exponent", "window"), ("hyers_ulam_approx", "window")):
            assert counts[key] >= 20, (key, counts)
        for key in (("hyers_ulam_approx", "samples must"), ("hyers_ulam_approx", "need at"),
                    ("hyers_ulam_approx", "abscissae span"), ("estimate_exponent", "all abscissae")):
            assert counts[key] >= 1, (key, counts)

    def test_repeated_grid_point_is_rejected(self):
        with pytest.raises(ValueError, match=r"^duplicate abscissa near 2\.0$"):
            estimate_exponent([(2.0, 2.0), (2.0, 3.0), (4.0, 4.0)])
        assert reference_estimate_exponent([(2.0, 2.0), (2.0, 3.0), (4.0, 4.0)])[0] == 1.0
        # a snap tolerance of 0.7 would put z = 1 and z = 2 both at step 0
        t = identity_transform(geometric_corpus((0, 1, 2, 3)))
        rep = analyze(t, K15, exponent_tolerance=0.7)
        assert rep.certified and rep.gamma is None
        assert rep.diagnostics == (
            "exponent not estimated: snap tolerance 0.7 at step 0 reaches half the "
            f"multiplicative grid pitch {math.log(4)!r}",)


class TestFuzzDifferential:
    """Both fuzz builders give exactly the images, provenance and errors of
    their previous copies."""

    @pytest.mark.parametrize("base", ["identity", "gauge", "legendre", "a"])
    def test_fuzz_transform_matches_reference(self, base):
        ks = (AlmostOrderConstant(Fraction(11, 10)), K15, K2, AlmostOrderConstant(100))
        for k in ks:
            for seed in range(4):
                for alpha in (1, Fraction(1, 7)):
                    args = (seed, k, base, alpha)
                    new, old = _outcome(fuzz_transform, *args), _outcome(reference_fuzz_transform, *args)
                    assert new == old, args

    def test_fuzz_delta_transform_matches_reference(self):
        from dualitylab.corpus import DELTA_POINTS_2D

        corpora_maps = (
            (None, lambda th: 2.0 * th + 1.0),
            (None, lambda th: th * th),
            (delta_corpus(points=DELTA_POINTS_2D), lambda th: (-th[1] + 0.5, th[0] - 1.0)),
            (delta_corpus(points=DELTA_POINTS_2D), lambda th: (th[0] * th[1], th[1])),
        )
        for corpus, point_map in corpora_maps:
            for k in (K15, K2):
                for seed in range(6):
                    for beta in (1.0, 3.0, 0.5):
                        args = (seed, k, point_map, beta, corpus)
                        new = fuzz_delta_transform(*args)
                        old = reference_fuzz_delta_transform(*args)
                        assert new.images == old.images and new.provenance == old.provenance
