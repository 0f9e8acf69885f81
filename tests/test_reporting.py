import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from dualitylab import (
    AlmostOrderConstant,
    CorpusTransform,
    SpecFormatError,
    StabilityReport,
    TransformClass,
    analyze,
    check_almost_preserving,
    corpus_to_obj,
    delta_corpus,
    dump_json,
    emit_plots,
    fuzz_transform,
    geometric_corpus,
    parse_corpus,
    parse_corpus_transform,
    render_report_text,
    report_to_obj,
    transform_to_obj,
)

from helpers import reference_emit_plots

K15 = AlmostOrderConstant(Fraction(3, 2))


class TestCorpusSerialization:
    def test_round_trip(self):
        c = geometric_corpus()
        again = parse_corpus(corpus_to_obj(c))
        assert again == c

    def test_transform_round_trip(self):
        t = fuzz_transform(4, K15, base="identity")
        again = parse_corpus_transform(transform_to_obj(t))
        assert again.corpus == t.corpus
        assert again.images == t.images
        assert again.provenance == t.provenance

    def test_kind_required(self):
        with pytest.raises(SpecFormatError):
            parse_corpus({"kind": "nope"})
        with pytest.raises(SpecFormatError):
            parse_corpus_transform({"kind": "corpus"})

    def test_pair_indices_checked(self):
        obj = corpus_to_obj(geometric_corpus())
        obj["lattice_pairs"] = [[0, 1, 2, 99999]]
        with pytest.raises(SpecFormatError):
            parse_corpus(obj)

    def test_image_count_checked(self):
        obj = transform_to_obj(fuzz_transform(4, K15))
        obj["images"] = obj["images"][:-1]
        with pytest.raises(SpecFormatError):
            parse_corpus_transform(obj)


class TestReportOutput:
    def test_json_is_stable(self):
        rep = analyze(fuzz_transform(8, K15, base="gauge"), K15)
        obj = report_to_obj(rep)
        text = dump_json(obj)
        assert text == dump_json(json.loads(text))
        assert text.endswith("\n")
        assert json.loads(text)["kind"] == "stability-report"

    def test_text_rendering_mentions_the_essentials(self):
        rep = analyze(fuzz_transform(8, K15, base="gauge"), K15)
        text = render_report_text(report_to_obj(rep))
        assert "gauge" in text
        assert "certified" in text
        assert "exponent" in text

    def test_violations_rendered(self):
        corpus = geometric_corpus()
        images = tuple(reversed(corpus.elements))
        rep = analyze(CorpusTransform(corpus, images), K15)
        text = render_report_text(report_to_obj(rep))
        assert "NOT certified" in text

    def test_two_dimensional_witness_is_a_list(self):
        corpus = delta_corpus(((0.0, 0.0), (1.0, 2.0)), (0.5, 1.0))
        bad = check_almost_preserving(CorpusTransform(corpus, corpus.elements[::-1]), K15)
        assert bad and all(isinstance(v.witness, tuple) for v in bad)
        obj = report_to_obj(StabilityReport(TransformClass.INCONSISTENT, K15.ctilde, bad))
        assert [v["witness"] for v in obj["violations"]] == [list(v.witness) for v in bad]
        assert json.loads(dump_json(obj)) == obj
        assert "NOT certified" in render_report_text(obj)


class TestPlots:
    def test_files_and_determinism(self, tmp_path):
        rep = analyze(fuzz_transform(8, K15, base="gauge"), K15)
        obj = report_to_obj(rep)
        d1, d2 = str(tmp_path / "one"), str(tmp_path / "two")
        os.makedirs(d1), os.makedirs(d2)
        paths1 = emit_plots(obj, d1)
        paths2 = emit_plots(obj, d2)
        names = sorted(os.path.basename(p) for p in paths1)
        assert names == [
            "phi.csv", "phi.svg", "sandwich.csv", "sandwich.svg",
            "slope.csv", "slope.svg",
        ]
        for p1, p2 in zip(sorted(paths1), sorted(paths2)):
            assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_svg_is_wellformed_enough(self, tmp_path):
        import xml.etree.ElementTree as ET

        rep = analyze(fuzz_transform(8, K15, base="identity"), K15)
        paths = emit_plots(report_to_obj(rep), str(tmp_path))
        for p in paths:
            if p.endswith(".svg"):
                ET.parse(p)  # raises on malformed XML

    def test_artifacts_match_reference(self, tmp_path):
        """36 fuzz reports: every plot file is byte-identical to the one the
        previous three-block writer produced."""
        seen = set()
        for base in ("identity", "gauge", "legendre", "a"):
            for k in (AlmostOrderConstant(Fraction(11, 10)), K15, AlmostOrderConstant(2)):
                for seed in range(3):
                    alpha = Fraction(1, 7) if seed == 2 else 1
                    t = fuzz_transform(seed, k, base=base, alpha=alpha)
                    obj = report_to_obj(analyze(t, k))
                    new, old = tmp_path / "new", tmp_path / "old"
                    got = emit_plots(obj, str(new))
                    want = reference_emit_plots(obj, str(old))
                    assert [os.path.basename(p) for p in got] == [
                        os.path.basename(p) for p in want]
                    for name in map(os.path.basename, got):
                        assert (new / name).read_bytes() == (old / name).read_bytes(), name
                        (new / name).unlink(), (old / name).unlink()
                        seen.add(name)
        assert len(seen) == 6, seen
