import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from dualitylab import GridFunction2D, read_grid_csv, write_grid_csv
from dualitylab.cli import _positive_ctilde, main

from helpers import subprocess_env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTransform:
    def test_gauge_of_ray_to_stdout(self, capsys, tmp_path):
        spec = tmp_path / "f.json"
        spec.write_text('{"kind": "linear", "a": 2}')
        code, out, _ = run(capsys, "transform", "--op", "j", "--in", str(spec))
        assert code == 0
        assert json.loads(out) == {"kind": "indicator", "z": 0.5}

    def test_out_file(self, capsys, tmp_path):
        spec = tmp_path / "f.json"
        spec.write_text('{"kind": "indicator", "z": 2}')
        dest = tmp_path / "g.json"
        code, out, _ = run(
            capsys, "transform", "--op", "legendre", "--in", str(spec),
            "--out", str(dest),
        )
        assert code == 0 and out == ""
        assert json.loads(dest.read_text()) == {"kind": "linear", "a": 2}

    @pytest.mark.parametrize("op", ["legendre", "a", "j"])
    def test_rational_beyond_float_range(self, capsys, tmp_path, op):
        from dualitylab import gauge_transform, geometric_dual, legendre, loads_function

        text = '{"kind": "pl", "knots": [[0, 0], [1e-320, 1]], "tail_slope": "inf"}'
        spec = tmp_path / "f.json"
        spec.write_text(text)
        code, out, err = run(capsys, "transform", "--op", op, "--in", str(spec))
        assert code == 0 and err == ""
        apply = {"legendre": legendre, "a": geometric_dual, "j": gauge_transform}[op]
        assert loads_function(out) == apply(loads_function(text))

    def test_grid_round(self, capsys, tmp_path):
        g = GridFunction2D.from_function(
            lambda x, y: (x * x + y * y) / 2, R=4.0, N=33
        )
        src, dst = tmp_path / "g.csv", tmp_path / "lg.csv"
        write_grid_csv(g, str(src))
        code, _, _ = run(
            capsys, "transform", "--op", "legendre", "--in", str(src),
            "--out", str(dst),
        )
        assert code == 0
        h = read_grid_csv(str(dst))
        assert np.abs(h.values - g.values).max() <= 2 * g.spec.step * 4.0

    def test_grid_requires_out(self, capsys, tmp_path):
        src = tmp_path / "g.csv"
        write_grid_csv(
            GridFunction2D.from_function(lambda x, y: x * x + y * y, R=1.0, N=5),
            str(src),
        )
        code, _, err = run(capsys, "transform", "--op", "a", "--in", str(src))
        assert code == 2 and "error:" in err

    def test_bad_op_is_usage_error(self, capsys, tmp_path):
        spec = tmp_path / "f.json"
        spec.write_text('{"kind": "linear", "a": 2}')
        code, _, _ = run(capsys, "transform", "--op", "polar", "--in", str(spec))
        assert code == 2

    def test_missing_grid_input_is_usage_error(self, capsys, tmp_path):
        # CSV inputs bypass _read_json, so OSError must still exit cleanly
        code, _, err = run(
            capsys, "transform", "--op", "legendre",
            "--in", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o.csv"),
        )
        assert code == 2 and "absent.csv" in err

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        spec = tmp_path / "f.json"
        spec.write_text('{"kind": "linear", "a": 2}')
        code, _, err = run(
            capsys, "transform", "--op", "j", "--in", str(spec),
            "--out", str(tmp_path / "no-such-dir" / "g.json"),
        )
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "argv, spec",
        [
            (("transform", "--op", "j"), '{"kind": "pl", "knots": [[0, null]], "tail_slope": 1}'),
            (("transform", "--op", "j"),
             '{"kind": "pl", "knots": [[0, 0], [{"x": 1}, 1]], "tail_slope": 2}'),
            (("check", "ptilde", "--ctilde", "1.5"),
             '{"kind": "pl", "knots": [[0, 0], [true, 1]], "tail_slope": 2}'),
            (("transform", "--op", "legendre"), '{"kind": "delta", "theta": [1, null], "c": 1}'),
            (("transform", "--op", "legendre"), '{"kind": "delta", "theta": [], "c": 1}'),
        ],
    )
    def test_malformed_coordinate_is_usage_error(self, capsys, tmp_path, argv, spec):
        path = tmp_path / "f.json"
        path.write_text(spec)
        code, out, err = run(capsys, *argv, "--in", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestCheck:
    def test_order_certifies_identity(self, capsys, tmp_path):
        from dualitylab import CorpusTransform, geometric_corpus, transform_to_obj

        c = geometric_corpus()
        path = tmp_path / "t.json"
        path.write_text(json.dumps(transform_to_obj(CorpusTransform(c, c.elements))))
        code, out, _ = run(
            capsys, "check", "order", "--transform", str(path), "--ctilde", "1.5"
        )
        assert code == 0
        assert "identity" in out and "NOT" not in out

    def test_order_certifies_off_grid_corpus(self, capsys, tmp_path):
        from dualitylab import (
            INF, Corpus, CorpusTransform, make_indicator, make_linear, transform_to_obj,
        )

        c = Corpus(
            (make_indicator(2), make_indicator(3), make_linear(2), make_linear(3),
             make_indicator(INF), make_indicator(0)),
            ("i2", "i3", "l2", "l3", "zero", "point"), "off-grid")
        path = tmp_path / "t.json"
        path.write_text(json.dumps(transform_to_obj(CorpusTransform(c, c.elements))))
        code, out, _ = run(
            capsys, "check", "order", "--transform", str(path), "--ctilde", "1.5"
        )
        assert code == 0
        assert "identity (certified)" in out and "gamma" not in out
        assert "note: exponent not estimated" in out

    def test_order_certifies_corpus_with_one_extreme(self, capsys, tmp_path):
        from dualitylab import Corpus, CorpusTransform, geometric_corpus, transform_to_obj

        full = geometric_corpus()
        assert full.labels[-1] == "point{0}"
        c = Corpus(full.elements[:-1], full.labels[:-1], "no point{0}")
        path = tmp_path / "t.json"
        path.write_text(json.dumps(transform_to_obj(CorpusTransform(c, c.elements))))
        code, out, _ = run(
            capsys, "check", "order", "--transform", str(path), "--ctilde", "1.5"
        )
        assert code == 0 and "identity (certified)" in out

    def test_order_rejects_pinned_point_corpus_before_any_matrix(
        self, capsys, tmp_path, monkeypatch
    ):
        import dualitylab.reporting as reporting
        from dualitylab import CorpusTransform, delta_corpus, transform_to_obj

        c = delta_corpus()
        path = tmp_path / "t.json"
        path.write_text(json.dumps(transform_to_obj(CorpusTransform(c, c.elements))))
        parsed = []
        parse = reporting.parse_corpus_transform
        monkeypatch.setattr(
            reporting, "parse_corpus_transform",
            lambda obj: parsed.append(parse(obj)) or parsed[-1])
        code, out, err = run(
            capsys, "check", "order", "--transform", str(path), "--ctilde", "1.5"
        )
        assert code == 2 and out == ""
        assert err == "error: classification requires a corpus of 1-d functions\n"
        (t,) = parsed
        assert "R" not in t.corpus.__dict__ and "R_img" not in t.__dict__

    def test_order_rejects_pinned_point_images(self, capsys, tmp_path):
        from dualitylab import CorpusTransform, geometric_corpus, make_delta, transform_to_obj

        c = geometric_corpus((-1, 0, 1))
        t = CorpusTransform(c, tuple(make_delta(0.0, 1.0) for _ in c.elements))
        path = tmp_path / "t.json"
        path.write_text(json.dumps(transform_to_obj(t)))
        code, out, err = run(
            capsys, "check", "order", "--transform", str(path), "--ctilde", "1.5"
        )
        assert code == 2 and out == ""
        assert err == "error: classification requires 1-d images\n"

    def test_order_flags_sabotage(self, capsys, tmp_path):
        from dualitylab import CorpusTransform, geometric_corpus, transform_to_obj

        c = geometric_corpus()
        images = tuple(reversed(c.elements))
        path = tmp_path / "t.json"
        path.write_text(json.dumps(transform_to_obj(CorpusTransform(c, images))))
        code, out, _ = run(
            capsys, "check", "order", "--transform", str(path), "--ctilde", "1.5"
        )
        assert code == 1
        assert "NOT certified" in out

    @pytest.mark.parametrize("command", ["check", "fuzz"])
    def test_out_of_float_range_input_is_an_input_error(self, capsys, tmp_path, command):
        # the report prints each support end as a float, and 10**400 has none;
        # the error names the element and the field
        from dualitylab import (
            Corpus, CorpusTransform, corpus_to_obj, geometric_corpus, make_indicator,
            transform_to_obj,
        )

        full = geometric_corpus((-1, 0, 1))
        c = Corpus(full.elements + (make_indicator(10**400),), full.labels + ("huge",), "huge")
        path = tmp_path / "in.json"
        if command == "check":
            path.write_text(json.dumps(transform_to_obj(CorpusTransform(c, c.elements))))
            argv = ("check", "order", "--transform", str(path), "--ctilde", "1.5")
        else:
            path.write_text(json.dumps(corpus_to_obj(c)))
            argv = ("fuzz", "--base", "gauge", "--ctilde", "1.5", "--seed", "1",
                    "--corpus", str(path))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: support end of huge is beyond the float range\n"

    def test_below_float_range_input_is_an_input_error(self, capsys, tmp_path):
        # a positive 10**-400 has no float either: a float rounds it to 0
        from dualitylab import (
            Corpus, CorpusTransform, geometric_corpus, make_linear, transform_to_obj)

        full = geometric_corpus((-1, 0, 1))
        c = Corpus(full.elements + (make_linear(Fraction(1, 10**400)),),
                   full.labels + ("shallow",), "shallow")
        path = tmp_path / "in.json"
        path.write_text(json.dumps(transform_to_obj(CorpusTransform(c, c.elements))))
        code, out, err = run(capsys, "check", "order", "--transform", str(path),
                             "--ctilde", "1.5")
        assert (code, out) == (2, "")
        assert err == "error: slope of shallow is below the float range\n"

    def test_ptilde_pass(self, capsys, tmp_path):
        spec = tmp_path / "f.json"
        spec.write_text('{"kind": "indicator", "z": 1}')
        code, out, _ = run(
            capsys, "check", "ptilde", "--in", str(spec), "--ctilde", "1.5"
        )
        assert code == 0
        assert out == "relative-P̃: pass\n" or "pass" in out

    def test_ptilde_witness(self, capsys, tmp_path):
        spec = tmp_path / "f.json"
        spec.write_text('{"kind": "triangle", "z": 1, "a": 64}')
        code, out, _ = run(
            capsys, "check", "ptilde", "--in", str(spec), "--ctilde", "1.5"
        )
        assert code == 1
        assert '"kind"' in out  # both witness pieces are printed as specs

    def test_ptilde_witness_is_exact(self, capsys, tmp_path):
        spec = tmp_path / "f.json"
        spec.write_text('{"kind": "pl", "knots": [[0, 0], [1, 0]], "tail_slope": 1}')
        code, out, _ = run(
            capsys, "check", "ptilde", "--in", str(spec), "--ctilde", "1.5"
        )
        assert code == 1
        assert out.splitlines()[1:] == [
            '  g: {"a": "4/27", "kind": "linear"}',
            '  h: {"kind": "indicator", "z": "27/23"}',
        ]

    def test_ctilde_must_exceed_one(self, capsys, tmp_path):
        spec = tmp_path / "f.json"
        spec.write_text('{"kind": "indicator", "z": 1}')
        code, _, err = run(
            capsys, "check", "ptilde", "--in", str(spec), "--ctilde", "1.0"
        )
        assert code == 2 and "error:" in err


class TestExactConstant:
    """--ctilde is read exactly, as a decimal or "p/q", by `AlmostOrderConstant`."""

    def test_decimal_token_is_exact(self):
        assert _positive_ctilde("1.1").ctilde == Fraction(11, 10)

    def test_rational_token_and_bad_tokens(self, capsys):
        argv = ("fuzz", "--base", "gauge", "--seed", "7", "--ctilde")
        code, out, err = run(capsys, *argv, "3/2")
        assert code == 0 and err == ""
        assert out == run(capsys, *argv, "1.5")[1]
        for token in ("1/0", "nan", "inf"):
            code, out, err = run(capsys, *argv, token)
            assert code == 2 and out == "", token
            assert err.startswith("error: --ctilde: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("power, regime, flagged", [(7, "no", "no"), (10, "no", "yes")])
    def test_check_order_keeps_eleven_tenths(self, capsys, tmp_path, power, regime, flagged):
        # the float 1.1 exceeds 11/10 and would pass both spreads
        from dualitylab import CorpusTransform, dump_json, geometric_corpus, scale, transform_to_obj

        corpus = geometric_corpus((-4, -2, -1, 0, 1, 2, 4))
        images = list(corpus.elements)
        i = corpus.labels.index("linear 2^4*x")
        images[i] = scale(images[i], Fraction(11, 10) ** power * (1 + Fraction(1, 10**16)))
        path = tmp_path / "t.json"
        path.write_text(dump_json(transform_to_obj(CorpusTransform(corpus, tuple(images)))))
        code, out, _ = run(capsys, "check", "order", "--transform", str(path), "--ctilde", "1.1")
        assert code == 0
        assert "classification: identity (certified)" in out
        assert f"flagged: {flagged}; within C^7: {regime})" in out


class TestFuzz:
    def test_certified_run_with_artifacts(self, capsys, tmp_path):
        rep = tmp_path / "rep.json"
        plots = tmp_path / "plots"
        code, out, _ = run(
            capsys, "fuzz", "--base", "gauge", "--ctilde", "1.5", "--seed", "7",
            "--report", str(rep), "--emit-plots", str(plots),
        )
        assert code == 0
        obj = json.loads(rep.read_text())
        assert obj["certified"] and obj["classification"] == "gauge"
        assert abs(obj["gamma"] + 1.0) <= 0.05
        assert sorted(p.name for p in plots.iterdir()) == [
            "phi.csv", "phi.svg", "sandwich.csv", "sandwich.svg",
            "slope.csv", "slope.svg",
        ]

    def test_base_choices_are_the_table_of_bases(self, capsys):
        from dualitylab.stability import _BASES
        code, out, err = run(capsys, "fuzz", "--base", "bogus", "--ctilde", "2", "--seed", "1")
        choices = ", ".join(map(repr, _BASES))
        assert code == 2 and out == ""
        assert err.endswith(
            f"error: argument --base: invalid choice: 'bogus' (choose from {choices})\n")
        code, out, _ = run(capsys, "fuzz", "--help")
        assert code == 0 and "{" + ",".join(_BASES) + "}" in out

    def test_byte_identical_reruns(self, capsys, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for path in (out1, out2):
            code, _, _ = run(
                capsys, "fuzz", "--base", "identity", "--ctilde", "2.0",
                "--seed", "42", "--report", str(path),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("exponents, ctilde, pair", [
        (None, "100", "(indicator[0,2^-1], indicator[0,2^-2])"),
        ((0, 1, 2), "3", "(indicator[0,2^1], indicator[0,2^0])"),
    ])
    def test_jitter_wider_than_the_corpus_spacing(
        self, capsys, tmp_path, exponents, ctilde, pair
    ):
        # kappa ranges over [C**-0.5, C**0.5], so once C exceeds the spacing 2
        # a jittered gauge image can undercut its neighbour
        from dualitylab import corpus_to_obj, geometric_corpus

        argv = ["fuzz", "--base", "gauge", "--ctilde", ctilde, "--seed", "1"]
        if exponents is not None:
            path = tmp_path / "c.json"
            path.write_text(json.dumps(corpus_to_obj(geometric_corpus(exponents))))
            argv += ["--corpus", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == (
            "error: fuzzed transform failed its own certification: preserving-b "
            f"on {pair}: f <= (1/C)*g but not Tf <= Tg\n"
        )

    def test_sandwich_reverification_failure_surfaces(self, capsys, monkeypatch):
        import dualitylab.stability
        from dualitylab import ConsistencyError

        monkeypatch.setattr(dualitylab.stability, "leq", lambda f, g, factor=1: False)
        with pytest.raises(ConsistencyError, match="fitted sandwich fails"):
            main(["fuzz", "--base", "gauge", "--ctilde", "1.5", "--seed", "7"])

    def test_env_tolerance_accepted(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DUALITYLAB_TOL", "1e-9")
        code, _, _ = run(
            capsys, "fuzz", "--base", "identity", "--ctilde", "1.5", "--seed", "3"
        )
        assert code == 0

    def test_bad_env_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("DUALITYLAB_TOL", "plenty")
        code, _, err = run(
            capsys, "fuzz", "--base", "identity", "--ctilde", "1.5", "--seed", "3"
        )
        assert code == 2 and "DUALITYLAB_TOL" in err

    @pytest.mark.parametrize("flag, env", [
        (("--tolerance", "-1"), None), (("--tolerance", "nan"), None),
        (("--tolerance", "inf"), None), ((), "-1"), ((), "nan"), ((), "inf"),
    ])
    def test_bad_tolerance_rejected(self, capsys, monkeypatch, flag, env):
        monkeypatch.delenv("DUALITYLAB_TOL", raising=False)
        if env is not None:
            monkeypatch.setenv("DUALITYLAB_TOL", env)
        code, out, err = run(
            capsys, "fuzz", "--base", "identity", "--ctilde", "1.5", "--seed", "3", *flag
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "nonnegative" in err

    def test_zero_env_tolerance_is_used(self, capsys, tmp_path, monkeypatch):
        from dualitylab import INF, Corpus, corpus_to_obj, make_indicator, make_linear

        # log(1000) is 3*log(10) only to within a rounding error, so the grid
        # snap needs a tolerance above 0
        els = [make_indicator(z) for z in (10, 100, 1000)]
        els += [make_linear(a) for a in (10, 100, 1000)]
        els += [make_indicator(INF), make_indicator(0)]
        c = Corpus(tuple(els), tuple(f"e{i}" for i in range(8)), "decades")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(corpus_to_obj(c)))
        argv = ("fuzz", "--base", "identity", "--ctilde", "1.5", "--seed", "3",
                "--corpus", str(path))
        monkeypatch.setenv("DUALITYLAB_TOL", "0")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "note: exponent not estimated" in out
        monkeypatch.setenv("DUALITYLAB_TOL", "1e-6")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "exponent: gamma = 1.0" in out


class TestHyersUlam:
    def make_samples(self, tmp_path, eps_field=None):
        import random

        rng = random.Random(17)
        xs = [0.5 * i for i in range(-20, 21)]
        samples = [[x, 3.0 * x + rng.uniform(-0.1, 0.1)] for x in xs]
        obj = {"samples": samples}
        if eps_field is not None:
            obj["eps"] = eps_field
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(obj))
        return path

    def test_flag_eps(self, capsys, tmp_path):
        path = self.make_samples(tmp_path)
        out_path = tmp_path / "fit.json"
        code, out, _ = run(
            capsys, "hyers-ulam", "--in", str(path), "--eps", "0.3",
            "--out", str(out_path),
        )
        assert code == 0
        assert "sup |f - g|" in out
        fit = json.loads(out_path.read_text())
        assert fit["kind"] == "additive-approximation"
        assert fit["sup_error"] <= 0.3
        slopes = [g / x for x, g in fit["additive"] if abs(x) >= 2.0]
        assert all(abs(s - 3.0) <= 0.2 for s in slopes)

    def test_file_eps(self, capsys, tmp_path):
        path = self.make_samples(tmp_path, eps_field=0.3)
        code, _, _ = run(capsys, "hyers-ulam", "--in", str(path))
        assert code == 0

    def test_missing_eps(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("DUALITYLAB_TOL", raising=False)
        path = self.make_samples(tmp_path)
        code, _, err = run(capsys, "hyers-ulam", "--in", str(path))
        assert code == 2 and "eps" in err

    @pytest.mark.parametrize("flag, field, env", [
        (("--eps", "nan"), None, None), (("--eps", "inf"), None, None),
        (("--eps", "-1"), None, None), ((), "NaN", None), ((), "-1", None),
        ((), "[1]", None), ((), None, "nan"), ((), None, "-0.5"),
    ])
    def test_bad_eps_rejected(self, capsys, tmp_path, monkeypatch, flag, field, env):
        # the samples' additive defect is 3
        obj = '{"samples": [[0, 0], [1, 1], [2, 5]]' + (
            "" if field is None else f', "eps": {field}') + "}"
        path = tmp_path / "s.json"
        path.write_text(obj)
        monkeypatch.delenv("DUALITYLAB_TOL", raising=False)
        if env is not None:
            monkeypatch.setenv("DUALITYLAB_TOL", env)
        code, out, err = run(capsys, "hyers-ulam", "--in", str(path), *flag)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "must be" in err

    @pytest.mark.parametrize("samples", [
        '[[0, 0], [1, "nan"], [2, 2]]', '[[0, 0], [1, 1], ["inf", 2]]',
    ])
    def test_nonfinite_samples_rejected(self, capsys, tmp_path, samples):
        path = tmp_path / "s.json"
        path.write_text('{"samples": ' + samples + "}")
        out_path = tmp_path / "fit.json"
        code, out, err = run(
            capsys, "hyers-ulam", "--in", str(path), "--eps", "0.5",
            "--out", str(out_path),
        )
        assert code == 2 and out == "" and not out_path.exists()
        assert err == "error: samples must be finite\n"

    def test_mapping_samples_keep_their_abscissae(self, capsys, tmp_path):
        path, out_path = tmp_path / "s.json", tmp_path / "fit.json"
        path.write_text('{"samples": {"10": 0, "20": 0}, "eps": 1}')
        code, _, _ = run(capsys, "hyers-ulam", "--in", str(path), "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["additive"] == [[10.0, 0.0], [20.0, 0.0]]

    @pytest.mark.parametrize("samples", [
        "[[1]]", "[1, 2]", '"ab"', '["12"]', "5", "[[true, 1], [2, 2]]", "[[0, 0], [1, false]]",
    ])
    def test_malformed_samples_rejected(self, capsys, tmp_path, samples):
        path = tmp_path / "s.json"
        path.write_text('{"samples": ' + samples + ', "eps": 1}')
        code, out, err = run(capsys, "hyers-ulam", "--in", str(path))
        assert code == 2 and out == ""
        assert err == "error: samples must be (x, y) pairs of numbers\n"

    @pytest.mark.parametrize("text", ['{"eps": 1}', "[[0, 0], [1, 1]]"])
    def test_missing_samples_field(self, capsys, tmp_path, text):
        path = tmp_path / "s.json"
        path.write_text(text)
        code, out, err = run(capsys, "hyers-ulam", "--in", str(path))
        assert code == 2 and out == ""
        assert err == 'error: input needs a "samples" field\n'

    def test_violation_exit(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"samples": [[0, 0], [1, 1], [2, 30]]}))
        code, out, _ = run(capsys, "hyers-ulam", "--in", str(path), "--eps", "0.5")
        assert code == 1
        assert "additive hypothesis fails" in out


class TestReport:
    def test_rerender(self, capsys, tmp_path):
        rep = tmp_path / "rep.json"
        code, first, _ = run(
            capsys, "fuzz", "--base", "a", "--ctilde", "1.5", "--seed", "2",
            "--report", str(rep),
        )
        assert code == 0
        code, second, _ = run(capsys, "report", "--in", str(rep))
        assert code == 0
        assert second == first  # same text rendering

    def test_wrong_kind(self, capsys, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "corpus"}')
        code, _, err = run(capsys, "report", "--in", str(path))
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("edit, plots", [
        ({"violations": [{"condition": "sandwich", "detail": "no f"}]}, False),
        ({"sandwich_lower": "1.0", "sandwich_upper": 2.0}, False),
        (None, False),
        ({"classification": "gauge", "phi_samples": [[0.0, 1.0]], "alpha": 1.0,
          "sandwich_lower": 1.0, "sandwich_upper": 2.0}, True),
    ])
    def test_malformed_report(self, capsys, tmp_path, edit, plots):
        obj = [1, 2] if edit is None else {"kind": "stability-report", **edit}
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(obj))
        argv = ("--emit-plots", str(tmp_path / "plots")) if plots else ()
        code, out, err = run(capsys, "report", "--in", str(path), *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        spec = tmp_path / "f.json"
        spec.write_text('{"kind": "linear", "a": 2}')
        proc = subprocess.run(
            [sys.executable, "-m", "dualitylab.cli", "transform", "--op", "j",
             "--in", str(spec)],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"kind": "indicator", "z": 0.5}

    @pytest.mark.parametrize("op", ["legendre", "a", "j"])
    def test_grid_module_invocation(self, capsys, tmp_path, op):
        # a fresh process loads numpy only on first grid use
        src = tmp_path / "g.csv"
        write_grid_csv(GridFunction2D.from_function(math.hypot, R=2.0, N=17), str(src))
        fresh, here = tmp_path / "fresh.csv", tmp_path / "here.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "dualitylab.cli", "transform", "--op", op,
             "--in", str(src), "--out", str(fresh)],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0 and proc.stdout == proc.stderr == ""
        code, _, _ = run(capsys, "transform", "--op", op, "--in", str(src),
                         "--out", str(here))
        assert code == 0
        assert fresh.read_bytes() == here.read_bytes()

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2
