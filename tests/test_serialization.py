"""The function-spec, corpus and grid readers and writers against their
previous copies in `helpers`, and the input errors they give on the CLI.

Each named family is read and written through its constructor, and the
counts and lattice indices of a corpus are checked by `Corpus` and
`CorpusTransform`; the differentials show that the JSON written and the
inputs accepted are unchanged."""

import copy
import json
import random
from fractions import Fraction

import numpy as np
import pytest

import test_specio
from dualitylab import (
    INF,
    Corpus,
    CorpusTransform,
    GridFunction2D,
    GridValidationError,
    SpecFormatError,
    corpus_to_obj,
    function_to_obj,
    geometric_corpus,
    hat_inf2,
    make_delta,
    make_indicator,
    make_linear,
    make_triangle,
    parse_corpus,
    parse_corpus_transform,
    parse_function,
    read_grid_csv,
    sup2,
    transform_to_obj,
    write_grid_csv,
)
from dualitylab.cli import main

from helpers import (
    random_geometric,
    random_nonnegative,
    reference_function_to_obj,
    reference_parse_corpus,
    reference_parse_corpus_transform,
    reference_parse_function,
    reference_read_grid_csv,
)

BIG = Fraction(10**400 + 1, 3)  # beyond float range
# family parameters: exact, "p/q", beyond float range, below float range, +inf
PARAMS = (0, 2, Fraction(3, 7), Fraction(1, 3), 0.5, 1e-320, BIG, 10**400,
          Fraction(1, 10**400), INF)


def _named(rng: random.Random):
    """A named-family function or a pin, with a parameter from PARAMS."""
    roll = rng.randrange(5)
    if roll == 0:
        return make_indicator(rng.choice(PARAMS))
    if roll == 1:
        return make_linear(rng.choice(PARAMS))
    if roll == 2:
        finite = [p for p in PARAMS if p != 0 and p is not INF]
        return make_triangle(rng.choice(finite), rng.choice(finite))
    c = rng.choice((0.0, 0.5, 3.0, 1e-300, 1e300))
    if roll == 3:
        return make_delta(rng.uniform(-5, 5), c)
    return make_delta((rng.uniform(-5, 5), rng.choice((0.0, -2.5, 1e300))), c)


def _functions(rng: random.Random, n: int) -> list:
    """n seeded functions: geometric (few knots half the time, so the named
    families come up), nonnegative, named families and pins."""
    out = []
    while len(out) < n:
        roll = rng.randrange(4)
        if roll == 0:
            out.append(random_geometric(rng, max_knots=rng.choice((2, 3, 12))))
        elif roll == 1:
            out.append(random_nonnegative(rng))
        else:
            out.append(_named(rng))
    return out


JUNK = (None, True, False, [], {}, "x", "inf", "-inf", "nan", "1/0", "3/7", "-1/2",
        -1, 0, 1, 0.5, -0.5, 10**400, f"{10**400 + 1}/3", float("inf"), float("nan"),
        [1], [1, 2], [[0, 0]], [[0, 0], [1, 1]], [[0, 1], [1, 0]], [0, "inf"],
        "indicator", "linear", "triangle", "pl", "delta", "geometric", "nonnegative")
KEYS = ("kind", "z", "a", "tag", "knots", "tail_slope", "theta", "c")


def _mutate_function(rng: random.Random, obj):
    """obj with one random edit: a field set to junk or dropped, or one knot
    or pin coordinate changed, dropped or added."""
    if not isinstance(obj, dict) or rng.random() < 0.02:
        return rng.choice(JUNK)
    obj = copy.deepcopy(obj)
    roll = rng.randrange(4)
    if roll == 0 and obj:
        del obj[rng.choice(sorted(obj))]
    elif roll == 1:
        obj[rng.choice(KEYS)] = copy.deepcopy(rng.choice(JUNK))
    else:
        seq = [v for v in (obj.get("knots"), obj.get("theta")) if isinstance(v, list)]
        if not seq:
            obj[rng.choice(KEYS)] = copy.deepcopy(rng.choice(JUNK))
            return obj
        seq = rng.choice(seq)
        inner = [item for item in seq if isinstance(item, list)]
        target = rng.choice(inner) if inner and rng.random() < 0.7 else seq
        edit = rng.randrange(3)
        if edit == 0 and target:
            target[rng.randrange(len(target))] = copy.deepcopy(rng.choice(JUNK))
        elif edit == 1 and target:
            del target[rng.randrange(len(target))]
        else:
            target.append(copy.deepcopy(rng.choice(JUNK)))
    return obj


def _outcome(parse, obj):
    """("ok", result) or the exception's type; the input is left unchanged."""
    before = copy.deepcopy(obj)
    try:
        result = ("ok", parse(obj))
    except Exception as exc:  # compared as data: old and new must agree
        result = (type(exc),)
    assert repr(obj) == repr(before), "a reader edited its input"
    return result


class TestFunctionSpecDifferential:
    def test_writer_matches_the_shape_tests(self):
        """Every function is written byte for byte as before, and the JSON
        parses back to an equal function."""
        rng = random.Random(20)
        kinds = {}
        for f in _functions(rng, 4200):
            obj = function_to_obj(f)
            text = json.dumps(obj)  # key order too
            assert text == json.dumps(reference_function_to_obj(f)), f
            assert parse_function(json.loads(text)) == f, text
            kinds[obj["kind"]] = kinds.get(obj["kind"], 0) + 1
        assert all(kinds.get(k, 0) >= 100 for k in
                   ("indicator", "linear", "triangle", "pl", "delta")), kinds

    def test_reader_matches_the_hand_checks(self):
        """Mutated spec objects: both readers reject with SpecFormatError,
        or both build equal functions."""
        rng = random.Random(21)
        bases = [function_to_obj(f) for f in _functions(rng, 400)]
        bases += test_specio.TestParseErrors.test_rejected.pytestmark[0].args[1]
        tally = {"ok": 0, "rejected": 0}
        for _ in range(7600):
            obj = rng.choice(bases)
            for _edit in range(rng.choice((1, 1, 2, 3))):
                obj = _mutate_function(rng, obj)
            new, old = _outcome(parse_function, obj), _outcome(reference_parse_function, obj)
            assert new == old, (obj, new, old)
            assert new[0] in ("ok", SpecFormatError), (obj, new)
            tally["ok" if new[0] == "ok" else "rejected"] += 1
        assert min(tally.values()) >= 1000, tally


def _lattice_corpus() -> Corpus:
    ind, lin = make_indicator(1), make_linear(1)
    return Corpus(
        (ind, lin, sup2(ind, lin), hat_inf2(ind, lin), make_indicator(INF), make_indicator(0)),
        ("ind", "lin", "join", "meet", "zero", "point"), "lattice", ((0, 1, 2, 3),))


PAIRS_JUNK = ([[0, 1, 2, 5]], [[0, 1, 2, -1]], [[0, 1, 2, 6]], [[0, 1, 2]], [[0, 1, 2, "x"]],
              [[0, 1, 2, None]], "abcd", [[0, 1, 2, float("inf")]], [[0, 1, 2, float("nan")]],
              [[0, 1, 2, 3.7]], [[True, 1, 2, 3]], [[0, 1, 2, "3"]], 5, [[1, 0, 2, 3]])


def _mutate_list(rng: random.Random, seq: list, junk) -> None:
    roll = rng.randrange(3)
    if roll == 0 and seq:
        del seq[rng.randrange(len(seq))]
    elif roll == 1:
        seq.append(copy.deepcopy(junk))
    elif seq:
        seq[rng.randrange(len(seq))] = copy.deepcopy(junk)


def _mutate_corpus(rng: random.Random, obj: dict) -> dict:
    obj = copy.deepcopy(obj)
    roll = rng.randrange(6)
    if roll == 0:
        _mutate_list(rng, obj["labels"], rng.choice(("extra", 7, None)))
    elif roll == 1:
        i = rng.randrange(len(obj["elements"]))
        obj["elements"][i] = _mutate_function(rng, obj["elements"][i])
    elif roll == 2:
        _mutate_list(rng, obj["elements"], rng.choice(obj["elements"]))
    elif roll == 3:
        obj["lattice_pairs"] = copy.deepcopy(rng.choice(PAIRS_JUNK))
    else:
        obj[rng.choice(("kind", "labels", "elements", "lattice_pairs", "description"))] = (
            copy.deepcopy(rng.choice(JUNK)))
    return obj


def _mutate_transform(rng: random.Random, obj: dict) -> dict:
    obj = copy.deepcopy(obj)
    roll = rng.randrange(5)
    if roll < 2:
        obj["corpus"] = _mutate_corpus(rng, obj["corpus"])
    elif roll == 2:
        _mutate_list(rng, obj["images"], rng.choice(obj["images"]))
    elif roll == 3:
        i = rng.randrange(len(obj["images"]))
        obj["images"][i] = _mutate_function(rng, obj["images"][i])
    else:
        obj[rng.choice(("kind", "corpus", "images", "provenance"))] = (
            copy.deepcopy(rng.choice(JUNK)))
    return obj


class TestCorpusDifferential:
    """Mutated corpus and corpus-transform objects: equal objects, or a
    SpecFormatError where the previous readers raised one.  They also let
    two errors through: a label count the Corpus constructor rejects
    (ValueError), and an infinite lattice index (OverflowError from int);
    both are now a SpecFormatError too."""

    def test_readers_match_the_previous_checks(self):
        rng = random.Random(22)
        corpora = (geometric_corpus((0, 1)), _lattice_corpus())
        bases = [corpus_to_obj(c) for c in corpora]
        transforms = [transform_to_obj(CorpusTransform(c, tuple(reversed(c.elements)), "rev"))
                      for c in corpora]
        tally = {}
        for n in range(3000):
            if n % 2:
                obj = _mutate_transform(rng, rng.choice(transforms))
                new, old = (_outcome(parse_corpus_transform, obj),
                            _outcome(reference_parse_corpus_transform, obj))
            else:
                obj = _mutate_corpus(rng, rng.choice(bases))
                new, old = _outcome(parse_corpus, obj), _outcome(reference_parse_corpus, obj)
            if old[0] in (ValueError, OverflowError):
                assert new == (SpecFormatError,), (obj, new)
            else:
                assert new == old, (obj, new, old)
            key = old[0] if old[0] == "ok" else old[0].__name__
            tally[key] = tally.get(key, 0) + 1
        assert tally["ok"] >= 300 and tally["SpecFormatError"] >= 1000, tally
        assert tally["ValueError"] >= 50 and tally["OverflowError"] >= 10, tally

    @pytest.mark.parametrize("index", [5, -1])
    def test_hand_built_corpus_checks_its_indices(self, index):
        c = geometric_corpus((0,))  # 4 elements
        with pytest.raises(ValueError, match="^lattice pair index out of range$"):
            Corpus(c.elements, c.labels, "", ((0, 1, 2, index),))


def _grid(rng: random.Random) -> GridFunction2D:
    b = rng.choice((1, 2))
    return GridFunction2D.from_function(
        lambda x, y: x * x + b * y * y if abs(x) < 1.5 else INF, R=2.0, N=rng.choice((3, 5)))


CELL_JUNK = ("x", "", "inf", "nan", "-1", "0", "1e400", "-inf")


def _mutate_grid_rows(rng: random.Random, rows: list) -> list:
    rows = [list(r) for r in rows]
    roll = rng.randrange(6)
    if roll == 0 and len(rows) > 1:
        del rows[rng.randrange(1, len(rows))]
    elif roll == 1:
        rows.append(list(rng.choice(rows[1:] or [["0"]])))
    elif roll == 2:
        row = rng.choice(rows)
        del row[rng.randrange(len(row))]
    elif roll == 3:
        rng.choice(rows).append(rng.choice(CELL_JUNK))
    elif roll == 4 and len(rows) > 1:
        row = rows[rng.randrange(1, len(rows))]
        row[rng.randrange(len(row))] = rng.choice(CELL_JUNK)
    else:
        rows[0][rng.randrange(3)] = rng.choice(
            ("1", "4", "7", "-1", "x", "0", "nan", "inf", "cone", "nonnegative"))
    return rows


class TestGridCsvDifferential:
    """Mutated grid CSVs: equal grids, or a ValueError on both sides that is
    a GridValidationError wherever the previous reader raised one."""

    def test_reader_matches_the_row_count_check(self, tmp_path):
        rng = random.Random(23)
        path = tmp_path / "g.csv"
        tally = {}
        for _ in range(400):
            write_grid_csv(_grid(rng), str(path))
            rows = [line.split(",") for line in path.read_text().splitlines()]
            for _edit in range(rng.choice((0, 1, 1, 2))):
                rows = _mutate_grid_rows(rng, rows)
            path.write_text("".join(",".join(r) + "\n" for r in rows))
            new, old = (_outcome(read_grid_csv, str(path)),
                        _outcome(reference_read_grid_csv, str(path)))
            if old[0] == "ok":
                assert new[0] == "ok", (rows, new)
                (_, g), (_, h) = new, old
                assert g.spec == h.spec and g.tag is h.tag
                assert np.array_equal(g.values, h.values)
                key = "ok"
            else:
                assert issubclass(old[0], ValueError) and issubclass(new[0], ValueError), rows
                if old[0] is GridValidationError:
                    assert new[0] is GridValidationError, (rows, new)
                key = old[0].__name__
            tally[key] = tally.get(key, 0) + 1
        assert tally["ok"] >= 50 and tally["GridValidationError"] >= 50, tally
        assert tally["ValueError"] >= 20, tally


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


class TestCliInputErrors:
    @pytest.mark.parametrize("obj", test_specio.TestParseErrors.test_rejected.pytestmark[0].args[1])
    def test_rejected_specs_exit_2(self, capsys, tmp_path, obj):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "transform", "--op", "j", "--in", str(path))
        assert code == 2 and out == "" and _one_error_line(err), err

    @staticmethod
    def _transform_obj():
        c = geometric_corpus((0, 1))
        c = Corpus(c.elements[:5], c.labels[:5], "five elements")  # no point indicator
        return transform_to_obj(CorpusTransform(c, c.elements))

    @pytest.mark.parametrize("edit", [
        lambda o: o["corpus"]["labels"].pop(),
        lambda o: o["images"].pop(),
        lambda o: o["corpus"].__setitem__("lattice_pairs", [[0, 1, 2, 5]]),
        lambda o: o["corpus"].__setitem__("lattice_pairs", [[0, 1, 2, -1]]),
        lambda o: o["corpus"].__setitem__("lattice_pairs", [[0, 1, 2, float("inf")]]),
    ], ids=["label-count", "image-count", "index-5", "index-minus-1", "index-infinity"])
    def test_bad_corpus_transforms_exit_2(self, capsys, tmp_path, edit):
        obj = self._transform_obj()
        edit(obj)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "check", "order", "--transform", str(path),
                             "--ctilde", "1.5")
        assert code == 2 and out == "" and _one_error_line(err), err

    def test_report_beyond_float_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({"kind": "stability-report", "ctilde": 10**400}))
        code, out, err = run(capsys, "report", "--in", str(path))
        assert code == 2 and out == "" and _one_error_line(err), err

    def test_unedited_transform_is_read(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(self._transform_obj()))
        code, out, err = run(capsys, "check", "order", "--transform", str(path),
                             "--ctilde", "1.5")
        assert code in (0, 1) and err == "" and "stability report" in out
