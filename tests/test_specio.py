import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from dualitylab import (
    INF,
    ClassTag,
    PLConvex1D,
    SpecFormatError,
    dumps_function,
    function_to_obj,
    loads_function,
    make_delta,
    make_indicator,
    make_linear,
    make_triangle,
    parse_function,
    scalar_token,
)

from helpers import geometric_functions, random_nonnegative


class TestScalarToken:
    def test_integers_collapse(self):
        assert scalar_token(Fraction(4, 2)) == 2
        assert isinstance(scalar_token(Fraction(4, 2)), int)

    def test_exact_floats_preferred(self):
        assert scalar_token(Fraction(1, 2)) == 0.5
        assert isinstance(scalar_token(Fraction(1, 2)), float)

    def test_inexact_fractions_stringified(self):
        assert scalar_token(Fraction(1, 3)) == "1/3"

    def test_inf(self):
        assert scalar_token(INF) == "inf"

    def test_beyond_float_range_stringified(self):
        big = Fraction(10**400 + 1, 3)
        assert scalar_token(big) == f"{10**400 + 1}/3"
        assert scalar_token(10**400) == 10**400


class TestRoundTrips:
    @pytest.mark.parametrize(
        "f",
        [
            make_indicator(Fraction(3, 7)),
            make_indicator(0),
            make_indicator(INF),
            make_linear(Fraction(22, 7)),
            make_linear(0),
            make_triangle(2, Fraction(1, 3)),
            PLConvex1D(((0, 0), (1, 0), (2, 3)), 5),
            PLConvex1D(((0, 2), (1, 2)), 4, tag=ClassTag.NONNEGATIVE),
            make_delta(3.0, 0.5),
            make_delta((1.0, -2.5), 0.0),
        ],
    )
    def test_emit_parse_identity(self, f):
        assert parse_function(function_to_obj(f)) == f
        assert loads_function(dumps_function(f)) == f

    def test_named_kinds_win(self):
        assert function_to_obj(make_indicator(2))["kind"] == "indicator"
        assert function_to_obj(make_linear(2))["kind"] == "linear"
        assert function_to_obj(make_triangle(1, 2))["kind"] == "triangle"
        assert function_to_obj(make_indicator(INF)) == {"kind": "indicator", "z": "inf"}
        # point indicator serializes through either family; must round-trip
        obj = function_to_obj(make_indicator(0))
        assert parse_function(obj) == make_indicator(0)

    def test_nonneg_tag_kept(self):
        f = PLConvex1D(((0, 1), (1, 1)), 0, tag=ClassTag.NONNEGATIVE)
        obj = function_to_obj(f)
        assert obj["tag"] == "nonnegative"
        assert parse_function(obj).tag is ClassTag.NONNEGATIVE

    @settings(max_examples=150, deadline=None)
    @given(geometric_functions())
    def test_random_geometric_round_trip(self, f):
        assert loads_function(dumps_function(f)) == f

    def test_beyond_float_range_round_trip(self):
        # a slope of 1e320 exceeds float range; the tiny knot stays a float token
        f = PLConvex1D(((0, 0), (1e-320, 1)), INF)
        assert function_to_obj(f)["kind"] == "triangle"
        for g in (f, PLConvex1D(((0, 0), (1, 1)), Fraction(10**400, 7))):
            assert loads_function(dumps_function(g)) == g

    def test_random_nonnegative_round_trip(self):
        rng = random.Random(9)
        for _ in range(60):
            f = random_nonnegative(rng)
            assert loads_function(dumps_function(f)) == f


class TestParseErrors:
    @pytest.mark.parametrize(
        "obj",
        [
            "not a dict",
            {},
            {"kind": "mystery"},
            {"kind": "indicator"},
            {"kind": "indicator", "z": -1},
            {"kind": "indicator", "z": True},
            {"kind": "indicator", "z": "nonsense"},
            {"kind": "linear", "a": -1},
            {"kind": "triangle", "z": 0, "a": 1},
            {"kind": "triangle", "z": "inf", "a": 1},
            {"kind": "pl", "knots": [], "tail_slope": 1},
            {"kind": "pl", "knots": [[0]], "tail_slope": 1},
            {"kind": "pl", "knots": [[0, "inf"]], "tail_slope": 1},
            {"kind": "pl", "knots": [[1, 0]], "tail_slope": 1},
            {"kind": "pl", "knots": [[0, 0]], "tail_slope": 1, "tag": "weird"},
            {"kind": "delta", "theta": "x", "c": 1},
            {"kind": "delta", "theta": 1.0, "c": "inf"},
            {"kind": "delta", "theta": 1.0, "c": -1},
            # knot and pin coordinates follow the scalar rule: no null,
            # object, list or bool
            {"kind": "pl", "knots": [[0, None]], "tail_slope": 1},
            {"kind": "pl", "knots": [[0, 0], [{}, 1]], "tail_slope": 2},
            {"kind": "pl", "knots": [[0, 0], [[1], 1]], "tail_slope": 2},
            {"kind": "pl", "knots": [[0, 0], [True, 1]], "tail_slope": 2},
            {"kind": "pl", "knots": [[0, 0], [1, "x"]], "tail_slope": 2},
            {"kind": "delta", "theta": [1.0, None], "c": 1},
            {"kind": "delta", "theta": [1.0, True], "c": 1},
            {"kind": "delta", "theta": [1.0, "inf"], "c": 1},
            {"kind": "delta", "c": 1},
            {"kind": "delta", "theta": [], "c": 1},  # a pin needs a coordinate
        ],
    )
    def test_rejected(self, obj):
        with pytest.raises(SpecFormatError):
            parse_function(obj)

    def test_invalid_json_text(self):
        with pytest.raises(SpecFormatError):
            loads_function("{nope")

    def test_exact_rational_tokens_parse(self):
        f = parse_function({"kind": "indicator", "z": "3/7"})
        assert f.domain_end == Fraction(3, 7)

    def test_coordinates_take_numeric_strings(self):
        f = parse_function({"kind": "pl", "knots": [[0, 0], ["1/3", "1/2"]], "tail_slope": 3})
        assert f.knots[1] == (Fraction(1, 3), Fraction(1, 2))
        assert parse_function({"kind": "delta", "theta": ["0.5", -1], "c": "1/4"}) == make_delta(
            (0.5, -1.0), 0.25
        )
