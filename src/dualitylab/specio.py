"""Human-writable JSON descriptions of functions, with exact round-trips.

Recognized shapes::

    {"kind": "indicator", "z": 1.0}
    {"kind": "linear", "a": 2.0}
    {"kind": "triangle", "z": 1.0, "a": 2.0}
    {"kind": "pl", "knots": [[0, 0], [1, 0.5]], "tail_slope": 2.0}
    {"kind": "delta", "theta": 3.0, "c": 0.5}

Scalars may be JSON numbers, the string ``"inf"``, or an exact-rational
string ``"p/q"``; emission picks whichever token reproduces the value
exactly, so emit -> parse is the identity on canonical functions.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Union

from .exceptions import SpecFormatError
from .extremal import (
    DeltaFunction,
    make_delta,
    make_indicator,
    make_linear,
    make_triangle,
)
from .pl import ClassTag, PLConvex1D, as_extended, is_inf

FunctionLike = Union[PLConvex1D, DeltaFunction]


def _number(raw, what: str):
    """A JSON number or numeric string as a Fraction or +inf (`as_extended`)."""
    try:
        return as_extended(raw)
    except (TypeError, ValueError) as exc:  # TypeError: a bool, null, list or object
        raise SpecFormatError(f"{what}: {exc}") from exc


def _scalar(obj: dict, key: str):
    if key not in obj:
        raise SpecFormatError(f"function spec is missing field {key!r}")
    return _number(obj[key], f"field {key!r}")


def scalar_token(v) -> Union[int, float, str]:
    """Emit an Extended value as the simplest exactly-reparsing JSON token."""
    if is_inf(v):
        return "inf"
    v = Fraction(v)
    if v.denominator == 1:
        return int(v)
    try:
        as_float = float(v)
        if Fraction(as_float) == v:
            return as_float
    except OverflowError:  # beyond float range, so no float token is exact
        pass
    return f"{v.numerator}/{v.denominator}"


def parse_function(obj: dict) -> FunctionLike:
    """Build a function from its JSON-object description."""
    if not isinstance(obj, dict):
        raise SpecFormatError("function spec must be a JSON object")
    kind = obj.get("kind")
    if kind == "indicator":
        z = _scalar(obj, "z")
        if not is_inf(z) and z < 0:
            raise SpecFormatError("indicator needs z >= 0")
        return make_indicator(z)
    if kind == "linear":
        a = _scalar(obj, "a")
        if not is_inf(a) and a < 0:
            raise SpecFormatError("linear needs a >= 0")
        return make_linear(a)
    if kind == "triangle":
        z, a = _scalar(obj, "z"), _scalar(obj, "a")
        if is_inf(z) or is_inf(a) or z <= 0 or a <= 0:
            raise SpecFormatError("triangle needs finite z > 0 and a > 0")
        return make_triangle(z, a)
    if kind == "pl":
        knots_raw = obj.get("knots")
        if not isinstance(knots_raw, list) or not knots_raw:
            raise SpecFormatError("pl spec needs a nonempty knots list")
        knots = []
        for item in knots_raw:
            if not isinstance(item, list) or len(item) != 2:
                raise SpecFormatError("each knot must be an [x, v] pair")
            x, v = (_number(c, "knot coordinate") for c in item)
            if is_inf(x) or is_inf(v):
                raise SpecFormatError("knots must be finite")
            knots.append((x, v))
        tail = _scalar(obj, "tail_slope")
        tag_name = obj.get("tag", "geometric")
        try:
            tag = ClassTag(tag_name)
        except ValueError:
            raise SpecFormatError(f"unknown class tag {tag_name!r}") from None
        try:
            return PLConvex1D(tuple(knots), tail, tag)
        except Exception as exc:
            raise SpecFormatError(f"invalid pl function: {exc}") from exc
    if kind == "delta":
        raw = obj.get("theta")
        if isinstance(raw, list):
            theta = tuple(_number(t, "theta coordinate") for t in raw)
        else:
            theta = _scalar(obj, "theta")
        try:
            return make_delta(theta, _scalar(obj, "c"))
        except (ValueError, OverflowError) as exc:
            raise SpecFormatError(str(exc)) from exc
    raise SpecFormatError(f"unknown function kind {kind!r}")


def function_to_obj(f: FunctionLike) -> dict:
    """Describe a function as a JSON object, preferring the named families."""
    if isinstance(f, DeltaFunction):
        theta = list(f.theta) if isinstance(f.theta, tuple) else f.theta
        return {"kind": "delta", "theta": theta, "c": f.c}
    if not isinstance(f, PLConvex1D):
        raise SpecFormatError(f"cannot describe {type(f).__name__}")
    if f.tag is ClassTag.GEOMETRIC:
        if f.is_zero:
            return {"kind": "indicator", "z": "inf"}
        if f.is_indicator:
            return {"kind": "indicator", "z": scalar_token(f.domain_end)}
        if f.is_linear:
            return {"kind": "linear", "a": scalar_token(f.tail_slope)}
        if (
            len(f.knots) == 2
            and f.knots[0][1] == 0
            and f.knots[1][1] > 0
            and is_inf(f.tail_slope)
        ):
            z = f.knots[1][0]
            return {
                "kind": "triangle",
                "z": scalar_token(z),
                "a": scalar_token(f.slopes[0]),
            }
    obj = {
        "kind": "pl",
        "knots": [[scalar_token(x), scalar_token(v)] for x, v in f.knots],
        "tail_slope": scalar_token(f.tail_slope),
    }
    if f.tag is not ClassTag.GEOMETRIC:
        obj["tag"] = f.tag.value
    return obj


def loads_function(text: str) -> FunctionLike:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON: {exc}") from exc
    return parse_function(obj)


def dumps_function(f: FunctionLike) -> str:
    return json.dumps(function_to_obj(f), sort_keys=True)
