"""Human-writable JSON descriptions of functions, with exact round-trips.

Recognized shapes::

    {"kind": "indicator", "z": 1.0}
    {"kind": "linear", "a": 2.0}
    {"kind": "triangle", "z": 1.0, "a": 2.0}
    {"kind": "pl", "knots": [[0, 0], [1, 0.5]], "tail_slope": 2.0}
    {"kind": "delta", "theta": 3.0, "c": 0.5}

Scalars may be JSON numbers, the string ``"inf"``, or an exact-rational
string ``"p/q"``; emission picks whichever token reproduces the value
exactly.  Every kind is built by its constructor, which owns its value
rules, and a 1-d function is written as the first named family whose
constructor rebuilds it exactly from the fields read off it, else as
``pl``; so emit -> parse is the identity by construction.
"""

from __future__ import annotations

import json
from contextlib import suppress
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

# named family -> (constructor, JSON fields, how each field is read off a function)
_FAMILIES = {
    "indicator": (make_indicator, ("z",), (lambda f: f.domain_end,)),
    "linear": (make_linear, ("a",), (lambda f: f.tail_slope,)),
    "triangle": (make_triangle, ("z", "a"), (lambda f: f.xs[-1], lambda f: f.first_slope)),
}


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


def _build(kind: str, make, *args):
    """``make(*args)``; a value its constructor rejects is a SpecFormatError."""
    try:
        return make(*args)
    except (ValueError, OverflowError) as exc:
        raise SpecFormatError(f"invalid {kind} function: {exc}") from exc


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
    if isinstance(kind, str) and kind in _FAMILIES:
        make, keys, _ = _FAMILIES[kind]
        return _build(kind, make, *(_scalar(obj, key) for key in keys))
    if kind == "pl":
        knots = obj.get("knots")
        pairs = isinstance(knots, list) and all(isinstance(p, list) and len(p) == 2 for p in knots)
        if not pairs:
            raise SpecFormatError("pl spec needs a list of [x, v] knots")
        knots = tuple(tuple(_number(c, "knot coordinate") for c in item) for item in knots)
        return _build(kind, lambda tail, tag: PLConvex1D(knots, tail, ClassTag(tag)),
                      _scalar(obj, "tail_slope"), obj.get("tag", "geometric"))
    if kind == "delta":
        raw = obj.get("theta")
        theta = (tuple(_number(t, "theta coordinate") for t in raw) if isinstance(raw, list)
                 else _scalar(obj, "theta"))
        return _build(kind, make_delta, theta, _scalar(obj, "c"))
    raise SpecFormatError(f"unknown function kind {kind!r}")


def function_to_obj(f: FunctionLike) -> dict:
    """Describe a function as a JSON object, preferring the named families."""
    if isinstance(f, DeltaFunction):
        theta = list(f.theta) if isinstance(f.theta, tuple) else f.theta
        return {"kind": "delta", "theta": theta, "c": f.c}
    if not isinstance(f, PLConvex1D):
        raise SpecFormatError(f"cannot describe {type(f).__name__}")
    for kind, (make, keys, readers) in _FAMILIES.items():
        values = [read(f) for read in readers]
        with suppress(SpecFormatError):  # f's fields lie outside the family
            if _build(kind, make, *values) == f:
                return {"kind": kind, **dict(zip(keys, map(scalar_token, values)))}
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


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, newlines untranslated (CLI outputs
    and report artifacts)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
