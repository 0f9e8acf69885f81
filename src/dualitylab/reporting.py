"""Serialization of corpora, corpus transforms, and stability reports.

Everything here is deterministic: JSON is emitted with sorted keys and no
timestamps, CSV rows are formatted with repr, and SVG plots are flat
polyline renderings with fixed-format coordinates, so identical inputs
produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
import os
from typing import List, Optional, Sequence, Tuple

from .corpus import Corpus
from .exceptions import SpecFormatError
from .specio import _write, function_to_obj, parse_function
from .stability import CorpusTransform, StabilityReport


def _jsonable_witness(w):
    if isinstance(w, tuple):
        return [float(v) for v in w]
    if w is None or isinstance(w, (int, float, str)):
        return w
    return float(w)


def corpus_to_obj(c: Corpus) -> dict:
    return {
        "kind": "corpus",
        "description": c.description,
        "labels": list(c.labels),
        "elements": [function_to_obj(f) for f in c.elements],
        "lattice_pairs": [list(p) for p in c.lattice_pairs],
    }


def _parse(obj: dict, kind: str, build):
    """``build(obj)`` for an object of ``kind``; a wrong kind, a missing or
    malformed field, or a value a constructor rejects is one SpecFormatError."""
    if not isinstance(obj, dict) or obj.get("kind") != kind:
        raise SpecFormatError(f"{kind} object must have kind {kind!r}")
    try:
        return build(obj)
    except SpecFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpecFormatError(f"malformed {kind} object: {exc}") from exc


def parse_corpus(obj: dict) -> Corpus:
    return _parse(obj, "corpus", lambda o: Corpus(
        tuple(parse_function(e) for e in o["elements"]),
        tuple(str(s) for s in o["labels"]),
        str(o.get("description", "")),
        tuple((int(a), int(b), int(s), int(m)) for a, b, s, m in o.get("lattice_pairs", [])),
    ))


def transform_to_obj(t: CorpusTransform) -> dict:
    return {
        "kind": "corpus-transform",
        "corpus": corpus_to_obj(t.corpus),
        "images": [function_to_obj(f) for f in t.images],
        "provenance": t.provenance,
    }


def parse_corpus_transform(obj: dict) -> CorpusTransform:
    return _parse(obj, "corpus-transform", lambda o: CorpusTransform(
        parse_corpus(o.get("corpus", {})),
        tuple(parse_function(e) for e in o["images"]),
        str(o.get("provenance", "")),
    ))


def report_to_obj(r: StabilityReport) -> dict:
    return {
        "kind": "stability-report",
        "classification": r.classification.value,
        "certified": r.certified,
        "ctilde": float(r.ctilde),
        "violations": [
            {
                "condition": v.condition,
                "f": v.f_label,
                "g": v.g_label,
                "witness": _jsonable_witness(v.witness),
                "detail": v.detail,
            }
            for v in r.violations
        ],
        "phi_samples": [[z, p] for z, p in r.phi_samples],
        "slope_samples": [[a, c] for a, c in r.slope_samples],
        "alpha": r.alpha,
        "sandwich_lower": r.sandwich_lower,
        "sandwich_upper": r.sandwich_upper,
        "gamma": r.gamma,
        "exponent_deviation": r.exponent_deviation,
        "sandwich_flagged": r.sandwich_flagged,
        "within_regime": r.within_regime,
        "diagnostics": list(r.diagnostics),
        "provenance": r.provenance,
    }


def dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _fmt(v: Optional[float]) -> str:
    if v is None:
        return "n/a"
    return repr(float(v))


def render_report_text(obj: dict) -> str:
    """Human-readable rendering of a stability-report object."""
    lines = ["stability report"]
    if obj.get("provenance"):
        lines.append(f"  source: {obj['provenance']}")
    lines.append(f"  constant: C = {_fmt(obj.get('ctilde'))}")
    cls = obj.get("classification", "unknown")
    cert = "certified" if obj.get("certified") else "NOT certified"
    lines.append(f"  classification: {cls} ({cert})")
    if obj.get("gamma") is not None:
        lines.append(
            f"  exponent: gamma = {_fmt(obj['gamma'])} "
            f"(sup deviation {_fmt(obj.get('exponent_deviation'))})"
        )
    if obj.get("alpha") is not None:
        lines.append(f"  dilation: alpha = {_fmt(obj['alpha'])}")
    lo, hi = obj.get("sandwich_lower"), obj.get("sandwich_upper")
    if lo is not None and hi is not None:
        spread = hi / lo if lo else math.inf
        flagged = "yes" if obj.get("sandwich_flagged") else "no"
        regime = "yes" if obj.get("within_regime") else "no"
        lines.append(
            f"  sandwich: {_fmt(lo)} * ref <= Tf <= {_fmt(hi)} * ref "
            f"(spread {spread!r}; flagged: {flagged}; within C^7: {regime})"
        )
    for note in obj.get("diagnostics", ()):
        lines.append(f"  note: {note}")
    violations = obj.get("violations", ())
    if not violations:
        lines.append("  violations: none")
    else:
        lines.append(f"  violations: {len(violations)}")
        for v in violations:
            pair = v["f"] + (f" vs {v['g']}" if v.get("g") else "")
            at = "" if v.get("witness") is None else f" at {v['witness']}"
            lines.append(f"    [{v['condition']}] {pair}{at}: {v['detail']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# plot emission


_SVG_W, _SVG_H = 480, 360
_MARGIN = 48.0


def _svg_scatter_lines(
    series: Sequence[Tuple[str, Sequence[Tuple[float, float]]]],
    title: str,
) -> str:
    """Flat log10/log10 SVG with one polyline per series; points carry small
    markers, and points off the positive quadrant are dropped."""
    pts_all: List[Tuple[float, float]] = []
    plotted: List[Tuple[str, List[Tuple[float, float]]]] = []
    for name, pts in series:
        keep = [(math.log10(x), math.log10(y)) for x, y in pts if x > 0 and y > 0]
        if keep:
            plotted.append((name, keep))
            pts_all.extend(keep)
    if not pts_all:
        pts_all = [(0.0, 0.0), (1.0, 1.0)]
    x0 = min(p[0] for p in pts_all)
    x1 = max(p[0] for p in pts_all)
    y0 = min(p[1] for p in pts_all)
    y1 = max(p[1] for p in pts_all)
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0

    def to_px(p):
        px = _MARGIN + (p[0] - x0) / dx * (_SVG_W - 2 * _MARGIN)
        py = _SVG_H - _MARGIN - (p[1] - y0) / dy * (_SVG_H - 2 * _MARGIN)
        return f"{px:.2f},{py:.2f}"

    colors = ("#1f5fa8", "#bb3311", "#227744", "#886600")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{_MARGIN:.2f}" y="{_MARGIN:.2f}" '
        f'width="{_SVG_W - 2 * _MARGIN:.2f}" '
        f'height="{_SVG_H - 2 * _MARGIN:.2f}" fill="none" stroke="#333"/>',
        f'<text x="{_MARGIN:.2f}" y="{_MARGIN - 12:.2f}" '
        f'font-family="monospace" font-size="13">{title}</text>',
    ]
    parts.append(
        f'<text x="{_MARGIN:.2f}" y="{_SVG_H - 12:.2f}" '
        f'font-family="monospace" font-size="11">axes: log10/log10; '
        f'x in [{x0:.4g}, {x1:.4g}], y in [{y0:.4g}, {y1:.4g}]</text>'
    )
    for i, (name, pts) in enumerate(plotted):
        color = colors[i % len(colors)]
        coords = " ".join(to_px(p) for p in pts)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
        for p in pts:
            px, py = to_px(p).split(",")
            parts.append(
                f'<circle cx="{px}" cy="{py}" r="2.5" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{_SVG_W - _MARGIN:.2f}" y="{_MARGIN + 14 * (i + 1):.2f}" '
            f'text-anchor="end" font-family="monospace" font-size="11" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _csv_rows(header: Sequence[str], rows: Sequence[Sequence[float]]) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(repr(float(v)) for v in row))
    return "\n".join(out) + "\n"


def emit_plots(obj: dict, directory: str) -> List[str]:
    """Write phi(z), c(a), and sandwich-envelope CSV + SVG artifacts."""
    os.makedirs(directory, exist_ok=True)
    phi = [(float(z), float(p)) for z, p in obj.get("phi_samples", ())]
    slopes = [(float(a), float(c)) for a, c in obj.get("slope_samples", ())]
    # the sandwich constants bound values, so the envelope is drawn around
    # whichever sample family carries value jitter: image slopes in both cases
    lo, hi = obj.get("sandwich_lower"), obj.get("sandwich_upper")
    alpha = obj.get("alpha")
    gauge_like = obj.get("classification") == "gauge"
    family, name = (phi, "phi(z)") if gauge_like else (slopes, "c(a)")
    band = []
    if family and lo is not None and hi is not None and alpha:
        for x, v in family:
            ref = (1.0 / (alpha * x)) if gauge_like else (x / alpha)
            band.append((x, v, lo * ref, hi * ref))
    artifacts = (  # (file stem, CSV header, CSV rows, SVG series, SVG title)
        ("phi", ("z", "phi"), phi, [("phi(z)", phi)], "indicator support map phi(z)"),
        ("slope", ("a", "c"), slopes, [("c(a)", slopes)], "ray image map c(a)"),
        ("sandwich", ("x", "value", "lower", "upper"), band,
         [(name, family), ("c*ref", [(r[0], r[2]) for r in band]),
          ("C*ref", [(r[0], r[3]) for r in band])],
         "sandwich envelope around the value-jittered samples"),
    )
    written: List[str] = []
    for stem, header, rows, series, title in artifacts:
        if not rows:
            continue
        for ext, text in (("csv", _csv_rows(header, rows)),
                          ("svg", _svg_scatter_lines(series, title))):
            path = os.path.join(directory, f"{stem}.{ext}")
            _write(path, text)
            written.append(path)
    return written
