"""Command-line surface.

Subcommands:

  transform   apply a transform (legendre | a | j) to a function spec
              (JSON) or to a sampled grid (CSV)
  check       order: certify a serialized corpus transform at a constant;
              ptilde: search for a two-piece cover witness for one function
  fuzz        build a seeded jittered transform over a corpus, certify it,
              classify it, and emit a report
  hyers-ulam  fit an additive approximant to approximately-additive samples
  report      re-render a stored report (text and optional plots)

Exit codes: 0 success/certified, 1 violations found (artifacts are still
written), 2 usage or input errors.  The environment variable DUALITYLAB_TOL
supplies the default for --tolerance and for --eps where not given; a NaN,
infinite or negative eps or tolerance is an input error.  Each command
imports the modules it reads inside itself, so a process loads no more.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, List, Optional

from .exceptions import ConsistencyError, HypothesisViolationError, SpecFormatError

if TYPE_CHECKING:
    from .stability import AlmostOrderConstant

TOLERANCE_ENV = "DUALITYLAB_TOL"


def _env_tolerance() -> Optional[float]:
    from .stability import _nonnegative
    raw = os.environ.get(TOLERANCE_ENV)
    return None if raw is None else _nonnegative(raw, TOLERANCE_ENV)


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path}: invalid JSON: {exc}") from exc


def _positive_ctilde(raw: str) -> AlmostOrderConstant:
    from .stability import AlmostOrderConstant
    try:
        k = AlmostOrderConstant(raw)
        float(k.ctilde)  # reports print C as a float
    except (ValueError, OverflowError) as exc:
        raise SpecFormatError(f"--ctilde: {exc}") from exc
    return k


def _cmd_transform(args) -> int:
    from .transforms import (
        a_grid, gauge_grid, gauge_transform, geometric_dual, legendre, legendre_grid)
    grid_mode = args.infile.lower().endswith(".csv")
    if grid_mode:
        if not args.out:
            raise SpecFormatError("grid transforms need --out for the CSV result")
        from .grid import read_grid_csv, write_grid_csv
        f = read_grid_csv(args.infile)
        op = {"legendre": legendre_grid, "a": a_grid, "j": gauge_grid}[args.op]
        write_grid_csv(op(f), args.out)
        return 0
    from .pl import PLConvex1D
    from .specio import _write, dumps_function, parse_function
    f = parse_function(_read_json(args.infile))
    if not isinstance(f, PLConvex1D):
        raise SpecFormatError("transforms apply to 1-d function specs")
    op = {"legendre": legendre, "a": geometric_dual, "j": gauge_transform}[args.op]
    text = dumps_function(op(f)) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check_order(args) -> int:
    from .reporting import parse_corpus_transform, render_report_text, report_to_obj
    from .stability import analyze
    t = parse_corpus_transform(_read_json(args.transform))
    obj = report_to_obj(analyze(t, _positive_ctilde(args.ctilde)))
    sys.stdout.write(render_report_text(obj))
    return 0 if obj["certified"] else 1


def _cmd_check_ptilde(args) -> int:
    from .extremal import cover_witness_search
    from .pl import PLConvex1D
    from .specio import dumps_function, parse_function
    f = parse_function(_read_json(args.infile))
    if not isinstance(f, PLConvex1D):
        raise SpecFormatError("the witness search applies to 1-d function specs")
    k = _positive_ctilde(args.ctilde)
    pair = cover_witness_search(f, k.ctilde)
    if pair is None:
        sys.stdout.write("relative-P̃: pass\n")
        return 0
    sys.stdout.write("witness found: covered but neither piece dominates\n")
    sys.stdout.write("  g: " + dumps_function(pair.g) + "\n")
    sys.stdout.write("  h: " + dumps_function(pair.h) + "\n")
    return 1


def _load_corpus(spec: str):
    if spec == "geometric":
        from .corpus import geometric_corpus
        return geometric_corpus()
    from .reporting import parse_corpus
    return parse_corpus(_read_json(spec))


def _cmd_fuzz(args) -> int:
    from .reporting import dump_json, emit_plots, render_report_text, report_to_obj
    from .specio import _write
    from .stability import _nonnegative, analyze, fuzz_transform
    k = _positive_ctilde(args.ctilde)
    corpus = _load_corpus(args.corpus)
    tol = (_env_tolerance() if args.tolerance is None
           else _nonnegative(args.tolerance, "--tolerance"))
    try:
        t = fuzz_transform(seed=args.seed, k=k, base=args.base, corpus=corpus)
    except ConsistencyError as exc:  # the corpus is spaced finer than the jitter
        sys.stderr.write(f"error: {exc}\n")
        return 2
    obj = report_to_obj(analyze(t, k, exponent_tolerance=1e-6 if tol is None else tol))
    sys.stdout.write(render_report_text(obj))
    if args.report:
        _write(args.report, dump_json(obj))
    if args.emit_plots:
        for path in emit_plots(obj, args.emit_plots):
            sys.stdout.write(f"wrote {path}\n")
    return 0 if obj["certified"] else 1


def _cmd_hyers_ulam(args) -> int:
    from .lemmas import hyers_ulam_approx
    from .reporting import dump_json
    from .specio import _write
    from .stability import _nonnegative
    obj = _read_json(args.infile)
    if not isinstance(obj, dict) or "samples" not in obj:
        raise SpecFormatError('input needs a "samples" field')
    eps = args.eps
    if eps is None:
        eps = obj.get("eps")
    if eps is None:
        eps = _env_tolerance()
    if eps is None:
        raise SpecFormatError("no eps given (flag, file field, or DUALITYLAB_TOL)")
    eps = _nonnegative(eps, "eps")
    try:
        g, sup_error = hyers_ulam_approx(obj["samples"], eps)
    except HypothesisViolationError as exc:
        sys.stdout.write(f"additive hypothesis fails: {exc}\n")
        return 1
    sys.stdout.write(f"sup |f - g| = {sup_error!r} <= eps = {eps!r}\n")
    if args.out:
        out = {
            "kind": "additive-approximation",
            "eps": eps,
            "sup_error": sup_error,
            "additive": [[x, g[x]] for x in sorted(g)],
        }
        _write(args.out, dump_json(out))
    return 0


def _cmd_report(args) -> int:
    from .reporting import emit_plots, render_report_text
    obj = _read_json(args.infile)
    if not isinstance(obj, dict) or obj.get("kind") != "stability-report":
        raise SpecFormatError("input is not a stability report")
    try:
        text = render_report_text(obj)
        written = emit_plots(obj, args.emit_plots) if args.emit_plots else []
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError,
            OverflowError) as exc:
        raise SpecFormatError(f"malformed stability report: {exc!r}") from exc
    sys.stdout.write(text)
    for path in written:
        sys.stdout.write(f"wrote {path}\n")
    return 0 if obj.get("certified") else 1


class _BaseNames:
    """The names of `stability._BASES`, the choices of ``fuzz --base``, read
    only when argparse checks or lists one: building the parser for any
    other command imports no `stability`."""

    def __contains__(self, name) -> bool:
        from .stability import _BASES
        return name in _BASES

    def __iter__(self):
        from .stability import _BASES
        return iter(_BASES)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dualitylab",
        description="exact 1-d convex duality calculus and stability harness",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    tr = sub.add_parser("transform", help="apply legendre | a | j to a spec")
    tr.add_argument("--op", required=True, choices=("legendre", "a", "j"))
    tr.add_argument("--in", dest="infile", required=True,
                    help="function spec JSON, or grid CSV")
    tr.add_argument("--out", help="output path (required for grid CSV input)")
    tr.set_defaults(func=_cmd_transform)

    ck = sub.add_parser("check", help="certify order conditions or search witnesses")
    ck_sub = ck.add_subparsers(dest="mode", required=True)
    order = ck_sub.add_parser("order", help="certify a serialized corpus transform")
    order.add_argument("--transform", required=True, help="corpus-transform JSON")
    order.add_argument("--ctilde", required=True)
    order.set_defaults(func=_cmd_check_order)
    pt = ck_sub.add_parser("ptilde", help="two-piece cover witness search")
    pt.add_argument("--in", dest="infile", required=True)
    pt.add_argument("--ctilde", required=True)
    pt.set_defaults(func=_cmd_check_ptilde)

    fz = sub.add_parser("fuzz", help="seeded jittered transform + certification")
    # set after add_argument, which lists an argument's choices at once
    fz.add_argument("--base", required=True).choices = _BaseNames()
    fz.add_argument("--ctilde", required=True)
    fz.add_argument("--seed", required=True, type=int)
    fz.add_argument("--corpus", default="geometric",
                    help="'geometric' or a corpus JSON path")
    fz.add_argument("--report", help="write the report JSON here")
    fz.add_argument("--emit-plots", dest="emit_plots",
                    help="directory for CSV/SVG plot artifacts")
    fz.add_argument("--tolerance", type=float,
                    help="exponent grid-snap tolerance "
                         f"(default: ${TOLERANCE_ENV} or 1e-6)")
    fz.set_defaults(func=_cmd_fuzz)

    hu = sub.add_parser("hyers-ulam", help="additive approximation of samples")
    hu.add_argument("--in", dest="infile", required=True,
                    help='JSON {"samples": ...}, a list of [x, f(x)] pairs or an object')
    hu.add_argument("--eps", type=float,
                    help=f"defect bound (default: file field or ${TOLERANCE_ENV})")
    hu.add_argument("--out", help="write the approximant JSON here")
    hu.set_defaults(func=_cmd_hyers_ulam)

    rp = sub.add_parser("report", help="re-render a stored report")
    rp.add_argument("--in", dest="infile", required=True)
    rp.add_argument("--emit-plots", dest="emit_plots")
    rp.set_defaults(func=_cmd_report)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    # every package input error is a ValueError, or an OverflowError beyond the float range
    except (ValueError, OSError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
