"""Metric names, units and the sample statistics the benchmark reports.

The names here are the ones ``BENCHMARK.json`` lists; ``test_bench.py``
checks that the two agree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional, Sequence

#: End-to-end metrics, measured with tracing off: name -> unit.
END_TO_END: Dict[str, str] = {
    "op_s.p50": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Layer functions the traced run wraps: (module, function, metrics).
#: ``calls`` and ``self_s`` are per op; ``peak_mb`` is the largest
#: tracemalloc peak of one call.
TRACED = (
    ("pl", "leq_witness", ("calls", "self_s")),
    ("pl", "sup2", ("calls", "self_s")),
    ("pl", "hat_inf2", ("calls", "self_s")),
    ("pl", "scale", ("calls", "self_s")),
    ("pl", "compose_dilate", ("calls", "self_s")),
    ("stability", "fuzz_transform", ("self_s",)),
    ("stability", "analyze", ("self_s",)),
    ("stability", "check_almost_preserving", ("self_s",)),
    ("stability", "check_almost_reversing", ("self_s",)),
    ("stability", "check_inverse_conditions", ("self_s",)),
    ("stability", "check_lattice_stability", ("self_s",)),
    ("stability", "classify", ("self_s",)),
    ("stability", "fit_sandwich", ("self_s",)),
    ("extremal", "almost_linear_bounds", ("calls", "self_s")),
    ("transforms", "legendre", ("calls", "self_s")),
    ("transforms", "geometric_dual", ("calls", "self_s")),
    ("transforms", "gauge_transform", ("calls", "self_s")),
    ("transforms", "gauge_value", ("calls", "self_s")),
    ("transforms", "legendre_grid", ("self_s", "peak_mb")),
    ("transforms", "a_grid", ("self_s", "peak_mb")),
    ("grid", "hat_inf2_grid", ("self_s", "peak_mb")),
    ("grid", "sup2_grid", ("self_s",)),
    ("grid", "validate", ("self_s",)),
    ("specio", "loads_function", ("self_s",)),
    ("specio", "dumps_function", ("self_s",)),
    ("specio", "parse_function", ("self_s",)),
    ("specio", "function_to_obj", ("self_s",)),
    ("reporting", "parse_corpus_transform", ("self_s",)),
    ("reporting", "parse_corpus", ("self_s",)),
    ("reporting", "report_to_obj", ("self_s",)),
    ("reporting", "render_report_text", ("self_s",)),
    ("reporting", "dump_json", ("self_s",)),
)

#: The pairwise checkers whose ordered pairs ``leq_calls_per_pair`` divides by.
PAIR_CHECKERS = (
    "stability.check_almost_preserving",
    "stability.check_almost_reversing",
    "stability.check_inverse_conditions",
)

_UNITS = {"calls": "count", "self_s": "s", "peak_mb": "MB"}

#: Per-layer metrics, from the traced run: name -> unit.
PER_LAYER: Dict[str, str] = {
    f"{module}.{fn}.{m}": _UNITS[m]
    for module, fn, metrics in TRACED
    for m in metrics
}
PER_LAYER.update({
    "stability.leq_calls_per_pair": "ratio",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.modules_loaded": "count",
    "cli.numpy_loaded": "count",
    "bench.unattributed_s": "s",
    "bench.trace_overhead": "ratio",
})

#: Tail percentiles tried from the highest down; one is reported only when
#: at least ``MIN_BEYOND`` samples lie beyond it.
TAIL_QUANTILES = (Fraction(999, 1000), Fraction(99, 100), Fraction(9, 10))
MIN_BEYOND = 10


def balanced_quantile(values: Sequence[float], turn: int, q: Fraction) -> float:
    """The q-quantile of values, value i weighted 1 / (count of its kind).

    Op i is of kind i mod ``turn``; each kind gets total weight 1, so a run
    that stops part-way through a turn measures the same mix as one that
    stops at its end.  Where the cumulative weight hits q exactly, the two
    neighbouring values are averaged (with turn 1 and q = 1/2 this is
    ``statistics.median``).
    """
    n = len(values)
    kinds = min(turn, n)
    per_kind = [len(range(k, n, turn)) for k in range(kinds)]
    ordered = sorted((v, Fraction(1, per_kind[i % turn])) for i, v in enumerate(values))
    target = q * kinds
    acc = Fraction(0)
    for j, (v, w) in enumerate(ordered):
        acc += w
        if acc > target or j + 1 == n:
            return v
        if acc == target:
            return (v + ordered[j + 1][0]) / 2
    raise ValueError("no values")


def samples_beyond(n: int, q: Fraction) -> int:
    """How many of n sorted samples lie above rank ceil(q * n)."""
    return n - math.ceil(q * n)


def tail_quantile(n: int) -> Optional[Fraction]:
    """The highest tail percentile with at least MIN_BEYOND samples beyond it."""
    for q in TAIL_QUANTILES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def latency_summary(times: Sequence[float], turn: int = 1) -> dict:
    """The median and the highest supported tail percentile, by name."""
    out = {"p50": balanced_quantile(times, turn, Fraction(1, 2))}
    q = tail_quantile(len(times))
    if q is not None:
        out[f"p{float(q * 100):g}"] = balanced_quantile(times, turn, q)
    return out
