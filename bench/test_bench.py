"""Tests of the benchmark itself: statistics, span arithmetic, output checks.

    PYTHONPATH=src python -m pytest bench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import NO_PARENT, SpanRecorder, self_times  # noqa: E402

import dualitylab as dl  # noqa: E402
from dualitylab.stability import TransformClass  # noqa: E402


# -- percentiles and the sample-count rule -----------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert metrics.samples_beyond(100, Fraction(9, 10)) == 10
    assert metrics.tail_quantile(100) == Fraction(9, 10)
    assert metrics.tail_quantile(99) is None
    assert metrics.tail_quantile(999) == Fraction(9, 10)
    assert metrics.tail_quantile(1000) == Fraction(99, 100)


def test_latency_summary_reports_tail_only_when_supported():
    values = [float(v) for v in range(1, 101)]
    s = metrics.latency_summary(values)
    assert s == {"p50": 50.5, "p90": 90.5}
    assert "p90" not in metrics.latency_summary(values[:99])


def test_balanced_median_weighs_each_op_kind_equally():
    half = Fraction(1, 2)
    assert metrics.balanced_quantile([3.0, 1.0, 2.0], 1, half) == 2.0
    # kinds 0 and 1 alternate; the extra kind-0 op does not tip the median
    assert metrics.balanced_quantile([1.0, 10.0, 1.0], 2, half) == 5.5
    assert metrics.balanced_quantile([1.0, 10.0, 1.0, 10.0], 2, half) == 5.5
    assert metrics.balanced_quantile([4.0, 1.0, 2.0, 3.0, 9.0], 4, half) == 2.5


# -- span arithmetic ----------------------------------------------------------


def test_self_time_subtracts_direct_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    parents = [NO_PARENT, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]


def _traced_transform_metrics(seed: int):
    wl = workloads.Transform(seed, pool=6)
    wl.setup()
    rec = SpanRecorder()
    rec.install([workloads])
    try:
        loop = worker.run_loop(wl, count=4, recorder=rec)
    finally:
        rec.uninstall()
    assert not loop.failed
    return rec, rec.layer_metrics(4)


def test_traced_counts_repeat_and_self_times_add_up():
    rec, first = _traced_transform_metrics(5)
    _, second = _traced_transform_metrics(5)
    calls = {k: v for k, v in first.items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in second.items() if k.endswith(".calls")}
    assert first["transforms.gauge_transform.calls"] == 1
    assert first["pl.leq_witness.calls"] >= 1
    # the self times of all spans add up to the ops' wall time
    op_time = sum(e - s for p, s, e in zip(rec.parent, rec.start, rec.end)
                  if p == NO_PARENT)
    total = sum(self_times(rec.parent, rec.start, rec.end))
    assert total == pytest.approx(op_time, rel=1e-9)
    assert first["bench.unattributed_s"] >= 0
    # checks ran with recording paused: only the ops' own calls were seen
    assert first["transforms.legendre.calls"] == 2


def test_install_wraps_where_callers_imported_and_uninstall_restores():
    orig = dl.pl.leq_witness
    rec = SpanRecorder()
    rec.install()
    try:
        assert dl.stability.leq_witness is not orig
        assert dl.pl.leq_witness is dl.stability.leq_witness
    finally:
        rec.uninstall()
    assert dl.stability.leq_witness is orig and dl.pl.leq_witness is orig


def test_pair_ratio_counts_leq_calls_inside_checkers():
    wl = workloads.Certify(3, exponents=range(-2, 3))
    wl.setup()
    rec = SpanRecorder()
    rec.install([workloads])
    try:
        worker.run_loop(wl, count=1, recorder=rec)
    finally:
        rec.uninstall()
    # the byte-identical rerun after the loop is not recorded: every span
    # but the op's root has a parent
    assert all(p != NO_PARENT for p, n in zip(rec.parent, rec.name) if n)
    m = rec.layer_metrics(1)
    assert 1 <= m["stability.leq_calls_per_pair"] <= 4
    assert m["stability.analyze.self_s"] > 0


# -- output checks: sabotaged outputs count as failures -----------------------


def test_certify_turn_meets_every_base_and_c_once():
    wl = workloads.Certify(5)
    pairs = [wl.params(i)[:2] for i in range(wl.turn)]
    assert sorted(pairs) == sorted(
        (b, c) for b in workloads.BASES for c in workloads.CTILDES)
    assert [wl.params(i + wl.turn)[:2] for i in range(wl.turn)] == pairs


class WrongClass(workloads.Certify):
    def op(self, i):
        return dataclasses.replace(super().op(i),
                                   classification=TransformClass.GAUGE)


def test_certify_wrong_classification_is_a_failure():
    good = workloads.Certify(2, exponents=range(-2, 3))
    good.setup()
    assert not worker.run_loop(good, count=1).failed
    bad = WrongClass(2, exponents=range(-2, 3))
    bad.setup()
    loop = worker.run_loop(bad, count=1)
    assert list(loop.failed) == [0] and "classified gauge" in loop.failed[0]


def test_certify_rerun_must_be_byte_identical():
    wl = workloads.Certify(2, exponents=range(-2, 3))
    wl.setup()
    loop = worker.run_loop(wl, count=1)
    assert not loop.failed
    wl.dumps[0] = wl.dumps[0].replace("identity", "gauge", 1)
    assert wl.finish(loop.times) == {0: "rerun report is not byte-identical"}


class PerturbedGrid(workloads.Grid):
    def op(self, i):
        leg, dual, join = super().op(i)
        values = leg.values.copy()
        o = leg.spec.origin
        values[o + 1, o] += 100.0
        return dl.GridFunction2D(leg.spec, values), dual, join


def test_grid_perturbed_node_is_a_failure():
    good = workloads.Grid(4, n=17, lattice_n=9)
    good.setup()
    assert not worker.run_loop(good, count=1).failed
    bad = PerturbedGrid(4, n=17, lattice_n=9)
    bad.setup()
    loop = worker.run_loop(bad, count=1)
    assert list(loop.failed) == [0] and "legendre_grid" in loop.failed[0]


def test_transform_swapped_output_is_a_failure():
    wl = workloads.Transform(7, pool=4)
    wl.setup()
    out = wl.op(1)
    assert wl.check(1, out) == []
    swapped = (out[1], out[0]) + out[2:]
    assert "legendre is not an involution" in wl.check(1, swapped)


def test_raising_op_is_a_failure():
    wl = workloads.Transform(7, pool=4)
    wl.setup()
    wl.pool[1] = None
    loop = worker.run_loop(wl, count=3)
    assert sorted(loop.failed) == [1, 2]


def test_cli_expected_gauge_output():
    rng = type("R", (), {"randint": lambda self, a, b: 2,
                         "choice": lambda self, xs: xs[0]})()
    spec, expected = workloads.gauge_case(rng)
    assert spec == {"kind": "linear", "a": 2}
    assert expected == '{"kind": "indicator", "z": 0.5}\n'
    assert workloads.scalar_text(Fraction(1, 3)) == "1/3"


def test_cli_wrong_output_is_a_failure(tmp_path):
    wl = workloads.Cli(1, str(ROOT))
    wl.in_process = True
    wl.workdir = str(tmp_path / "work")
    wl.setup()
    assert wl.check(0, wl.op(0)) == []
    code, stdout = wl.op(0)
    assert wl.check(0, (code, stdout + " ")) == ["transform printed unexpected output"]
    assert wl.check(0, (1, stdout)) == ["transform exited with 1"]


# -- the contract with BENCHMARK.json -----------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert run.WORKLOADS == workloads.NAMES
    values, _ = run.end_to_end(
        [1.0, 2.0], {"times": [0.5, 1.0, 0.7], "turn": 2, "failed_ops": [],
                     "peak_rss_mb": 10.0})
    assert set(values) == set(metrics.END_TO_END)
    # kind 0 (0.5 and 0.7) weighs as much as kind 1 (1.0)
    assert values["op_s.p50"] == (pytest.approx(0.85), 3)
    assert values["ops_per_s"] == (pytest.approx(2 / 1.6), 3)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    wl = workloads.Transform(3, pool=4)
    wl.trace_ops = 2
    wl.setup()
    rec = worker.trace(wl, str(tmp_path), 3)
    assert set(rec["per_layer"]) == set(metrics.PER_LAYER)
    assert os.path.getsize(rec["spans"]) > 0
    assert rec["attempted"] == 4 and rec["failed"] == 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_grid_closed_forms_hold_at_benchmark_tolerances():
    case = workloads.GridCase(__import__("random").Random(0), 33, 9)
    leg = dl.legendre_grid(case.quad)
    dual = dl.a_grid(case.cone)
    join = dl.sup2_grid(case.lat_quad, case.lat_cone)
    assert workloads.grid_problems(case, leg, dual, join) == []
    assert case.quad_dual_mask.any()
    assert np.isfinite(case.quad_tol) and np.isfinite(case.cone_tol)
