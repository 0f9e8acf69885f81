"""One workload in its own process: set-up, then a timed or a traced loop.

    python bench/worker.py {setup|run|trace} WORKLOAD SEED SECONDS

``run.py`` starts it from the checkout root with ``PYTHONPATH`` set to the
checkout's ``src/``, so each commit runs its own code.  The last line of
standard output is one JSON object:

* ``setup``: the set-up time only;
* ``run``: set-up time, every op's time, the failed ops and peak RSS, from a
  closed loop that starts ops until SECONDS have passed;
* ``trace``: a fixed number of ops run untraced and then traced, and the
  per-layer metrics of the traced pass.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import workloads  # noqa: E402  (imports dualitylab: part of set-up)
from tracing import SpanRecorder  # noqa: E402

MAX_PROBLEMS = 5


class Loop:
    """Outcome of a closed loop: per-op times and failures."""

    def __init__(self):
        self.times: List[float] = []
        self.failed: Dict[int, str] = {}

    @property
    def attempted(self) -> int:
        return len(self.times)


def run_loop(wl, seconds: Optional[float] = None, count: Optional[int] = None,
             recorder: Optional[SpanRecorder] = None) -> Loop:
    """Run ops 0, 1, ... until ``seconds`` pass or ``count`` ops are done.

    One client, one op at a time.  An op that raises or fails its check is
    counted as failed; checks run outside the timed interval (and, in a
    traced run, outside the recorded spans).
    """
    loop = Loop()
    begin = time.perf_counter()
    i = 0
    while (time.perf_counter() - begin < seconds) if count is None else (i < count):
        t0 = time.perf_counter()
        try:
            out = recorder.run_op(i, wl.op, i) if recorder else wl.op(i)
            error = None
        except Exception as exc:  # a failing op is a result, not a crash
            out, error = None, f"op {i}: {type(exc).__name__}: {exc}"
        loop.times.append(time.perf_counter() - t0)
        problems = [error] if error else wl.check(i, out)
        if problems:
            loop.failed[i] = "; ".join(problems)
        i += 1
    for j, problem in wl.finish(loop.times).items():
        loop.failed.setdefault(j, problem)
    return loop


def _wall(argv, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL,
                   timeout=60)
    return time.perf_counter() - t0


def cli_startup_metrics(env, repeats: int = 5) -> Dict[str, float]:
    """Interpreter start-up, CLI import time and what ``import dualitylab`` loads."""
    py = sys.executable
    bare = statistics.median(_wall([py, "-c", "pass"], env) for _ in range(repeats))
    imp = statistics.median(
        _wall([py, "-c", "import dualitylab.cli"], env) for _ in range(repeats)
    )
    probe = subprocess.run(
        [py, "-c", "import sys, dualitylab; "
                   "print(len(sys.modules), int('numpy' in sys.modules))"],
        env=env, check=True, capture_output=True, text=True, timeout=60,
    )
    modules, numpy_loaded = (int(v) for v in probe.stdout.split())
    return {
        "cli.interpreter_s": bare,
        "cli.import_s": imp - bare,
        "cli.modules_loaded": modules,
        "cli.numpy_loaded": numpy_loaded,
    }


def _failures(loops) -> dict:
    problems = [p for loop in loops for p in loop.failed.values()]
    return {
        "attempted": sum(loop.attempted for loop in loops),
        "failed": len(problems),
        "problems": problems[:MAX_PROBLEMS],
    }


def trace(wl, root: str, seed: int) -> dict:
    """Untraced then traced pass over the same ops; per-layer metrics."""
    plain = run_loop(wl, count=wl.trace_ops)
    rec = SpanRecorder()
    rec.install([workloads])
    if wl.name == "grid":
        tracemalloc.start()
    try:
        traced = run_loop(wl, count=wl.trace_ops, recorder=rec)
    finally:
        tracemalloc.stop()
        rec.uninstall()
    per_layer = dict.fromkeys(
        ("cli.interpreter_s", "cli.import_s", "cli.modules_loaded",
         "cli.numpy_loaded"), 0.0)
    per_layer.update(rec.layer_metrics(wl.trace_ops))
    per_layer["bench.trace_overhead"] = (
        statistics.median(traced.times) / statistics.median(plain.times) - 1
    )
    if wl.name == "cli":
        per_layer.update(cli_startup_metrics(wl.env))
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{wl.name}-seed{seed}.csv.gz")
    rec.write(spans)
    return {"per_layer": per_layer, "spans": spans, **_failures([plain, traced])}


def main(argv: List[str]) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    root = os.getcwd()
    wl = workloads.make(name, seed, root)
    if mode == "trace" and name == "cli":
        wl.in_process = True  # specio/reporting are timed inside cli.main
    try:
        wl.setup()
        setup_s = time.perf_counter() - _T0
        if mode == "setup":
            result = {"setup_s": setup_s}
        elif mode == "run":
            loop = run_loop(wl, seconds=seconds)
            who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
            result = {
                "setup_s": setup_s,
                "times": loop.times,
                "turn": wl.turn,
                "failed_ops": sorted(loop.failed),
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
                **_failures([loop]),
            }
        else:
            result = trace(wl, root, seed)
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
