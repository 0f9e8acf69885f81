"""dualitylab benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload {certify,transform,grid,cli} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it measures that checkout's ``src/``.
With ``--trace 0`` it sets the workload up several times in fresh processes
(``setup_s`` is their median), then runs a closed loop with one client for
S seconds and reports the end-to-end metrics.  With ``--trace 1`` it runs a
fixed number of ops untraced and then traced, and reports the per-layer
metrics.  Every op's output is checked.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, with the
environment, is also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, latency_summary

WORKLOADS = ("certify", "transform", "grid", "cli")
SETUP_REPEATS = 6  # set-up-only processes, plus the measured run's own set-up
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(root: Path, env: dict, mode: str, args) -> dict:
    """Run bench/worker.py in its own process group; parse its JSON line."""
    cmd = [sys.executable, str(root / "bench" / "worker.py"), mode,
           args.workload, str(args.seed), str(args.seconds)]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{mode} worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(root: Path, args) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": args.seed,
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
    }


def end_to_end(setups, run: dict):
    """End-to-end metrics and their sample counts from a run worker's record.

    Where ops rotate through kinds (the 12 (base, C) pairs of certify, the 3 CLI
    commands), every kind weighs the same: the latency quantiles weight each
    op by 1 / (ops of its kind), and the throughput is that of a mix with
    one op of each kind.
    """
    times, turn = run["times"], run["turn"]
    failed = set(run["failed_ops"])
    # a failed op misses any latency limit
    lat = [math.inf if i in failed else t for i, t in enumerate(times)]
    summary = latency_summary(lat, turn)
    kinds = min(turn, len(times))
    mix_s = sum(statistics.fmean(times[k::turn]) for k in range(kinds))
    completed = len(times) - len(failed)
    values = {
        "op_s.p50": (summary["p50"], len(times)),
        "ops_per_s": (kinds * completed / len(times) / mix_s, completed),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (run["peak_rss_mb"], 1),
    }
    extra = {k: (v, len(times)) for k, v in summary.items() if k != "p50"}
    return values, extra


def _number(v):
    return v if math.isfinite(v) else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "dualitylab" / "__init__.py").is_file():
        print(f"error: no dualitylab sources under {root / 'src'}", file=sys.stderr)
        return 2
    env = worker_env(root)
    info = environment(root, args)
    print(f"dualitylab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(info, sort_keys=True))

    extra = {}
    try:
        if args.trace:
            rec = run_worker(root, env, "trace", args)
            metrics = {n: {"value": rec["per_layer"][n], "unit": u}
                       for n, u in PER_LAYER.items()}
            counts = {n: rec["attempted"] // 2 for n in PER_LAYER}
        else:
            setups = [run_worker(root, env, "setup", args)["setup_s"]
                      for _ in range(SETUP_REPEATS)]
            rec = run_worker(root, env, "run", args)
            setups.append(rec["setup_s"])
            rec["setups"] = setups
            values, extra = end_to_end(setups, rec)
            metrics = {n: {"value": _number(values[n][0]), "unit": u}
                       for n, u in END_TO_END.items()}
            counts = {n: values[n][1] for n in END_TO_END}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, m in metrics.items():
        print(f"{name:<40} {m['value']!r} {m['unit']}  (n={counts[name]})")
    for name, (v, n) in extra.items():
        print(f"{'op_s.' + name:<40} {v!r} s  (n={n})")
    attempted, failed = rec["attempted"], rec["failed"]
    print(f"{'fail_ratio':<40} {failed / attempted!r}  ({failed} of {attempted} ops)")
    for problem in rec["problems"]:
        print(f"failed: {problem}")

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"env": info, "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "samples": counts, "record": rec}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, sort_keys=True, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
