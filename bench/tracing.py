"""Span recording for the traced run, from the benchmark side.

``SpanRecorder.install`` wraps each layer function listed in
``metrics.TRACED`` wherever a module holds a reference to it (the defining
module, ``dualitylab`` itself, and every module that imported the name), so
calls between layers are seen without touching the program.  Spans live in
flat in-memory arrays (name, parent, op, start, end) and are written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import tracemalloc
from array import array
from collections import Counter
from typing import Dict, List, Sequence

from metrics import PAIR_CHECKERS, TRACED

ROOT = "bench.op"
NO_PARENT = -1


def self_times(parents: Sequence[int], starts: Sequence[float],
               ends: Sequence[float]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest, so a span's children are disjoint
    and their durations add up.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for p, s, e in zip(parents, starts, ends):
        if p != NO_PARENT:
            out[p] -= e - s
    return out


class SpanRecorder:
    """Spans of one single-threaded run, recorded only inside ``run_op``."""

    def __init__(self):
        self.names: List[str] = [ROOT]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.peak_bytes: Dict[int, int] = {}
        self.pairs_visited = 0
        self.on = False
        self._op = -1
        self._stack = [NO_PARENT]
        self._mem_stack: List[List[int]] = []
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def open(self, name_id: int, op: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _open_mem(self) -> None:
        cur, peak = tracemalloc.get_traced_memory()
        for entry in self._mem_stack:
            entry[1] = max(entry[1], peak)
        tracemalloc.reset_peak()
        self._mem_stack.append([cur, cur])

    def _close_mem(self, idx: int) -> None:
        _, peak = tracemalloc.get_traced_memory()
        base, running = self._mem_stack.pop()
        top = max(running, peak)
        for entry in self._mem_stack:
            entry[1] = max(entry[1], top)
        tracemalloc.reset_peak()
        self.peak_bytes[idx] = top - base

    def run_op(self, op: int, fn, *args):
        """Run ``fn(*args)`` inside a root span for op ``op``, recording."""
        self._op = op
        idx = self.open(0, op)
        self.on = True
        try:
            return fn(*args)
        finally:
            self.on = False
            self.close(idx)

    def _wrap(self, qualname: str, fn, track_memory: bool, count_pairs: bool):
        self.names.append(qualname)
        name_id = len(self.names) - 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if count_pairs:
                n = len(args[0])
                self.pairs_visited += n * (n - 1)
            mem = track_memory and tracemalloc.is_tracing()
            if mem:
                self._open_mem()
            idx = self.open(name_id, self._op)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if mem:
                    self._close_mem(idx)

        return traced

    # -- wrapping --------------------------------------------------------

    def install(self, extra_modules: Sequence = ()) -> None:
        """Wrap every traced function wherever a loaded module binds it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "dualitylab" or name.startswith("dualitylab.")
        ] + list(extra_modules)
        for module, fn_name, metrics in TRACED:
            orig = getattr(sys.modules[f"dualitylab.{module}"], fn_name)
            qualname = f"{module}.{fn_name}"
            wrapper = self._wrap(qualname, orig, "peak_mb" in metrics,
                                 qualname in PAIR_CHECKERS)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> Dict[str, float]:
        """Per-op calls and self time, peak memory and the pair ratio."""
        selfs = self_times(self.parent, self.start, self.end)
        calls: Counter = Counter()
        own: Dict[str, float] = {}
        peak: Dict[str, int] = {}
        for idx, (nid, s) in enumerate(zip(self.name, selfs)):
            name = self.names[nid]
            calls[name] += 1
            own[name] = own.get(name, 0.0) + s
            if idx in self.peak_bytes:
                peak[name] = max(peak.get(name, 0), self.peak_bytes[idx])
        out: Dict[str, float] = {}
        for module, fn_name, metrics in TRACED:
            name = f"{module}.{fn_name}"
            values = {
                "calls": calls[name] / n_ops,
                "self_s": own.get(name, 0.0) / n_ops,
                "peak_mb": peak.get(name, 0) / 2**20,
            }
            for m in metrics:
                out[f"{name}.{m}"] = values[m]
        out["stability.leq_calls_per_pair"] = (
            self._leq_in_checkers() / self.pairs_visited
            if self.pairs_visited else 0.0
        )
        out["bench.unattributed_s"] = own.get(ROOT, 0.0) / n_ops
        return out

    def _leq_in_checkers(self) -> int:
        leq = self.names.index("pl.leq_witness")
        checkers = {self.names.index(c) for c in PAIR_CHECKERS}
        count = 0
        for idx, nid in enumerate(self.name):
            if nid != leq:
                continue
            p = self.parent[idx]
            while p != NO_PARENT and self.name[p] not in checkers:
                p = self.parent[p]
            count += p != NO_PARENT
        return count

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV: op,id,parent,name,start,end."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("op,id,parent,name,start,end\n")
            for idx in range(len(self.start)):
                fh.write(
                    f"{self.op[idx]},{idx},{self.parent[idx]},"
                    f"{self.names[self.name[idx]]},{self.start[idx]!r},"
                    f"{self.end[idx]!r}\n"
                )
