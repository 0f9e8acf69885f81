"""The four workloads: inputs from a seed, one operation, and its output check.

Each workload object has ``turn`` (the length of its rotation of op kinds),
``setup()`` (input generation and warm-up),
``op(i)`` (the timed operation number i; its inputs depend only on the seed
and i), ``check(i, out)`` (a list of problems, empty when the output is
right), ``finish(times)`` (checks that need the whole run) and ``close()``.
Checks run outside the timed interval.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from typing import Dict, List, Sequence

import numpy as np

import dualitylab as dl
from dualitylab import cli
from dualitylab.stability import AlmostOrderConstant

CTILDES = ("1.1", "1.5", "2.0")


def _op_rng(seed: int, i: int) -> random.Random:
    """The generator for op i's inputs: independent of run length."""
    return random.Random(f"{seed}:{i}")


def random_geometric(rng: random.Random, n: int, bounded: bool) -> dl.PLConvex1D:
    """A geometric PL function (f(0) = 0, nondecreasing) with n exact knots.

    A bounded function ends its domain at the last knot (tail slope inf).
    """
    x, v = Fraction(0), Fraction(0)
    slope = Fraction(rng.randint(0, 3), 4)
    knots = [(x, v)]
    for _ in range(n - 1):
        dx = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))
        x, v = x + dx, v + slope * dx
        knots.append((x, v))
        slope += Fraction(rng.randint(1, 9), rng.choice((2, 3, 4, 5)))
    tail = dl.INF if bounded else slope
    return dl.PLConvex1D(tuple(knots), tail)


class Workload:
    """Defaults: every op is of one kind, no whole-run check, nothing to free."""

    turn = 1

    def finish(self, times: Sequence[float]) -> Dict[int, str]:
        return {}

    def close(self):
        pass


# ---------------------------------------------------------------------------
# certify: fuzz_transform + analyze on the 48-element corpus
#
# The corpus is geometric_corpus(range(-33, 34, 3)): every third exponent of
# the same 2^-33 .. 2^33 span as the 132-element range(-32, 33).  On the
# full corpus an op takes about 5 s and its cost varies up to 2x with the
# drawn C and fuzz seed, so a run of a few ops gives a median that moves
# with the seed.  At 48 elements an op takes about 0.6 s and a run holds
# dozens of ops; the pairwise work still dominates (48^2 ordered pairs
# against 48 transform calls), and the wide span keeps the fitted exponent
# within 0.02 of -1 for gauge fuzzes (a narrow span such as range(-10, 11)
# misses the 0.05 tolerance on some seeds).

CERTIFY_EXPONENTS = range(-33, 34, 3)

BASES = ("identity", "gauge", "legendre", "a")
EXPECTED_CLASS = {
    "identity": "identity",
    "gauge": "gauge",
    "legendre": "reversing-legendre",
    "a": "reversing-geometric-dual",
}
EXPECTED_GAMMA = {"identity": 1.0, "gauge": -1.0}
GAMMA_TOLERANCE = 0.05


def certify_problems(base: str, report) -> List[str]:
    """Why a stability report is wrong for a fuzz of ``base``, if it is."""
    out = []
    if not report.certified:
        out.append(f"{base}: report not certified")
    if report.classification.value != EXPECTED_CLASS[base]:
        out.append(f"{base}: classified {report.classification.value}")
    if base in EXPECTED_GAMMA and (
        report.gamma is None
        or abs(report.gamma - EXPECTED_GAMMA[base]) > GAMMA_TOLERANCE
    ):
        out.append(f"{base}: gamma {report.gamma}")
    return out


class Certify(Workload):
    name = "certify"
    turn = len(BASES) * len(CTILDES)  # every (base, C) pair once
    trace_ops = turn

    def __init__(self, seed: int, exponents: Sequence[int] = CERTIFY_EXPONENTS):
        self.seed = seed
        self.exponents = exponents
        self.dumps: Dict[int, str] = {}

    def setup(self):
        self.corpus = dl.geometric_corpus(self.exponents)
        k = AlmostOrderConstant(Fraction("1.5"))
        dl.analyze(dl.fuzz_transform(0, k, base="gauge"), k)

    def params(self, i: int):
        """Op i's base, C and fuzz seed.

        The base rotates with period 4 and C with period 12, in an order the
        seed shuffles, so every run of a turn meets each (base, C) pair once:
        an op's cost depends on C by up to 1.5x, and a C drawn per op would
        make a run's mix, and so its median, vary with the seed.
        """
        ctildes = list(CTILDES)
        random.Random(self.seed).shuffle(ctildes)
        c = ctildes[(i // len(BASES)) % len(ctildes)]
        return BASES[i % len(BASES)], c, _op_rng(self.seed, i).randrange(2**31)

    def op(self, i: int):
        base, ctilde, fuzz_seed = self.params(i)
        k = AlmostOrderConstant(Fraction(ctilde))
        t = dl.fuzz_transform(fuzz_seed, k, base=base, corpus=self.corpus)
        return dl.analyze(t, k)

    def check(self, i: int, report) -> List[str]:
        self.dumps[i] = dl.dump_json(dl.report_to_obj(report))
        return certify_problems(self.params(i)[0], report)

    def finish(self, times: Sequence[float]) -> Dict[int, str]:
        """Rerun the quickest op and require a byte-identical report."""
        if not self.dumps:
            return {}
        i = min(self.dumps, key=lambda j: times[j])
        if dl.dump_json(dl.report_to_obj(self.op(i))) != self.dumps[i]:
            return {i: "rerun report is not byte-identical"}
        return {}


# ---------------------------------------------------------------------------
# transform: the three exact transforms and the lattice ops on many knots

TRANSFORM_POOL = 512
MIN_KNOTS, MAX_KNOTS = 8, 40


class Transform(Workload):
    name = "transform"
    trace_ops = 100

    def __init__(self, seed: int, pool: int = TRANSFORM_POOL):
        self.seed = seed
        self.pool_size = pool

    def setup(self):
        # knot counts and bounded domains cycle, so each seed's pool has the
        # same mix of sizes; knots and slopes are seeded
        rng = random.Random(self.seed)
        span = MAX_KNOTS - MIN_KNOTS + 1
        self.pool = [random_geometric(rng, MIN_KNOTS + j % span, j % 4 == 0)
                     for j in range(self.pool_size)]
        self.op(0)

    def _pair(self, i: int):
        return self.pool[i % len(self.pool)], self.pool[(i - 1) % len(self.pool)]

    def op(self, i: int):
        f, prev = self._pair(i)
        return (
            dl.legendre(f),
            dl.geometric_dual(f),
            dl.gauge_transform(f),
            dl.sup2(f, prev),
            dl.hat_inf2(f, prev),
            dl.leq_witness(f, prev),
        )

    def check(self, i: int, out) -> List[str]:
        f, prev = self._pair(i)
        leg, dual, gauge, join, meet, witness = out
        problems = []
        if dl.legendre(leg) != f:
            problems.append("legendre is not an involution")
        if dl.geometric_dual(dual) != f:
            problems.append("geometric_dual is not an involution")
        composed = dl.legendre(dual)
        if composed != dl.geometric_dual(leg):
            problems.append("legendre and geometric_dual do not commute")
        if gauge != composed:
            problems.append("gauge_transform differs from the composition")
        if not (dl.leq(f, join) and dl.leq(prev, join)):
            problems.append("sup2 is not an upper bound")
        if not (dl.leq(meet, f) and dl.leq(meet, prev)):
            problems.append("hat_inf2 is not a lower bound")
        if witness is None:
            xs = sorted(set(f.xs) | set(prev.xs))
            if any(f(x) > prev(x) for x in xs):
                problems.append("leq_witness missed a violation")
        elif not f(witness) > prev(witness):
            problems.append("leq_witness returned a non-violating point")
        return problems


# ---------------------------------------------------------------------------
# grid: brute-force 2-d transforms on a seeded quadratic and cone

GRID_POOL = 3
GRID_N, GRID_R_QUAD, GRID_R_CONE = 129, 4.0, 16.0
LATTICE_N = 65  # sup2_grid; hat_inf2_grid is excluded (see README.md)


def _pd_matrix(rng: random.Random) -> np.ndarray:
    """A symmetric positive-definite 2x2 matrix, eigenvalues in [1/2, 2]."""
    theta = rng.uniform(0.0, math.pi)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)]) @ rot.T


def _nodes(R: float, N: int) -> np.ndarray:
    c = dl.GridSpec(R, N).coords
    gx, gy = np.meshgrid(c, c, indexing="ij")
    return np.stack((gx, gy), axis=-1)


def _form(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    return np.einsum("...i,ij,...j->...", P, A, P)


class GridCase:
    """One seeded quadratic 1/2 p'Ap and cone sqrt(p'Mp) with closed forms.

    The conjugate of the quadratic is 1/2 q'A^-1 q wherever its maximiser
    A^-1 q lies in the window; the dual of the cone is sqrt(q'M^-1 q).  The
    tolerances are those of acceptance criterion 9: twice the step times
    the largest gradient norm on the window.
    """

    def __init__(self, rng: random.Random, n: int = GRID_N,
                 lattice_n: int = LATTICE_N):
        self.A, self.M = _pd_matrix(rng), _pd_matrix(rng)
        P = _nodes(GRID_R_QUAD, n)
        self.quad = dl.GridFunction2D(dl.GridSpec(GRID_R_QUAD, n), 0.5 * _form(P, self.A))
        A_inv = np.linalg.inv(self.A)
        self.quad_dual = 0.5 * _form(P, A_inv)
        self.quad_dual_mask = (np.abs(P @ A_inv.T) <= GRID_R_QUAD).all(axis=-1)
        grad = np.linalg.norm(P @ self.A.T, axis=-1).max()
        self.quad_tol = 2 * self.quad.spec.step * grad

        P = _nodes(GRID_R_CONE, n)
        self.cone = dl.GridFunction2D(dl.GridSpec(GRID_R_CONE, n), np.sqrt(_form(P, self.M)))
        M_inv = np.linalg.inv(self.M)
        self.cone_dual = np.sqrt(_form(P, M_inv))
        self.cone_tol = 2 * self.cone.spec.step * math.sqrt(np.linalg.eigvalsh(M_inv).max())

        P = _nodes(GRID_R_QUAD, lattice_n)
        spec = dl.GridSpec(GRID_R_QUAD, lattice_n)
        self.lat_quad = dl.GridFunction2D(spec, 0.5 * _form(P, self.A))
        self.lat_cone = dl.GridFunction2D(spec, np.sqrt(_form(P, self.M)))


def grid_problems(case: GridCase, leg, dual, join) -> List[str]:
    """How the grid results miss their closed forms, if they do."""
    out = []
    m = case.quad_dual_mask
    if not np.all(np.abs(leg.values[m] - case.quad_dual[m]) <= case.quad_tol):
        out.append("legendre_grid misses 1/2 q'A^-1 q")
    if not (np.isfinite(dual.values).all()
            and np.all(np.abs(dual.values - case.cone_dual) <= case.cone_tol)):
        out.append("a_grid misses sqrt(q'M^-1 q)")
    if not np.array_equal(join.values, np.maximum(case.lat_quad.values,
                                                  case.lat_cone.values)):
        out.append("sup2_grid is not the pointwise max")
    return out


class Grid(Workload):
    name = "grid"
    trace_ops = 2

    def __init__(self, seed: int, n: int = GRID_N, lattice_n: int = LATTICE_N):
        self.seed, self.n, self.lattice_n = seed, n, lattice_n

    def setup(self):
        rng = random.Random(self.seed)
        self.cases = [GridCase(rng, self.n, self.lattice_n) for _ in range(GRID_POOL)]
        warm = GridCase(rng, 17, 17)
        dl.legendre_grid(warm.quad)
        dl.a_grid(warm.cone)

    def op(self, i: int):
        case = self.cases[i % len(self.cases)]
        return (
            dl.legendre_grid(case.quad),
            dl.a_grid(case.cone),
            dl.sup2_grid(case.lat_quad, case.lat_cone),
        )

    def check(self, i: int, out) -> List[str]:
        return grid_problems(self.cases[i % len(self.cases)], *out)


# ---------------------------------------------------------------------------
# cli: one `python -m dualitylab.cli` process per op


def scalar_text(v: Fraction):
    """The JSON token the CLI prints for an exact scalar."""
    if v.denominator == 1:
        return int(v)
    if Fraction(float(v)) == v:
        return float(v)
    return f"{v.numerator}/{v.denominator}"


def gauge_case(rng: random.Random):
    """A seeded named-family spec and its gauge transform, in closed form.

    J(1_[0,z]) = (1/z) x, J(a x) = 1_[0,1/a], and J maps the triangle with
    base z and slope a to the triangle with base 1/a and slope 1/z.
    """
    p = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))
    q = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))
    kind = rng.choice(("linear", "indicator", "triangle"))
    if kind == "linear":
        spec = {"kind": "linear", "a": scalar_text(p)}
        image = {"kind": "indicator", "z": scalar_text(1 / p)}
    elif kind == "indicator":
        spec = {"kind": "indicator", "z": scalar_text(p)}
        image = {"kind": "linear", "a": scalar_text(1 / p)}
    else:
        spec = {"kind": "triangle", "z": scalar_text(p), "a": scalar_text(q)}
        image = {"kind": "triangle", "z": scalar_text(1 / q), "a": scalar_text(1 / p)}
    return spec, json.dumps(image, sort_keys=True) + "\n"


CLI_SPECS = 8


class Cli(Workload):
    name = "cli"
    turn = 3  # transform, fuzz, check order
    trace_ops = 2 * turn

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.in_process = False
        self.workdir = os.path.join(root, ".bench_work", f"cli-{os.getpid()}")

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        rng = random.Random(self.seed)
        self.calls = []  # (slot, argv, expected stdout)
        for j in range(CLI_SPECS):
            spec, expected = gauge_case(rng)
            path = os.path.join(self.workdir, f"spec{j}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            self.calls.append((0, ["transform", "--op", "j", "--in", path], expected))
        corpus = dl.geometric_corpus()
        for j, base in enumerate(BASES):
            ctilde = rng.choice(CTILDES)
            k = AlmostOrderConstant(float(ctilde))
            fseed = rng.randrange(1000)
            t = dl.fuzz_transform(fseed, k, base=base, corpus=corpus)
            text = dl.render_report_text(dl.report_to_obj(dl.analyze(t, k)))
            self.calls.append((1, ["fuzz", "--base", base, "--ctilde", ctilde,
                                   "--seed", str(fseed)], text))
            path = os.path.join(self.workdir, f"transform{j}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dl.dump_json(dl.transform_to_obj(t)))
            self.calls.append((2, ["check", "order", "--transform", path,
                                   "--ctilde", ctilde], text))
        self.env = dict(os.environ)
        self.env.pop(cli.TOLERANCE_ENV, None)
        self.env["PYTHONPATH"] = os.path.join(self.root, "src")
        self.op(0)

    def argv(self, i: int):
        """Op i's call: slot i mod 3, cycling through that slot's inputs."""
        calls = [c for c in self.calls if c[0] == i % self.turn]
        return calls[(i // self.turn) % len(calls)]

    def op(self, i: int):
        _, argv, _ = self.argv(i)
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "dualitylab.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, i: int, out) -> List[str]:
        code, stdout = out
        _, argv, expected = self.argv(i)
        problems = []
        if code != 0:
            problems.append(f"{argv[0]} exited with {code}")
        if stdout != expected:
            problems.append(f"{argv[0]} printed unexpected output")
        return problems

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, seed: int, root: str):
    if name == "cli":
        return Cli(seed, root)
    return {"certify": Certify, "transform": Transform, "grid": Grid}[name](seed)


NAMES = ("certify", "transform", "grid", "cli")
