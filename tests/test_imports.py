"""The 1-d commands run without numpy or scipy.

Each command runs twice in a fresh interpreter: once as is, and once with
``numpy`` and ``scipy`` blocked in ``sys.modules``, so that importing either
raises ImportError.  Both runs must give the same exit code, stdout and
written files.  Fresh interpreters also show which modules each command
executes, that a bare ``import dualitylab`` executes none, and that every
public name resolves however it is imported.  Two tests check that every
layer function the benchmark traces still imports under its traced name,
and that every dualitylab name the bench scripts import or read still
resolves.  The last one pins the functions that branch on an element's kind.
"""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import dualitylab
from dualitylab import (
    CorpusTransform,
    analyze,
    delta_corpus,
    dump_json,
    fuzz_transform,
    geometric_corpus,
    report_to_obj,
    transform_to_obj,
)
from dualitylab.stability import AlmostOrderConstant

from helpers import subprocess_env

_DRIVER = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
    sys.modules["scipy"] = None
from dualitylab.cli import main
raise SystemExit(main(sys.argv[2:]))
"""


def _run(cwd: Path, mode: str, argv):
    cwd.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, mode, *argv],
        cwd=cwd, env=subprocess_env(), capture_output=True, text=True,
    )
    files = {p.relative_to(cwd).as_posix(): p.read_bytes()
             for p in sorted(cwd.rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, proc.stderr, files


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    k = AlmostOrderConstant(1.5)
    (d / "pl.json").write_text(
        '{"kind": "pl", "knots": [[0, 0], [1, "1/2"], [3, 4]], "tail_slope": 5}')
    (d / "ray.json").write_text('{"kind": "linear", "a": 2}')
    c = geometric_corpus()
    shuffled = c.elements[1:] + c.elements[:1]
    for name, t in (
        ("identity", CorpusTransform(c, c.elements)),
        ("fuzz", fuzz_transform(3, k, base="legendre")),
        ("shuffled", CorpusTransform(c, shuffled)),
        ("pinned", CorpusTransform(delta_corpus(), delta_corpus().elements)),
    ):
        (d / f"{name}.json").write_text(json.dumps(transform_to_obj(t)))
    (d / "samples.json").write_text(json.dumps(
        {"samples": [[0.5 * i, 3.0 * 0.5 * i + (-1) ** i * 0.05] for i in range(-8, 9)]}))
    report = analyze(fuzz_transform(7, k, base="gauge"), k)
    (d / "report.json").write_text(dump_json(report_to_obj(report)))
    return d


# name -> (exit code, argv); "{d}" is the inputs directory
COMMANDS = {
    "transform-j": (0, ("transform", "--op", "j", "--in", "{d}/pl.json")),
    "transform-legendre-out": (0, (
        "transform", "--op", "legendre", "--in", "{d}/ray.json", "--out", "g.json")),
    "fuzz-artifacts": (0, (
        "fuzz", "--base", "gauge", "--ctilde", "1.5", "--seed", "7",
        "--report", "rep.json", "--emit-plots", "plots")),
    "fuzz-a": (0, ("fuzz", "--base", "a", "--ctilde", "2", "--seed", "2")),
    "check-order": (0, (
        "check", "order", "--transform", "{d}/identity.json", "--ctilde", "1.5")),
    "check-order-fuzz": (0, (
        "check", "order", "--transform", "{d}/fuzz.json", "--ctilde", "1.5")),
    "check-order-violated": (1, (
        "check", "order", "--transform", "{d}/shuffled.json", "--ctilde", "1.5")),
    "check-order-pinned": (2, (
        "check", "order", "--transform", "{d}/pinned.json", "--ctilde", "1.5")),
    "check-ptilde": (1, ("check", "ptilde", "--in", "{d}/pl.json", "--ctilde", "1.5")),
    "hyers-ulam": (0, (
        "hyers-ulam", "--in", "{d}/samples.json", "--eps", "0.3", "--out", "fit.json")),
    "report": (0, ("report", "--in", "{d}/report.json", "--emit-plots", "plots")),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_runs_without_numpy(tmp_path, inputs, name):
    code, argv = COMMANDS[name]
    argv = [a.format(d=inputs) for a in argv]
    plain = _run(tmp_path / "plain", "plain", argv)
    blocked = _run(tmp_path / "blocked", "blocked", argv)
    assert plain[0] == code and "Traceback" not in plain[2]
    assert blocked[:2] == plain[:2] and "Traceback" not in blocked[2]
    assert blocked[3] == plain[3]


def test_cli_import_leaves_numpy_and_scipy_out():
    probe = ("import sys, dualitylab.cli; "
             "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


# Run a command in a fresh interpreter, then write to stderr the dualitylab
# modules whose code ran (one not yet read is still a lazy module) and numpy.
_LOADS = """
import json, sys, types
from dualitylab.cli import main
main(sys.argv[1:])
sys.stderr.write(json.dumps(sorted(
    n.removeprefix("dualitylab.") for n, m in sys.modules.items()
    if n == "numpy" or n.startswith("dualitylab.") and type(m) is types.ModuleType)))
"""

# command -> the modules it must not execute
_NOT_LOADED = {
    "transform-j": {"stability", "corpus", "reporting", "grid", "numpy"},
    "fuzz-a": {"grid"},
    "fuzz-artifacts": {"grid"},
    "check-order": {"grid"},
    "check-order-fuzz": {"grid"},
}


@pytest.mark.parametrize("name", sorted(_NOT_LOADED))
def test_command_loads_only_what_it_reads(tmp_path, inputs, name):
    _, argv = COMMANDS[name]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADS, *(a.format(d=inputs) for a in argv)],
        cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True, check=True)
    loaded = set(json.loads(proc.stderr))
    assert {"cli", "pl", "transforms"} <= loaded and not loaded & _NOT_LOADED[name], loaded


@pytest.mark.parametrize("name", ["transform-j", "fuzz-a", "check-order"])
def test_module_entry_point_writes_no_stderr(tmp_path, inputs, name):
    """`python -m dualitylab.cli`, as the benchmark runs it, gives `main`'s exit
    code and stdout and no runpy warning: the package leaves `cli` out of
    ``sys.modules``."""
    code, argv = COMMANDS[name]
    argv = [a.format(d=inputs) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "dualitylab.cli", *argv], cwd=tmp_path,
                          env=subprocess_env(), capture_output=True, text=True)
    plain = _run(tmp_path / "plain", "plain", argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, plain[1], "")


def _bench_metrics():
    path = Path(__file__).resolve().parents[1] / "bench" / "metrics.py"
    spec = importlib.util.spec_from_file_location("_bench_metrics", path)
    metrics = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(metrics)
    return metrics


def test_bare_import_runs_no_submodule():
    """``import dualitylab`` executes no submodule, yet every module the
    benchmark's tracer reads out of ``sys.modules`` is there."""
    probe = ("import json, sys, types, dualitylab; print(json.dumps([sorted("
             "n for n, m in sys.modules.items() if n.startswith('dualitylab.') "
             "and type(m) is types.ModuleType), sorted(sys.modules)]))")
    proc = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                          capture_output=True, text=True, check=True)
    ran, registered = json.loads(proc.stdout)
    assert ran == []
    assert {f"dualitylab.{m}" for m, _, _ in _bench_metrics().TRACED} <= set(registered)


# the package's public names, as exported before they resolved lazily
_PUBLIC_NAMES = """
    Corpus delta_corpus geometric_corpus ClassificationError ClassTagError
    ConsistencyError ConvexityError CorpusError DomainError DualityLabError
    GridValidationError HypothesisViolationError LatticeMismatchError
    SpecFormatError DeltaFunction WitnessPair almost_linear_bounds
    cover_witness_search make_delta make_indicator make_linear make_triangle
    monotone_envelope quasi_linear_sandwich witness_is_valid GridFunction2D
    GridSpec ensure_valid hat_inf2_grid is_ray_supported ray_restrict
    read_grid_csv sup2_grid validate write_grid_csv INF ClassTag PLConvex1D
    as_extended as_fraction compose_dilate hat_inf2 is_inf leq leq_witness
    scale sup2 corpus_to_obj dump_json emit_plots parse_corpus
    parse_corpus_transform render_report_text report_to_obj transform_to_obj
    dumps_function function_to_obj loads_function parse_function scalar_token
    AlmostOrderConstant CorpusTransform DeltaStructureReport RayMappingReport
    StabilityReport TransformClass Violation analyze check_almost_preserving
    check_almost_reversing check_delta_structure check_extremes
    check_inverse_conditions check_lattice_stability classify
    estimate_exponent fit_sandwich fuzz_delta_transform fuzz_transform
    hyers_ulam_approx verify_ray_mapping a_grid gauge_grid gauge_transform
    gauge_value geometric_dual legendre legendre_grid __version__
""".split()

# mode -> the names that a fresh interpreter fails to resolve that way
_NAMES_PROBE = """
import sys
import dualitylab
mode, names = sys.argv[1], sys.argv[2:]
if mode == "attr":
    missing = [n for n in names if not hasattr(dualitylab, n)]
elif mode == "from":
    missing = []
    for n in names:
        try:
            exec(f"from dualitylab import {n}", {})
        except ImportError:
            missing.append(n)
elif mode == "dir":
    missing = sorted(set(names) - set(dir(dualitylab)))
else:
    ns = {}
    exec("from dualitylab import *", ns)
    missing = sorted(set(names) - set(ns))
print(missing)
"""


@pytest.mark.parametrize("mode", ["attr", "from", "dir", "star"])
def test_public_names_resolve(mode):
    assert len(set(_PUBLIC_NAMES)) == 89
    proc = subprocess.run([sys.executable, "-c", _NAMES_PROBE, mode, *_PUBLIC_NAMES],
                          env=subprocess_env(), capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_public_names_are_their_modules_attributes():
    """Each name of the table is an attribute of the module it lists: a
    submodule attribute read first, as in the bench's ``dl.pl.leq_witness``,
    and the package's name read after it are one object."""
    probe = ("import dualitylab as dl; print(sorted(n for m, ns in dl._PUBLIC.items() "
             "for n in ns.split() if getattr(getattr(dl, m), n) is not getattr(dl, n)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
    assert set(dualitylab.__all__) == set(_PUBLIC_NAMES)


def test_traced_layers_exist(monkeypatch):
    """Every layer function the benchmark's traced run wraps still exists, and
    the checkers reach `leq_witness`, `analyze` reaches `classify` and
    `Corpus.base_images` reaches the transforms through the names the trace
    patches: module attributes bound to the traced function."""
    metrics = _bench_metrics()
    for module, fn, _ in metrics.TRACED:
        assert callable(getattr(importlib.import_module(f"dualitylab.{module}"), fn)), (
            module, fn)
    assert dualitylab.stability.leq_witness is dualitylab.pl.leq_witness
    seen = []
    for module, traced, name in (
        (dualitylab.stability, "stability", "classify"),
        (dualitylab.corpus, "transforms", "gauge_transform"),
        (dualitylab.corpus, "transforms", "legendre"),
        (dualitylab.corpus, "transforms", "geometric_dual"),
    ):
        fn = getattr(module, name)
        assert (traced, name) in {(m, f) for m, f, _ in metrics.TRACED}
        assert fn is getattr(importlib.import_module(f"dualitylab.{traced}"), name)
        monkeypatch.setattr(module, name, lambda *a, _fn=fn, _name=name, **kw: (
            seen.append(_name) or _fn(*a, **kw)))
    corpus = geometric_corpus((-1, 0, 1))
    analyze(CorpusTransform(corpus, corpus.elements), AlmostOrderConstant(2))
    for base in ("gauge", "legendre", "a"):
        corpus.base_images(base)
    assert sorted(set(seen)) == ["classify", "gauge_transform", "geometric_dual", "legendre"]


def _bench_names():
    """Every dualitylab name the bench scripts use, as (module, attribute
    path): each ``from dualitylab... import`` name, and each attribute chain
    read off a name bound to a dualitylab module."""
    names = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}  # local name -> dualitylab module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "dualitylab":
                        modules[a.asname or "dualitylab"] = a.name if a.asname else "dualitylab"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dualitylab":
                for a in node.names:
                    names.add((node.module, a.name))
                    try:  # a submodule binds a module name
                        importlib.import_module(f"{node.module}.{a.name}")
                    except ImportError:
                        continue
                    modules[a.asname or a.name] = f"{node.module}.{a.name}"
        inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        for node in ast.walk(tree):
            if id(node) in inner:  # only whole chains: dl.pl.leq_witness, not dl.pl
                continue
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in modules:
                names.add((modules[node.id], ".".join(chain)))
    return names


def test_bench_names_exist():
    """Every dualitylab name the benchmark imports or reads still resolves,
    so a refactor that drops one fails here rather than in a bench run."""
    names = _bench_names()
    assert len(names) >= 28, sorted(names)
    assert ("dualitylab.cli", "TOLERANCE_ENV") in names
    assert ("dualitylab", "fuzz_transform") in names
    assert ("dualitylab.stability", "AlmostOrderConstant") in names
    for module, attrs in sorted(names):
        obj = importlib.import_module(module)
        for attr in attrs.split("."):
            assert hasattr(obj, attr), f"{module}.{attrs}"
            obj = getattr(obj, attr)


_KINDS = {"PLConvex1D", "DeltaFunction", "GridFunction2D"}


class _KindChecks(ast.NodeVisitor):
    """The enclosing scope of each ``isinstance(x, K)`` and ``type(x) is K``
    (or ``is not``) with K an element kind, as "module.Class.function"."""

    def __init__(self, module: str):
        self.scope, self.found = [module], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def _check(self, node, kinds):
        elts = [e for k in kinds for e in (k.elts if isinstance(k, ast.Tuple) else [k])]
        if {getattr(e, "id", getattr(e, "attr", None)) for e in elts} & _KINDS:
            self.found.add(".".join(self.scope))
        self.generic_visit(node)

    def visit_Call(self, node):
        is_isinstance = isinstance(node.func, ast.Name) and node.func.id == "isinstance"
        self._check(node, node.args[1:] if is_isinstance else [])

    def visit_Compare(self, node):
        typed = any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        self._check(node, [node.left, *node.comparators] if typed else [])


def test_element_kind_checks_stay_at_the_entry_points():
    """Only entry points that must reject a kind, the rank and witness fast
    paths of 1-d functions, the per-image reports and the JSON format test
    an element's kind; the checkers reach every kind through `_ratio_any`'s
    map and `extreme`.  A new kind branch elsewhere fails here."""
    found = set()
    for path in sorted(Path(dualitylab.__file__).parent.glob("*.py")):
        visitor = _KindChecks(path.stem)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found |= visitor.found
    assert found == {
        "cli._cmd_transform", "cli._cmd_check_ptilde", "corpus._ratio_matrix",
        "specio.function_to_obj", "stability._witness",
        "lemmas.check_delta_structure", "lemmas.verify_ray_mapping",
    }


def test_no_module_lists_its_own_public_names():
    """`dualitylab/__init__.py` is the one list of public names: no module
    under the package assigns ``__all__``, so a name is never listed twice."""
    found = []
    for path in sorted(Path(dualitylab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            found += [f"{path.stem}:{node.lineno}" for t in targets
                      if isinstance(t, ast.Name) and t.id == "__all__"]
    assert found == []
