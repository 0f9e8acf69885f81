"""Exact piecewise-linear convex duality calculus with a stability harness.

The core objects are canonical piecewise-linear convex functions on the
nonnegative half-line with exact rational knots, three transforms on the
geometric class (the Legendre transform, the geometric dual, and their
order-preserving composition, the gauge transform), a sampled 2-d grid
oracle, and a harness that certifies almost order preservation/reversal of
finite corpus transforms, classifies them, and fits sandwich certificates.

`_PUBLIC` is the one list of public names, by the module that defines each.
Importing the package runs no submodule: each submodule but `cli` sits in
``sys.modules`` as a lazy module that executes on its first attribute read,
and a public name is read from its module on first use (PEP 562), then kept
here.  ``from dualitylab import *`` binds every public name and
``__version__``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_PUBLIC = {
    "corpus": "Corpus delta_corpus geometric_corpus",
    "exceptions": "ClassificationError ClassTagError ConsistencyError ConvexityError "
                  "CorpusError DomainError DualityLabError GridValidationError "
                  "HypothesisViolationError LatticeMismatchError SpecFormatError",
    "extremal": "DeltaFunction WitnessPair almost_linear_bounds cover_witness_search "
                "make_delta make_indicator make_linear make_triangle monotone_envelope "
                "quasi_linear_sandwich witness_is_valid",
    "grid": "GridFunction2D GridSpec ensure_valid hat_inf2_grid is_ray_supported "
            "ray_restrict read_grid_csv sup2_grid validate write_grid_csv",
    "lemmas": "DeltaStructureReport RayMappingReport check_delta_structure "
              "fuzz_delta_transform hyers_ulam_approx verify_ray_mapping",
    "pl": "INF ClassTag PLConvex1D as_extended as_fraction compose_dilate hat_inf2 "
          "is_inf leq leq_witness scale sup2",
    "reporting": "corpus_to_obj dump_json emit_plots parse_corpus parse_corpus_transform "
                 "render_report_text report_to_obj transform_to_obj",
    "specio": "dumps_function function_to_obj loads_function parse_function scalar_token",
    "stability": "AlmostOrderConstant CorpusTransform StabilityReport TransformClass "
                 "Violation analyze check_almost_preserving check_almost_reversing "
                 "check_extremes check_inverse_conditions check_lattice_stability "
                 "classify estimate_exponent fit_sandwich fuzz_transform",
    "transforms": "a_grid gauge_grid gauge_transform gauge_value geometric_dual "
                  "legendre legendre_grid",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}


def _lazy(module: str):
    """``dualitylab.<module>``, put in ``sys.modules`` to execute on its first
    attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lazy)
    return lazy


globals().update({module: _lazy(module) for module in _PUBLIC})


def __getattr__(name: str):
    if name == "__all__":
        return [*_MODULE_OF, "__version__"]
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_MODULE_OF[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
