"""Exact piecewise-linear convex duality calculus with a stability harness.

The core objects are canonical piecewise-linear convex functions on the
nonnegative half-line with exact rational knots, three transforms on the
geometric class (the Legendre transform, the geometric dual, and their
order-preserving composition, the gauge transform), a sampled 2-d grid
oracle, and a harness that certifies almost order preservation/reversal of
finite corpus transforms, classifies them, and fits sandwich certificates.
"""

from .corpus import Corpus, delta_corpus, geometric_corpus
from .exceptions import (
    ClassificationError,
    ClassTagError,
    ConsistencyError,
    ConvexityError,
    CorpusError,
    DomainError,
    DualityLabError,
    GridValidationError,
    HypothesisViolationError,
    LatticeMismatchError,
    SpecFormatError,
)
from .extremal import (
    DeltaFunction,
    WitnessPair,
    almost_linear_bounds,
    cover_witness_search,
    make_delta,
    make_indicator,
    make_linear,
    make_triangle,
    monotone_envelope,
    quasi_linear_sandwich,
    witness_is_valid,
)
from .grid import (
    GridFunction2D,
    GridSpec,
    ensure_valid,
    hat_inf2_grid,
    is_ray_supported,
    ray_restrict,
    read_grid_csv,
    sup2_grid,
    validate,
    write_grid_csv,
)
from .pl import (
    INF,
    ClassTag,
    PLConvex1D,
    as_extended,
    as_fraction,
    compose_dilate,
    hat_inf2,
    is_inf,
    leq,
    leq_witness,
    scale,
    sup2,
)
from .reporting import (
    corpus_to_obj,
    dump_json,
    emit_plots,
    parse_corpus,
    parse_corpus_transform,
    render_report_text,
    report_to_obj,
    transform_to_obj,
)
from .specio import (
    dumps_function,
    function_to_obj,
    loads_function,
    parse_function,
    scalar_token,
)
from .stability import (
    AlmostOrderConstant,
    CorpusTransform,
    DeltaStructureReport,
    RayMappingReport,
    StabilityReport,
    TransformClass,
    Violation,
    analyze,
    check_almost_preserving,
    check_almost_reversing,
    check_delta_structure,
    check_extremes,
    check_inverse_conditions,
    check_lattice_stability,
    classify,
    estimate_exponent,
    fit_sandwich,
    fuzz_delta_transform,
    fuzz_transform,
    hyers_ulam_approx,
    verify_ray_mapping,
)
from .transforms import (
    a_grid,
    gauge_grid,
    gauge_transform,
    gauge_value,
    geometric_dual,
    legendre,
    legendre_grid,
)

__version__ = "0.1.0"
