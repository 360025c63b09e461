"""Extremal small-polygon toolkit.

Constructions of the classical unit-diameter polygon families, coordinate
metrics (perimeter, width, diameter, area), their closed-form counterparts
and asymptotic bounds, and a solver for the two maximal-perimeter problems
over symmetric diameter-graph parametrizations.
"""

from .geometry import (
    DIAMETER_TOL,
    Family,
    InvalidPolygonError,
    MetricsReport,
    NonConvexError,
    SmallPolygon,
    area,
    diameter,
    is_convex,
    measure,
    perimeter,
    polygon_from_json,
    polygon_to_json,
    small_polygon_violations,
    to_unit_perimeter,
    validate_small_polygon,
    width,
)
from .constructions import (
    AngleParamB,
    AngleParamQ,
    InfeasibleAnglesError,
    b_angles,
    b_family,
    extract_angles_b,
    extract_angles_q,
    from_angles_b,
    from_angles_q,
    q_angles,
    q_family,
    regular,
    regular_plus,
    reuleaux_subdivision,
    tamvakis,
)
from .bounds import (
    GAP_LAWS,
    BoundSet,
    UnknownFamilyError,
    b_alternation,
    closed_form,
    gap_constants,
    mossinghoff_perimeter,
    mossinghoff_width,
    q_alternation,
    upper_bounds,
)
from .optimizer import (
    CertificationError,
    NlpProblem,
    NonConvergenceError,
    SolveReport,
    SolverConfig,
    build_b_problem,
    build_q_problem,
    certify,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AngleParamB", "AngleParamQ", "BoundSet", "CertificationError",
    "DIAMETER_TOL", "Family", "GAP_LAWS", "InfeasibleAnglesError",
    "InvalidPolygonError", "MetricsReport", "NlpProblem", "NonConvexError",
    "NonConvergenceError", "SmallPolygon", "SolveReport",
    "SolverConfig", "UnknownFamilyError", "area", "b_alternation", "b_angles",
    "b_family", "build_b_problem", "build_q_problem", "certify",
    "closed_form", "diameter", "extract_angles_b", "extract_angles_q",
    "from_angles_b", "from_angles_q", "gap_constants", "is_convex", "measure",
    "mossinghoff_perimeter", "mossinghoff_width", "perimeter",
    "polygon_from_json", "polygon_to_json", "q_alternation", "q_angles",
    "q_family", "regular", "regular_plus", "reuleaux_subdivision",
    "small_polygon_violations", "solve", "tamvakis", "to_unit_perimeter",
    "upper_bounds", "validate_small_polygon", "width",
]
