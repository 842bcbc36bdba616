"""Certified two-sided enclosures for mean values of convex integrands.

The library parses elementary expressions, differentiates them through
Taylor jets of degree 4 (degree 2 where only f'' is read), integrates
them with an adaptive oracle, and combines endpoint/midpoint samples
into bounds on the mean value (1/(b-a)) int f whose validity is
certified from convexity data.  The same machinery
specialises to tight brackets for the classical means of two positive
numbers and to a seeded search for the extremal midpoint-defect ratio.
"""

from .bounds import (
    ConvexityProfile,
    IdentityCheck,
    OneSidedBound,
    SimpsonEstimate,
    adaptive_enclosure,
    bisected_trapezoid,
    bisected_trapezoid_defect,
    bisected_trapezoid_identity_residual,
    classic_hh,
    convexity_profile,
    mean_enclosure_via_defect,
    simpson_defect_bound,
    simpson_estimate,
    simpson_identity_residual,
    simpson_one_sided_bound,
    simpson_value,
    symmetric_point_triple,
    weighted_value,
)
from .core import (
    BudgetError,
    DomainError,
    Enclosure,
    Interval,
    ParseError,
    WeightPair,
)
from .expr import Node, eval_value, parse, to_source
from .jets import Jet4, eval_jet
from .means import (
    MeanSet,
    all_means,
    identric_enclosure,
    identric_of_squares_enclosure,
    log_mean_enclosure,
    reciprocal_log_mean_defect,
)
from .quadrature import QuadResult, integrate_mean, integrate_mean_fn
from .search import (
    CounterexampleReport,
    RatioReport,
    SearchError,
    SearchResult,
    best_constant_search,
    f_ratio,
    left_counterexample,
    ratio_limit_scan,
    smoothed_tent_ratio,
    witness_ratio,
)
from .verify import SUITE_NAMES, PropertyResult, run_suite

__version__ = "1.0.0"

__all__ = [
    "BudgetError",
    "ConvexityProfile",
    "CounterexampleReport",
    "DomainError",
    "Enclosure",
    "IdentityCheck",
    "Interval",
    "Jet4",
    "MeanSet",
    "Node",
    "OneSidedBound",
    "ParseError",
    "PropertyResult",
    "QuadResult",
    "SUITE_NAMES",
    "RatioReport",
    "SearchError",
    "SearchResult",
    "SimpsonEstimate",
    "WeightPair",
    "adaptive_enclosure",
    "all_means",
    "best_constant_search",
    "bisected_trapezoid",
    "bisected_trapezoid_defect",
    "bisected_trapezoid_identity_residual",
    "classic_hh",
    "convexity_profile",
    "eval_jet",
    "eval_value",
    "f_ratio",
    "identric_enclosure",
    "identric_of_squares_enclosure",
    "integrate_mean",
    "integrate_mean_fn",
    "left_counterexample",
    "log_mean_enclosure",
    "mean_enclosure_via_defect",
    "parse",
    "ratio_limit_scan",
    "reciprocal_log_mean_defect",
    "run_suite",
    "simpson_defect_bound",
    "simpson_estimate",
    "simpson_identity_residual",
    "simpson_one_sided_bound",
    "simpson_value",
    "smoothed_tent_ratio",
    "symmetric_point_triple",
    "to_source",
    "weighted_value",
    "witness_ratio",
    "__version__",
]
