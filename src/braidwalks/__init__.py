"""Exact colored Jones polynomials of knots presented as braid closures.

Two independent pipelines compute the same operator polynomial C: direct
enumeration of walks along the braid, and quantum determinants of
Burau-type operator matrices.  The invariant is the framing-corrected,
truncated series sum of E_N(C^n), all in exact integer Laurent arithmetic.
"""

from .braid import (
    BraidWord,
    DiagramCell,
    NotAKnotError,
    is_knot_closure,
    parse_braid,
    underlying_permutation,
    writhe,
)
from .jones import (
    JonesResult,
    PipelineMismatchError,
    PositiveBraidReport,
    bracket_jones_oracle,
    colored_jones,
    figure_eight_closed_form,
    positive_braid_report,
    qbinomial,
)
from .laurent import LaurentPolynomial
from .qdet import C_qdet, OperatorMatrix, rho
from .qops import OperatorPolynomial, op_mul
from .walks import (
    Path,
    Walk,
    enumerate_paths,
    enumerate_walks,
    evaluate_series,
    series_terms,
    walk_sum_C,
    walk_weight,
)

__all__ = [
    "BraidWord",
    "C_qdet",
    "DiagramCell",
    "JonesResult",
    "LaurentPolynomial",
    "NotAKnotError",
    "OperatorMatrix",
    "OperatorPolynomial",
    "Path",
    "PipelineMismatchError",
    "PositiveBraidReport",
    "Walk",
    "bracket_jones_oracle",
    "colored_jones",
    "enumerate_paths",
    "enumerate_walks",
    "evaluate_series",
    "figure_eight_closed_form",
    "is_knot_closure",
    "op_mul",
    "parse_braid",
    "positive_braid_report",
    "qbinomial",
    "rho",
    "series_terms",
    "underlying_permutation",
    "walk_sum_C",
    "walk_weight",
    "writhe",
]
