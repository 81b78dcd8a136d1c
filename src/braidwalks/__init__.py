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
from .qdet import (
    C_qdet,
    OperatorMatrix,
    matrix_is_right_quantum,
    rho,
    right_quantum_check,
)
from .qops import (
    CrossingWord,
    NormalForm,
    eval_crossing,
    normal_order,
    oracle_apply,
    relation_oracle_check,
)
from .walks import (
    OperatorPolynomial,
    Path,
    Walk,
    enumerate_paths,
    enumerate_walks,
    evaluate_series,
    op_mul,
    series_terms,
    walk_sum_C,
    walk_weight,
)

__all__ = [
    "BraidWord",
    "C_qdet",
    "CrossingWord",
    "DiagramCell",
    "JonesResult",
    "LaurentPolynomial",
    "NormalForm",
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
    "eval_crossing",
    "evaluate_series",
    "figure_eight_closed_form",
    "is_knot_closure",
    "matrix_is_right_quantum",
    "normal_order",
    "op_mul",
    "oracle_apply",
    "parse_braid",
    "positive_braid_report",
    "qbinomial",
    "relation_oracle_check",
    "rho",
    "right_quantum_check",
    "series_terms",
    "underlying_permutation",
    "walk_sum_C",
    "walk_weight",
    "writhe",
]
