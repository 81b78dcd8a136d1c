"""Assembly of the colored Jones polynomial, plus independent oracles.

The invariant is q^((N-1)(w-m+1)/2) times the truncated series sum of
E_N(C^n), with C from either pipeline.  Independent checks: a Kauffman
bracket state sum at N=2, the figure-eight closed form for general N, and
the positive-braid leading-coefficient criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .braid import BraidWord, NotAKnotError, is_knot_closure, writhe
from .laurent import LaurentPolynomial
from .qdet import C_qdet
from .walks import evaluate_series, walk_sum_C


class PipelineMismatchError(RuntimeError):
    """The walk and quantum-determinant pipelines disagreed."""


@dataclass(frozen=True)
class JonesResult:
    braid: BraidWord
    N: int
    polynomial: LaurentPolynomial
    method: str
    framing_exponent: int

    def to_json(self) -> dict:
        return {
            "braid": self.braid.to_json(),
            "N": self.N,
            "framing_exponent": self.framing_exponent,
            "polynomial": self.polynomial.to_json(),
            "method": self.method,
        }


def _half_exponent(double: int) -> int:
    """Half of (N-1)(w-m+1), w the writhe (the crossing count of a positive
    braid).  The closure of a knot is an m-cycle, which forces w = m - 1
    (mod 2), so an odd value means the closure is not a knot."""
    if double % 2:
        raise NotAKnotError("odd framing exponent: the closure is not a knot")
    return double // 2


def colored_jones(b: BraidWord, N: int, method: str = "both") -> JonesResult:
    """The normalized colored Jones polynomial of the braid closure.

    method is one of "walks", "qdet" or "both"; "both" builds C through
    each pipeline and raises PipelineMismatchError if they differ.
    """
    if N < 2:
        raise ValueError("color N must be at least 2")
    if method not in ("walks", "qdet", "both"):
        raise ValueError(f"unknown method {method!r}")
    if not is_knot_closure(b):
        raise NotAKnotError("closure of the braid is not a knot")
    framing = _half_exponent((N - 1) * (writhe(b) - b.strands + 1))

    C = C_qdet(b) if method == "qdet" else walk_sum_C(b)
    # equal operator polynomials have equal series, so "both" evaluates once
    if method == "both" and C != C_qdet(b):
        raise PipelineMismatchError(
            f"walk and qdet operator polynomials differ for {b.serialize()!r}"
        )
    poly = evaluate_series(C, b, N)
    return JonesResult(b, N, poly.shifted(framing), method, framing)


@dataclass(frozen=True)
class PositiveBraidReport:
    """Leading-coefficient check for a positive braid closure.

    For a positive braid with k crossings on m strands the lowest degree
    must be L_N = (N-1)(k-m+1)/2 with coefficient 1, followed by N-1
    vanishing coefficients.
    """

    N: int
    L_N: int
    lowest_degree: int
    leading_coefficients: tuple[int, ...]
    verdict: bool
    polynomial: LaurentPolynomial

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "L_N": self.L_N,
            "lowest_degree": self.lowest_degree,
            "leading_coefficients": list(self.leading_coefficients),
            "verdict": self.verdict,
            "polynomial": self.polynomial.to_json(),
        }


def positive_braid_report(b: BraidWord, N: int) -> PositiveBraidReport:
    if not b.is_positive():
        raise ValueError("braid word is not positive")
    result = colored_jones(b, N, "walks")
    poly = result.polynomial
    L = _half_exponent((N - 1) * (len(b) - b.strands + 1))
    lowest = poly.valuation()
    coeffs = tuple(poly.coefficient(L + i) for i in range(N))
    verdict = lowest == L and coeffs[0] == 1 and all(c == 0 for c in coeffs[1:])
    return PositiveBraidReport(N, L, lowest, coeffs, verdict, poly)


def bracket_jones_oracle(b: BraidWord) -> LaurentPolynomial:
    """Jones polynomial of the braid closure via the Kauffman bracket.

    State sum over all crossing smoothings of the closure diagram, writhe
    normalization, then a variable substitution calibrated so the positive
    trefoil word "1 1 1" yields lowest term +q and the figure-eight matches
    the walk pipeline.
    """
    if not is_knot_closure(b):
        raise NotAKnotError("closure of the braid is not a knot")
    k = len(b)
    m = b.strands
    delta = LaurentPolynomial({2: -1, -2: -1})
    bracket = LaurentPolynomial.zero()

    for state in product((0, 1), repeat=k):
        parent: dict[tuple[int, int], tuple[int, int]] = {}

        def find(node):
            root = node
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(node, node) != node:
                parent[node], node = root, parent[node]
            return root

        def union(u, v):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv

        exp = 0
        for j, (l, sign) in enumerate(b.letters, start=1):
            for p in range(1, m + 1):
                if p not in (l, l + 1):
                    union((j, p), (j - 1, p))
            if state[j - 1] == 0:
                union((j, l), (j - 1, l))
                union((j, l + 1), (j - 1, l + 1))
                exp += sign
            else:
                union((j, l), (j, l + 1))
                union((j - 1, l), (j - 1, l + 1))
                exp -= sign
        for p in range(1, m + 1):
            union((k, p), (0, p))
        roots = {find((g, p)) for g in range(k + 1) for p in range(1, m + 1)}
        loops = len(roots)
        bracket = bracket + (delta ** (loops - 1)).shifted(exp)

    w = writhe(b)
    normalized = bracket.shifted(-3 * w, (-1) ** w)
    # A = t^(-1/4) and t -> q^(-1): exponent e in A becomes -e/4 in q
    result = {}
    for e, c in normalized.items():
        if e % 4 != 0:
            raise AssertionError("bracket exponent not divisible by 4 for a knot")
        result[-e // 4] = c
    return LaurentPolynomial(result)


def qbinomial(n: int, k: int) -> LaurentPolynomial:
    """Gaussian binomial coefficient, by exact polynomial division."""
    if not 0 <= k <= n:
        raise ValueError(f"qbinomial requires 0 <= k <= n, got ({n}, {k})")
    one = LaurentPolynomial.one()
    numerator = LaurentPolynomial.one()
    denominator = LaurentPolynomial.one()
    for i in range(k):
        numerator = numerator * (one - LaurentPolynomial.term(n - i))
        denominator = denominator * (one - LaurentPolynomial.term(i + 1))
    return numerator.exact_div(denominator)


def figure_eight_closed_form(N: int) -> LaurentPolynomial:
    """The figure-eight double-sum formula, evaluated exactly."""
    if N < 2:
        raise ValueError("color N must be at least 2")
    one = LaurentPolynomial.one()
    total = LaurentPolynomial.zero()
    for n in range(N):
        outer = LaurentPolynomial.one()
        for j in range(1, n + 1):
            outer = outer * (one - LaurentPolynomial.term(j - N))
        for k in range(n + 1):
            inner = LaurentPolynomial.one()
            for i in range(1, n - k + 1):
                inner = inner * (one - LaurentPolynomial.term(k + i - N))
            term = qbinomial(n, k).shifted(n + k * (k + 1)) * outer * inner
            total = total + term
    return total.shifted(1 - N)
