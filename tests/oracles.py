"""Independent oracles for the crossing algebra and for rho, used only by
the tests.

The q-difference-operator realization of the letters: one table,
_OPERATORS, gives each letter of each sign as a sum of substitutions and
monomial multiplications acting on trivariate Laurent polynomials.  It
shares no code with the engine, must agree with the engine's evaluation
(qops.evaluate_polynomial of the qops._merge_keys fold) on every word, and
its letters must obey the relations of qops._MERGE_EXP, the one table the
engine's merges read.

The right-quantum check: rho(b) obeys the relations of a right-quantum
matrix (Garoufalidis-Le-Zeilberger, arXiv:math/0303319), the hypothesis of
the quantum Cauchy-Binet step of qdet._transfer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from braidwalks import BraidWord, LaurentPolynomial, OperatorMatrix, op_mul, rho
from braidwalks.qops import _MERGE_EXP


@dataclass(frozen=True)
class CrossingWord:
    """An ordered word over {a, b, c} at a single crossing of a given sign."""

    sign: int
    word: str = ""

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("crossing sign must be +1 or -1")
        if not set(self.word) <= set("abc"):
            raise ValueError(f"invalid crossing word {self.word!r}")


# ---------------------------------------------------------------------------
# q-difference-operator oracle
#
# The letters act on Laurent polynomials in three variables x, y, u with
# coefficients in Z[q, q^-1]:
#
#   a_+ = (u^ - y^ Tx^-1) Ty^-1     b_+ = u^2      c_+ = x^ Ty^-2 Tu^-1
#   a_- = (Ty - x^-1) Tx^-1 Tu      b_- = u^2      c_- = y^-1 Tx^-1 Tu
#
# where v^ multiplies by the variable v and Tv substitutes v -> qv.
# _OPERATORS expands each operator into terms (coefficient, (i, j, k),
# (s, t, w)): substitute x -> q^s x, y -> q^t y, u -> q^w u, then multiply
# by x^i y^j u^k.  A trivariate polynomial is a dict mapping (ex, ey, eu)
# to a coefficient.
# ---------------------------------------------------------------------------

TriPoly = dict[tuple[int, int, int], LaurentPolynomial]

_OPERATORS = {
    (1, "a"): ((1, (0, 0, 1), (0, -1, 0)), (-1, (0, 1, 0), (-1, -1, 0))),
    (1, "b"): ((1, (0, 0, 2), (0, 0, 0)),),
    (1, "c"): ((1, (1, 0, 0), (0, -2, -1)),),
    (-1, "a"): ((1, (0, 0, 0), (-1, 1, 1)), (-1, (-1, 0, 0), (-1, 0, 1))),
    (-1, "b"): ((1, (0, 0, 2), (0, 0, 0)),),
    (-1, "c"): ((1, (0, -1, 0), (-1, 0, 1)),),
}


def apply_word(word: str, sign: int, p: TriPoly) -> TriPoly:
    """Apply a word of operators; the rightmost letter acts first."""
    for letter in reversed(word):
        terms = _OPERATORS.get((sign, letter))
        if terms is None:
            raise ValueError(f"unknown letter {letter!r} or sign {sign}")
        out: TriPoly = {}
        for (ex, ey, eu), c in p.items():
            for coeff, (i, j, k), (s, t, w) in terms:
                key = (ex + i, ey + j, eu + k)
                n = out.get(key, LaurentPolynomial.zero()) + c.shifted(
                    s * ex + t * ey + w * eu, coeff
                )
                if n:
                    out[key] = n
                else:
                    out.pop(key, None)
        p = out
    return p


def oracle_apply(w: CrossingWord, N: int) -> LaurentPolynomial:
    """Evaluate E_N on a crossing word via the q-difference operators.

    Applies the word to the constant polynomial 1, then substitutes
    x -> q^(N-1), y -> q^(N-1), u -> 1.
    """
    if N < 2:
        raise ValueError("color N must be at least 2")
    total = LaurentPolynomial.zero()
    one = {(0, 0, 0): LaurentPolynomial.one()}
    for (ex, ey, _eu), c in apply_word(w.word, w.sign, one).items():
        total = total + c.shifted((N - 1) * (ex + ey))
    return total


def _random_tripoly(rng: random.Random) -> TriPoly:
    out: TriPoly = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
        coeff = LaurentPolynomial(
            {rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(2)}
        )
        if coeff:
            out[key] = out.get(key, LaurentPolynomial.zero()) + coeff
    return {k: c for k, c in out.items() if c}


def relation_oracle_check(sign: int) -> bool:
    """Check the three same-sign relations of _MERGE_EXP under the oracle:
    c b = q^alpha b c, a b = q^beta b a and a c = q^gamma c a.

    Both sides of each relation are applied to a basket of random trivariate
    polynomials.
    """
    rng = random.Random(7)
    basket = [{(0, 0, 0): LaurentPolynomial.one()}]
    basket += [_random_tripoly(rng) for _ in range(8)]
    for lhs, exp in zip(("cb", "ab", "ac"), _MERGE_EXP[sign]):
        for f in basket:
            left = apply_word(lhs, sign, f)
            right = apply_word(lhs[::-1], sign, f)
            if left != {k: c.shifted(exp) for k, c in right.items()}:
                return False
    return True


# ---------------------------------------------------------------------------
# right-quantum check
# ---------------------------------------------------------------------------


def matrix_is_right_quantum(M: OperatorMatrix) -> bool:
    """Check ac=qca, bd=qdb, ad=da+qcb-q^{-1}bc on every 2x2 submatrix."""
    q = LaurentPolynomial.term(1)
    q_inv = LaurentPolynomial.term(-1)
    n = M.dim
    for i1 in range(n):
        for i2 in range(i1 + 1, n):
            for j1 in range(n):
                for j2 in range(j1 + 1, n):
                    a = M.entries[i1][j1]
                    b = M.entries[i1][j2]
                    c = M.entries[i2][j1]
                    d = M.entries[i2][j2]
                    if op_mul(a, c) != op_mul(c, a).scaled(q):
                        return False
                    if op_mul(b, d) != op_mul(d, b).scaled(q):
                        return False
                    rhs = (
                        op_mul(d, a)
                        + op_mul(c, b).scaled(q)
                        - op_mul(b, c).scaled(q_inv)
                    )
                    if op_mul(a, d) != rhs:
                        return False
    return True


def right_quantum_check(b: BraidWord) -> bool:
    return matrix_is_right_quantum(rho(b))
