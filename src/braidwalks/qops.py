"""The per-crossing weight algebra: letters a, b, c and their evaluation.

Each crossing of a braid carries a non-commutative word over the alphabet
{a, b, c}; letters at the same crossing q-commute with sign-dependent
exponents, so every word has a canonical form q^shift * b^s c^r a^d (the
PBW basis).  The exponents are the one table _MERGE_EXP, and _LETTER gives
the (s, r, d) of each letter.  A word's canonical term is its one-letter
key entries folded through walks._merge_keys, the merge that builds every
walk weight; the key merges, the packed power loop of walks, the
determinant block of qdet and relation_oracle_check all read the table.
_eval_base gives the factor E_N sends one crossing's (r, d) to, an exact
Laurent polynomial in q; walks.evaluate_polynomial multiplies them out.

A separate q-difference-operator realization of the letters is provided as
an independent oracle: one table, _OPERATORS, gives each letter of each
sign as a sum of substitutions and monomial multiplications acting on
trivariate Laurent polynomials.  It shares no code with the engine, must
agree with the engine's evaluation on every word, and its letters must
obey the relations of _MERGE_EXP.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .laurent import LaurentPolynomial

# The q-commutation rule of the letters at one crossing: (alpha, beta,
# gamma) per sign with c b = q^alpha b c, a b = q^beta b a and
# a c = q^gamma c a.  Letters at different crossings commute.
_MERGE_EXP = {1: (-2, 0, 1), -1: (2, 2, -1)}

# the (s, r, d) of a single letter: its counts of b, c and a
_LETTER = {"b": (1, 0, 0), "c": (0, 1, 0), "a": (0, 0, 1)}


@dataclass(frozen=True)
class CrossingWord:
    """An ordered word over {a, b, c} at a single crossing of a given sign."""

    sign: int
    word: str = ""

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("crossing sign must be +1 or -1")
        if not _LETTER.keys() >= set(self.word):
            raise ValueError(f"invalid crossing word {self.word!r}")


# bounded, so a long-lived process does not grow with every (r, d, N) it
# has seen; one series needs far fewer distinct entries than this
@lru_cache(maxsize=1 << 12)
def _eval_base(sign: int, r: int, d: int, N: int) -> LaurentPolynomial:
    """E_N of b^s c^r a^d at one crossing of the given sign, for every s:
    the b-count never matters.

    It is q^(r(N-1-d)) for sign +1 and q^(-r(N-1)) for sign -1, times
    1 - q^(sign (N-1-r-i)) for each i in 0..d-1.  So it is built from the
    entry for d - 1, P, shifted by -r for sign +1, as P - P q^(sign (N-r-d)):
    one pass over the terms per factor.  The entries for 0..d-1 are filled
    in ascending order first, so each is found in the cache by the next and
    the recursion is never more than one level deep.
    """
    if d == 0:
        return LaurentPolynomial.term(sign * r * (N - 1))
    for i in range(d):
        P = _eval_base(sign, r, i, N)
    if sign > 0:
        P = P.shifted(-r)
    return P - P.shifted(sign * (N - r - d))


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
