"""The per-crossing weight algebra: letters a, b, c and their evaluation.

Each crossing of a braid carries a non-commutative word over the alphabet
{a, b, c}; letters at the same crossing q-commute with sign-dependent
exponents, so every word has a canonical form q^shift * b^s c^r a^d (the
PBW basis).  The exponents are the one table _MERGE_EXP: normal_order,
the key merges and the packed power loop of walks, the determinant block
of qdet and relation_oracle_check all read it.  The evaluation map E_N
sends a canonical form to an exact Laurent polynomial in q.

A separate q-difference-operator realization of the letters is provided as
an independent oracle: it acts on trivariate Laurent polynomials and must
agree with the closed-form evaluation on every word, and its letters must
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


@dataclass(frozen=True)
class NormalForm:
    """Canonical form q^q_shift * b^s c^r a^d of a crossing word."""

    q_shift: int
    s: int
    r: int
    d: int


def normal_order(w: CrossingWord) -> NormalForm:
    """Normal-order a crossing word into the b..c..a basis.

    The word is folded letter by letter: appending (s2, r2, d2) to
    b^s c^r a^d moves it left past a^d and then c^r, which by _MERGE_EXP
    picks up q^(r alpha s2 + d (beta s2 + gamma r2)).  This is well defined
    because each relation is a pure q-commutation.
    """
    alpha, beta, gamma = _MERGE_EXP[w.sign]
    shift = s = r = d = 0
    for x in w.word:
        s2, r2, d2 = _LETTER[x]
        shift += r * alpha * s2 + d * (beta * s2 + gamma * r2)
        s, r, d = s + s2, r + r2, d + d2
    return NormalForm(shift, s, r, d)


# bounded, so a long-lived process does not grow with every (r, d, N) it
# has seen; one series needs far fewer distinct entries than this
@lru_cache(maxsize=1 << 12)
def _eval_base(sign: int, r: int, d: int, N: int) -> LaurentPolynomial:
    one = LaurentPolynomial.one()
    if sign > 0:
        result = LaurentPolynomial.term(r * (N - 1 - d))
        for i in range(d):
            result = result * (one - LaurentPolynomial.term(N - 1 - r - i))
    else:
        result = LaurentPolynomial.term(-r * (N - 1))
        for i in range(d):
            result = result * (one - LaurentPolynomial.term(r + i + 1 - N))
    return result


def eval_crossing(nf: NormalForm, sign: int, N: int) -> LaurentPolynomial:
    """Evaluate E_N on q^q_shift * b^s c^r a^d; the b-count never matters."""
    if N < 2:
        raise ValueError("color N must be at least 2")
    return _eval_base(sign, nf.r, nf.d, N).shifted(nf.q_shift)


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
# A trivariate polynomial is a dict mapping (ex, ey, eu) to a coefficient.
# ---------------------------------------------------------------------------

TriPoly = dict[tuple[int, int, int], LaurentPolynomial]


def tri_one() -> TriPoly:
    return {(0, 0, 0): LaurentPolynomial.one()}


def _mul_var(p: TriPoly, axis: int, step: int) -> TriPoly:
    out = {}
    for key, c in p.items():
        k = list(key)
        k[axis] += step
        out[tuple(k)] = c
    return out


def _tau(p: TriPoly, axis: int, power: int) -> TriPoly:
    return {key: c.shifted(power * key[axis]) for key, c in p.items()}


def _tri_add(p1: TriPoly, p2: TriPoly, negate: bool = False) -> TriPoly:
    out = dict(p1)
    for key, c in p2.items():
        n = out.get(key, LaurentPolynomial.zero()) + (-c if negate else c)
        if n:
            out[key] = n
        else:
            out.pop(key, None)
    return out


def tri_scale(p: TriPoly, factor: LaurentPolynomial) -> TriPoly:
    out = {}
    for key, c in p.items():
        n = c * factor
        if n:
            out[key] = n
    return out


_X, _Y, _U = 0, 1, 2


def apply_letter(letter: str, sign: int, p: TriPoly) -> TriPoly:
    if letter == "b":
        return _mul_var(p, _U, 2)
    if sign > 0:
        if letter == "a":
            p1 = _tau(p, _Y, -1)
            return _tri_add(
                _mul_var(p1, _U, 1), _mul_var(_tau(p1, _X, -1), _Y, 1), negate=True
            )
        if letter == "c":
            return _mul_var(_tau(_tau(p, _Y, -2), _U, -1), _X, 1)
    else:
        if letter == "a":
            p1 = _tau(_tau(p, _X, -1), _U, 1)
            return _tri_add(_tau(p1, _Y, 1), _mul_var(p1, _X, -1), negate=True)
        if letter == "c":
            return _mul_var(_tau(_tau(p, _X, -1), _U, 1), _Y, -1)
    raise ValueError(f"unknown letter {letter!r}")


def apply_word(word: str, sign: int, p: TriPoly) -> TriPoly:
    """Apply a word of operators; the rightmost letter acts first."""
    for letter in reversed(word):
        p = apply_letter(letter, sign, p)
    return p


def oracle_apply(w: CrossingWord, N: int) -> LaurentPolynomial:
    """Evaluate E_N on a crossing word via the q-difference operators.

    Applies the word to the constant polynomial 1, then substitutes
    x -> q^(N-1), y -> q^(N-1), u -> 1.
    """
    if N < 2:
        raise ValueError("color N must be at least 2")
    total = LaurentPolynomial.zero()
    for (ex, ey, _eu), c in apply_word(w.word, w.sign, tri_one()).items():
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


def relation_oracle_check(sign: int, *, perturb: int = 0) -> bool:
    """Check the three same-sign relations of _MERGE_EXP under the oracle:
    c b = q^alpha b c, a b = q^beta b a and a c = q^gamma c a.

    Both sides of each relation are applied to a basket of random trivariate
    polynomials.  With perturb != 0 the q-exponent of each relation is
    shifted by that amount, which must make the check fail (negative
    control).
    """
    rng = random.Random(7)
    basket = [tri_one()] + [_random_tripoly(rng) for _ in range(8)]
    for lhs, exp in zip(("cb", "ab", "ac"), _MERGE_EXP[sign]):
        factor = LaurentPolynomial.term(exp + perturb)
        for f in basket:
            left = apply_word(lhs, sign, f)
            right = tri_scale(apply_word(lhs[::-1], sign, f), factor)
            if left != right:
                return False
    return True
