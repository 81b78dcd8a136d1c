"""The per-crossing weight algebra: letters a, b, c and their evaluation.

Each crossing of a braid carries a non-commutative word over the alphabet
{a, b, c}; letters at the same crossing q-commute with sign-dependent
exponents, so every word has a canonical form q^shift * b^s c^r a^d (the
PBW basis).  The evaluation map E_N sends a canonical form to an exact
Laurent polynomial in q.

A separate q-difference-operator realization of the letters is provided as
an independent oracle: it acts on trivariate Laurent polynomials and must
agree with the closed-form evaluation on every word.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .laurent import LaurentPolynomial

_LETTERS = frozenset("abc")

# Target order for the canonical form b^s c^r a^d.
_ORDER = {"b": 0, "c": 1, "a": 2}

# q-exponent picked up when the two adjacent letters x, y are swapped:
# x y = q^e y x.  Letters at the same crossing satisfy, for sign +:
# ab = ba, ac = q ca, bc = q^2 cb; and for sign -:
# ab = q^2 ba, ca = q ac, cb = q^2 bc.
_SWAP_EXP = {
    1: {
        ("a", "b"): 0, ("b", "a"): 0,
        ("a", "c"): 1, ("c", "a"): -1,
        ("b", "c"): 2, ("c", "b"): -2,
    },
    -1: {
        ("a", "b"): 2, ("b", "a"): -2,
        ("a", "c"): -1, ("c", "a"): 1,
        ("b", "c"): -2, ("c", "b"): 2,
    },
}


@dataclass(frozen=True)
class CrossingWord:
    """An ordered word over {a, b, c} at a single crossing of a given sign."""

    sign: int
    word: str = ""

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("crossing sign must be +1 or -1")
        if not _LETTERS.issuperset(self.word):
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

    The shift is the sum of the swap exponents over all inverted letter
    pairs; this is well defined because each relation is a pure
    q-commutation.
    """
    swap = _SWAP_EXP[w.sign]
    shift = 0
    word = w.word
    for idx in range(len(word)):
        x = word[idx]
        rx = _ORDER[x]
        for y in word[idx + 1:]:
            if rx > _ORDER[y]:
                shift += swap[(x, y)]
    return NormalForm(shift, word.count("b"), word.count("c"), word.count("a"))


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


# lhs = q^exp * rhs as operator identities, same crossing, same sign
_RELATIONS = {
    1: (("ab", "ba", 0), ("ac", "ca", 1), ("bc", "cb", 2)),
    -1: (("ab", "ba", 2), ("ca", "ac", 1), ("cb", "bc", 2)),
}


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


def relation_oracle_check(sign: int, *, perturb: int = 0, seed: int = 7) -> bool:
    """Check the three same-sign commutation relations under the oracle.

    Both sides of each relation are applied to a basket of random trivariate
    polynomials.  With perturb != 0 the q-exponent of each relation is
    shifted by that amount, which must make the check fail (negative
    control).
    """
    rng = random.Random(seed)
    basket = [tri_one()] + [_random_tripoly(rng) for _ in range(8)]
    for lhs, rhs, exp in _RELATIONS[sign]:
        factor = LaurentPolynomial.term(exp + perturb)
        for f in basket:
            left = apply_word(lhs, sign, f)
            right = tri_scale(apply_word(rhs, sign, f), factor)
            if left != right:
                return False
    return True
