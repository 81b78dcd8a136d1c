"""The crossing algebra: letters a, b, c, operator polynomials and E_N.

Each crossing of a braid carries a non-commutative word over the alphabet
{a, b, c}; letters at the same crossing q-commute with sign-dependent
exponents, so every word has a canonical form q^shift * b^s c^r a^d (the
PBW basis).  The exponents are the one table _MERGE_EXP, and _LETTER gives
the (s, r, d) of each letter.  A monomial is a CanonicalKey, and an
OperatorPolynomial is a sum of them.  A word's canonical term is its
one-letter key entries folded through _merge_keys, the merge that builds
every walk weight and every op_mul product; the key merges, the packed
power loop of walks and the determinant block of qdet all read the table.
_eval_base gives the factor E_N sends one crossing's (r, d) to, an exact
Laurent polynomial in q; evaluate_polynomial multiplies them out.  The walk
engine (walks) and the quantum-determinant oracle (qdet) both build on this
module and on nothing of each other.  The q-difference-operator oracle that
checks the table and the evaluation lives with the tests
(tests/oracles.py) and shares no code with this module.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .laurent import LaurentPolynomial

# The q-commutation rule of the letters at one crossing: (alpha, beta,
# gamma) per sign with c b = q^alpha b c, a b = q^beta b a and
# a c = q^gamma c a.  Letters at different crossings commute.
_MERGE_EXP = {1: (-2, 0, 1), -1: (2, 2, -1)}

# the (s, r, d) of a single letter: its counts of b, c and a
_LETTER = {"b": (1, 0, 0), "c": (0, 1, 0), "a": (0, 0, 1)}

# Canonical key of an operator monomial: a tuple of (crossing index, sign,
# s, r, d) entries sorted by crossing index, with all q-shifts folded into
# the coefficient.  This makes operator equality decidable (PBW basis per
# crossing, tensor across crossings).
CanonicalKey = tuple[tuple[int, int, int, int, int], ...]


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


class OperatorPolynomial:
    """A formal sum of canonical operator monomials."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[CanonicalKey, LaurentPolynomial] | None = None):
        self._terms = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls) -> "OperatorPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "OperatorPolynomial":
        return cls({(): LaurentPolynomial.one()})

    @property
    def terms(self) -> dict[CanonicalKey, LaurentPolynomial]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "OperatorPolynomial") -> "OperatorPolynomial":
        out = dict(self._terms)
        for k, c in other._terms.items():
            n = out.get(k)
            n = c if n is None else n + c
            if n:
                out[k] = n
            else:
                out.pop(k, None)
        result = OperatorPolynomial.__new__(OperatorPolynomial)
        result._terms = out
        return result

    def __sub__(self, other: "OperatorPolynomial") -> "OperatorPolynomial":
        return self + other.scaled(LaurentPolynomial.term(0, -1))

    def scaled(self, factor: LaurentPolynomial) -> "OperatorPolynomial":
        return OperatorPolynomial(
            {k: c * factor for k, c in self._terms.items()}
        )

    def to_json(self) -> list[dict]:
        dump = []
        for key in sorted(self._terms):
            dump.append(
                {
                    "coeff": self._terms[key].to_json(),
                    "crossings": [
                        {"crossing": j, "sign": sign, "b": s, "c": r, "a": d}
                        for j, sign, s, r, d in key
                    ],
                }
            )
        return dump


# bounded like _eval_base, so a long-lived process does not grow with every
# key pair it has merged; walk weights and op_mul merge keys here, while the
# minor transfer of qdet appends its entries and never merges.  It stays an
# lru_cache because benchmarks/trace_layers.py reads its cache_info.
@lru_cache(maxsize=1 << 12)
def _merge_keys(k1: CanonicalKey, k2: CanonicalKey) -> tuple[CanonicalKey, int]:
    """Merge two canonical keys (left operand first); returns (key, q-shift).

    An empty key is returned as the other one with shift 0: it is the key
    of the unit of op_mul and of a path with no letters.
    """
    if not k1 or not k2:
        return k1 + k2, 0
    out = []
    shift = 0
    i1 = i2 = 0
    n1, n2 = len(k1), len(k2)
    while i1 < n1 and i2 < n2:
        e1, e2 = k1[i1], k2[i2]
        if e1[0] < e2[0]:
            out.append(e1)
            i1 += 1
        elif e1[0] > e2[0]:
            out.append(e2)
            i2 += 1
        else:
            j, sign, s1, r1, d1 = e1
            _, sign2, s2, r2, d2 = e2
            if sign2 != sign:
                raise ValueError(f"sign mismatch at crossing {j}")
            alpha, beta, gamma = _MERGE_EXP[sign]
            shift += r1 * alpha * s2 + d1 * (beta * s2 + gamma * r2)
            out.append((j, sign, s1 + s2, r1 + r2, d1 + d2))
            i1 += 1
            i2 += 1
    out.extend(k1[i1:])
    out.extend(k2[i2:])
    return tuple(out), shift


def op_mul(p: OperatorPolynomial, q: OperatorPolynomial) -> OperatorPolynomial:
    """Bilinear product; per-crossing words concatenate, left operand first."""
    out: dict[CanonicalKey, LaurentPolynomial] = {}
    for k1, c1 in p._terms.items():
        for k2, c2 in q._terms.items():
            key, shift = _merge_keys(k1, k2)
            c = (c1 * c2).shifted(shift) if shift else c1 * c2
            n = out.get(key)
            n = c if n is None else n + c
            if n:
                out[key] = n
            else:
                out.pop(key, None)
    result = OperatorPolynomial.__new__(OperatorPolynomial)
    result._terms = out
    return result


def evaluate_polynomial(p: OperatorPolynomial, N: int) -> LaurentPolynomial:
    """E_N(p): each key's coefficient times its crossings' _eval_base
    factors, summed over the keys by one packed sum_of_products, which
    drops the row of a key with a zero factor."""
    if N < 2:
        raise ValueError("color N must be at least 2")
    return LaurentPolynomial.sum_of_products(
        [coeff, *(_eval_base(sign, r, d, N) for _j, sign, _s, r, d in key)]
        for key, coeff in p._terms.items()
    )

