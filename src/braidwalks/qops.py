"""The crossing algebra: letters a, b, c, operator polynomials and E_N.

Each crossing of a braid carries a non-commutative word over the alphabet
{a, b, c}; letters at the same crossing q-commute with sign-dependent
exponents, so every word has a canonical form q^shift * b^s c^r a^d (the
PBW basis).  The exponents are the one table _MERGE_EXP, and _LETTER gives
the (s, r, d) of each letter.  A monomial is a CanonicalKey, and an
OperatorPolynomial is a sum of them.  A word's canonical term is its
one-letter key entries folded through _merge_keys, the merge that builds
every walk weight and every op_mul product; the key merges, the packed
power loop pruned_powers and the determinant block of qdet all read the
table, and only this module knows the key layout.  _eval_base gives the
factor E_N sends one crossing's (r, d) to, an exact Laurent polynomial in
q; evaluate_polynomial multiplies them out.  pruned_powers keeps the powers
of C packed (Kronecker substitution) and drops their dead keys; why the
drop is exact on a knot closure is proved in walks.series_terms.  The walk
engine (walks) and the quantum-determinant oracle (qdet) both build on this
module and on nothing of each other.  The q-difference-operator oracle that
checks the table and the evaluation lives with the tests
(tests/oracles.py) and shares no code with this module.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import Iterator, Mapping

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


# the largest |alpha| and |beta| + |gamma|: a term of C with fields at most M
# has |alpha s| and |beta s + gamma r| at most _MERGE_EXP_BOUND * M
_MERGE_EXP_BOUND = max(
    max(abs(alpha), abs(beta) + abs(gamma))
    for alpha, beta, gamma in _MERGE_EXP.values()
)


def _dead_partners(C: OperatorPolynomial, N: int):
    """The dead-partner index of pruned_powers.

    Returns the slots (crossing, sign) of C in ascending order and
    dead(i, r, d), the bitmask of the terms t of C (bit t for the t-th term
    in iteration order) with r + r_t < N <= r + r_t + d + d_t at slot i.
    A term with no entry at slot i, or one with r_t = d_t = 0 there, makes
    the slot dead only for a key that is dead there already, so only the
    terms with an (r_t, d_t) there are read, grouped by it; the keys asked
    about are live.  dead is memoized, so each (slot, r, d) that a power
    key takes is worked out once per call.
    """
    slots = sorted({(j, sign) for key in C._terms for j, sign, *_ in key})
    index = {slot: i for i, slot in enumerate(slots)}
    fields: list[dict[tuple[int, int], int]] = [{} for _ in slots]
    for t, key in enumerate(C._terms):
        for j, sign, _s, r, d in key:
            at = fields[index[j, sign]]
            at[r, d] = at.get((r, d), 0) | 1 << t

    @cache
    def dead(i: int, r: int, d: int) -> int:
        at = fields[i].items()
        return sum(t for (rt, dt), t in at if r + rt < N <= r + rt + d + dt)

    return slots, dead


def pruned_powers(
    C: OperatorPolynomial, N: int, n_max: int
) -> Iterator[OperatorPolynomial]:
    """C^1, ..., C^n_max, each with its dead keys dropped, as
    OperatorPolynomials; stops after the first empty one.

    A key is dead when it has a crossing with r < N <= r + d, where
    _eval_base has the factor 1 - q^0, so E_N of it is zero.  Each power
    is the live part of the products of the power before it with C.  That
    is the live part of C^n itself when every descendant of a dead key is
    dead, which walks.series_terms proves for the C of a knot closure.

    Dead partners.  No dead product is formed.  A product adds keys field
    by field, so x*t is dead exactly when at some slot i
    r_x + r_t < N <= r_x + r_t + d_x + d_t, a test on slot i of x and of t
    alone.  _dead_partners keeps, per slot and per (r, d) a key takes there
    ((0, 0) where it has no entry), the bitmask of the terms t of C that
    fail it, and each key of a power is multiplied only by the terms
    outside the union of its slots' masks.  Every key of a power is live,
    so a term adds nothing at a slot where it has r_t = d_t = 0.  So
    exactly the live products are formed, whatever C is: each power equals
    op_mul of the one before with C followed by dropping the dead keys,
    which the tests check.  Cancelled keys are dropped.

    The powers stay packed from one product to the next (Kronecker
    substitution, Harvey, arXiv:0712.4046); each key kept is decoded once
    per power, for its dead partners and for the polynomial yielded.  The
    product is the one op_mul computes, key by key: with M the largest
    field of C, every field of a pruned C^n is at most n*M, since a product
    adds fields and the prune only removes keys.

    Keys and shift.  C has L slots, one per (crossing, sign) it uses, and
    a key is one integer x holding s, r and d of each slot, slot by slot in
    ascending order, as digits of V = (2L * n_max*M * 2E*M).bit_length()
    bits (E = _MERGE_EXP_BOUND).  A field of C^n for n <= n_max is at most
    n_max*M, below 2^V, so the key of a product is the sum of the two keys,
    with no carry.  A canonical entry is never all zero, so a nonzero slot
    marks an entry and the encoding is one-to-one.  Two slots on one
    crossing would meet in C^2, so they raise as op_mul does.  The q-shift
    of _merge_keys is the sum over slots of
    r1*(alpha s2) + d1*(beta s2 + gamma r2), the dot product of the left key
    x with the vector y of the term of C that holds alpha s2 at r,
    beta s2 + gamma r2 at d and 0 at s.  The entries of y are at most E*M in
    absolute value, so Y, which adds E*M to each r and d entry of y, has
    entries in [0, 2E*M]; it is packed in descending order, at 2^V too.
    Only the 2L r and d digits of Y are nonzero, so each coefficient of the
    product x*Y sums at most 2L products of entries and is below 2^V, and
    no digit carries: the digit at 2^(V(3L-1)) is exactly x.Y, and the
    shift is that minus E*M times the sum of the r and d fields of x.

    Coefficients.  Each coefficient q^v * P(q) is kept as (v, P(2^B)) with
    B = (||C||_1^n_max).bit_length() + 1, ||.||_1 the sum of the absolute
    coefficients over all terms.  The value at 2^B is a ring homomorphism,
    so products and sums, realigned to the lower v when two meet at a key,
    are exact whatever their size.  ||C^n||_1 <= ||C||_1^n, as
    ||f g||_1 <= ||f||_1 ||g||_1 and the prune only removes keys, so every
    coefficient of a pruned C^n lies below 2^(B-1), and the balanced
    base-2^B digits of LaurentPolynomial.unpacked return it exactly; a
    packed zero is the zero polynomial, so cancelled keys are dropped.
    """
    slots, partners = _dead_partners(C, N)
    if n_max >= 2:
        for (j, _), (j2, _) in zip(slots, slots[1:]):
            if j == j2:
                raise ValueError(f"sign mismatch at crossing {j}")
    L = len(slots)
    M = max((max(e[2:]) for key in C._terms for e in key), default=0)
    off = _MERGE_EXP_BOUND * M
    V = (2 * L * n_max * M * 2 * off).bit_length()
    norm = sum(abs(c) for coeff in C._terms.values() for _e, c in coeff.items())
    B = (norm**n_max).bit_length() + 1
    top, digit_mask = V * (3 * L - 1), (1 << V) - 1

    index = {slot: i for i, slot in enumerate(slots)}
    offsets = sum(off << (top - V * k) for k in range(3 * L) if k % 3)
    factors = []  # (key, valuation, packed coefficient, packed Y)
    for key, coeff in C._terms.items():
        K, Y = 0, offsets
        for j, sign, s, r, d in key:
            i = index[j, sign]
            alpha, beta, gamma = _MERGE_EXP[sign]
            K |= (s | r << V | d << 2 * V) << 3 * V * i
            Y += (alpha * s) << (top - V * (3 * i + 1))
            Y += (beta * s + gamma * r) << (top - V * (3 * i + 2))
        factors.append((K, *coeff.packed(B), Y))
    everyone = (1 << len(factors)) - 1

    def decoded(K: int) -> tuple[CanonicalKey, int, int]:
        """The canonical key of K, the sum of its r and d fields and the
        union of the dead partners of its slots."""
        entries = []
        xsum = dead = 0
        for i, (j, sign) in enumerate(slots):
            s, r, d = K & digit_mask, K >> V & digit_mask, K >> 2 * V & digit_mask
            K >>= 3 * V
            dead |= partners(i, r, d)
            if s or r or d:
                entries.append((j, sign, s, r, d))
                xsum += r + d
        return tuple(entries), xsum, dead

    # key -> (valuation - E*M * (sum of r and d), packed coefficient, dead
    # partners)
    power = {0: (0, 1, decoded(0)[2])}
    for _ in range(n_max):
        product: dict[int, tuple[int, int]] = {}
        for K1, (v1, c1, dead) in power.items():
            partners_left = everyone ^ dead
            while partners_left:
                bit = partners_left & -partners_left
                partners_left ^= bit
                K2, v2, c2, Y2 = factors[bit.bit_length() - 1]
                K = K1 + K2
                v = v1 + v2 + (K1 * Y2 >> top & digit_mask)
                c = c1 * c2
                prev = product.get(K)
                if prev is not None:
                    pv, pc = prev
                    if pv <= v:
                        v, c = pv, pc + (c << B * (v - pv))
                    else:
                        c += pc << B * (pv - v)
                product[K] = (v, c)
        power = {}
        live: dict[CanonicalKey, LaurentPolynomial] = {}
        for K, (v, c) in product.items():
            if not c:
                continue
            key, xsum, dead = decoded(K)
            live[key] = LaurentPolynomial.unpacked(c, B, v)
            power[K] = (v - off * xsum, c, dead)
        p = OperatorPolynomial.__new__(OperatorPolynomial)
        p._terms = live
        yield p
        if not power:
            return
