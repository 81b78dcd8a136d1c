"""Paths, walks and stacks along a braid, and the operator polynomial C.

A path starts at the bottom of a strand and follows it upward; whenever it
begins to cross over another strand it may jump down instead.  A walk is a
set J of starting strands (never strand 1), a permutation of J, and one
path per start.  C is the sum of the walk weights; the colored Jones
series is sum_n E_N(C^n), which truncates at n = (m-1)(N-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Mapping

from .braid import BraidWord, DiagramCell, NotAKnotError, is_knot_closure
from .laurent import LaurentPolynomial
from .qops import _LETTER, _MERGE_EXP, _eval_base


@dataclass(frozen=True)
class Path:
    """A single bottom-to-top traversal with its cell footprint.

    letters holds (crossing index, letter) pairs, ascending by index; a path
    picks up at most one letter per crossing.
    """

    start: int
    end: int
    footprint: tuple[DiagramCell, ...]
    letters: tuple[tuple[int, str], ...]

    def cells(self) -> frozenset[DiagramCell]:
        return frozenset(self.footprint)

    def to_json(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "letters": {str(j): letter for j, letter in self.letters},
            "footprint": [list(cell) for cell in self.footprint],
        }


def inversions(seq: tuple[int, ...]) -> int:
    """Number of pairs i < j with seq[i] > seq[j]."""
    return sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )


def _moves(b: BraidWord, j: int, pos: int) -> tuple[tuple[str | None, int], ...]:
    """(letter, next position) choices at crossing j, which lies between
    gap j and gap j - 1, for a path at `pos`; the jump `a` comes first."""
    l, sign = b.letters[j - 1]
    over, under = (l, l + 1) if sign > 0 else (l + 1, l)
    if pos == over:
        return (("a", over), ("c", under))
    if pos == under:
        return (("b", over),)
    return ((None, pos),)


def enumerate_paths(b: BraidWord, start: int) -> list[Path]:
    """All paths from `start`, in depth-first order (jump before over).

    The search keeps its own stack, one entry per crossing entered, so its
    depth is not bounded by the interpreter's recursion limit.  An entry
    holds the remaining moves at its crossing and the number of letters
    picked up before it; `cells` and `letters` are cut back to that depth
    before each move is taken.
    """
    if not 1 <= start <= b.strands:
        raise ValueError(f"start strand {start} out of range")
    k = len(b)
    if k == 0:
        return [Path(start, start, ((0, start),), ())]
    results: list[Path] = []
    cells: list[DiagramCell] = [(k, start)]
    letters: list[tuple[int, str]] = []  # descending crossing index
    stack = [(iter(_moves(b, k, start)), 0)]
    while stack:
        depth = len(stack)
        j = k + 1 - depth  # the crossing the top entry chooses at
        moves, n_letters = stack[-1]
        move = next(moves, None)
        if move is None:
            stack.pop()
            continue
        letter, nxt = move
        del cells[depth:]
        del letters[n_letters:]
        cells.append((j - 1, nxt))
        if letter is not None:
            letters.append((j, letter))
        if j > 1:
            stack.append((iter(_moves(b, j - 1, nxt)), len(letters)))
        else:
            results.append(
                Path(start, nxt, tuple(cells), tuple(reversed(letters)))
            )
    return results


@dataclass(frozen=True)
class Walk:
    """A collection of paths with distinct starts (ascending) permuting J."""

    paths: tuple[Path, ...]

    def __post_init__(self):
        starts = [p.start for p in self.paths]
        if sorted(set(starts)) != starts:
            raise ValueError("walk paths must have distinct, ascending starts")
        if sorted(p.end for p in self.paths) != starts:
            raise ValueError("walk path endpoints must permute the start set")

    @property
    def J(self) -> tuple[int, ...]:
        return tuple(p.start for p in self.paths)

    @property
    def pi(self) -> dict[int, int]:
        return {p.start: p.end for p in self.paths}

    def inversions(self) -> int:
        return inversions(tuple(p.end for p in self.paths))

    def is_simple(self) -> bool:
        """No two paths traverse the same diagram cell."""
        seen: set[DiagramCell] = set()
        for p in self.paths:
            cells = p.cells()
            if seen & cells:
                return False
            seen |= cells
        return True

    def to_json(self) -> dict:
        return {
            "J": list(self.J),
            "pi": {str(j): e for j, e in self.pi.items()},
            "paths": [p.to_json() for p in self.paths],
        }


def enumerate_walks(b: BraidWord, simple_only: bool) -> list[Walk]:
    """All walks with nonempty J contained in {2, ..., m}.

    The walks come by size of J, then J, then the permutation of J, and
    within one (J, ends) pair in the order of the product of its path pools,
    the pool of the last start varying fastest.  The paths are chosen start
    by start, depth first.  With simple_only a path whose cells meet those
    of the paths already chosen is skipped, and with it every completion of
    that choice; a choice is simple exactly when no path meets an earlier
    one, so this keeps the walks that Walk.is_simple keeps, in the same
    order, and builds a Walk only for a complete choice.  The recursion is
    one level per start, at most m - 1 deep.

    The empty braid word is excluded by convention; its series is the
    constant 1 (unknot normalization).
    """
    m = b.strands
    if len(b) == 0 or m < 2:
        return []
    by_pair: dict[tuple[int, int], list[tuple[Path, frozenset[DiagramCell]]]] = {}
    for j in range(2, m + 1):
        for path in enumerate_paths(b, j):
            if path.end >= 2:
                by_pair.setdefault((j, path.end), []).append((path, path.cells()))
    walks: list[Walk] = []
    chosen: list[Path] = []

    def extend(pools, used: frozenset[DiagramCell]) -> None:
        last = len(pools) == 1
        for path, cells in pools[0]:
            if simple_only and not used.isdisjoint(cells):
                continue
            chosen.append(path)
            if last:
                walks.append(Walk(tuple(chosen)))
            else:
                extend(pools[1:], used | cells if simple_only else used)
            chosen.pop()

    candidates = range(2, m + 1)
    for size in range(1, m):
        for J in combinations(candidates, size):
            for ends in permutations(J):
                pools = [by_pair.get(pair, []) for pair in zip(J, ends)]
                if all(pools):
                    extend(pools, frozenset())
    return walks


# Canonical key of an operator monomial: a tuple of (crossing index, sign,
# s, r, d) entries sorted by crossing index, with all q-shifts folded into
# the coefficient.  This makes operator equality decidable (PBW basis per
# crossing, tensor across crossings).
CanonicalKey = tuple[tuple[int, int, int, int, int], ...]


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

    def __mul__(self, other: "OperatorPolynomial") -> "OperatorPolynomial":
        return op_mul(self, other)

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


# the largest |alpha| and |beta| + |gamma|: a term of C with fields at most M
# has |alpha s| and |beta s + gamma r| at most _MERGE_EXP_BOUND * M
_MERGE_EXP_BOUND = max(
    max(abs(alpha), abs(beta) + abs(gamma))
    for alpha, beta, gamma in _MERGE_EXP.values()
)


# bounded like _eval_base, so a long-lived process does not grow with every
# key pair it has merged; walk weights and op_mul merge keys here, while the
# minor transfer of qdet appends its entries and never merges.  It stays an
# lru_cache because benchmarks/trace_layers.py reads its cache_info.
@lru_cache(maxsize=1 << 12)
def _merge_keys(k1: CanonicalKey, k2: CanonicalKey) -> tuple[CanonicalKey, int]:
    """Merge two canonical keys (left operand first); returns (key, q-shift).

    When the crossings of one key all come before those of the other, no
    crossing is shared, so the merge is the concatenation in crossing order
    with shift 0.
    """
    if not k1 or not k2 or k1[-1][0] < k2[0][0]:
        return k1 + k2, 0
    if k2[-1][0] < k1[0][0]:
        return k2 + k1, 0
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


def _walk_term(walk: Walk, b: BraidWord) -> tuple[CanonicalKey, LaurentPolynomial]:
    """The key and coefficient of walk_weight(walk, b).

    A path picks up at most one letter per crossing, so its letters give a
    canonical key directly, one entry per crossing.  At each crossing the
    walk's word is the concatenation of its paths' letters in ascending
    start order, and the canonical term of a concatenation is the product
    of the canonical terms of its parts: normal_order folds a word letter by
    letter with the shift _merge_keys adds, both from qops._MERGE_EXP.  A
    crossing only one path meets adds no shift.  So the weight is the
    product of the path keys in ascending start order, folded through
    _merge_keys.
    """
    e = len(walk.paths) + walk.inversions()
    sign = (-1) ** (e + 1)
    key: CanonicalKey = ()
    for path in walk.paths:
        path_key = tuple(
            (j, b.letters[j - 1][1], *_LETTER[x]) for j, x in path.letters
        )
        key, shift = _merge_keys(key, path_key)
        e += shift
    return key, LaurentPolynomial.term(e, sign)


def walk_weight(walk: Walk, b: BraidWord) -> OperatorPolynomial:
    """The weight (-1)(-q)^(|J| + inv) times the ordered path letters.

    At each crossing the letters of the paths are appended in ascending
    start order, leftmost path first; the result is a one-term polynomial.
    """
    key, coeff = _walk_term(walk, b)
    return OperatorPolynomial({key: coeff})


def walk_sum_C(b: BraidWord) -> OperatorPolynomial:
    """The polynomial C: sum of the weights of the simple walks with J in
    {2..m}."""
    out: dict[CanonicalKey, LaurentPolynomial] = {}
    for walk in enumerate_walks(b, simple_only=True):
        key, c = _walk_term(walk, b)
        n = out.get(key)
        out[key] = c if n is None else n + c
    return OperatorPolynomial(out)


def evaluate_polynomial(p: OperatorPolynomial, N: int) -> LaurentPolynomial:
    """E_N(p): each key's coefficient times its crossings' _eval_base
    factors, summed over the keys by one packed sum_of_products; a key with
    a zero factor is skipped."""
    if N < 2:
        raise ValueError("color N must be at least 2")
    rows = []
    for key, coeff in p._terms.items():
        row = [coeff]
        for _j, sign, _s, r, d in key:
            factor = _eval_base(sign, r, d, N)
            if not factor:
                break
            row.append(factor)
        else:
            rows.append(row)
    return LaurentPolynomial.sum_of_products(rows)


def _is_dead(key: CanonicalKey, N: int) -> bool:
    """Some crossing of the key has r < N <= r + d, so E_N of it is zero."""
    return any(r < N <= r + d for _j, _sign, _s, r, d in key)


def series_terms(
    C: OperatorPolynomial, N: int, n_max: int
) -> list[LaurentPolynomial]:
    """[E_N(C^0), E_N(C^1), ..., E_N(C^n_max)].

    Precondition: C is the walk polynomial of a braid whose closure is a
    knot (walk_sum_C, or C_qdet, which gives the same polynomial).

    Each power drops its dead keys, those with a crossing where
    r < N <= r + d; _eval_base has the factor 1 - q^0 there, so a dead key
    evaluates to zero.  Read a key of C^n as a stack of n simple walks and
    count the paths of the stack through each cell.  At crossing j the
    over-strand entry cell carries r + d paths (its a and c letters) and
    the under-strand entry cell s (its b letters); the cell the c letters
    lead to carries r and the one the b letters lead to s + d; every other
    cell passes its count straight on.  Each walk's ends permute its
    starts, so the gap-0 and gap-k cells of a position carry the same
    count, and c and b follow the strand.  Start at a cell used at least N
    times and follow the strand of the closure: each step either meets a
    crossing with r < N <= r + d or reaches another cell used at least N
    times.  The closure is a knot, so the strand would in the end reach the
    gap-k cell of strand 1, which no walk uses (J lies in {2..m}); a dead
    crossing comes first.  The converse is immediate, so a key is dead if
    and only if its stack uses some cell N times.  Multiplying by C only
    raises cell counts, so every descendant of a dead key is dead: the
    pruned power is exactly the live part of C^n, and E_N of it is
    E_N(C^n).  The (m-1)(N-1) truncation of evaluate_series is the case of
    a gap-k cell used N times.

    The powers stay packed from one product to the next (Kronecker
    substitution, Harvey, arXiv:0712.4046); each surviving key is decoded
    once per power, for the prune and for evaluate_polynomial.  The product
    is the one op_mul computes, key by key: with M the largest field of C,
    every field of a pruned C^n is at most n*M, since a product adds fields
    and the prune only removes keys.

    Keys.  C has L slots, one per (crossing, sign) it uses, and a key is
    one integer holding s, r and d of each slot in fields of
    W = (n_max*M).bit_length() bits.  A field of C^n for n <= n_max is
    below 2^W, so the key of a product is the sum of the two keys, with no
    carry.  A canonical entry is never all zero, so a nonzero slot marks an
    entry and the encoding is one-to-one.  Two slots on one crossing would
    meet in C^2, so they raise as op_mul does.

    Shift.  The q-shift of _merge_keys is the sum over slots of
    r1*(alpha s2) + d1*(beta s2 + gamma r2), a dot product of the (r, d)
    vector x of the left key, entries at most n_max*M, with the vector y
    of the term of C, whose entries are at most E*M in absolute value
    (E = _MERGE_EXP_BOUND).  x is packed in ascending order and y + E*M,
    whose entries lie in [0, 2E*M], in descending order, both at 2^V with
    V = (2L * n_max*M * 2E*M).bit_length().  Each coefficient of the
    product of the two integers sums at most 2L products of entries, so it
    is below 2^V and no digit carries: the digit at 2^(V(2L-1)) is exactly
    x.(y + E*M), and the shift is that minus E*M * sum(x).

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
    terms = [LaurentPolynomial.one()]
    slots = sorted({(j, sign) for key in C._terms for j, sign, *_ in key})
    if n_max >= 2:
        for (j, _), (j2, _) in zip(slots, slots[1:]):
            if j == j2:
                raise ValueError(f"sign mismatch at crossing {j}")
    L = len(slots)
    M = max((max(e[2:]) for key in C._terms for e in key), default=0)
    W = (n_max * M).bit_length()
    off = _MERGE_EXP_BOUND * M
    V = (2 * L * n_max * M * 2 * off).bit_length()
    norm = sum(abs(c) for coeff in C._terms.values() for _e, c in coeff.items())
    B = (norm**n_max).bit_length() + 1
    top, digit_mask = V * (2 * L - 1), (1 << V) - 1
    field_mask, slot_mask = (1 << W) - 1, (1 << 3 * W) - 1

    index = {slot: i for i, slot in enumerate(slots)}
    offsets = sum(off << V * k for k in range(2 * L))
    factors = []  # (key, valuation, packed coefficient, packed y + E*M)
    for key, coeff in C._terms.items():
        K, Y = 0, offsets
        for j, sign, s, r, d in key:
            i = index[j, sign]
            alpha, beta, gamma = _MERGE_EXP[sign]
            K |= (s | r << W | d << 2 * W) << 3 * W * i
            Y += (alpha * s) << V * (2 * L - 1 - 2 * i)
            Y += (beta * s + gamma * r) << V * (2 * L - 2 - 2 * i)
        factors.append((K, *coeff.packed(B), Y))

    # key -> (valuation - E*M * sum(x), packed coefficient, packed x)
    power = {0: (0, 1, 0)}
    for _ in range(n_max):
        product: dict[int, tuple[int, int]] = {}
        for K1, (v1, c1, X1) in power.items():
            for K2, v2, c2, Y2 in factors:
                K = K1 + K2
                v = v1 + v2 + (X1 * Y2 >> top & digit_mask)
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
            entries = []
            X = xsum = 0
            rest = K
            for i, (j, sign) in enumerate(slots):
                if not rest:
                    break
                f = rest & slot_mask
                rest >>= 3 * W
                if f:
                    r, d = f >> W & field_mask, f >> 2 * W
                    entries.append((j, sign, f & field_mask, r, d))
                    X |= r << V * 2 * i | d << V * (2 * i + 1)
                    xsum += r + d
            key = tuple(entries)
            if _is_dead(key, N):
                continue
            live[key] = LaurentPolynomial.unpacked(c, B, v)
            power[K] = (v - off * xsum, c, X)
        p = OperatorPolynomial.__new__(OperatorPolynomial)
        p._terms = live
        terms.append(evaluate_polynomial(p, N))
        if not power:
            terms.extend(
                LaurentPolynomial.zero() for _ in range(n_max - len(terms) + 1)
            )
            break
    return terms


def evaluate_series(
    C: OperatorPolynomial, b: BraidWord, N: int
) -> LaurentPolynomial:
    """Sum of E_N(C^n) for n = 0 .. (m-1)(N-1).

    Beyond that bound every stack reuses some bottom cell N times, so the
    evaluation vanishes (pigeonhole over the bottom cells of strands 2..m).
    """
    # the dead-key prune of series_terms holds only for knot closures
    if not is_knot_closure(b):
        raise NotAKnotError("closure of the braid is not a knot")
    if N < 2:
        raise ValueError("color N must be at least 2")
    if len(b) == 0:
        return LaurentPolynomial.one()
    n_max = (b.strands - 1) * (N - 1)
    total = LaurentPolynomial.zero()
    for term in series_terms(C, N, n_max):
        total = total + term
    return total
