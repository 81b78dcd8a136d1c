"""Shared braid-word enumeration helpers and reference constructions for
the test suite.

The references are the direct, unoptimized forms of what the package
computes faster: walks by product and filter, weights by normal ordering
whole words (from_words), rho as the product of full local matrices, and
C_qdet as quantum determinants summed over permutations (det_q).  They live
only here; the package builds neither local matrices, permutation sums nor
whole-word terms.  The commutation exponents are not restated: normal_order
and reference_merge_keys read the package's one table, qops._MERGE_EXP, and
the q-difference oracle checks that table independently.
"""

from __future__ import annotations

import itertools
import random
from typing import Mapping

from braidwalks import (
    BraidWord,
    CrossingWord,
    LaurentPolynomial,
    OperatorMatrix,
    OperatorPolynomial,
    Walk,
    enumerate_paths,
    enumerate_walks,
    is_knot_closure,
    op_mul,
    walk_weight,
)
from braidwalks.qops import _MERGE_EXP, _eval_base, normal_order
from braidwalks.walks import CanonicalKey, _is_dead, inversions


def from_words(
    coeff: LaurentPolynomial, words: Mapping[int, CrossingWord]
) -> OperatorPolynomial:
    """The one-term polynomial coeff times one word per crossing index, each
    word normal-ordered whole; empty words are skipped.  The whole-word
    reference the package's key merges are compared against."""
    shift = 0
    key = []
    for j in sorted(words):
        cw = words[j]
        if not cw.word:
            continue
        nf = normal_order(cw)
        shift += nf.q_shift
        key.append((j, cw.sign, nf.s, nf.r, nf.d))
    return OperatorPolynomial({tuple(key): coeff.shifted(shift)})


def random_knot_words(
    count: int, strands: tuple[int, ...], lengths: tuple[int, int], seed: int
) -> list[BraidWord]:
    """Random braid words with both signs and knot closure (deterministic):
    strands drawn from `strands`, lengths from the closed range `lengths`."""
    rng = random.Random(seed)
    out: list[BraidWord] = []
    while len(out) < count:
        m = rng.choice(strands)
        length = rng.randint(*lengths)
        letters = tuple(
            (rng.randint(1, m - 1), rng.choice((1, -1))) for _ in range(length)
        )
        b = BraidWord(m, letters)
        if is_knot_closure(b):
            out.append(b)
    return out


def knot_closure_words(max_strands: int = 4, max_length: int = 6) -> list[BraidWord]:
    """Every braid word of bounded length whose closure is a knot."""
    out: list[BraidWord] = []
    for m in range(1, max_strands + 1):
        tokens = [g * s for g in range(1, m) for s in (1, -1)]
        for length in range(max_length + 1):
            for combo in itertools.product(tokens, repeat=length):
                b = BraidWord(
                    m, tuple((abs(t), 1 if t > 0 else -1) for t in combo)
                )
                if is_knot_closure(b):
                    out.append(b)
    return out


def differential_words() -> list[BraidWord]:
    """The words the C-construction references are compared on: every 10th
    corpus word, 20 seeded 3- and 4-strand words of 9-20 crossings, and 10
    seeded 5-strand words of 8-12 crossings, the only ones with 4x4
    quantum minors in C_qdet."""
    return (
        knot_closure_words()[::10]
        + random_knot_words(20, (3, 4), (9, 20), seed=2024)
        + random_knot_words(10, (5,), (8, 12), seed=2024)
    )


def random_positive_knot_words(
    count: int, max_length: int = 8, max_strands: int = 4, seed: int = 2024
) -> list[BraidWord]:
    """Random positive braid words with knot closure (deterministic)."""
    rng = random.Random(seed)
    out: list[BraidWord] = []
    while len(out) < count:
        m = rng.randint(2, max_strands)
        length = rng.randint(1, max_length)
        letters = tuple((rng.randint(1, m - 1), 1) for _ in range(length))
        b = BraidWord(m, letters)
        if is_knot_closure(b):
            out.append(b)
    return out


def unpruned_series_terms(
    C: OperatorPolynomial, N: int, n_max: int
) -> list[LaurentPolynomial]:
    """[E_N(C^0), ..., E_N(C^n_max)] from the full powers of C.

    The power loop of series_terms without its dead-key prune, each power
    evaluated by reference_evaluate_polynomial, kept as the reference the
    pruned loop and its packed evaluation are compared against.
    """
    terms = [LaurentPolynomial.one()]
    power = OperatorPolynomial.one()
    for _ in range(n_max):
        power = op_mul(power, C)
        terms.append(reference_evaluate_polynomial(power, N))
    return terms


def reference_series_terms(
    C: OperatorPolynomial, N: int, n_max: int, powers: list | None = None
) -> list[LaurentPolynomial]:
    """[E_N(C^0), ..., E_N(C^n_max)] by the dict-loop power loop: op_mul,
    then the _is_dead prune, then reference_evaluate_polynomial.

    The reference the packed power loop of series_terms is compared
    against; each pruned power is appended to `powers` when it is given.
    """
    terms = [LaurentPolynomial.one()]
    power = OperatorPolynomial.one()
    for _ in range(n_max):
        power = op_mul(power, C)
        power = OperatorPolynomial(
            {k: c for k, c in power.terms.items() if not _is_dead(k, N)}
        )
        if powers is not None:
            powers.append(power)
        terms.append(reference_evaluate_polynomial(power, N))
        if not power:
            terms.extend(
                LaurentPolynomial.zero() for _ in range(n_max - len(terms) + 1)
            )
            break
    return terms


def reference_evaluate_polynomial(
    p: OperatorPolynomial, N: int
) -> LaurentPolynomial:
    """E_N(p) by dict-loop Laurent products, one factor at a time: the
    reference the packed walks.evaluate_polynomial is compared against."""
    if N < 2:
        raise ValueError("color N must be at least 2")
    total = LaurentPolynomial.zero()
    for key, coeff in p.terms.items():
        value = coeff
        for _j, sign, _s, r, d in key:
            value = value * _eval_base(sign, r, d, N)
            if not value:
                break
        total = total + value
    return total


def cancellation_pairing(b: BraidWord) -> bool:
    """Check that nonsimple walks cancel in pairs.

    Verifies that the all-walks C equals the simple-walks C canonically,
    and that the number of nonsimple walks is even.
    """
    all_walks = enumerate_walks(b, simple_only=False)
    simple = [w for w in all_walks if w.is_simple()]
    if (len(all_walks) - len(simple)) % 2 != 0:
        return False
    zero = OperatorPolynomial.zero()
    total_all = sum((walk_weight(w, b) for w in all_walks), zero)
    total_simple = sum((walk_weight(w, b) for w in simple), zero)
    return total_all == total_simple


def reference_enumerate_walks(b: BraidWord, simple_only: bool) -> list[Walk]:
    """enumerate_walks by building every candidate walk, the product of its
    path pools, and filtering with Walk.is_simple: the reference the
    depth-first search of enumerate_walks is compared against."""
    m = b.strands
    if len(b) == 0 or m < 2:
        return []
    by_pair: dict[tuple[int, int], list] = {}
    for j in range(2, m + 1):
        for path in enumerate_paths(b, j):
            if path.end >= 2:
                by_pair.setdefault((j, path.end), []).append(path)
    walks: list[Walk] = []
    candidates = range(2, m + 1)
    for size in range(1, m):
        for J in itertools.combinations(candidates, size):
            for ends in itertools.permutations(J):
                pools = [by_pair.get(pair, []) for pair in zip(J, ends)]
                if not all(pools):
                    continue
                for combo in itertools.product(*pools):
                    walk = Walk(tuple(combo))
                    if simple_only and not walk.is_simple():
                        continue
                    walks.append(walk)
    return walks


def reference_walk_weight(walk: Walk, b: BraidWord) -> OperatorPolynomial:
    """walk_weight by normal ordering each crossing's whole word: the letters
    of the walk's paths at each crossing, in ascending start order, go into
    one CrossingWord and through from_words."""
    e = len(walk.paths) + walk.inversions()
    letters: dict[int, list[str]] = {}
    for path in walk.paths:
        for j, letter in path.letters:
            letters.setdefault(j, []).append(letter)
    words = {
        j: CrossingWord(b.letters[j - 1][1], "".join(parts))
        for j, parts in letters.items()
    }
    return from_words(LaurentPolynomial.term(e, (-1) ** (e + 1)), words)


def identity_matrix(m: int) -> OperatorMatrix:
    one = OperatorPolynomial.one()
    zero = OperatorPolynomial.zero()
    return OperatorMatrix(
        tuple(tuple(one if i == j else zero for j in range(m)) for i in range(m))
    )


# The 2x2 block S of the local matrix by sign, as letters (None for 0):
# S_+ = (a b; c 0) and S_- = (0 c; b a), restated from the paper rather than
# read from the package, so the references check its block too.
LOCAL_BLOCK = {1: (("a", "b"), ("c", None)), -1: ((None, "c"), ("b", "a"))}


def local_matrix(j: int, sign: int, l: int, m: int) -> OperatorMatrix:
    """Identity with the 2x2 block at rows/cols (l, l+1) replaced by S_sign,
    letters tagged with crossing j."""
    if m < 2 or not 1 <= l <= m - 1:
        raise ValueError(f"generator position {l} out of range for {m} strands")
    rows = [list(row) for row in identity_matrix(m).entries]
    for di, block_row in enumerate(LOCAL_BLOCK[sign]):
        for dj, x in enumerate(block_row):
            rows[l - 1 + di][l - 1 + dj] = (
                OperatorPolynomial.zero()
                if x is None
                else from_words(
                    LaurentPolynomial.one(), {j: CrossingWord(sign, x)}
                )
            )
    return OperatorMatrix(tuple(tuple(row) for row in rows))


def submatrix(A: OperatorMatrix, rows, cols=None) -> OperatorMatrix:
    """The entries of A at `rows` x `cols` (0-based; cols default to rows)."""
    cols = rows if cols is None else cols
    return OperatorMatrix(tuple(tuple(A.entries[i][j] for j in cols) for i in rows))


def scaled_matrix(A: OperatorMatrix, factor: LaurentPolynomial) -> OperatorMatrix:
    return OperatorMatrix(
        tuple(tuple(e.scaled(factor) for e in row) for row in A.entries)
    )


def det_q(A: OperatorMatrix) -> OperatorPolynomial:
    """Quantum determinant: sum over permutations of (-q)^inv times the
    column-ascending product of entries."""
    n = A.dim
    if n == 0:
        return OperatorPolynomial.one()
    total = OperatorPolynomial.zero()
    for perm in itertools.permutations(range(n)):
        prod = A.entries[perm[0]][0]
        for col in range(1, n):
            if not prod:
                break
            prod = op_mul(prod, A.entries[perm[col]][col])
        if not prod:
            continue
        inv = inversions(perm)
        total = total + prod.scaled(LaurentPolynomial.term(inv, (-1) ** inv))
    return total


def mat_mul(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    """The full product of two operator matrices, every entry a sum over
    every inner index."""
    if A.dim != B.dim:
        raise ValueError("dimension mismatch")
    n = A.dim
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            total = OperatorPolynomial.zero()
            for t in range(n):
                left = A.entries[i][t]
                right = B.entries[t][j]
                if left and right:
                    total = total + op_mul(left, right)
            row.append(total)
        rows.append(tuple(row))
    return OperatorMatrix(tuple(rows))


def reference_rho(b: BraidWord) -> OperatorMatrix:
    """rho as the mat_mul fold of the full local matrices: the reference the
    size-1 minors of rho and every minor of qdet.quantum_minors are compared
    against."""
    result = identity_matrix(b.strands)
    for j, (l, sign) in enumerate(b.letters, start=1):
        result = mat_mul(result, local_matrix(j, sign, l, b.strands))
    return result


def reference_C_qdet(b: BraidWord) -> OperatorPolynomial:
    """C as the signed sum of the quantum determinants, each a sum over
    permutations, of the principal submatrices of q * reference_rho(b) on
    nonempty J in {2..m}: the reference the minor transfer of C_qdet is
    compared against."""
    m = b.strands
    R = scaled_matrix(reference_rho(b), LaurentPolynomial.term(1))
    total = OperatorPolynomial.zero()
    for size in range(1, m):
        sign = 1 if (size - 1) % 2 == 0 else -1
        for J in itertools.combinations(range(2, m + 1), size):
            idx = [x - 1 for x in J]
            d = det_q(submatrix(R, idx))
            total = total + (
                d if sign > 0 else d.scaled(LaurentPolynomial.term(0, -1))
            )
    return total


def reference_merge_keys(
    k1: CanonicalKey, k2: CanonicalKey
) -> tuple[CanonicalKey, int]:
    """_merge_keys without its disjoint-range shortcut: the merge loop over
    both keys, whatever their ranges."""
    out = []
    shift = 0
    i1 = i2 = 0
    while i1 < len(k1) and i2 < len(k2):
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
