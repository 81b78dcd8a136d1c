"""Shared braid-word enumeration helpers and reference constructions for
the test suite.

The references are the direct, unoptimized forms of what the package
computes faster: paths by replaying each choice of letters move by move,
walks by product and filter (the filter is is_simple, a set test on the
cell footprints, against the bitmask prune of enumerate_walks), weights by
normal ordering whole words letter by letter (from_words), rho as the
product of full local matrices, and C_qdet as quantum determinants summed
over permutations (det_q).  They live only here; the package builds neither
local matrices, permutation sums nor whole-word terms, and forms the term
of a word only as its one-letter key entries folded through
qops._merge_keys (merged_word restates that fold for the tests).
from_words shares no code with _merge_keys, so reference_walk_weight and
reference_C_qdet check the engine's merge.  The commutation exponents are
not restated: from_words reads the package's one table, qops._MERGE_EXP,
and the q-difference oracle of oracles.py checks that table independently.
"""

from __future__ import annotations

import itertools
import random
from typing import Mapping

from braidwalks import (
    BraidWord,
    DiagramCell,
    LaurentPolynomial,
    OperatorMatrix,
    OperatorPolynomial,
    Path,
    Walk,
    enumerate_walks,
    is_knot_closure,
    op_mul,
    walk_weight,
)
from braidwalks.qops import _LETTER, _MERGE_EXP, CanonicalKey, _eval_base, _merge_keys
from braidwalks.walks import inversions
from oracles import CrossingWord

# 1203 crossings, deeper than the default recursion limit: `1 2 3` and then
# 600 times `3 -3` on 4 strands, a knot closure
LONG = BraidWord(4, ((1, 1), (2, 1), (3, 1)) + ((3, 1), (3, -1)) * 600)


def _is_dead(key: CanonicalKey, N: int) -> bool:
    """Some crossing of the key has r < N <= r + d, so E_N of it is zero:
    the prune of reference_series_terms, and the test the dead-partner index
    of qops.pruned_powers is checked against."""
    return any(r < N <= r + d for _j, _sign, _s, r, d in key)


def reference_eval_base(sign: int, r: int, d: int, N: int) -> LaurentPolynomial:
    """qops._eval_base as its product formula: q^(r(N-1-d)) for sign +1 and
    q^(-r(N-1)) for sign -1, times 1 - q^(sign (N-1-r-i)) for each i in
    0..d-1, multiplied out one factor at a time."""
    one = LaurentPolynomial.one()
    result = LaurentPolynomial.term(r * (N - 1 - d) if sign > 0 else -r * (N - 1))
    for i in range(d):
        result = result * (one - LaurentPolynomial.term(sign * (N - 1 - r - i)))
    return result


def from_words(
    coeff: LaurentPolynomial, words: Mapping[int, CrossingWord]
) -> OperatorPolynomial:
    """The one-term polynomial coeff times one word per crossing index, each
    word normal-ordered whole into q^shift b^s c^r a^d; empty words are
    skipped.  The whole-word reference the package's key merges are
    compared against.

    A word is folded letter by letter: appending (s2, r2, d2) to
    b^s c^r a^d moves it left past a^d and then c^r, which by _MERGE_EXP
    picks up q^(r alpha s2 + d (beta s2 + gamma r2)).  This is well defined
    because each relation is a pure q-commutation.
    """
    shift = 0
    key = []
    for j in sorted(words):
        cw = words[j]
        if not cw.word:
            continue
        alpha, beta, gamma = _MERGE_EXP[cw.sign]
        s = r = d = 0
        for x in cw.word:
            s2, r2, d2 = _LETTER[x]
            shift += r * alpha * s2 + d * (beta * s2 + gamma * r2)
            s, r, d = s + s2, r + r2, d + d2
        key.append((j, cw.sign, s, r, d))
    return OperatorPolynomial({tuple(key): coeff.shifted(shift)})


def merged_word(cw: CrossingWord) -> OperatorPolynomial:
    """The term of a crossing word at crossing 1 as the engine forms walk
    weights: its one-letter key entries (qops._LETTER) folded through
    qops._merge_keys, the summed q-shift as the coefficient."""
    key: CanonicalKey = ()
    shift = 0
    for x in cw.word:
        key, step = _merge_keys(key, ((1, cw.sign, *_LETTER[x]),))
        shift += step
    return OperatorPolynomial({key: LaurentPolynomial.term(shift)})


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
    reference the packed qops.evaluate_polynomial is compared against."""
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


def is_simple(walk: Walk) -> bool:
    """No two paths of the walk traverse the same diagram cell: the set test
    the bitmask prune of enumerate_walks is checked against."""
    seen: set[DiagramCell] = set()
    for p in walk.paths:
        if not seen.isdisjoint(p.footprint):
            return False
        seen.update(p.footprint)
    return True


def cancellation_pairing(b: BraidWord) -> bool:
    """Check that nonsimple walks cancel in pairs.

    Verifies that the all-walks C equals the simple-walks C canonically,
    and that the number of nonsimple walks is even.
    """
    all_walks = enumerate_walks(b, simple_only=False)
    simple = [w for w in all_walks if is_simple(w)]
    if (len(all_walks) - len(simple)) % 2 != 0:
        return False
    zero = OperatorPolynomial.zero()
    total_all = sum((walk_weight(w) for w in all_walks), zero)
    total_simple = sum((walk_weight(w) for w in simple), zero)
    return total_all == total_simple


def reference_enumerate_paths(b: BraidWord, start: int) -> list[Path]:
    """enumerate_paths by replaying each sequence of a/c choices move by
    move from the top of the braid.

    The move rule is restated from the paper rather than read from the
    package: at a crossing of sign +1 strand l passes over l+1, at sign -1
    strand l+1 passes over l; a path on the over strand picks up a (and
    stays) or c (and drops to the under strand), one on the under strand
    picks up b and moves to the over strand, and any other path goes
    straight on.  Each letter x at crossing j is recorded as the key entry
    (j, sign, *qops._LETTER[x]), a fresh tuple per path.  A replay that
    runs out of choices at an over strand is put back as its two
    extensions, a first, so the sequences are replayed in the depth-first
    order of enumerate_paths.
    """
    k = len(b)
    paths: list[Path] = []
    pending: list[tuple[str, ...]] = [()]
    while pending:
        choices = pending.pop()
        pos, used = start, 0
        cells = [(k, start)]
        key = []
        for j in range(k, 0, -1):
            l, sign = b.letters[j - 1]
            over, under = (l, l + 1) if sign > 0 else (l + 1, l)
            if pos == over:
                if used == len(choices):
                    pending += [choices + ("c",), choices + ("a",)]
                    break
                letter = choices[used]
                used += 1
                key.append((j, sign, *_LETTER[letter]))
                pos = over if letter == "a" else under
            elif pos == under:
                key.append((j, sign, *_LETTER["b"]))
                pos = over
            cells.append((j - 1, pos))
        else:
            paths.append(Path(start, pos, tuple(cells), tuple(reversed(key))))
    return paths


def reference_enumerate_walks(b: BraidWord, simple_only: bool) -> list[Walk]:
    """enumerate_walks by building every candidate walk, the product of its
    path pools (from reference_enumerate_paths), and filtering with
    is_simple: the reference the depth-first search of enumerate_walks
    is compared against."""
    m = b.strands
    if len(b) == 0 or m < 2:
        return []
    by_pair: dict[tuple[int, int], list] = {}
    for j in range(2, m + 1):
        for path in reference_enumerate_paths(b, j):
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
                    if simple_only and not is_simple(walk):
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
