"""Paths, walks and stacks along a braid, the operator polynomial C and
its series.

A path starts at the bottom of a strand and follows it upward; whenever it
begins to cross over another strand it may jump down instead.  A walk is a
set J of starting strands (never strand 1), a permutation of J, and one
path per start.  C is the sum of the walk weights; the colored Jones
series is sum_n E_N(C^n), which truncates at n = (m-1)(N-1).  Keys,
operator polynomials, their merge, the packed powers of C and E_N are the
crossing algebra of qops, which qdet builds on too; series_terms proves
why the powers may drop their dead keys and evaluates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .braid import BraidWord, DiagramCell, NotAKnotError, is_knot_closure
from .laurent import LaurentPolynomial
from .qops import (
    _LETTER, CanonicalKey, OperatorPolynomial, _merge_keys, evaluate_polynomial,
    pruned_powers,
)

_LETTER_OF = {fields: x for x, fields in _LETTER.items()}


@dataclass(frozen=True)
class Path:
    """A single bottom-to-top traversal with its cell footprint and key.

    A path picks up at most one letter per crossing, so its word is a
    canonical key as it stands: one entry (crossing index, sign, s, r, d)
    per letter, from qops._LETTER, ascending by index.  The entries come
    from the move table of _path_records, so every path that takes one
    letter at one crossing holds the same entry object.
    """

    start: int
    end: int
    footprint: tuple[DiagramCell, ...]
    key: CanonicalKey

    @property
    def letters(self) -> tuple[tuple[int, str], ...]:
        """The key as (crossing index, letter) pairs."""
        return tuple((e[0], _LETTER_OF[e[2:]]) for e in self.key)

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


def _path_records(b: BraidWord, starts) -> list[list[tuple]]:
    """For each of `starts`, (end, cells, footprint, key) of every path
    from it.

    Paths come in depth-first order, a before c: at the first crossing
    where two paths part, counting from crossing k down, the one that picks
    up a and stays on the over strand comes before the one that picks up c
    and drops to the under strand.

    At crossing j, which lies between gap j and gap j - 1, a path on the
    over strand picks up a and stays or c and drops to the under strand, a
    path on the under strand picks up b and moves to the over strand, and
    any other path goes straight on.  `steps` tables these moves once per
    braid, each as the key entry (j, sign, *qops._LETTER[x]) of its letter
    x (None for no letter), the cell it reaches and that cell's bit in
    `cells`: bit (k - g)*m + p - 1 for the cell at gap g on position p, so
    that two paths meet exactly when their masks do.  A crossing has three
    entry objects, one per letter, and every key is made of them.  The
    search keeps its own
    stack, one entry per crossing entered, so its depth is not bounded by
    the interpreter's recursion limit.  An entry holds the remaining moves
    at its crossing, the number of letters picked up before it and the
    cells used down to it; `footprint` and `key` are cut back to its depth
    before each move is taken.
    """
    k, m = len(b), b.strands
    if k == 0:
        return [[(s, 1 << s - 1, ((0, s),), ())] for s in starts]
    steps: list[list[tuple]] = [[]]
    for j, (l, sign) in enumerate(b.letters, 1):
        over, under = (l, l + 1) if sign > 0 else (l + 1, l)
        entries = {x: (j, sign, *fields) for x, fields in _LETTER.items()}
        choices = [((None, p),) for p in range(m + 1)]
        choices[over], choices[under] = (("a", over), ("c", under)), (("b", over),)
        row = (k + 1 - j) * m - 1
        steps.append([
            tuple((entries.get(x), (j - 1, q), 1 << row + q) for x, q in at)
            for at in choices
        ])
    out = []
    for start in starts:
        records = []
        footprint: list[DiagramCell] = [(k, start)]
        key: list[tuple[int, int, int, int, int]] = []  # descending crossing index
        stack = [(iter(steps[k][start]), 0, 1 << start - 1)]
        while stack:
            depth = len(stack)
            moves, n_letters, cells = stack[-1]
            move = next(moves, None)
            if move is None:
                stack.pop()
                continue
            entry, cell, bit = move
            del footprint[depth:]
            del key[n_letters:]
            footprint.append(cell)
            cells |= bit
            if entry:
                key.append(entry)
            gap, pos = cell
            if gap:
                stack.append((iter(steps[gap][pos]), len(key), cells))
            else:
                records.append((pos, cells, tuple(footprint), tuple(reversed(key))))
        out.append(records)
    return out


def enumerate_paths(b: BraidWord, start: int) -> list[Path]:
    """All paths from `start`.

    Paths come in depth-first order, a before c: at the first crossing
    where two paths part, counting from crossing k down, the one that picks
    up a and stays on the over strand comes before the one that picks up c
    and drops to the under strand.
    """
    if not 1 <= start <= b.strands:
        raise ValueError(f"start strand {start} out of range")
    return [
        Path(start, end, footprint, key)
        for end, _cells, footprint, key in _path_records(b, [start])[0]
    ]


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
    the pool of the last start varying fastest.  The ends of J are chosen
    start by start, depth first, in the order of permutations(J), and a
    choice of ends is cut with all its completions as soon as a start has
    no path to its end, so the permutations with an empty pool are never
    visited one by one.  The paths come from one search per start
    (_path_records), each with its cells as a bitmask, and are chosen
    start by start, depth first.  With simple_only a path whose cells meet
    those of the paths already chosen (used & cells) is skipped, and with
    it every completion of that choice; a choice is
    simple exactly when no path meets an earlier one (no two paths share a
    cell of their footprints), so this keeps the walks that the reference
    check tests/corpus_util.is_simple keeps, in the same order.  A Walk is
    built only for a complete choice, and a Path only for a path of a
    returned walk, once, shared by every walk that uses it.  Both
    recursions are one level per start, at most m - 1 deep.

    The empty braid word is excluded by convention; its series is the
    constant 1 (unknot normalization).
    """
    m = b.strands
    if len(b) == 0 or m < 2:
        return []
    records = []  # (start, end, footprint, key) of every pooled path
    by_pair: dict[tuple[int, int], list[tuple[int, int]]] = {}  # (cells, index)
    starts = range(2, m + 1)
    for j, found in zip(starts, _path_records(b, starts)):
        for end, cells, footprint, key in found:
            if end >= 2:
                by_pair.setdefault((j, end), []).append((cells, len(records)))
                records.append((j, end, footprint, key))
    path = cache(lambda i: Path(*records[i]))  # built on first use, once
    walks: list[Walk] = []
    chosen: list[int] = []

    def extend(pools, used: int) -> None:
        last = len(pools) == 1
        for cells, i in pools[0]:
            if simple_only and used & cells:
                continue
            chosen.append(i)
            if last:
                walks.append(Walk(tuple(map(path, chosen))))
            else:
                extend(pools[1:], used | cells)
            chosen.pop()

    def choose_ends(J, pools, free: tuple) -> None:
        if not free:
            extend(pools, 0)
        for i, end in enumerate(free):
            if pool := by_pair.get((J[len(pools)], end)):
                choose_ends(J, [*pools, pool], free[:i] + free[i + 1:])

    for size in range(1, m):
        for J in combinations(starts, size):
            choose_ends(J, [], J)
    return walks


def _walk_term(walk: Walk) -> tuple[CanonicalKey, int, int]:
    """The key of walk_weight(walk) and its coefficient as (e, sign) for
    sign * q^e, from the keys of its paths.

    At each crossing the walk's word is the concatenation of its paths'
    letters in ascending start order, and the canonical term of a
    concatenation is the product of the canonical terms of its parts, so
    the term of a word is its letters' entries folded through _merge_keys,
    with the shifts of qops._MERGE_EXP.  A crossing only one path meets
    adds no shift.  So the weight is the product of the path keys in
    ascending start order, folded through _merge_keys from the first path's
    key; the tests compare it with whole words normal-ordered letter by
    letter (tests/corpus_util.from_words).
    """
    e = len(walk.paths) + walk.inversions()
    sign = (-1) ** (e + 1)
    key, *rest = [p.key for p in walk.paths]
    for path_key in rest:
        key, shift = _merge_keys(key, path_key)
        e += shift
    return key, e, sign


def walk_weight(walk: Walk) -> OperatorPolynomial:
    """The weight (-1)(-q)^(|J| + inv) times the ordered path letters.

    At each crossing the letters of the paths are appended in ascending
    start order, leftmost path first; the result is a one-term polynomial.
    """
    key, e, sign = _walk_term(walk)
    return OperatorPolynomial({key: LaurentPolynomial.term(e, sign)})


def walk_sum_C(b: BraidWord) -> OperatorPolynomial:
    """The polynomial C: sum of the weights of the simple walks with J in
    {2..m}, the coefficients summed as integers per key and exponent.

    Walks that share a key.  In a simple walk each cell carries at most one
    path, so at each crossing the key's entry says which of the two entry
    cells are used (s for the under strand, r + d for the over strand) and
    where the over-strand path leaves (c, r: to the under strand; a, d: on
    the over strand); the under-strand path always moves to the over
    strand, and a cell off the crossing passes its path straight on.  So
    the key fixes which cells of each strand position that meets a
    crossing are used, and with the moves, the paths through them.  A
    position that meets no crossing is left open: a path along it picks up
    no letter, so walks with and without it share a key (the word 1 on 4
    strands has three simple walks on the empty key, with coefficient
    2q - q^2).  On a knot closure every
    position meets a crossing (m >= 2), so there the simple walks and the
    terms of C correspond one to one; none shared a key across the corpus
    and build-C words.  walk_sum_C accepts any braid, so it sums.
    """
    out: dict[CanonicalKey, dict[int, int]] = {}
    for walk in enumerate_walks(b, simple_only=True):
        key, e, sign = _walk_term(walk)
        at = out.setdefault(key, {})
        at[e] = at.get(e, 0) + sign
    return OperatorPolynomial({k: LaurentPolynomial(c) for k, c in out.items()})


def series_terms(
    C: OperatorPolynomial, N: int, n_max: int
) -> list[LaurentPolynomial]:
    """[E_N(C^0), E_N(C^1), ..., E_N(C^n_max)].

    Precondition: C is the walk polynomial of a braid whose closure is a
    knot (walk_sum_C, or C_qdet, which gives the same polynomial).

    Dead keys.  A key is dead when it has a crossing with r < N <= r + d;
    _eval_base has the factor 1 - q^0 there, so a dead key evaluates to
    zero.  Read a key of C^n as a stack of n simple walks and count the
    paths of the stack through each cell.  At crossing j the over-strand
    entry cell carries r + d paths (its a and c letters) and the
    under-strand entry cell s (its b letters); the cell the c letters lead
    to carries r and the one the b letters lead to s + d; every other cell
    passes its count straight on.  Each walk's ends permute its starts, so
    the gap-0 and gap-k cells of a position carry the same count, and c and
    b follow the strand.  Start at a cell used at least N times and follow
    the strand of the closure: each step either meets a crossing with
    r < N <= r + d or reaches another cell used at least N times.  The
    closure is a knot, so the strand would in the end reach the gap-k cell
    of strand 1, which no walk uses (J lies in {2..m}); a dead crossing
    comes first.  The converse is immediate, so a key is dead if and only
    if its stack uses some cell N times.  Multiplying by C only raises cell
    counts, so every descendant of a dead key is dead: the live part of C^n
    is the live part of the products of the live part of C^(n-1) with C,
    and E_N of it is E_N(C^n).  So each term is E_N of a power of
    qops.pruned_powers, which forms only those live products, packed (its
    docstring has the dead-partner index and the layout), and every term
    after its first empty power is zero.  The (m-1)(N-1) truncation of
    evaluate_series is the case of a gap-k cell used N times.
    """
    terms = [LaurentPolynomial.one()]
    terms.extend(evaluate_polynomial(p, N) for p in pruned_powers(C, N, n_max))
    terms.extend(LaurentPolynomial.zero() for _ in range(n_max + 1 - len(terms)))
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
    n_max = (b.strands - 1) * (N - 1)
    return sum(series_terms(C, N, n_max), LaurentPolynomial.zero())
