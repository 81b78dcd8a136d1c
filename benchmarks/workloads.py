"""Seeded inputs, timed operations and output checks of the three workloads.

Every operation is what one `braidwalks` call does for one braid: it starts
from the braid word as text and ends with an exact result.  The checks run
after the timed section and never reuse the computation being timed: they
compare against the figure-eight closed form, the Kauffman-bracket state sum,
the positive-braid lowest-degree theorem, or the second construction of C.

The operations call the library through module attributes
(`jones.colored_jones`, not a name bound at import), so that the traced run
can wrap the stage functions without touching the program's files.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable
from itertools import combinations, permutations, product

from braidwalks import braid, jones, qdet, walks
from braidwalks.laurent import LaurentPolynomial


@dataclass(frozen=True)
class Case:
    """One operation's input: a braid word as the CLI takes it, and a color."""

    word: str
    strands: int
    N: int = 0  # 0 where no series is evaluated (build-C)
    fig8: bool = False

    @property
    def tokens(self) -> list[int]:
        return [int(t) for t in self.word.split()]

    def label(self) -> str:
        color = f" N={self.N}" if self.N else ""
        return f"{self.word or '(empty)'}/{self.strands}{color}"


def is_knot_word(tokens: list[int], strands: int) -> bool:
    """True iff the closure of the word is one component (an m-cycle).

    Written here rather than taken from the library, so that input
    generation, which set-up time includes, does not depend on it.
    """
    perm = list(range(strands))
    for t in tokens:
        i = abs(t) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return _one_cycle(perm)


def _one_cycle(perm: list[int]) -> bool:
    pos, length = perm[0], 1
    while pos != 0:
        pos, length = perm[pos], length + 1
    return length == len(perm)


def walk_counts(tokens: list[int], strands: int) -> tuple[int, int]:
    """(candidate walks, paths) that the library goes through for a word.

    Counts the paths from each start to each end by dynamic programming over
    the crossings, bottom-up, with the same moves as `walks.enumerate_paths`
    (at a crossing the path on the over-strand may jump down).  The candidate
    walks, which `walks.enumerate_walks` builds one by one, are the products
    of these counts summed over every start set J in {2..m} and every
    permutation of J.  The paths over all start and end pairs are the terms
    of the matrix rho that `qdet.C_qdet` multiplies out.
    """
    counts: dict[tuple[int, int], int] = {}
    for start in range(1, strands + 1):
        here = {start: 1}
        for t in reversed(tokens):
            l = abs(t)
            over, under = (l, l + 1) if t > 0 else (l + 1, l)
            nxt: dict[int, int] = {}
            for pos, n in here.items():
                moves = (l, l + 1) if pos == over else (over,) if pos == under else (pos,)
                for p in moves:
                    nxt[p] = nxt.get(p, 0) + n
            here = nxt
        for end, n in here.items():
            counts[(start, end)] = n
    candidates = 0
    for size in range(1, strands):
        for J in combinations(range(2, strands + 1), size):
            for ends in permutations(J):
                prod = 1
                for pair in zip(J, ends):
                    prod *= counts.get(pair, 0)
                candidates += prod
    return candidates, sum(counts.values())


def build_cost(tokens: list[int], strands: int) -> int:
    """Predicted build-C cost in units of one candidate walk.

    Fitted on 240 measured 3-strand words of 14-20 crossings: CPU time is
    about 37 us per candidate walk plus 71 us per path, with a standard
    deviation of 14% around the fit; candidates alone leave 29%.
    """
    candidates, paths = walk_counts(tokens, strands)
    return candidates + 2 * paths


def simple_walks(tokens: list[int], strands: int) -> int:
    """How many simple walks a word has: the walks `walks.walk_sum_C` keeps.

    Enumerates every path with its cells (gap, position) and counts the
    walks whose paths share no cell.  It costs about as much as the
    library's enumeration, so it serves only the short corpus words, where
    it predicts a `colored_jones(b, 2)` call within 14% (|C| equals it
    there) against 38% for the candidate count.
    """
    k = len(tokens)
    pools: dict[tuple[int, int], list[frozenset]] = {}
    for start in range(2, strands + 1):
        stack = [(k, start, ((k, start),))]
        while stack:
            gap, pos, cells = stack.pop()
            if gap == 0:
                pools.setdefault((start, pos), []).append(frozenset(cells))
                continue
            l = abs(tokens[gap - 1])
            over, under = (l, l + 1) if tokens[gap - 1] > 0 else (l + 1, l)
            moves = (l, l + 1) if pos == over else (over,) if pos == under else (pos,)
            for p in moves:
                stack.append((gap - 1, p, cells + ((gap - 1, p),)))
    count = 0
    for size in range(1, strands):
        for J in combinations(range(2, strands + 1), size):
            for ends in permutations(J):
                for combo in product(*(pools.get(pair, []) for pair in zip(J, ends))):
                    count += sum(map(len, combo)) == len(frozenset().union(*combo))
    return count


def digest(cases: list[Case]) -> str:
    """A short fingerprint of the inputs, to confirm a seed gives the same ones."""
    text = "\n".join(f"{c.word}/{c.strands}/{c.N}" for c in cases)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# series-ladder
# ---------------------------------------------------------------------------

# (word, strands, colors, figure-eight?).  Small |C| and rising N, so that
# the power loop C^n and E_N do almost all of the work.  Every rung has an
# independent check beyond J(1) = 1: the figure-eight closed form, the
# positive-braid theorem, or the bracket at N=2; only 5_2 at N=3 and 4 has
# J(1) = 1 alone.  The colors stop where one operation passes about 0.3 s,
# so that a 25 s run makes a dozen rounds: one operation's CPU time varies
# by 5-25% from one moment to the next on a shared host, and the median
# and tail operations are single rungs whose noise only more rounds reduce.
LADDER = (
    ("1 -2 1 -2", 3, range(2, 13), True),          # figure-eight, |C| = 2
    ("1 1 1 1 1", 2, range(2, 11), False),         # T(2,5), |C| = 3
    ("1 1 1 1 1 1 1", 2, range(2, 7), False),      # T(2,7), |C| = 8
    ("1 1 1 1 1 1 1 1 1", 2, range(2, 5), False),  # T(2,9)
    ("1 2 1 2 1 2 1 2", 3, range(2, 6), False),    # T(3,4), |C| = 5
    ("1 2 1 2 1 2 1 2 1 2", 3, range(2, 4), False),  # T(3,5)
    ("1 2 3 1 2 3 1 2 3", 4, range(2, 5), False),  # T(4,3), |C| = 5
    ("1 1 1 2 -1 2", 3, range(2, 5), False),       # 5_2, |C| = 6
    ("1 -2 3 -4 1 -2 3 -4", 5, range(2, 3), False),  # |C| = 14
)


def ladder_cases(rng: random.Random) -> list[Case]:
    """The fixed ladder, in an order drawn from the seed.

    The words are fixed because each rung needs an independent check (the
    closed form, the positive-braid theorem or the bracket at N=2).  Every
    operation runs in a fresh fork, so the order moves no figure.
    """
    cases = [
        Case(word, strands, N, fig8)
        for word, strands, colors, fig8 in LADDER
        for N in colors
    ]
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# build-C
# ---------------------------------------------------------------------------

# (strands, crossing counts, build-cost band, words per crossing count).
# Words are drawn at random until their predicted cost falls in the band,
# so a seed changes the words but hardly the cost of a round.  Uniform draws
# would put most of a round's time on its two or three largest words, and
# the metrics would follow the seed.  A 3-strand closure that is a knot has
# an even number of crossings, a 4-strand one an odd number.  The 3-strand
# stratum holds both the median and the tail operation.
BUILD_STRATA = (
    (3, (14, 16, 18, 20), (1300, 1700), 12),
    (4, (9, 11, 13), (300, 500), 10),
)

# A fixed large word in every round: 19,385 candidate walks for 587 kept,
# about 1 s and 42 MB.  It is the round's largest build, so peak RSS is the
# same on every seed, and it keeps walk enumeration at scale in view.
BUILD_ANCHOR = Case("-1 -1 -1 2 -2 -2 -1 -2 -1 1 -2 2 -1 -1 2 1 2 -2 -1 -1", 3)


def build_cases(rng: random.Random) -> list[Case]:
    cases = [BUILD_ANCHOR]
    for strands, crossings, (lo, hi), count in BUILD_STRATA:
        for k in crossings:
            drawn = 0
            while drawn < count:
                tokens = [rng.randint(1, strands - 1) * rng.choice((1, -1)) for _ in range(k)]
                if is_knot_word(tokens, strands) and lo <= build_cost(tokens, strands) <= hi:
                    cases.append(Case(" ".join(map(str, tokens)), strands))
                    drawn += 1
    return cases


# ---------------------------------------------------------------------------
# corpus-sweep
# ---------------------------------------------------------------------------

CORPUS_MAX_STRANDS = 4
CORPUS_MAX_CROSSINGS = 6
CORPUS_SAMPLE = 200


def corpus_words() -> list[tuple[tuple[int, ...], int]]:
    """Every knot-closure word with at most 4 strands and 6 crossings.

    This is the acceptance corpus (5507 words).  A depth-first walk keeps
    the closure permutation of each prefix, so no word is re-scanned.
    """
    out = []
    for m in range(1, CORPUS_MAX_STRANDS + 1):
        alphabet = [g * s for g in range(1, m) for s in (1, -1)]

        def extend(prefix: list[int], perm: list[int]) -> None:
            if _one_cycle(perm):
                out.append((tuple(prefix), m))
            if len(prefix) == CORPUS_MAX_CROSSINGS:
                return
            for t in alphabet:
                i = abs(t) - 1
                nxt = perm[:]
                nxt[i], nxt[i + 1] = nxt[i + 1], nxt[i]
                prefix.append(t)
                extend(prefix, nxt)
                prefix.pop()

        extend([], list(range(m)))
    return out


def corpus_cases(rng: random.Random) -> list[Case]:
    """A stratified sample of CORPUS_SAMPLE words, the same count from
    every stratum.

    A stratum is the words with the same strands, crossings and number of
    simple walks; the last sets the cost of a call within 14%.  Each
    stratum gets its share of the sample (largest remainders first), so
    every seed draws the same mix of shapes and sizes.  With one random
    word from each of 300 bins of the sorted corpus instead, the number of
    the heaviest words varied by one between seeds, and the tail with it
    (16%).  200 words rather than 300 give four rounds in a 25 s run
    instead of three.
    """
    strata: dict[tuple[int, int, int], list] = {}
    for tokens, m in corpus_words():
        strata.setdefault((m, len(tokens), simple_walks(list(tokens), m)), []).append(tokens)
    total = sum(len(words) for words in strata.values())
    shares = {key: CORPUS_SAMPLE * len(words) / total for key, words in strata.items()}
    counts = {key: int(share) for key, share in shares.items()}
    left = CORPUS_SAMPLE - sum(counts.values())
    for key in sorted(shares, key=lambda k: (counts[k] - shares[k], k))[:left]:
        counts[key] += 1
    cases = []
    for key in sorted(strata):
        m = key[0]
        for tokens in rng.sample(strata[key], counts[key]):
            cases.append(Case(" ".join(map(str, tokens)), m, 2))
    return cases


# ---------------------------------------------------------------------------
# operations and checks
# ---------------------------------------------------------------------------


def series_op(case: Case) -> LaurentPolynomial:
    b = braid.parse_braid(case.word, case.strands)
    return jones.colored_jones(b, case.N, method="walks").polynomial


def corpus_op(case: Case) -> LaurentPolynomial:
    b = braid.parse_braid(case.word, case.strands)
    return jones.colored_jones(b, case.N).polynomial


def build_op(case: Case):
    b = braid.parse_braid(case.word, case.strands)
    return walks.walk_sum_C(b), qdet.C_qdet(b)


def _at_one_problems(poly: LaurentPolynomial) -> list[str]:
    value = sum(c for _, c in poly.items())
    return [] if value == 1 else [f"J(1) = {value}, expected 1"]


def _positive_problems(case: Case, poly: LaurentPolynomial) -> list[str]:
    """The paper's theorem for positive braids with k crossings on m strands:
    the lowest degree is (N-1)(k-m+1)/2, with coefficient 1, followed by N-1
    zero coefficients."""
    k, m, N = len(case.tokens), case.strands, case.N
    low = (N - 1) * (k - m + 1) // 2
    if not poly or poly.valuation() != low:
        return [f"lowest degree is not (N-1)(k-m+1)/2 = {low}"]
    head = [poly.coefficient(low + i) for i in range(N)]
    if head != [1] + [0] * (N - 1):
        return [f"coefficients from degree {low} are {head}, expected 1 then {N - 1} zeros"]
    return []


def series_check(case: Case, poly: LaurentPolynomial) -> list[str]:
    problems = _at_one_problems(poly)
    if case.fig8 and poly != jones.figure_eight_closed_form(case.N):
        problems.append("differs from the figure-eight closed form")
    if case.N == 2:
        b = braid.parse_braid(case.word, case.strands)
        if poly != jones.bracket_jones_oracle(b):
            problems.append("differs from the Kauffman bracket")
    if all(t > 0 for t in case.tokens):
        problems += _positive_problems(case, poly)
    return problems


def corpus_check(case: Case, poly: LaurentPolynomial) -> list[str]:
    problems = _at_one_problems(poly)
    b = braid.parse_braid(case.word, case.strands)
    if poly != jones.bracket_jones_oracle(b):
        problems.append("differs from the Kauffman bracket")
    return problems


def build_check(case: Case, pair) -> list[str]:
    C_walks, C_qdet = pair
    if not C_walks:
        return ["walks C is zero"]
    if C_walks != C_qdet:
        return ["walks C differs from qdet C"]
    return []


def corrupt_polynomial(poly: LaurentPolynomial) -> LaurentPolynomial:
    """Add one to the lowest coefficient (negative control)."""
    return poly + LaurentPolynomial.term(poly.valuation())


def corrupt_C(pair):
    """Drop one term of the walks C (negative control)."""
    C_walks, C_qdet = pair
    terms = C_walks.terms
    terms.pop(min(terms))
    return walks.OperatorPolynomial(terms), C_qdet


def polynomial_summary(poly: LaurentPolynomial) -> dict:
    return {"polynomial": poly.to_json()}


def build_summary(pair) -> dict:
    return {"C_terms": len(pair[0])}


@dataclass(frozen=True)
class Workload:
    name: str
    make_cases: Callable[[random.Random], list[Case]]
    op: Callable  # Case -> output; the timed section
    check: Callable[[Case, object], list[str]]  # problems found, outside the timed section
    corrupt: Callable  # output -> wrong output, for the negative control
    summary: Callable[[object], dict]  # what the results table keeps

    def cases(self, seed: int) -> list[Case]:
        return self.make_cases(random.Random(f"{self.name}:{seed}"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("series-ladder", ladder_cases, series_op, series_check,
                 corrupt_polynomial, polynomial_summary),
        Workload("build-C", build_cases, build_op, build_check,
                 corrupt_C, build_summary),
        Workload("corpus-sweep", corpus_cases, corpus_op, corpus_check,
                 corrupt_polynomial, polynomial_summary),
    )
}
