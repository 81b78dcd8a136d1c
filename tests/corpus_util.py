"""Shared braid-word enumeration helpers for the test suite."""

from __future__ import annotations

import itertools
import random

from braidwalks import (
    BraidWord,
    LaurentPolynomial,
    OperatorPolynomial,
    is_knot_closure,
    op_mul,
)
from braidwalks.walks import evaluate_polynomial


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

    The power loop of series_terms without its dead-key prune, kept as the
    reference the pruned loop is compared against.
    """
    terms = [LaurentPolynomial.one()]
    power = OperatorPolynomial.one()
    for _ in range(n_max):
        power = op_mul(power, C)
        terms.append(evaluate_polynomial(power, N))
    return terms
