"""Shared braid-word enumeration helpers for the test suite."""

from __future__ import annotations

import itertools
import random

from braidwalks import (
    BraidWord,
    LaurentPolynomial,
    OperatorPolynomial,
    enumerate_walks,
    is_knot_closure,
    op_mul,
    walk_weight,
)
from braidwalks.qops import _eval_base
from braidwalks.walks import _is_dead


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
