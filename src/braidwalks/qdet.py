"""The quantum-determinant pipeline: Burau-type operator matrices and C.

Each crossing contributes a local matrix that is the identity outside a
2x2 block of letter operators; their ordered product is rho.  By the
Huynh-Le formula, C is the sum over nonempty J in {2..m} of
-(-q)^|J| det_q(rho_{J,J}), the same polynomial as walk enumeration.
_transfer carries the quantum minors of the partial products of rho from
crossing to crossing, by the quantum Cauchy-Binet identity, each minor as
the steps that reach it; _collect expands the steps into terms.  C_qdet
expands its principal minors and rho its entries, the minors of size 1.
det_q names the quantum determinant throughout; neither it nor a local
matrix is ever formed here.  The one term of det_q of the 2x2 block is the
qops._merge_keys merge of its two letters, as in every walk weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .braid import BraidWord
from .laurent import LaurentPolynomial
from .qops import _LETTER, CanonicalKey, OperatorPolynomial, _merge_keys


@dataclass(frozen=True)
class OperatorMatrix:
    """A square matrix of operator polynomials."""

    entries: tuple[tuple[OperatorPolynomial, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, pos: tuple[int, int]) -> OperatorPolynomial:
        i, j = pos
        return self.entries[i][j]

    def to_json(self) -> list[list[list]]:
        return [[e.to_json() for e in row] for row in self.entries]


# The 2x2 block S of the local matrix by sign, as letters (None for 0):
# S_+ = (a b; c 0) and S_- = (0 c; b a).
_BLOCK = {1: (("a", "b"), ("c", None)), -1: ((None, "c"), ("b", "a"))}
# det_q(S) = S[0][0] S[1][1] - q S[1][0] S[0][1] = -q S[1][0] S[0][1]: per
# sign the (key, q-shift) of S[1][0] S[0][1], the merge of the two letters'
# one-entry keys, at a placeholder crossing 0
_DET_BLOCK = {
    sign: _merge_keys(((0, sign, *_LETTER[S[1][0]]),), ((0, sign, *_LETTER[S[0][1]]),))
    for sign, S in _BLOCK.items()
}


# a quantum minor's (row set, column set), each an ascending tuple of strands
MinorKey = tuple[tuple[int, ...], tuple[int, ...]]
# the steps that reach a minor, each (prior steps, key entry, q-shift, sign);
# the identity's one step is (None, None, 0, 1)
Steps = list[tuple]


def _transfer(b: BraidWord, row_sets: Iterable[tuple[int, ...]]) -> dict[MinorKey, Steps]:
    """The steps of det_q(rho(b)_{I,K}) for each row set I of `row_sets`
    and every column set K of the same size, keyed (I, K); zero minors are
    left out.

    Sets are ascending tuples of strand indices.  The transfer starts from
    the identity, whose minor (I, K) is 1 for K = I and 0 otherwise, and
    right-multiplies by the local matrices L_1, ..., L_k in the order of
    rho, keeping every minor of the partial product M after each crossing.

    Cauchy-Binet.  Let psi_r, one per row, be q-Grassmann variables:
    psi_r^2 = 0, psi_s psi_r = -q psi_r psi_s for r < s, and they commute
    with every operator.  For a matrix A put eta_c = sum_r A[r][c] psi_r.
    Reordering each product of psi to ascending rows gives (-q)^inv, so for
    an ascending column set J, prod_{c in J} eta_c is the sum over row sets
    I of det_q(A_{I,J}) psi_I.  The relations ac = qca, bd = qdb and
    ad = da + qcb - q^-1 bc on every 2x2 submatrix (a b; c d) of A say
    exactly that the eta_c obey the relations of the psi (ac = qca makes
    eta_c^2 = 0; ad = da + qcb - q^-1 bc makes eta_d eta_c = -q eta_c eta_d
    for c < d): A is right-quantum.  The tests check them on rho
    (tests/oracles.py).
      1. A submatrix of a right-quantum matrix is right-quantum, as the
         relations are conditions on its 2x2 submatrices; so the rows I of
         M, M_{I,*}, are right-quantum when M is.
      2. Entries at different crossings commute (a key is a tensor product
         over crossings), so the entries of L = L_j commute with those of
         M = L_1 ... L_{j-1}.
      3. With eta_t the column combinations of M_{I,*}, column c of
         (M L)_{I,*} gives sum_t L[t][c] eta_t, the entries of L moved to
         the left by 2.  The eta_t obey the psi relations by 1, so the
         product over c in J is sum_K det_q(L_{K,J}) prod_{t in K} eta_t =
         sum_K det_q(L_{K,J}) det_q(M_{I,K}) psi_I, with |K| = |I|.  That is
         det_q((M L)_{I,J}) = sum_K det_q(M_{I,K}) det_q(L_{K,J}).
    M is right-quantum: each L_j is (its block S is, and the identity
    columns are the psi themselves), and the same calculation with the eta
    of one factor as the psi of the next shows that a product of
    right-quantum matrices with commuting entries is right-quantum
    (Garoufalidis-Le-Zeilberger, arXiv:math/0303319).

    Update.  L is the identity outside its block S at (l, l+1), so
    det_q(L_{K,J}) is nonzero only for these pairs, and a minor of M goes:
      - with K missing l and l+1, to the same K, unchanged;
      - with K holding one x of them, to K with x replaced by y, times
        S[x][y], for each y; x and y are adjacent, so x has the same rank
        in K as y in the new set, and there is no sign;
      - with K holding both, to the same K, times det_q(S) =
        -q S[1][0] S[0][1].
    Every factor lies at crossing j, past every crossing in the keys of M,
    so each product appends one entry to each key, with no merge and no
    q-shift.

    Steps.  So a minor after crossing j is a sum of minors before it, each
    times one key entry and a signed power of q, and it is stored as that
    sum: a list of steps (prior, entry, shift, sign), prior the step list
    of the minor before.  The identity minors are one step each, with no
    entry.  A crossing adds one step list per minor it touches: one step
    for the det block, or one per nonzero letter of S that reaches the new
    column set.  Every other minor passes on as the same list, and no term
    is copied.  The terms of a minor are the paths of steps back to the
    identity: the key of a term is the entries along its path in crossing
    order, and its coefficient the product of their signs times q to the
    sum of their shifts.  So a crossing does work per minor, not per term,
    and the number of terms before cancellation is a sum over the steps,
    in O(k * #minors).  _collect reads the paths and counts their
    coefficients as integers per key and exponent, so its result is exact
    whether or not two terms meet.  (They do not: the two minors that
    reach one set with exactly one of l, l+1 get different letters S[x][y].)
    """
    minors: dict[MinorKey, Steps] = {(I, I): [(None, None, 0, 1)] for I in row_sets}
    for j, (l, sign) in enumerate(b.letters, start=1):
        # the key entry of each letter of S at crossing j (None for 0)
        S = [[x and (j, sign, *_LETTER[x]) for x in row] for row in _BLOCK[sign]]
        # the entry, q-shift and sign of det_q(S) = -q S[1][0] S[0][1] at j
        (block,), block_shift = _DET_BLOCK[sign]
        both = ((j, *block[1:]), 1 + block_shift, -1)
        out: dict[MinorKey, Steps] = {}
        for (I, K), steps in minors.items():
            has_l, has_next = l in K, l + 1 in K
            if not has_l and not has_next:
                out[I, K] = steps
            elif has_l and has_next:
                out[I, K] = [(steps, *both)]
            else:
                x = l if has_l else l + 1
                i = K.index(x)
                for y, entry in enumerate(S[x - l], start=l):
                    if entry is not None:
                        new = (I, K[:i] + (y,) + K[i + 1:])
                        out.setdefault(new, []).append((steps, entry, 0, 1))
        minors = out
    return minors


def _collect(parts: Iterable[tuple[Steps, int, int]]) -> OperatorPolynomial:
    """The sum of the minors of `parts`, each given as (steps, exponent,
    sign) for sign * q^exponent times the minor.

    Each term is a path of steps back to the identity, walked depth first.
    The walk keeps its own stack, one entry per step list entered, so its
    depth is not bounded by the interpreter's recursion limit; `entries`
    holds the key entries down to the current list, in descending crossing
    order, and is cut back to its depth before each step is taken.  The
    coefficients are counted as integers per key and exponent.
    """
    out: dict[CanonicalKey, dict[int, int]] = {}
    entries: list[tuple[int, int, int, int, int]] = []
    for steps, exponent, sign in parts:
        stack = [(iter(steps), exponent, sign)]
        while stack:
            depth = len(stack) - 1
            at, e, s = stack[-1]
            step = next(at, None)
            if step is None:
                stack.pop()
                continue
            prior, entry, shift, step_sign = step
            del entries[depth:]
            if prior is None:
                coeff = out.setdefault(tuple(reversed(entries)), {})
                coeff[e] = coeff.get(e, 0) + s
            else:
                entries.append(entry)
                stack.append((iter(prior), e + shift, s * step_sign))
    return OperatorPolynomial({k: LaurentPolynomial(c) for k, c in out.items()})


def quantum_minors(
    b: BraidWord, row_sets: Iterable[tuple[int, ...]]
) -> dict[MinorKey, OperatorPolynomial]:
    """det_q(rho(b)_{I,K}) for each row set I of `row_sets` and every column
    set K of the same size, keyed (I, K); zero minors are left out.  The
    transfer and its argument are in _transfer."""
    return {IK: _collect([(steps, 0, 1)]) for IK, steps in _transfer(b, row_sets).items()}


def rho(b: BraidWord) -> OperatorMatrix:
    """Ordered product of the local matrices, first letter leftmost.

    Entry (i, j) equals the sum of the weights of the paths from j to i.
    It is the minor ((i,), (j,)) of quantum_minors with rows 1..m, whose
    one-letter update recomputes columns l and l+1 from the 2x2 block and
    keeps every other column as it is.
    """
    m = b.strands
    minors = quantum_minors(b, [(i,) for i in range(1, m + 1)])
    zero = OperatorPolynomial.zero()
    return OperatorMatrix(
        tuple(
            tuple(minors.get(((i,), (k,)), zero) for k in range(1, m + 1))
            for i in range(1, m + 1)
        )
    )


def C_qdet(b: BraidWord) -> OperatorPolynomial:
    """C = sum over nonempty J in {2..m} of -(-q)^|J| det_q(rho_{J,J}), the
    principal minors read from the _transfer with rows J; only they are
    expanded."""
    row_sets = [
        J
        for size in range(1, b.strands)
        for J in combinations(range(2, b.strands + 1), size)
    ]
    minors = _transfer(b, row_sets)
    return _collect(
        (minors[J, J], len(J), (-1) ** (len(J) + 1))
        for J in row_sets
        if (J, J) in minors
    )

