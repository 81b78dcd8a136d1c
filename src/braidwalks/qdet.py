"""The quantum-determinant pipeline: Burau-type operator matrices and C.

Each crossing contributes a local matrix that is the identity outside a
2x2 block of letter operators; their ordered product is rho.  By the
Huynh-Le formula, C is the sum over nonempty J in {2..m} of
-(-q)^|J| det_q(rho_{J,J}), the same polynomial as walk enumeration.
quantum_minors carries the quantum minors of the partial products of rho
from crossing to crossing, by the quantum Cauchy-Binet identity; C_qdet
reads its principal minors and rho its entries, the minors of size 1.
det_q names the quantum determinant throughout; neither it nor a local
matrix is ever formed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .braid import BraidWord
from .laurent import LaurentPolynomial
from .qops import _LETTER, CrossingWord, normal_order
from .walks import CanonicalKey, OperatorPolynomial, op_mul


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
# det_q(S) = S[0][0] S[1][1] - q S[1][0] S[0][1] = -q S[1][0] S[0][1], as the
# normal form of the word S[1][0] S[0][1]
_DET_BLOCK = {
    sign: normal_order(CrossingWord(sign, S[1][0] + S[0][1]))
    for sign, S in _BLOCK.items()
}


# a quantum minor's (row set, column set), each an ascending tuple of strands
MinorKey = tuple[tuple[int, ...], tuple[int, ...]]
# a key built by appending: None for (), (chain, entry) for chain + (entry,)
Chain = tuple | None


def _transfer(
    b: BraidWord, row_sets: Iterable[tuple[int, ...]]
) -> dict[MinorKey, list[tuple[Chain, LaurentPolynomial]]]:
    """The terms of det_q(rho(b)_{I,K}) for each row set I of `row_sets`
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
    I of det_q(A_{I,J}) psi_I.  The relations matrix_is_right_quantum checks
    say exactly that the eta_c obey the relations of the psi (ac = qca makes
    eta_c^2 = 0; ad = da + qcb - q^-1 bc makes eta_d eta_c = -q eta_c eta_d
    for c < d): A is right-quantum.
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

    Terms.  The two minors that reach one set with exactly one of l, l+1
    get different letters S[x][y], so their terms never meet: no term is
    added to another, and each coefficient is a signed power of q.  So a
    minor is a list of (key, coefficient), never hashed, and a key is a
    Chain, which appends in constant time and shares its prefix with the
    key it grew from; _collect flattens the keys and adds terms with equal
    keys, so the lists would stay exact if terms did meet.  A step costs a
    constant per term it moves, whatever the length of the keys.
    """
    minors = {(I, I): [(None, LaurentPolynomial.one())] for I in row_sets}
    for j, (l, sign) in enumerate(b.letters, start=1):
        # the key entry of each letter of S at crossing j (None for 0)
        S = [[x and (j, sign, *_LETTER[x]) for x in row] for row in _BLOCK[sign]]
        nf = _DET_BLOCK[sign]
        both_entry = (j, sign, nf.s, nf.r, nf.d)
        both_shift = 1 + nf.q_shift
        out: dict[MinorKey, list[tuple[Chain, LaurentPolynomial]]] = {}
        for (I, K), terms in minors.items():
            has_l, has_next = l in K, l + 1 in K
            if not has_l and not has_next:
                out[I, K] = terms
            elif has_l and has_next:
                out[I, K] = [
                    ((key, both_entry), c.shifted(both_shift, -1))
                    for key, c in terms
                ]
            else:
                x = l if has_l else l + 1
                i = K.index(x)
                for y, entry in enumerate(S[x - l], start=l):
                    if entry is None:
                        continue
                    moved = [((key, entry), c) for key, c in terms]
                    target = out.setdefault((I, K[:i] + (y,) + K[i + 1:]), moved)
                    if target is not moved:
                        target.extend(moved)
        minors = out
    return minors


def _collect(
    out: dict[CanonicalKey, LaurentPolynomial],
    terms: Iterable[tuple[Chain, LaurentPolynomial]],
    exponent: int = 0,
    sign: int = 1,
) -> dict[CanonicalKey, LaurentPolynomial]:
    """Add each term of a _transfer minor, times sign * q^exponent, into out
    under its canonical key, the entries of its chain in order."""
    for chain, c in terms:
        entries = []
        while chain is not None:
            chain, entry = chain
            entries.append(entry)
        key = tuple(reversed(entries))
        c = c.shifted(exponent, sign)
        n = out.get(key)
        out[key] = c if n is None else n + c
    return out


def quantum_minors(
    b: BraidWord, row_sets: Iterable[tuple[int, ...]]
) -> dict[MinorKey, OperatorPolynomial]:
    """det_q(rho(b)_{I,K}) for each row set I of `row_sets` and every column
    set K of the same size, keyed (I, K); zero minors are left out.  The
    transfer and its argument are in _transfer."""
    return {
        IK: OperatorPolynomial(_collect({}, terms))
        for IK, terms in _transfer(b, row_sets).items()
    }


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
    principal minors read from the _transfer with rows J."""
    row_sets = [
        J
        for size in range(1, b.strands)
        for J in combinations(range(2, b.strands + 1), size)
    ]
    minors = _transfer(b, row_sets)
    out: dict[CanonicalKey, LaurentPolynomial] = {}
    for J in row_sets:
        size = len(J)
        _collect(out, minors.get((J, J), ()), size, (-1) ** (size + 1))
    return OperatorPolynomial(out)


def matrix_is_right_quantum(M: OperatorMatrix) -> bool:
    """Check ac=qca, bd=qdb, ad=da+qcb-q^{-1}bc on every 2x2 submatrix."""
    q = LaurentPolynomial.term(1)
    q_inv = LaurentPolynomial.term(-1)
    n = M.dim
    for i1 in range(n):
        for i2 in range(i1 + 1, n):
            for j1 in range(n):
                for j2 in range(j1 + 1, n):
                    a = M.entries[i1][j1]
                    b = M.entries[i1][j2]
                    c = M.entries[i2][j1]
                    d = M.entries[i2][j2]
                    if op_mul(a, c) != op_mul(c, a).scaled(q):
                        return False
                    if op_mul(b, d) != op_mul(d, b).scaled(q):
                        return False
                    rhs = (
                        op_mul(d, a)
                        + op_mul(c, b).scaled(q)
                        - op_mul(b, c).scaled(q_inv)
                    )
                    if op_mul(a, d) != rhs:
                        return False
    return True


def right_quantum_check(b: BraidWord) -> bool:
    return matrix_is_right_quantum(rho(b))
