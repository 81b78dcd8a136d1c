"""The quantum-determinant pipeline: Burau-type operator matrices and C.

Each crossing contributes a local matrix that is the identity outside a
2x2 block of letter operators; their ordered product is rho.  Summing
signed quantum determinants of the submatrices of q*rho over nonempty
subsets of {2..m} gives the same polynomial C as walk enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .braid import BraidWord
from .laurent import LaurentPolynomial
from .qops import CrossingWord
from .walks import OperatorPolynomial, inversions, op_mul


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

    def scaled(self, factor: LaurentPolynomial) -> "OperatorMatrix":
        return OperatorMatrix(
            tuple(tuple(e.scaled(factor) for e in row) for row in self.entries)
        )

    def submatrix(self, rows, cols=None) -> "OperatorMatrix":
        cols = rows if cols is None else cols
        return OperatorMatrix(
            tuple(tuple(self.entries[i][j] for j in cols) for i in rows)
        )

    def to_json(self) -> list[list[list]]:
        return [[e.to_json() for e in row] for row in self.entries]


def identity_matrix(m: int) -> OperatorMatrix:
    one = OperatorPolynomial.one()
    zero = OperatorPolynomial.zero()
    return OperatorMatrix(
        tuple(tuple(one if i == j else zero for j in range(m)) for i in range(m))
    )


def _letter(j: int, sign: int, letter: str) -> OperatorPolynomial:
    return OperatorPolynomial.from_words(
        LaurentPolynomial.one(), {j: CrossingWord(sign, letter)}
    )


def _block(j: int, sign: int) -> tuple[tuple[OperatorPolynomial, ...], ...]:
    """S_+ = (a b; c 0) or S_- = (0 c; b a), letters tagged with crossing j."""
    a, b, c = (_letter(j, sign, x) for x in "abc")
    zero = OperatorPolynomial.zero()
    return ((a, b), (c, zero)) if sign > 0 else ((zero, c), (b, a))


def local_matrix(j: int, sign: int, l: int, m: int) -> OperatorMatrix:
    """Identity with the 2x2 block at rows/cols (l, l+1) replaced by S_sign.

    S_+ = (a b; c 0) and S_- = (0 c; b a), letters tagged with crossing j.
    """
    if m < 2 or not 1 <= l <= m - 1:
        raise ValueError(f"generator position {l} out of range for {m} strands")
    block = _block(j, sign)
    rows = [list(row) for row in identity_matrix(m).entries]
    for di in range(2):
        for dj in range(2):
            rows[l - 1 + di][l - 1 + dj] = block[di][dj]
    return OperatorMatrix(tuple(tuple(row) for row in rows))


def rho(b: BraidWord) -> OperatorMatrix:
    """Ordered product of the local matrices, first letter leftmost.

    Entry (i, j) equals the sum of the weights of the paths from j to i.
    Right-multiplying by the local matrix at (l, l+1) recomputes only
    columns l and l+1, as the old pair of columns times the 2x2 block; the
    identity outside the block keeps every other column as it is.
    """
    m = b.strands
    cols = [list(col) for col in identity_matrix(m).entries]  # symmetric
    zero = OperatorPolynomial.zero()
    for j, (l, sign) in enumerate(b.letters, start=1):
        block = _block(j, sign)
        left, right = cols[l - 1], cols[l]
        for k in range(2):
            top, bottom = block[0][k], block[1][k]
            col = []
            for x, y in zip(left, right):
                total = zero
                if x and top:
                    total = total + op_mul(x, top)
                if y and bottom:
                    total = total + op_mul(y, bottom)
                col.append(total)
            cols[l - 1 + k] = col
    return OperatorMatrix(tuple(zip(*cols)))


def det_q(A: OperatorMatrix) -> OperatorPolynomial:
    """Quantum determinant: sum over permutations of (-q)^inv times the
    column-ascending product of entries."""
    n = A.dim
    if n == 0:
        return OperatorPolynomial.one()
    total = OperatorPolynomial.zero()
    for perm in permutations(range(n)):
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


def C_qdet(b: BraidWord) -> OperatorPolynomial:
    """C as the signed sum of quantum determinants of submatrices of q*rho."""
    m = b.strands
    R = rho(b).scaled(LaurentPolynomial.term(1))
    total = OperatorPolynomial.zero()
    for size in range(1, m):
        sign = 1 if (size - 1) % 2 == 0 else -1
        for J in combinations(range(2, m + 1), size):
            idx = [x - 1 for x in J]
            d = det_q(R.submatrix(idx))
            total = total + (
                d if sign > 0 else d.scaled(LaurentPolynomial.term(0, -1))
            )
    return total


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
