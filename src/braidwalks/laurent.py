"""Exact Laurent polynomial arithmetic over the integers, in one variable q."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


class LaurentPolynomial:
    """An element of Z[q, q^-1], stored as a map from exponent to coefficient.

    Instances are immutable and hashable; zero coefficients are never stored.
    All arithmetic is exact integer arithmetic.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self._terms = {int(e): int(c) for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    @classmethod
    def term(cls, exponent: int, coefficient: int = 1) -> "LaurentPolynomial":
        """The monomial coefficient * q^exponent."""
        return cls({exponent: coefficient})

    @property
    def terms(self) -> dict[int, int]:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(self._terms)

    def valuation(self) -> int:
        """Lowest exponent with a nonzero coefficient."""
        if not self._terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self._terms)

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPolynomial):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its integer, so it hashes as that integer
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial.term(0, other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            n = out.get(e, 0) + c
            if n:
                out[e] = n
            else:
                out.pop(e, None)
        result = LaurentPolynomial.__new__(LaurentPolynomial)
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        result = LaurentPolynomial.__new__(LaurentPolynomial)
        result._terms = {e: -c for e, c in self._terms.items()}
        return result

    def __sub__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial.term(0, other)
        return self + (-other)

    def __rsub__(self, other: int) -> "LaurentPolynomial":
        return LaurentPolynomial.term(0, other) - self

    def __mul__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            if other == 0:
                return LaurentPolynomial()
            result = LaurentPolynomial.__new__(LaurentPolynomial)
            result._terms = {e: c * other for e, c in self._terms.items()}
            return result
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                n = out.get(e, 0) + c1 * c2
                if n:
                    out[e] = n
                else:
                    out.pop(e, None)
        result = LaurentPolynomial.__new__(LaurentPolynomial)
        result._terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @classmethod
    def sum_of_products(
        cls, rows: Iterable[Sequence["LaurentPolynomial"]]
    ) -> "LaurentPolynomial":
        """The sum over the rows of the product of each row's factors.

        Computed by Kronecker substitution (Harvey, arXiv:0712.4046): each
        factor f of valuation v becomes the integer q^-v f(q) at q = 2^B,
        each row's integers are multiplied together and shifted by the
        row's summed valuation, and the rows are added into one integer
        that is unpacked once.  With m the lowest summed valuation over the
        rows, the packed integer is exactly P(2^B) for the polynomial
        P = q^-m * (the sum), whose exponents are all nonnegative.

        The slot width B comes from bound = sum_i prod_j ||f_ij||_1, the
        l1 norm being the sum of the absolute coefficients.  Since
        ||f g||_1 <= ||f||_1 ||g||_1 and no coefficient exceeds the l1
        norm, every coefficient of the sum is at most bound in absolute
        value.  B = bound.bit_length() + 1 gives bound < 2^(B-1), so each
        coefficient is a balanced base-2^B digit, in [-2^(B-1), 2^(B-1)).
        Such digits are unique: P(2^B) determines its lowest digit as the
        residue mod 2^B in that range, and the rest by induction.  So
        reading one digit per exponent from the lowest summed valuation
        (unpacked) returns P exactly, negative coefficients included, and no
        slot can overflow.  A row holding the zero polynomial is skipped; an
        empty row is the constant one.
        """
        rows = [row for row in rows if all(row)]
        if not rows:
            return cls()
        # Factors repeat across rows (E_N reuses each crossing's factor), so
        # each distinct object is measured and packed once; `rows` keeps
        # every factor alive, so no id is reused during the call.
        stats: dict[int, tuple[int, int]] = {}  # id -> (l1 norm, valuation)
        bound = 0
        lows = []
        for row in rows:
            norm = 1
            val = 0
            for f in row:
                s = stats.get(id(f))
                if s is None:
                    t = f._terms
                    s = stats[id(f)] = (sum(map(abs, t.values())), min(t))
                norm *= s[0]
                val += s[1]
            bound += norm
            lows.append(val)
        low = min(lows)
        B = bound.bit_length() + 1
        packs: dict[int, int] = {}
        packed = 0
        for row, val in zip(rows, lows):
            product = 1
            for f in row:
                p = packs.get(id(f))
                if p is None:
                    p = packs[id(f)] = f.packed(B)[1]
                product *= p
            packed += product << (B * (val - low))
        return cls.unpacked(packed, B, low)

    def packed(self, B: int) -> tuple[int, int]:
        """(v, P(2^B)) for self = q^v * P with v the valuation: the
        Kronecker form sum_of_products and the power loop of
        walks.series_terms compute with.  The zero polynomial gives (0, 0)."""
        if not self._terms:
            return 0, 0
        v = min(self._terms)
        return v, sum(c << (B * (e - v)) for e, c in self._terms.items())

    @classmethod
    def unpacked(cls, value: int, B: int, low: int) -> "LaurentPolynomial":
        """q^low * P for the P with P(2^B) = value whose coefficients lie in
        [-2^(B-1), 2^(B-1)): value is read as balanced base-2^B digits, the
        lowest first.  Such digits are unique, so the caller's bound on the
        coefficients makes the result exact."""
        out: dict[int, int] = {}
        mask = (1 << B) - 1
        half = 1 << (B - 1)
        e = low
        while value:
            digit = value & mask
            value >>= B
            if digit >= half:
                digit -= 1 << B
                value += 1
            if digit:
                out[e] = digit
            e += 1
        result = cls.__new__(cls)
        result._terms = out
        return result

    def shifted(self, exponent: int, coefficient: int = 1) -> "LaurentPolynomial":
        """Multiply by coefficient * q^exponent."""
        result = LaurentPolynomial.__new__(LaurentPolynomial)
        result._terms = {
            e + exponent: c * coefficient for e, c in self._terms.items() if c * coefficient
        }
        return result

    def exact_div(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        """Divide by `other`, raising ValueError unless the division is exact."""
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPolynomial()
        bound = self.degree() - other.degree()
        b_val = other.valuation()
        b_low = other._terms[b_val]
        rem = dict(self._terms)
        quot: dict[int, int] = {}
        while rem:
            e = min(rem)
            c = rem[e]
            f = e - b_val
            if c % b_low != 0 or f > bound:
                raise ValueError("division is not exact")
            k = c // b_low
            quot[f] = k
            for be, bc in other._terms.items():
                ne = be + f
                n = rem.get(ne, 0) - k * bc
                if n:
                    rem[ne] = n
                else:
                    rem.pop(ne, None)
        return LaurentPolynomial(quot)

    def to_json(self) -> dict[str, int]:
        return {str(e): c for e, c in sorted(self._terms.items())}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> "LaurentPolynomial":
        return cls({int(e): int(c) for e, c in data.items()})

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e in sorted(self._terms):
            c = self._terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                qp = "q" if e == 1 else f"q^{e}"
                body = qp if mag == 1 else f"{mag}{qp}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self._terms!r})"
