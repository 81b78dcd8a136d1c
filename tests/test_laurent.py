import pytest
from hypothesis import given, strategies as st

from braidwalks.laurent import LaurentPolynomial

laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=6
).map(LaurentPolynomial)

# factors for sum_of_products: negative exponents, negative coefficients,
# coefficients beyond 2^64, and the zero polynomial (the empty dictionary)
factors = st.dictionaries(
    st.integers(-20, 20),
    st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80)),
    max_size=6,
).map(LaurentPolynomial)
row_lists = st.lists(st.lists(factors, max_size=4), max_size=5)


def dict_sum_of_products(rows):
    """The sum of the row products by dict-loop __mul__ and __add__."""
    total = LaurentPolynomial.zero()
    for row in rows:
        value = LaurentPolynomial.one()
        for f in row:
            value = value * f
        total = total + value
    return total


def test_zero_coefficients_dropped():
    p = LaurentPolynomial({0: 1, 3: 0, -2: 5})
    assert p.terms == {0: 1, -2: 5}


def test_basic_arithmetic():
    p = LaurentPolynomial({1: 2, -1: 1})
    q = LaurentPolynomial({1: -2, 0: 3})
    assert (p + q).terms == {-1: 1, 0: 3}
    assert (p - p).is_zero()
    assert (p * q).terms == {2: -4, 1: 6, 0: -2, -1: 3}
    assert p * 0 == LaurentPolynomial.zero()


def test_degree_valuation_coefficient():
    p = LaurentPolynomial({-2: 1, 3: -4})
    assert p.degree() == 3
    assert p.valuation() == -2
    assert p.coefficient(3) == -4
    assert p.coefficient(0) == 0
    with pytest.raises(ValueError):
        LaurentPolynomial.zero().degree()


def test_pow():
    q = LaurentPolynomial.term(1)
    assert (q ** 3).terms == {3: 1}
    one_minus_q = LaurentPolynomial.one() - q
    assert (one_minus_q ** 2).terms == {0: 1, 1: -2, 2: 1}
    with pytest.raises(ValueError):
        q ** -1


def test_shifted():
    p = LaurentPolynomial({0: 1, 2: -1})
    assert p.shifted(-3).terms == {-3: 1, -1: -1}
    assert p.shifted(1, -2).terms == {1: -2, 3: 2}


def test_exact_div():
    one = LaurentPolynomial.one()
    q = LaurentPolynomial.term(1)
    num = one - q ** 2
    den = one - q
    assert num.exact_div(den) == one + q
    with pytest.raises(ValueError):
        (one - q ** 2 + q ** 5).exact_div(den)
    with pytest.raises(ZeroDivisionError):
        one.exact_div(LaurentPolynomial.zero())


def test_str_ascending():
    p = LaurentPolynomial({2: 1, -2: 1, -1: -1, 0: 1, 1: -1})
    assert str(p) == "q^-2 - q^-1 + 1 - q + q^2"
    assert str(LaurentPolynomial.zero()) == "0"
    assert str(LaurentPolynomial({3: -2})) == "-2q^3"
    assert str(LaurentPolynomial({1: 1})) == "q"


def test_constants_hash_as_their_integers():
    # __eq__ makes a constant polynomial equal to its integer, so hashing
    # must agree, or sets and dicts hold both
    for value in (0, 1, 5, -3):
        p = LaurentPolynomial.term(0, value)
        assert p == value and hash(p) == hash(value)
        assert p in {value} and value in {p}
        assert len({value, p}) == 1
    assert LaurentPolynomial.one() in {1}
    assert len({1, LaurentPolynomial.one()}) == 1


def test_json_round_trip():
    p = LaurentPolynomial({-4: 3, 0: -1, 7: 2})
    assert LaurentPolynomial.from_json(p.to_json()) == p


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@given(laurents, laurents)
def test_division_inverts_multiplication(a, b):
    if not b:
        return
    assert (a * b).exact_div(b) == a


@given(row_lists)
def test_sum_of_products_matches_dict_loop(rows):
    assert LaurentPolynomial.sum_of_products(rows) == dict_sum_of_products(rows)


@given(row_lists)
def test_sum_of_products_cancels_to_zero(rows):
    negated = [[LaurentPolynomial.term(0, -1), *row] for row in rows]
    assert LaurentPolynomial.sum_of_products(rows + negated).is_zero()


def test_sum_of_products_edge_cases():
    one = LaurentPolynomial.one()
    q = LaurentPolynomial.term(1)
    zero = LaurentPolynomial.zero()
    assert LaurentPolynomial.sum_of_products([]) == zero
    assert LaurentPolynomial.sum_of_products([[]]) == one
    assert LaurentPolynomial.sum_of_products([[q - one]]) == q - one
    assert LaurentPolynomial.sum_of_products([[q, zero], [q]]) == q
    assert LaurentPolynomial.sum_of_products([[q, one], [-q]]) == zero


def test_sum_of_products_beyond_64_bit_slots():
    # coefficients of (1 - q)^80 reach C(80, 40) > 2^76, and those near
    # 2^70 multiply to about 2^141: a fixed 64-bit slot would overflow
    one_minus_q = LaurentPolynomial.one() - LaurentPolynomial.term(1)
    power = LaurentPolynomial.sum_of_products([[one_minus_q] * 80])
    assert power == one_minus_q**80
    assert max(abs(c) for _e, c in power.items()) > 2**76
    big = LaurentPolynomial({-3: 2**70 - 1, 0: -(2**70), 5: 2**69 + 7})
    rows = [[big, big], [big, -big, LaurentPolynomial.term(-2, 3)], [-big]]
    assert LaurentPolynomial.sum_of_products(rows) == dict_sum_of_products(rows)


@given(factors, st.integers(0, 8))
def test_packed_round_trip(f, extra):
    # any B with every coefficient below 2^(B-1) reads the digits back
    B = max((abs(c).bit_length() for _e, c in f.items()), default=0) + 1 + extra
    v, value = f.packed(B)
    assert LaurentPolynomial.unpacked(value, B, v) == f
    assert LaurentPolynomial.unpacked(value << B, B, v - 1) == f
