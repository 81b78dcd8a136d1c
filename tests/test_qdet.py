import pytest

from braidwalks import (
    BraidWord,
    C_qdet,
    CrossingWord,
    LaurentPolynomial,
    OperatorMatrix,
    OperatorPolynomial,
    det_q,
    enumerate_paths,
    local_matrix,
    matrix_is_right_quantum,
    op_mul,
    parse_braid,
    rho,
    right_quantum_check,
    walk_sum_C,
    walk_weight,
)
from braidwalks.qdet import identity_matrix
from corpus_util import differential_words, reference_rho

FIG8 = parse_braid("1 -2 1 -2", 3)
ONE = LaurentPolynomial.one()


def letter_poly(j, sign, letter):
    return OperatorPolynomial.from_words(ONE, {j: CrossingWord(sign, letter)})


class TestLocalMatrix:
    def test_positive_2x2(self):
        M = local_matrix(1, 1, 1, 2)
        assert M[0, 0] == letter_poly(1, 1, "a")
        assert M[0, 1] == letter_poly(1, 1, "b")
        assert M[1, 0] == letter_poly(1, 1, "c")
        assert not M[1, 1]

    def test_negative_block_placement(self):
        M = local_matrix(5, -1, 2, 3)
        assert M[0, 0] == OperatorPolynomial.one()
        assert not M[0, 1] and not M[1, 0]
        assert not M[1, 1]
        assert M[1, 2] == letter_poly(5, -1, "c")
        assert M[2, 1] == letter_poly(5, -1, "b")
        assert M[2, 2] == letter_poly(5, -1, "a")

    def test_rejects_one_strand(self):
        with pytest.raises(ValueError):
            local_matrix(1, 1, 1, 1)


class TestRho:
    def test_empty_word_is_identity(self):
        assert rho(BraidWord(3, ())) == identity_matrix(3)

    def test_single_generator_is_local_matrix(self):
        b = parse_braid("1", 2)
        assert rho(b) == local_matrix(1, 1, 1, 2)

    @pytest.mark.parametrize(
        "text,strands",
        [("1 -2 1 -2", 3), ("1 1 1", 2), ("-1 2", 3), ("1 2 -1", 3)],
    )
    def test_entries_are_path_weight_sums(self, text, strands):
        b = parse_braid(text, strands)
        M = rho(b)
        for start in range(1, strands + 1):
            by_end = {}
            for p in enumerate_paths(b, start):
                poly = OperatorPolynomial.from_words(
                    ONE,
                    {
                        j: CrossingWord(b.crossing(j)[1], letter)
                        for j, letter in p.letters
                    },
                )
                by_end[p.end] = by_end.get(p.end, OperatorPolynomial.zero()) + poly
            for end in range(1, strands + 1):
                expected = by_end.get(end, OperatorPolynomial.zero())
                assert M[end - 1, start - 1] == expected

    def test_matches_full_matrix_products(self):
        # the two-column update against the fold of full local matrices
        for b in differential_words():
            assert rho(b) == reference_rho(b), b.serialize()


class TestDetQ:
    def test_generic_2x2(self):
        a = letter_poly(1, 1, "a")
        b = letter_poly(2, 1, "b")
        c = letter_poly(3, 1, "c")
        d = letter_poly(4, 1, "a")
        M = OperatorMatrix(((a, b), (c, d)))
        q_poly = LaurentPolynomial.term(1)
        expected = op_mul(a, d) - op_mul(c, b).scaled(q_poly)
        assert det_q(M) == expected

    def test_det_of_S_plus(self):
        M = local_matrix(1, 1, 1, 2)
        c_then_b = op_mul(letter_poly(1, 1, "c"), letter_poly(1, 1, "b"))
        assert det_q(M) == c_then_b.scaled(LaurentPolynomial.term(1, -1))

    def test_1x1(self):
        e = letter_poly(1, -1, "a")
        assert det_q(OperatorMatrix(((e,),))) == e


class TestCqdet:
    def test_fig8_matches_walks(self):
        assert C_qdet(FIG8) == walk_sum_C(FIG8, simple_only=True)

    def test_single_positive_crossing_zero(self):
        assert not C_qdet(parse_braid("1", 2))

    def test_empty_braid_one_strand(self):
        assert not C_qdet(BraidWord(1, ()))


class TestRightQuantum:
    @pytest.mark.parametrize(
        "text,strands", [("1", 2), ("1 -2 1 -2", 3), ("-1 -1", 2), ("1 2", 3)]
    )
    def test_rho_is_right_quantum(self, text, strands):
        assert right_quantum_check(parse_braid(text, strands))

    def test_corrupted_matrix_fails(self):
        M = rho(FIG8)
        rows = [list(row) for row in M.entries]
        rows[0][0], rows[1][1] = M[1, 1], M[0, 0]
        corrupted = OperatorMatrix(tuple(tuple(row) for row in rows))
        assert not matrix_is_right_quantum(corrupted)
