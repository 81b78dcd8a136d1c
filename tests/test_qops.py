import itertools

import pytest
from hypothesis import given, settings, strategies as st

from braidwalks import (
    CrossingWord,
    LaurentPolynomial,
    NormalForm,
    eval_crossing,
    normal_order,
    oracle_apply,
    op_mul,
    relation_oracle_check,
)
from braidwalks import qops
from corpus_util import from_words

ONE = LaurentPolynomial.one()
Q = LaurentPolynomial.term(1)


class TestNormalOrder:
    def test_negative_ac(self):
        nf = normal_order(CrossingWord(-1, "ac"))
        assert nf == NormalForm(-1, 0, 1, 1)

    def test_positive_bc_and_cb(self):
        assert normal_order(CrossingWord(1, "bc")) == NormalForm(0, 1, 1, 0)
        assert normal_order(CrossingWord(1, "cb")) == NormalForm(-2, 1, 1, 0)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("letter,srd", [("b", (1, 0, 0)), ("c", (0, 1, 0)), ("a", (0, 0, 1))])
    def test_single_letters(self, sign, letter, srd):
        assert normal_order(CrossingWord(sign, letter)) == NormalForm(0, *srd)

    def test_negative_abc(self):
        # abc = q^2 bac = q^2 q^-1 bca = q bca
        assert normal_order(CrossingWord(-1, "abc")) == NormalForm(1, 1, 1, 1)

    @given(
        st.sampled_from((1, -1)),
        st.text(alphabet="abc", max_size=6),
        st.text(alphabet="abc", max_size=6),
    )
    def test_multiplicative(self, sign, u, v):
        # the product of canonical terms at one crossing is the canonical
        # term of the concatenated word
        def term(word):
            return from_words(ONE, {1: CrossingWord(sign, word)})

        assert op_mul(term(u), term(v)) == term(u + v)


class TestEvalCrossing:
    def test_negative_single_a(self):
        nf = NormalForm(0, 0, 0, 1)
        assert eval_crossing(nf, -1, 2) == ONE - LaurentPolynomial.term(-1)

    def test_positive_pure_c(self):
        for r in range(4):
            for N in (2, 3, 5):
                nf = NormalForm(0, 0, r, 0)
                assert eval_crossing(nf, 1, N) == LaurentPolynomial.term(r * (N - 1))

    def test_zero_factor_mechanism(self):
        # r = N-1 with one a gives a factor 1 - q^0 = 0
        for N in (2, 3, 4):
            nf = NormalForm(0, 0, N - 1, 1)
            assert eval_crossing(nf, 1, N).is_zero()

    def test_b_count_never_matters(self):
        for s in range(4):
            nf = NormalForm(0, s, 2, 1)
            base = NormalForm(0, 0, 2, 1)
            for sign in (1, -1):
                assert eval_crossing(nf, sign, 3) == eval_crossing(base, sign, 3)

    def test_q_shift_applied(self):
        nf = NormalForm(3, 0, 1, 0)
        assert eval_crossing(nf, 1, 2) == LaurentPolynomial.term(4)

    def test_rejects_small_N(self):
        with pytest.raises(ValueError):
            eval_crossing(NormalForm(0, 0, 0, 0), 1, 1)


class TestOracle:
    def test_negative_a_by_hand(self):
        # (Ty - x^-1) Tx^-1 Tu applied to 1, then x,y -> q^(N-1)
        assert oracle_apply(CrossingWord(-1, "a"), 2) == ONE - LaurentPolynomial.term(-1)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_b_is_unit(self, sign):
        for N in (2, 3, 4):
            assert oracle_apply(CrossingWord(sign, "b"), N) == ONE

    def test_positive_c(self):
        for N in (2, 3, 5):
            assert oracle_apply(CrossingWord(1, "c"), N) == LaurentPolynomial.term(N - 1)

    def test_reference_walk_B_crossing_values(self):
        # factors of E_2(q^3 c+ a- b+ (bc)-) = q^3 * q * (1-q^-1) * 1 * q^-1
        assert oracle_apply(CrossingWord(1, "c"), 2) == Q
        assert oracle_apply(CrossingWord(-1, "bc"), 2) == LaurentPolynomial.term(-1)

    def test_pbw_soundness_exhaustive_short(self):
        for length in range(5):
            for letters in itertools.product("abc", repeat=length):
                word = "".join(letters)
                for sign in (1, -1):
                    cw = CrossingWord(sign, word)
                    nf = normal_order(cw)
                    for N in (2, 3):
                        assert eval_crossing(nf, sign, N) == oracle_apply(cw, N)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((1, -1)),
        st.text(alphabet="abc", min_size=6, max_size=10),
        st.integers(2, 6),
    )
    def test_pbw_soundness_random_long(self, sign, word, N):
        cw = CrossingWord(sign, word)
        assert eval_crossing(normal_order(cw), sign, N) == oracle_apply(cw, N)


class TestRelations:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_relations_hold(self, sign):
        assert relation_oracle_check(sign)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_perturbed_relation_fails(self, sign):
        assert not relation_oracle_check(sign, perturb=1)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_wrong_table_exponent_fails(self, monkeypatch, sign, index):
        # normal_order and the oracle's relations both read qops._MERGE_EXP,
        # so one wrong exponent there must show in both checks for that
        # sign and leave the other sign alone
        table = list(qops._MERGE_EXP[sign])
        table[index] += 1
        monkeypatch.setitem(qops._MERGE_EXP, sign, tuple(table))
        assert not relation_oracle_check(sign)
        assert relation_oracle_check(-sign)
        words = [
            CrossingWord(sign, "".join(w))
            for n in range(4)
            for w in itertools.product("abc", repeat=n)
        ]
        assert any(
            eval_crossing(normal_order(cw), sign, N) != oracle_apply(cw, N)
            for cw in words
            for N in (2, 3)
        )


def test_crossing_word_validation():
    with pytest.raises(ValueError):
        CrossingWord(0, "a")
    with pytest.raises(ValueError):
        CrossingWord(1, "xyz")
