import itertools
import sys

import pytest
from hypothesis import given, settings, strategies as st

from braidwalks import LaurentPolynomial, OperatorPolynomial, op_mul
from braidwalks import qops
from braidwalks.qops import evaluate_polynomial
from corpus_util import from_words, merged_word, reference_eval_base
from oracles import CrossingWord, apply_word, oracle_apply, relation_oracle_check

ONE = LaurentPolynomial.one()
Q = LaurentPolynomial.term(1)


def term(sign, s, r, d, shift=0):
    """The one-term polynomial q^shift b^s c^r a^d at crossing 1."""
    return OperatorPolynomial({((1, sign, s, r, d),): LaurentPolynomial.term(shift)})


class TestNormalOrder:
    """The canonical term of a word as the engine forms it (merged_word)."""

    def test_negative_ac(self):
        assert merged_word(CrossingWord(-1, "ac")) == term(-1, 0, 1, 1, -1)

    def test_positive_bc_and_cb(self):
        assert merged_word(CrossingWord(1, "bc")) == term(1, 1, 1, 0)
        assert merged_word(CrossingWord(1, "cb")) == term(1, 1, 1, 0, -2)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("letter,srd", [("b", (1, 0, 0)), ("c", (0, 1, 0)), ("a", (0, 0, 1))])
    def test_single_letters(self, sign, letter, srd):
        assert merged_word(CrossingWord(sign, letter)) == term(sign, *srd)

    def test_negative_abc(self):
        # abc = q^2 bac = q^2 q^-1 bca = q bca
        assert merged_word(CrossingWord(-1, "abc")) == term(-1, 1, 1, 1, 1)

    @given(
        st.sampled_from((1, -1)),
        st.text(alphabet="abc", max_size=6),
        st.text(alphabet="abc", max_size=6),
    )
    def test_multiplicative(self, sign, u, v):
        # the product of canonical terms at one crossing is the canonical
        # term of the concatenated word
        def canonical(word):
            return from_words(ONE, {1: CrossingWord(sign, word)})

        assert op_mul(canonical(u), canonical(v)) == canonical(u + v)

    @given(st.sampled_from((1, -1)), st.text(alphabet="abc", max_size=10))
    def test_merge_fold_matches_reference_fold(self, sign, word):
        # the engine's fold through _merge_keys against the whole-word
        # reference, which shares no code with it
        cw = CrossingWord(sign, word)
        assert merged_word(cw) == from_words(ONE, {1: cw})


class TestEvalCrossing:
    """E_N of one crossing's term, through qops.evaluate_polynomial."""

    def test_negative_single_a(self):
        assert evaluate_polynomial(term(-1, 0, 0, 1), 2) == ONE - LaurentPolynomial.term(-1)

    def test_positive_pure_c(self):
        for r in range(4):
            for N in (2, 3, 5):
                value = evaluate_polynomial(term(1, 0, r, 0), N)
                assert value == LaurentPolynomial.term(r * (N - 1))

    def test_zero_factor_mechanism(self):
        # r = N-1 with one a gives a factor 1 - q^0 = 0
        for N in (2, 3, 4):
            assert evaluate_polynomial(term(1, 0, N - 1, 1), N).is_zero()

    def test_b_count_never_matters(self):
        for s in range(4):
            for sign in (1, -1):
                assert evaluate_polynomial(term(sign, s, 2, 1), 3) == evaluate_polynomial(
                    term(sign, 0, 2, 1), 3
                )

    def test_q_shift_applied(self):
        assert evaluate_polynomial(term(1, 0, 1, 0, 3), 2) == LaurentPolynomial.term(4)

    def test_rejects_small_N(self):
        with pytest.raises(ValueError):
            evaluate_polynomial(term(1, 0, 0, 0), 1)

    def test_factor_matches_product_formula(self):
        # built one factor at a time from the entry for d - 1, from a cold
        # cache and from one filled in another order
        for cold in (True, False):
            for N in range(2, 14):
                for sign in (1, -1):
                    for r in range(14):
                        for d in range(14):
                            if cold:
                                qops._eval_base.cache_clear()
                            assert qops._eval_base(
                                sign, r, d, N
                            ) == reference_eval_base(sign, r, d, N), (sign, r, d, N)

    def test_large_factor_is_not_deep_recursion(self):
        # d = 150 from a cold cache: the entries below it are filled in
        # ascending order, so the recursion stays one level deep
        qops._eval_base.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            values = {sign: qops._eval_base(sign, 3, 150, 160) for sign in (1, -1)}
        finally:
            sys.setrecursionlimit(limit)
        for sign, value in values.items():
            assert value == reference_eval_base(sign, 3, 150, 160)


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
                    merged = merged_word(cw)
                    for N in (2, 3):
                        assert evaluate_polynomial(merged, N) == oracle_apply(cw, N)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((1, -1)),
        st.text(alphabet="abc", min_size=6, max_size=10),
        st.integers(2, 6),
    )
    def test_pbw_soundness_random_long(self, sign, word, N):
        cw = CrossingWord(sign, word)
        assert evaluate_polynomial(merged_word(cw), N) == oracle_apply(cw, N)


class TestOperators:
    """Each operator of the oracle on f = q x^2 y^-1 u^3, expanded by hand
    from the operator comment in oracles (Tv: v -> qv, v^: multiply by v)."""

    F = {(2, -1, 3): Q}

    @pytest.mark.parametrize(
        "sign,letter,expected",
        [
            # (u^ - y^ Tx^-1) Ty^-1 f: Ty^-1 f = q^2 x^2 y^-1 u^3, and
            # Tx^-1 of that is x^2 y^-1 u^3
            (1, "a", {(2, -1, 4): LaurentPolynomial.term(2), (2, 0, 3): -ONE}),
            (1, "b", {(2, -1, 5): Q}),
            # x^ Ty^-2 Tu^-1 f = x q^2 q^-3 q x^2 y^-1 u^3
            (1, "c", {(3, -1, 3): ONE}),
            # (Ty - x^-1) Tx^-1 Tu f, where Tx^-1 Tu f = q^2 x^2 y^-1 u^3
            (-1, "a", {(2, -1, 3): Q, (1, -1, 3): -LaurentPolynomial.term(2)}),
            (-1, "b", {(2, -1, 5): Q}),
            # y^-1 Tx^-1 Tu f = y^-1 q^2 x^2 y^-1 u^3
            (-1, "c", {(2, -2, 3): LaurentPolynomial.term(2)}),
        ],
    )
    def test_on_monomial(self, sign, letter, expected):
        assert apply_word(letter, sign, self.F) == expected

    @pytest.mark.parametrize("sign,word", [(1, "x"), (0, "a"), (2, "b")])
    def test_rejects_unknown_letter_or_sign(self, sign, word):
        with pytest.raises(ValueError):
            apply_word(word, sign, self.F)


class TestRelations:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_relations_hold(self, sign):
        assert relation_oracle_check(sign)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_wrong_table_exponent_fails(self, monkeypatch, sign, index):
        # the engine's merge and the oracle's relations both read
        # qops._MERGE_EXP, so one wrong exponent there must show in both
        # checks for that sign and leave the other sign alone.  _merge_keys
        # is an lru_cache: merges cached by earlier tests carry the true
        # exponents and would hide the patch, and merges cached here carry
        # the wrong one and would leak into later tests, so the cache is
        # emptied before the patch and again after the checks.
        table = list(qops._MERGE_EXP[sign])
        table[index] += 1
        qops._merge_keys.cache_clear()
        monkeypatch.setitem(qops._MERGE_EXP, sign, tuple(table))
        try:
            assert not relation_oracle_check(sign)
            assert relation_oracle_check(-sign)
            words = [
                CrossingWord(sign, "".join(w))
                for n in range(4)
                for w in itertools.product("abc", repeat=n)
            ]
            assert any(
                evaluate_polynomial(merged_word(cw), N) != oracle_apply(cw, N)
                for cw in words
                for N in (2, 3)
            )
        finally:
            qops._merge_keys.cache_clear()


def test_crossing_word_validation():
    with pytest.raises(ValueError):
        CrossingWord(0, "a")
    with pytest.raises(ValueError):
        CrossingWord(1, "xyz")
