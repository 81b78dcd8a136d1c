import pytest

from braidwalks import (
    BraidWord,
    CrossingWord,
    LaurentPolynomial,
    NotAKnotError,
    OperatorPolynomial,
    enumerate_paths,
    enumerate_walks,
    evaluate_series,
    op_mul,
    parse_braid,
    series_terms,
    walk_sum_C,
    walk_weight,
)
from braidwalks import walks
from braidwalks.walks import _is_dead, _merge_keys, evaluate_polynomial
from corpus_util import (
    cancellation_pairing,
    knot_closure_words,
    reference_evaluate_polynomial,
    unpruned_series_terms,
)

FIG8 = parse_braid("1 -2 1 -2", 3)
ONE = LaurentPolynomial.one()
Q = LaurentPolynomial.term(1)


def fig8_walks():
    walks = enumerate_walks(FIG8, simple_only=True)
    assert len(walks) == 2
    a = next(w for w in walks if w.J == (3,))
    b = next(w for w in walks if w.J == (2, 3))
    return a, b


class TestPaths:
    def test_empty_braid_trivial_path(self):
        paths = enumerate_paths(BraidWord(3, ()), 2)
        assert len(paths) == 1
        p = paths[0]
        assert (p.start, p.end) == (2, 2)
        assert p.letters == ()
        assert p.footprint == ((0, 2),)

    def test_single_positive_crossing_from_2(self):
        b = parse_braid("1", 2)
        paths = enumerate_paths(b, 2)
        assert len(paths) == 1
        assert paths[0].end == 1
        assert paths[0].letters == ((1, "b"),)

    def test_fig8_from_2_contains_reference_path(self):
        paths = enumerate_paths(FIG8, 2)
        wanted = [p for p in paths if dict(p.letters) == {4: "b", 2: "a"}]
        assert len(wanted) == 1
        assert wanted[0].end == 3

    def test_footprints_are_valid_trajectories(self):
        for start in (1, 2, 3):
            for p in enumerate_paths(FIG8, start):
                gaps = [cell[0] for cell in p.footprint]
                assert gaps == list(range(len(FIG8), -1, -1))
                assert p.footprint[0] == (len(FIG8), start)
                assert p.footprint[-1] == (0, p.end)

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            enumerate_paths(FIG8, 4)

    def test_long_word_beyond_recursion_limit(self):
        # 1203 crossings, deeper than the default recursion limit
        b = BraidWord(4, ((1, 1), (2, 1), (3, 1)) + ((3, 1), (3, -1)) * 600)
        assert [len(enumerate_paths(b, s)) for s in (1, 2, 3, 4)] == [
            2, 2, 2, 2401
        ]


class TestWalks:
    def test_fig8_two_simple_walks(self):
        a, b = fig8_walks()
        assert a.pi == {3: 3}
        assert b.pi == {2: 3, 3: 2}
        assert b.inversions() == 1

    def test_single_positive_crossing_no_walks(self):
        assert enumerate_walks(parse_braid("1", 2), simple_only=False) == []

    def test_empty_braid_no_walks(self):
        assert enumerate_walks(BraidWord(3, ()), simple_only=False) == []


class TestWalkWeight:
    def test_walk_A(self):
        a, _ = fig8_walks()
        assert walk_weight(a, FIG8).terms == {
            ((2, -1, 0, 0, 1), (4, -1, 0, 0, 1)): Q
        }

    def test_walk_B(self):
        _, b = fig8_walks()
        # the letters at crossing 4 are ordered by start: b (start 2), then
        # c (start 3); the word "bc" is already normal, "cb" would be q^2 bc
        assert [p.letters[-1] for p in b.paths] == [(4, "b"), (4, "c")]
        assert walk_weight(b, FIG8).terms == {
            (
                (1, 1, 0, 1, 0),
                (2, -1, 0, 0, 1),
                (3, 1, 1, 0, 0),
                (4, -1, 1, 1, 0),
            ): LaurentPolynomial.term(3)
        }
        assert walk_weight(b, FIG8) == OperatorPolynomial.from_words(
            LaurentPolynomial.term(3),
            {
                1: CrossingWord(1, "c"),
                2: CrossingWord(-1, "a"),
                3: CrossingWord(1, "b"),
                4: CrossingWord(-1, "bc"),
            },
        )

    def test_single_path_walk_coeff_is_q(self):
        walks = enumerate_walks(parse_braid("-1", 2), simple_only=True)
        assert len(walks) == 1
        weight = walk_weight(walks[0], parse_braid("-1", 2))
        assert list(weight.terms.values()) == [Q]


class TestOperatorAlgebra:
    def test_AB_equals_q_BA(self):
        a, b = fig8_walks()
        A = walk_weight(a, FIG8)
        B = walk_weight(b, FIG8)
        assert op_mul(A, B) == op_mul(B, A).scaled(Q)

    def test_identity_is_unit(self):
        _, b = fig8_walks()
        B = walk_weight(b, FIG8)
        one = OperatorPolynomial.one()
        assert op_mul(one, B) == B
        assert op_mul(B, one) == B

    def test_square_is_bilinear(self):
        a, b = fig8_walks()
        A = walk_weight(a, FIG8)
        B = walk_weight(b, FIG8)
        total = A + B
        expanded = (
            op_mul(A, A) + op_mul(A, B) + op_mul(B, A) + op_mul(B, B)
        )
        assert op_mul(total, total) == expanded


class TestWalkSum:
    def test_fig8_C_has_two_monomials(self):
        C = walk_sum_C(FIG8, simple_only=True)
        assert len(C) == 2
        a, b = fig8_walks()
        assert C == walk_weight(a, FIG8) + walk_weight(b, FIG8)

    def test_single_positive_crossing_C_is_zero(self):
        assert not walk_sum_C(parse_braid("1", 2))


class TestEvaluation:
    def test_E2_of_walk_A(self):
        a, _ = fig8_walks()
        value = evaluate_polynomial(walk_weight(a, FIG8), 2)
        assert value == Q * (ONE - LaurentPolynomial.term(-1)) ** 2

    def test_E2_of_walk_B(self):
        _, b = fig8_walks()
        value = evaluate_polynomial(walk_weight(b, FIG8), 2)
        assert value == LaurentPolynomial.term(3) * (ONE - LaurentPolynomial.term(-1))

    def test_empty_monomial(self):
        empty = OperatorPolynomial.from_words(ONE, {1: CrossingWord(1, "")})
        assert empty == OperatorPolynomial.one()
        assert evaluate_polynomial(empty, 2) == ONE


class TestSeries:
    def test_fig8_N2_series(self):
        C = walk_sum_C(FIG8)
        qinv = LaurentPolynomial.term(-1)
        expected = (
            ONE
            + Q * (ONE - qinv) ** 2
            + LaurentPolynomial.term(3) * (ONE - qinv)
        )
        assert evaluate_series(C, FIG8, 2) == expected

    def test_fig8_terms_vanish_from_N(self):
        C = walk_sum_C(FIG8)
        for N in (2, 3, 4):
            terms = unpruned_series_terms(C, N, 2 * (N - 1))
            for n, term in enumerate(terms):
                if n >= N:
                    assert term.is_zero()

    def test_pruned_matches_unpruned_N4(self):
        # every 20th 3-strand corpus word; the whole 2856 take minutes
        words = [b for b in knot_closure_words(3, 6) if b.strands == 3][::20]
        assert len(words) > 100
        for b in words:
            C = walk_sum_C(b)
            n_max = (b.strands - 1) * 3
            assert series_terms(C, 4, n_max) == unpruned_series_terms(
                C, 4, n_max
            ), b.serialize()

    @pytest.mark.parametrize(
        "text,strands,N",
        [
            (text, strands, N)
            for text, strands, colors in [
                ("1 -2 1 -2", 3, (2, 3, 4)),
                ("1 2 1 2 1 2 1 2", 3, (2, 3, 4)),
                ("1 1 1 2 -1 2", 3, (2, 3, 4)),
                ("1 2 3 1 2 3 1 2 3", 4, (2, 3, 4)),
                ("1 -2 3 -4 1 -2 3 -4", 5, (2, 3)),
            ]
            for N in colors
        ],
    )
    def test_dead_keys_stay_dead(self, text, strands, N):
        # the property the prune of series_terms rests on: a dead key of an
        # unpruned power evaluates to zero, and so does its product with
        # every term of C
        b = parse_braid(text, strands)
        C = walk_sum_C(b)
        power = OperatorPolynomial.one()
        dead = 0
        for _ in range((strands - 1) * (N - 1)):
            power = op_mul(power, C)
            for key in power.terms:
                value = evaluate_polynomial(OperatorPolynomial({key: ONE}), N)
                assert _is_dead(key, N) == (not value)
                if _is_dead(key, N):
                    dead += 1
                    for t in C.terms:
                        assert _is_dead(_merge_keys(key, t)[0], N), (key, t)
        assert dead

    @pytest.mark.parametrize(
        "text,strands,N",
        [("1 -2 3 -4 1 -2 3 -4", 5, 3), ("1 1 1 1 1 1 1", 2, 6)],
    )
    def test_packed_evaluation_matches_reference(
        self, text, strands, N, monkeypatch
    ):
        # every pruned power series_terms evaluates, also by dict loop
        b = parse_braid(text, strands)
        powers = []

        def recording(p, N):
            powers.append(p)
            return evaluate_polynomial(p, N)

        monkeypatch.setattr(walks, "evaluate_polynomial", recording)
        series_terms(walk_sum_C(b), N, (strands - 1) * (N - 1))
        assert len(powers) > 1
        for p in powers:
            assert evaluate_polynomial(p, N) == reference_evaluate_polynomial(
                p, N
            )

    def test_zero_C_gives_one(self):
        b = parse_braid("1", 2)
        assert evaluate_series(OperatorPolynomial.zero(), b, 2) == ONE

    def test_rejects_non_knot(self):
        hopf = parse_braid("1 1", 2)
        with pytest.raises(NotAKnotError):
            evaluate_series(walk_sum_C(hopf), hopf, 2)


class TestCancellation:
    @pytest.mark.parametrize(
        "text,strands",
        [("1 -2 1 -2", 3), ("1 1 1", 2), ("", 1), ("1 2 1 2", 3), ("-1 2 -1 2", 3)],
    )
    def test_pairing(self, text, strands):
        assert cancellation_pairing(parse_braid(text, strands))
