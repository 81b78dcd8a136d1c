import pytest
from hypothesis import given, settings, strategies as st

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
    differential_words,
    from_words,
    knot_closure_words,
    reference_enumerate_walks,
    reference_evaluate_polynomial,
    reference_merge_keys,
    reference_series_terms,
    reference_walk_weight,
    unpruned_series_terms,
)

FIG8 = parse_braid("1 -2 1 -2", 3)
ONE = LaurentPolynomial.one()
Q = LaurentPolynomial.term(1)


def recorded_series_terms(C, N, n_max):
    """series_terms(C, N, n_max) and the pruned powers it evaluated."""
    powers = []

    def recording(p, N):
        powers.append(p)
        return evaluate_polynomial(p, N)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walks, "evaluate_polynomial", recording)
        terms = series_terms(C, N, n_max)
    return terms, powers


def assert_matches_reference(C, N, n_max):
    """The packed power loop equals the dict-loop reference, power by
    power; returns the pruned powers."""
    terms, powers = recorded_series_terms(C, N, n_max)
    expected = []
    assert terms == reference_series_terms(C, N, n_max, expected)
    assert powers == expected
    return powers


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


class TestEnumerationReferences:
    """enumerate_walks, walk_weight and walk_sum_C against the
    product-and-filter enumeration and the normal-ordered weights."""

    def test_differential_words(self):
        words = differential_words()
        assert len(words) == 581
        for b in words:
            C = walk_sum_C(b)
            for simple_only in (True, False):
                got = enumerate_walks(b, simple_only)
                expected = reference_enumerate_walks(b, simple_only)
                assert got == expected, (b.serialize(), simple_only)
                total = OperatorPolynomial.zero()
                for walk in expected:
                    weight = reference_walk_weight(walk, b)
                    assert walk_weight(walk, b) == weight, b.serialize()
                    total = total + weight
                # over all walks, the nonsimple ones cancel
                assert C == total, (b.serialize(), simple_only)

    def test_no_nonsimple_walk_is_built(self, monkeypatch):
        # the build-C anchor: 587 simple walks among 19,385
        b = parse_braid(
            "-1 -1 -1 2 -2 -2 -1 -2 -1 1 -2 2 -1 -1 2 1 2 -2 -1 -1", 3
        )
        built = 0
        post_init = walks.Walk.__post_init__

        def counted(self):
            nonlocal built
            built += 1
            post_init(self)

        monkeypatch.setattr(walks.Walk, "__post_init__", counted)
        assert len(enumerate_walks(b, True)) == 587
        assert built == 587
        built = 0
        assert len(enumerate_walks(b, False)) == 19385
        assert built == 19385


@st.composite
def merge_key_pair(draw):
    """Two canonical keys on crossings 1-12 with one sign per crossing;
    half the draws move the second key past the first, so that their
    crossing ranges are disjoint."""
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=24, max_size=24))
    entry = st.tuples(
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
    ).filter(any)

    def key(offset):
        crossings = sorted(draw(st.sets(st.integers(1, 12), max_size=6)))
        return tuple(
            (j + offset, signs[j + offset - 1], *draw(entry)) for j in crossings
        )

    k1 = key(0)
    k2 = key(12 if draw(st.booleans()) else 0)
    return (k2, k1) if draw(st.booleans()) else (k1, k2)


class TestMergeShortcut:
    """The disjoint-range shortcut of _merge_keys against the merge loop."""

    merge = staticmethod(_merge_keys.__wrapped__)

    @settings(max_examples=300, deadline=None)
    @given(merge_key_pair())
    def test_matches_merge_loop(self, pair):
        assert self.merge(*pair) == reference_merge_keys(*pair)

    def test_empty_keys(self):
        k = ((2, 1, 1, 0, 0), (5, -1, 0, 1, 1))
        assert self.merge((), ()) == ((), 0)
        assert self.merge((), k) == (k, 0)
        assert self.merge(k, ()) == (k, 0)

    def test_disjoint_either_order(self):
        k1 = ((1, 1, 0, 1, 0), (2, -1, 1, 0, 0))
        k2 = ((3, 1, 1, 0, 0), (4, 1, 0, 0, 1))
        assert self.merge(k1, k2) == (k1 + k2, 0)
        assert self.merge(k2, k1) == (k1 + k2, 0)

    def test_touching_ranges_take_the_loop(self):
        # k1 ends and k2 starts at crossing 3: c a times b c there gives
        # b c^2 a with shift alpha + beta + gamma = -2 + 0 + 1 for sign +
        k1 = ((1, 1, 1, 0, 0), (3, 1, 0, 1, 1))
        k2 = ((3, 1, 1, 1, 0), (5, -1, 0, 0, 1))
        expected = (((1, 1, 1, 0, 0), (3, 1, 1, 2, 1), (5, -1, 0, 0, 1)), -1)
        assert self.merge(k1, k2) == expected
        assert reference_merge_keys(k1, k2) == expected

    def test_sign_mismatch_at_shared_crossing(self):
        k1 = ((1, 1, 1, 0, 0), (2, 1, 1, 0, 0))
        k2 = ((2, -1, 0, 1, 0), (4, 1, 0, 0, 1))
        for a, b in ((k1, k2), (k2, k1), (k1[1:], k2[:1])):
            with pytest.raises(ValueError, match="sign mismatch at crossing 2"):
                self.merge(a, b)


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
        assert walk_weight(b, FIG8) == from_words(
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
        C = walk_sum_C(FIG8)
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
        empty = from_words(ONE, {1: CrossingWord(1, "")})
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
    def test_packed_evaluation_matches_reference(self, text, strands, N):
        # every pruned power series_terms evaluates, also by dict loop
        b = parse_braid(text, strands)
        _, powers = recorded_series_terms(
            walk_sum_C(b), N, (strands - 1) * (N - 1)
        )
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


@st.composite
def synthetic_C(draw):
    """An operator polynomial with canonical keys on 1-6 slots, one sign per
    crossing, fields 0-4 and coefficients of up to three terms up to 2^70
    in size.

    Random terms almost never cancel in a product, so half the draws build
    a cancellation into C^2: D, the terms with nonempty keys doubled, plus
    the constant 1 and a term at the key K of some product x y whose
    coefficient is -[D'^2]_K / 2, D' being D without its term at K.  K is
    reached only by pairs from D' and by that term times 1 on either side,
    so the coefficient of C^2 at K is zero.
    """
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=6))
    big = st.sampled_from((1, 2, 3, 2**40 + 1, 2**70))
    coeff = st.dictionaries(
        st.integers(-3, 3),
        st.builds(lambda m, neg: -m if neg else m, big, st.booleans()),
        min_size=1,
        max_size=3,
    ).map(LaurentPolynomial)
    entry = st.tuples(
        st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
    ).filter(any)
    C = OperatorPolynomial.zero()
    for _ in range(draw(st.integers(1, 5))):
        used = draw(st.sets(st.integers(1, len(signs))))
        key = tuple(
            (j, signs[j - 1], *draw(entry)) for j in sorted(used)
        )
        C = C + OperatorPolynomial({key: draw(coeff)})
    if draw(st.booleans()):
        D = {k: c * 2 for k, c in C.terms.items() if k}
        if D:
            keys = sorted(D)
            x, y = draw(st.sampled_from(keys)), draw(st.sampled_from(keys))
            K = _merge_keys(x, y)[0]
            D.pop(K, None)
            D_sq = op_mul(OperatorPolynomial(D), OperatorPolynomial(D)).terms
            at_K = D_sq.get(K, LaurentPolynomial.zero())
            D[K] = LaurentPolynomial({e: -c // 2 for e, c in at_K.items()})
            D[()] = ONE
            C = OperatorPolynomial(D)
    return C


def term(key, coeff):
    return OperatorPolynomial({key: LaurentPolynomial(coeff)})


class TestPackedPowers:
    """The packed power loop of series_terms against the dict-loop
    reference_series_terms, power by power."""

    @settings(max_examples=300, deadline=None)
    @given(synthetic_C(), st.integers(2, 5), st.integers(0, 6))
    def test_matches_reference(self, C, N, n_max):
        assert_matches_reference(C, N, n_max)

    def test_knot_C(self):
        for text, strands, N in [
            ("1 -2 3 -4 1 -2 3 -4", 5, 4),
            ("1 2 3 1 2 3 1 2 3", 4, 4),
            ("1 -2 1 -2", 3, 5),
        ]:
            C = walk_sum_C(parse_braid(text, strands))
            assert_matches_reference(C, N, (strands - 1) * (N - 1))

    def test_coefficients_beyond_64_bits(self):
        # ||C||_1^n_max far above 2^64, and coefficients of the powers too
        C = walk_sum_C(FIG8).scaled(LaurentPolynomial({0: 2**40, 1: -3}))
        powers = assert_matches_reference(C, 5, 8)
        assert max(
            abs(c)
            for p in powers
            for coeff in p.terms.values()
            for _e, c in coeff.items()
        ) > 2**64

    def test_field_sums_need_n_max_bits(self):
        # fields 4 of C fit in 3 bits, the 8 and 12 of C^2 and C^3 do not
        C = term(((1, 1, 4, 0, 0), (2, -1, 0, 4, 0)), {0: 1}) + term(
            ((1, 1, 0, 0, 4),), {1: -1}
        )
        powers = assert_matches_reference(C, 5, 3)
        assert ((1, 1, 8, 0, 0), (2, -1, 0, 8, 0)) in powers[1].terms

    def test_shift_digits_need_2L(self):
        # six slots with r = 20 in C^5 against y + 3M = 20 each: the shift
        # digit reaches 6 * 20 * 20 = 2400, above the 2^10 that n_max*M*6M
        # alone would allow; d = 0 keeps every key alive
        C = term(tuple((j, -1, 4, 4, 0) for j in range(1, 7)), {0: 1})
        powers = assert_matches_reference(C, 5, 6)
        assert len(powers[5]) == 1

    def test_empty_key_term(self):
        C = term((), {0: 2, 1: -1}) + term(((1, -1, 0, 1, 2),), {1: 1})
        powers = assert_matches_reference(C, 4, 4)
        assert () in powers[3].terms

    def test_cancelling_key(self):
        # C^2 at key s = r = 1: x y + y x + e z + z e
        # = 2^70 (q^-2 + 1) - 2^70 (q^-2 + 1) = 0
        x = term(((1, 1, 0, 1, 0),), {0: 2**70})
        y = term(((1, 1, 1, 0, 0),), {0: 1})
        z = term(((1, 1, 1, 1, 0),), {-2: -(2**69), 0: -(2**69)})
        C = x + y + z + term((), {0: 1})
        powers = assert_matches_reference(C, 5, 2)
        assert ((1, 1, 1, 1, 0),) not in powers[1].terms
        assert ((1, 1, 1, 1, 0),) in op_mul(x + y, x + y).terms

    def test_zero_C(self):
        zero = OperatorPolynomial.zero()
        for n_max in (0, 1, 3):
            assert series_terms(zero, 2, n_max) == [ONE] + [
                LaurentPolynomial.zero()
            ] * n_max
            assert_matches_reference(zero, 2, n_max)

    def test_sign_mismatch(self):
        C = term(((1, 1, 1, 0, 0),), {0: 1}) + term(((1, -1, 0, 1, 0),), {0: 1})
        with pytest.raises(ValueError, match="sign mismatch at crossing 1"):
            op_mul(C, C)
        with pytest.raises(ValueError, match="sign mismatch at crossing 1"):
            series_terms(C, 3, 2)
        # C^1 multiplies nothing at one crossing
        assert_matches_reference(C, 3, 1)


class TestCancellation:
    @pytest.mark.parametrize(
        "text,strands",
        [("1 -2 1 -2", 3), ("1 1 1", 2), ("", 1), ("1 2 1 2", 3), ("-1 2 -1 2", 3)],
    )
    def test_pairing(self, text, strands):
        assert cancellation_pairing(parse_braid(text, strands))
