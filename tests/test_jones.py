import pytest

from braidwalks import (
    BraidWord,
    LaurentPolynomial,
    NotAKnotError,
    bracket_jones_oracle,
    colored_jones,
    figure_eight_closed_form,
    jones,
    parse_braid,
    positive_braid_report,
    qbinomial,
)

FIG8 = parse_braid("1 -2 1 -2", 3)
TREFOIL = parse_braid("1 1 1", 2)
FIG8_JONES = LaurentPolynomial({-2: 1, -1: -1, 0: 1, 1: -1, 2: 1})
TREFOIL_JONES = LaurentPolynomial({1: 1, 3: 1, 4: -1})


class TestColoredJones:
    def test_fig8_N2(self):
        result = colored_jones(FIG8, 2, "both")
        assert result.polynomial == FIG8_JONES
        assert result.framing_exponent == -1

    def test_unknot(self):
        for N in (2, 3, 5):
            assert colored_jones(BraidWord(1, ()), N).polynomial == LaurentPolynomial.one()

    def test_trefoil_N2(self):
        assert colored_jones(TREFOIL, 2, "both").polynomial == TREFOIL_JONES

    def test_methods_agree(self):
        for N in (2, 3):
            w = colored_jones(FIG8, N, "walks").polynomial
            q = colored_jones(FIG8, N, "qdet").polynomial
            assert w == q

    def test_rejects_links_and_bad_color(self):
        with pytest.raises(NotAKnotError):
            colored_jones(parse_braid("1 1", 2), 2)
        with pytest.raises(ValueError):
            colored_jones(FIG8, 1)
        with pytest.raises(ValueError):
            colored_jones(FIG8, 2, "magic")

    def test_odd_framing_exponent_raises(self, monkeypatch):
        # past the knot test, the Hopf link's odd (N-1)(w-m+1) is still
        # refused by an explicit check, not an assert
        monkeypatch.setattr(jones, "is_knot_closure", lambda b: True)
        with pytest.raises(NotAKnotError, match="odd framing exponent"):
            colored_jones(parse_braid("1 1", 2), 2)


class TestBracketOracle:
    def test_fig8(self):
        assert bracket_jones_oracle(FIG8) == FIG8_JONES

    def test_trefoil_chirality(self):
        poly = bracket_jones_oracle(TREFOIL)
        assert poly == TREFOIL_JONES
        assert poly.valuation() == 1
        assert poly.coefficient(1) == 1

    def test_unknot_presentations(self):
        one = LaurentPolynomial.one()
        assert bracket_jones_oracle(BraidWord(1, ())) == one
        assert bracket_jones_oracle(parse_braid("1", 2)) == one
        assert bracket_jones_oracle(parse_braid("-1", 2)) == one

    def test_matches_engine_on_samples(self):
        for text, strands in [("-1 2 -1 2", 3), ("-1 -1 -1", 2), ("1 2 1 2", 3)]:
            b = parse_braid(text, strands)
            assert bracket_jones_oracle(b) == colored_jones(b, 2, "walks").polynomial

    def test_rejects_links(self):
        with pytest.raises(NotAKnotError):
            bracket_jones_oracle(parse_braid("1 1", 2))


class TestClosedForm:
    def test_N2(self):
        assert figure_eight_closed_form(2) == FIG8_JONES

    def test_matches_engine(self):
        for N in range(2, 6):
            assert figure_eight_closed_form(N) == colored_jones(FIG8, N, "walks").polynomial


class TestQBinomial:
    def test_edge_cases(self):
        one = LaurentPolynomial.one()
        for n in range(5):
            assert qbinomial(n, 0) == one
            assert qbinomial(n, n) == one

    def test_2_choose_1(self):
        assert qbinomial(2, 1) == LaurentPolynomial({0: 1, 1: 1})

    def test_symmetry(self):
        for n in range(7):
            for k in range(n + 1):
                assert qbinomial(n, k) == qbinomial(n, n - k)

    def test_pascal_recursion(self):
        for n in range(1, 7):
            for k in range(1, n):
                assert qbinomial(n, k) == qbinomial(n - 1, k - 1) + qbinomial(
                    n - 1, k
                ).shifted(k)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            qbinomial(2, 3)
        with pytest.raises(ValueError):
            qbinomial(2, -1)


class TestPositiveBraidReport:
    def test_trefoil_N3(self):
        report = positive_braid_report(TREFOIL, 3)
        assert report.L_N == 2
        assert report.verdict

    def test_torus_knot_T34_N2(self):
        b = parse_braid("1 2 1 2 1 2 1 2", 3)
        report = positive_braid_report(b, 2)
        assert report.L_N == 3
        assert report.verdict

    def test_rejects_negative_letters(self):
        with pytest.raises(ValueError):
            positive_braid_report(FIG8, 2)


def conjugate(b, gen, sign):
    return BraidWord(b.strands, ((gen, sign),) + b.letters + ((gen, -sign),))


def stabilize(b, sign):
    return BraidWord(b.strands + 1, b.letters + ((b.strands, sign),))


class TestMarkovInvariance:
    @pytest.mark.parametrize("base", [TREFOIL, FIG8])
    def test_conjugation(self, base):
        for N in (2, 3):
            reference = colored_jones(base, N, "walks").polynomial
            for gen in range(1, base.strands):
                for sign in (1, -1):
                    moved = conjugate(base, gen, sign)
                    assert colored_jones(moved, N, "walks").polynomial == reference

    @pytest.mark.parametrize("base", [TREFOIL, FIG8])
    def test_stabilization(self, base):
        for N in (2, 3):
            reference = colored_jones(base, N, "walks").polynomial
            for sign in (1, -1):
                moved = stabilize(base, sign)
                assert colored_jones(moved, N, "walks").polynomial == reference
