import pytest
from hypothesis import given, strategies as st

from braidwalks import (
    BraidWord,
    is_knot_closure,
    parse_braid,
    underlying_permutation,
    writhe,
)
from braidwalks import braid

FIG8 = parse_braid("1 -2 1 -2", 3)


def test_parse_figure_eight():
    assert FIG8.strands == 3
    assert FIG8.letters == ((1, 1), (2, -1), (1, 1), (2, -1))


def test_parse_empty_and_trefoil():
    assert parse_braid("", 1) == BraidWord(1, ())
    assert parse_braid("1 1 1", 2).letters == ((1, 1), (1, 1), (1, 1))


@pytest.mark.parametrize(
    "text,strands",
    [("x", 2), ("0", 2), ("2", 2), ("-3", 3)],
)
def test_parse_rejects_bad_tokens(text, strands):
    with pytest.raises(ValueError):
        parse_braid(text, strands)


def test_parse_rejects_bad_strands():
    with pytest.raises(ValueError):
        parse_braid("1", 0)


def test_writhe():
    assert writhe(FIG8) == 0
    assert writhe(BraidWord(1, ())) == 0
    assert writhe(parse_braid("1 1 1", 2)) == 3


def test_underlying_permutation():
    assert underlying_permutation(parse_braid("1 1 1", 2)) == (2, 1)
    # expected 3-cycle computed by composing the transpositions
    # (1 2), (2 3), (1 2), (2 3) bottom-up
    assert underlying_permutation(FIG8) == (3, 1, 2)
    assert underlying_permutation(BraidWord(1, ())) == (1,)


def test_is_knot_closure():
    assert is_knot_closure(FIG8)
    assert not is_knot_closure(parse_braid("1 1", 2))  # Hopf link
    assert is_knot_closure(BraidWord(1, ()))


def test_short_word_is_rejected_before_the_permutation(monkeypatch):
    # an m-cycle needs at least m - 1 transpositions, so a shorter word is
    # no knot closure, answered without a permutation over every strand
    def refuse(b):
        raise AssertionError("underlying_permutation was built")

    monkeypatch.setattr(braid, "underlying_permutation", refuse)
    assert not is_knot_closure(BraidWord(10**9, ((1, 1),)))
    assert not is_knot_closure(parse_braid("1 -2", 4))


def test_serialize_round_trip():
    text = "1 -2 1 -2"
    assert parse_braid(text, 3).serialize() == text
    assert parse_braid(FIG8.serialize(), 3) == FIG8


def test_json_round_trip():
    data = FIG8.to_json()
    assert data == {"strands": 3, "word": [1, -2, 1, -2]}
    assert BraidWord.from_json(data) == FIG8


words = st.integers(2, 4).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(
            st.tuples(st.integers(1, m - 1), st.sampled_from((-1, 1))), max_size=8
        ),
    )
).map(lambda t: BraidWord(t[0], tuple(t[1])))


@given(words)
def test_knot_closure_writhe_parity(b):
    if is_knot_closure(b):
        assert (writhe(b) - (b.strands - 1)) % 2 == 0


@given(words)
def test_knot_closure_is_one_cycle(b):
    # is_knot_closure, its early answer for short words included, against
    # the cycle of strand 1 followed through the permutation
    perm = underlying_permutation(b)
    pos, length = perm[0], 1
    while pos != 1:
        pos, length = perm[pos - 1], length + 1
    assert is_knot_closure(b) == (length == b.strands)


@given(words, words)
def test_permutation_of_concatenation_composes(b1, b2):
    if b1.strands != b2.strands:
        return
    p1 = underlying_permutation(b1)
    p2 = underlying_permutation(b2)
    combined = underlying_permutation(BraidWord(b1.strands, b1.letters + b2.letters))
    # walking bottom-up, the lower word b2 acts first
    composed = tuple(p1[p2[i] - 1] for i in range(b1.strands))
    assert combined == composed
