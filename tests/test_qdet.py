import ast
import time
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import braidwalks
from braidwalks import (
    BraidWord,
    C_qdet,
    LaurentPolynomial,
    OperatorMatrix,
    OperatorPolynomial,
    enumerate_paths,
    op_mul,
    parse_braid,
    rho,
    walk_sum_C,
    walk_weight,
)
from braidwalks.qdet import _transfer, quantum_minors
from corpus_util import (
    LONG,
    det_q,
    differential_words,
    from_words,
    identity_matrix,
    knot_closure_words,
    local_matrix,
    reference_C_qdet,
    reference_rho,
    submatrix,
)
from oracles import CrossingWord, matrix_is_right_quantum, right_quantum_check

FIG8 = parse_braid("1 -2 1 -2", 3)
ONE = LaurentPolynomial.one()


def letter_poly(j, sign, letter):
    return from_words(ONE, {j: CrossingWord(sign, letter)})


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
                poly = from_words(
                    ONE,
                    {
                        j: CrossingWord(b.letters[j - 1][1], letter)
                        for j, letter in p.letters
                    },
                )
                by_end[p.end] = by_end.get(p.end, OperatorPolynomial.zero()) + poly
            for end in range(1, strands + 1):
                expected = by_end.get(end, OperatorPolynomial.zero())
                assert M[end - 1, start - 1] == expected

    def test_matches_full_matrix_products(self):
        # the size-1 minors of the transfer against the fold of full local
        # matrices
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


def nonempty_subsets(strands):
    return [
        S
        for size in range(1, len(strands) + 1)
        for S in combinations(strands, size)
    ]


class TestQuantumMinors:
    @pytest.mark.parametrize(
        "text,strands",
        [
            ("1 -2 1 -2", 3),
            ("1 2 1 2 1 2 1 2", 3),
            ("1 1 1 2 -1 2", 3),
            ("1 2 3 1 2 3 1 2 3", 4),
            ("-1 2 -3 -2 1 3 -2", 4),
            ("2 -1 -3 2 1 -2 3 3", 4),
            ("1 -2 3 -4 1 -2 3 -4", 5),
        ],
    )
    def test_every_prefix_minor_is_det_q(self, text, strands):
        # the transfer's invariant, checked after every crossing: each
        # stored minor (I, K) is det_q of that submatrix of the full
        # product of local matrices, and every minor left out is zero
        b = parse_braid(text, strands)
        row_sets = nonempty_subsets(range(1, strands + 1))
        for k in range(len(b) + 1):
            prefix = BraidWord(strands, b.letters[:k])
            minors = quantum_minors(prefix, row_sets)
            R = reference_rho(prefix)
            for I in row_sets:
                rows = [i - 1 for i in I]
                for K in combinations(range(1, strands + 1), len(I)):
                    expected = det_q(submatrix(R, rows, [c - 1 for c in K]))
                    got = minors.get((I, K), OperatorPolynomial.zero())
                    assert got == expected, (text, k, I, K)
            assert all(minor for minor in minors.values())


class TestCqdet:
    def test_fig8_matches_walks(self):
        assert C_qdet(FIG8) == walk_sum_C(FIG8)

    def test_matches_reference_on_corpus(self):
        for b in knot_closure_words():
            assert C_qdet(b) == reference_C_qdet(b), b.serialize()

    def test_matches_reference_and_walks_on_differential_words(self):
        for b in differential_words():
            C = C_qdet(b)
            assert C == reference_C_qdet(b), b.serialize()
            assert C == walk_sum_C(b), b.serialize()

    def test_nineteen_crossing_four_strand_word(self):
        # the permutation sum over rho took about 9 s here
        b = parse_braid(
            "-2 2 -3 2 3 3 -1 -2 3 -1 -2 -2 3 -1 -2 -1 3 -1 -3", 4
        )
        start = time.process_time()
        C = C_qdet(b)
        elapsed = time.process_time() - start
        assert len(C) == 466
        assert C == walk_sum_C(b)
        assert elapsed < 1.0

    def test_long_word_beyond_recursion_limit(self):
        # each key holds about 1201 entries, one step of the transfer each,
        # so a reader that recursed once per step would fail here
        C = C_qdet(LONG)
        assert len(C) == 1200
        assert C == walk_sum_C(LONG)

    def test_one_step_list_per_minor_and_crossing(self):
        # a crossing adds at most one step list per minor it touches and
        # never copies a term: the lists reachable from the result are
        # bounded by the minors times the crossings, not by the terms
        row_sets = nonempty_subsets(range(2, LONG.strands + 1))
        minors = _transfer(LONG, row_sets)
        seen = set()
        todo = list(minors.values())
        while todo:
            steps = todo.pop()
            if id(steps) not in seen:
                seen.add(id(steps))
                todo.extend(prior for prior, *_ in steps if prior is not None)
        pairs = sum(comb(LONG.strands, len(I)) for I in row_sets)
        assert len(seen) <= pairs * (len(LONG) + 1)

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


def imported_names(module: str) -> set[str]:
    """The absolute names a module of the package imports, each module and
    each name taken from it, read from its source with ast."""
    tree = ast.parse(Path(braidwalks.__file__).with_name(f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ["braidwalks", base]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["qdet", "qops"])
def test_no_import_from_the_walk_engine(module):
    # qdet is the second opinion on C and qops the crossing algebra both
    # pipelines share: neither may lean on the walk engine
    names = imported_names(module)
    assert "braidwalks.laurent" in names  # relative imports are resolved
    assert not {
        n for n in names if n == "braidwalks.walks" or n.startswith("braidwalks.walks.")
    }


def test_only_qops_reads_the_commutation_table():
    # the q-commutation rule and the packed key layout have one home: no
    # other module may import the table or the dead-partner index
    package = Path(braidwalks.__file__).parent
    for module in sorted(p.stem for p in package.glob("*.py")):
        if module != "qops":
            names = imported_names(module)
            assert not {
                n for n in names
                if n.rsplit(".", 1)[-1] in {"_MERGE_EXP", "_dead_partners"}
            }, module
