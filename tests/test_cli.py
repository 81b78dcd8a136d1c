import json
import time
from pathlib import Path

import pytest

from braidwalks import OperatorPolynomial, PipelineMismatchError, jones, parse_braid
from braidwalks.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_fig8_text(capsys):
    code, out, err = run(
        capsys, "compute", "--braid", "1 -2 1 -2", "--strands", "3", "--color", "2"
    )
    assert code == 0
    assert out.strip() == "q^-2 - q^-1 + 1 - q + q^2"


def test_compute_json_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "compute", "--braid", "1 1 1", "--strands", "2", "--color", "2",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["braid"] == {"strands": 2, "word": [1, 1, 1]}
    assert data["N"] == 2
    assert data["method"] == "both"
    assert data["framing_exponent"] == 1
    assert data["polynomial"] == {"1": 1, "3": 1, "4": -1}


def test_compute_deterministic(capsys):
    args = ("compute", "--braid", "1 -2 1 -2", "--strands", "3", "--color", "2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_non_knot_exit_code(capsys):
    code, out, err = run(
        capsys, "compute", "--braid", "1 1", "--strands", "2", "--color", "2"
    )
    assert code == 1
    assert "not a knot" in err


def test_huge_strand_count_exits_fast(capsys):
    # one letter cannot close 10^9 strands into a knot; the answer must not
    # wait on a permutation of every strand
    start = time.perf_counter()
    code, out, err = run(
        capsys, "compute", "--braid", "1", "--strands", "1000000000", "--color", "2"
    )
    elapsed = time.perf_counter() - start
    assert (code, out) == (1, "")
    assert "not a knot" in err
    assert elapsed < 1.0


def test_bad_word_exit_code(capsys):
    code, _, err = run(
        capsys, "compute", "--braid", "1 5", "--strands", "3", "--color", "2"
    )
    assert code == 1
    assert "out of range" in err


def test_check_positive_json(capsys):
    code, out, _ = run(
        capsys, "check-positive", "--braid", "1 1 1", "--strands", "2", "--color", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["L_N"] == 2
    assert data["verdict"] is True


def test_check_positive_rejects_negative_word(capsys):
    code, _, err = run(
        capsys,
        "check-positive", "--braid", "1 -2 1 -2", "--strands", "3", "--color", "2",
    )
    assert code == 1
    assert "not positive" in err


def test_walks_dump(capsys):
    code, out, _ = run(capsys, "walks", "--braid", "1 -2 1 -2", "--strands", "3")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 2
    by_J = {tuple(entry["J"]): entry for entry in data}
    assert by_J[(3,)]["weight"] == [
        {
            "coeff": {"1": 1},
            "crossings": [
                {"crossing": 2, "sign": -1, "b": 0, "c": 0, "a": 1},
                {"crossing": 4, "sign": -1, "b": 0, "c": 0, "a": 1},
            ],
        }
    ]
    walk_b = by_J[(2, 3)]
    # crossing 4 carries the word bc: b from the start-2 path, then c
    assert [p["letters"]["4"] for p in walk_b["paths"]] == ["b", "c"]
    assert walk_b["weight"] == [
        {
            "coeff": {"3": 1},
            "crossings": [
                {"crossing": 1, "sign": 1, "b": 0, "c": 1, "a": 0},
                {"crossing": 2, "sign": -1, "b": 0, "c": 0, "a": 1},
                {"crossing": 3, "sign": 1, "b": 1, "c": 0, "a": 0},
                {"crossing": 4, "sign": -1, "b": 1, "c": 1, "a": 0},
            ],
        }
    ]


def test_walks_on_many_strands_exits_fast(capsys):
    # the word 1 leaves every start above 2 on its own strand, so most ends
    # of a start set have no path: the search must not visit each of the
    # permutations of {2..12} that contain one
    start = time.perf_counter()
    code, out, _ = run(capsys, "walks", "--braid", "1", "--strands", "12")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert len(json.loads(out)) == 1023
    assert elapsed < 10.0


def test_matrix_dump(capsys):
    code, out, _ = run(capsys, "matrix", "--braid", "1", "--strands", "2")
    assert code == 0
    grid = json.loads(out)
    assert len(grid) == 2 and len(grid[0]) == 2
    # top-left entry is the single letter a at crossing 1
    assert grid[0][0] == [
        {"coeff": {"0": 1}, "crossings": [{"crossing": 1, "sign": 1, "b": 0, "c": 0, "a": 1}]}
    ]
    assert grid[1][1] == []


@pytest.mark.parametrize("subcommand", ["walks", "matrix"])
def test_json_only_subcommands_reject_format(capsys, subcommand):
    # walks and matrix always print JSON, so --format is a usage error,
    # which exits 1 like any bad input
    code, out, err = run(
        capsys, subcommand, "--braid", "1 -2 1 -2", "--strands", "3", "--format", "text"
    )
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --format" in err


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "compute", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: braidwalks compute")


def test_oracle_subcommand(capsys):
    code, out, _ = run(capsys, "oracle", "--braid", "1 1 1", "--strands", "2")
    assert code == 0
    assert out.strip() == "q + q^3 - q^4"


def test_pipeline_mismatch_exit_code(capsys, monkeypatch):
    real = jones.C_qdet

    def C_qdet_missing_a_term(b):
        terms = real(b).terms
        del terms[min(terms)]
        return OperatorPolynomial(terms)

    monkeypatch.setattr(jones, "C_qdet", C_qdet_missing_a_term)
    with pytest.raises(PipelineMismatchError):
        jones.colored_jones(parse_braid("1 -2 1 -2", 3), 2)
    code, out, err = run(
        capsys, "compute", "--braid", "1 -2 1 -2", "--strands", "3", "--color", "2"
    )
    assert code == 2
    assert out == ""
    assert "internal consistency failure" in err


GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_output_matches_golden(capsys, case):
    # every README example, a few larger dumps, the empty word on one
    # strand and one case per single-fault input, as recorded from an
    # earlier commit: a refactor leaves the CLI's output byte-identical, and
    # a change meant to alter an output updates its case here
    assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])
