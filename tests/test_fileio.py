"""Round trips and error reporting for the text formats."""

import numpy as np
import pytest

from gcnet.combnet import LinearSolution, NetworkParams, random_solution_search, verify_solution
from gcnet.ffield import field_from_size
from gcnet.fileio import (
    FileFormatError,
    parse_code,
    parse_params,
    parse_solution,
    render_code,
    render_solution,
)
from gcnet.grasscode import is_covering_code
from gcnet.rankmetric import covering_code_from_mrd


# Matrix blocks are read as the coding matrices of a solution.  This
# head is a solution's header line and its first block (lines 1-3); the
# block under test is its second and last matrix, from line 4 on.
SOLUTION_HEAD = "2 2 2 1 0 2 1\n1 2 2\n1 0\n"


def same_solution(a, b):
    return (a.params, a.field, a.t) == (b.params, b.field, b.t) and \
        np.array_equal(a.matrices, b.matrices)


def test_matrix_round_trip():
    rng = np.random.default_rng(1)
    p = NetworkParams(h=5, r=2, alpha=2, ell=3, epsilon=0)
    for q in (2, 3, 9):
        f = field_from_size(q)
        mats = rng.integers(0, q, size=(p.r, 3, 5))
        sol = LinearSolution(params=p, field=f, t=1, matrices=mats)
        assert np.array_equal(parse_solution(render_solution(sol)).matrices, mats)


def test_matrix_zero_rows():
    # a block of zero rows is well formed: only the solution's shape
    # check, reported at the header line, refuses it
    with pytest.raises(FileFormatError) as err:
        parse_solution(SOLUTION_HEAD + "0 2 2\n")
    assert str(err.value) == "matrix 1 has shape 0x2, expected 1x2 (line 1)"


def test_matrix_headers_and_comments():
    sol = parse_solution(SOLUTION_HEAD + "1 2 2\n0 1\n")
    text = render_solution(sol, header=["tool x", "seed 3"])
    assert text.startswith("# tool x\n# seed 3\n")
    commented = "# hello\n\n" + SOLUTION_HEAD + "1 2 2\n# mid comment\n0 1\n"
    assert same_solution(parse_solution(commented), sol)


@pytest.mark.parametrize("text,line", [
    ("1 2\n1 0\n", 1),            # short header
    ("1 2 2\n1\n", 2),            # short row
    ("1 2 2\nx y\n", 2),          # not integers
    ("1 2 6\n1 0\n", 1),          # not a prime power
    ("1 2 2\n1 5\n", 2),          # entry out of range
    ("1 2 2\n", 1),               # truncated
    ("1 2 2\n1 0\n1 1\n", 3),     # trailing content
])
def test_matrix_errors_carry_line_numbers(text, line):
    # ``line`` counts from the block's own first line
    line += SOLUTION_HEAD.count("\n")
    with pytest.raises(FileFormatError) as err:
        parse_solution(SOLUTION_HEAD + text)
    assert err.value.line == line
    assert f"line {line}" in str(err.value)


def test_code_round_trip():
    code = covering_code_from_mrd(3, 1, 1, 2, 2)
    back = parse_code(render_code(code))
    assert (back.field, back.n, back.k, back.delta, back.alpha) == \
        (code.field, code.n, code.k, code.delta, code.alpha)
    assert np.array_equal(back.codewords, code.codewords)
    ok, _ = is_covering_code(back)
    assert ok


def test_code_block_rank_check():
    text = "3 2 1 2 2 2\n1 0 0\n1 0 0\n0 1 0\n0 0 1\n"
    with pytest.raises(FileFormatError) as err:
        parse_code(text)
    assert "rank" in str(err.value)
    assert err.value.line == 3


def test_code_truncated_block():
    with pytest.raises(FileFormatError):
        parse_code("3 1 1 2 2 2\n1 0 0\n")


@pytest.mark.parametrize("text,line,message", [
    ("3 1 1 2 2 1\n1 0 0\n0 1 0\n", 3, "trailing content after code"),
    ("3 1 1 2 2 1\n1 0 2\n", 2, "entries out of range for GF(2)"),
])
def test_code_errors_carry_line_numbers(text, line, message):
    with pytest.raises(FileFormatError) as err:
        parse_code(text)
    assert err.value.line == line
    assert str(err.value) == f"{message} (line {line})"


@pytest.mark.parametrize("text,message", [
    ("-3 0 1 2 2 2\n", "bad ambient/dimension pair (n=-3, k=0)"),
    ("3 -1 1 2 2 2\n", "bad ambient/dimension pair (n=3, k=-1)"),
    ("3 4 1 2 2 1\n1 0 0\n", "bad ambient/dimension pair (n=3, k=4)"),
    ("3 1 -1 2 2 2\n1 0 0\n0 1 0\n", "delta must be >= 0, got -1"),
], ids=["negative-n", "negative-k", "k-above-n", "negative-delta"])
def test_code_bad_dimensions_point_at_header(text, message):
    # the header shapes the code's array, so a bad shape is refused before
    # any block; every header error names the header's line
    with pytest.raises(FileFormatError) as err:
        parse_code(text)
    assert str(err.value) == f"{message} (line 1)"


@pytest.mark.parametrize("parse", [parse_code, parse_solution], ids=["code", "solution"])
def test_empty_file_ends_at_line_one(parse):
    # line numbers are 1-based, also for a file with no lines
    with pytest.raises(FileFormatError) as err:
        parse("")
    assert str(err.value) == "unexpected end of file (line 1)"


def test_code_negative_count_points_at_header():
    with pytest.raises(FileFormatError) as err:
        parse_code("# comment\n2 1 1 2 2 -1\n")
    assert "count" in str(err.value)
    assert err.value.line == 2


def test_solution_round_trip():
    p = NetworkParams(h=3, r=3, alpha=2, ell=1, epsilon=1)
    sol = random_solution_search(p, field_from_size(11), t=1, trials=1000, seed=0)
    assert sol is not None
    back = parse_solution(render_solution(sol, header=["seed 0"]))
    assert same_solution(back, sol)
    ok, _ = verify_solution(back)
    assert ok


def test_solution_field_mismatch():
    p = NetworkParams(h=2, r=2, alpha=2, ell=1, epsilon=0)
    text = "2 2 2 1 0 2 1\n1 2 2\n1 0\n1 2 3\n1 0\n"
    with pytest.raises(FileFormatError) as err:
        parse_solution(text)
    assert "GF(3)" in str(err.value)


def test_solution_bad_params_line():
    with pytest.raises(FileFormatError) as err:
        parse_solution("2 1 2 1 0 2 1\n1 2 2\n1 0\n")
    assert err.value.line == 1


@pytest.mark.parametrize("text,line,message", [
    ("2 2 2 1 0 2 1\n1 2 2\n1 0\n1 2 2\n0 1\n0 1\n", 6, "trailing content after solution"),
    ("2 2 2 1 0 2 1\n1 2 2\n1 0\n-1 2 2\n", 4, "matrix shape must be non-negative"),
    # a block's field is checked as it is read, the blocklength and then
    # each block's shape only once every block is read
    ("2 2 2 1 0 2 1\n1 2 2\n1 0\n1 2 3\n1 0\n5\n", 5, "matrix 1 is over GF(3), expected GF(2)"),
    ("2 2 2 1 0 2 0\n1 2 2\n1 0\n1 2 2\n0 1\n", 1, "blocklength t must be >= 1"),
    ("2 2 2 1 0 2 2\n1 2 2\n1 0\n1 2 2\n0 1\n", 1, "matrix 0 has shape 1x2, expected 2x4"),
])
def test_solution_errors_carry_line_numbers(text, line, message):
    with pytest.raises(FileFormatError) as err:
        parse_solution(text)
    assert err.value.line == line
    assert str(err.value) == f"{message} (line {line})"


def test_params_errors():
    with pytest.raises(FileFormatError):
        parse_params("[1, 2]")
    with pytest.raises(FileFormatError) as err:
        parse_params('{"h": 2, "r": 3}')
    assert "alpha" in str(err.value)
    with pytest.raises(FileFormatError):
        parse_params("{not json")
    with pytest.raises(FileFormatError):
        parse_params('{"h": 0, "r": 3, "alpha": 2, "ell": 1, "epsilon": 0}')
    # JSON integers only: no float is truncated, no bool or string converted
    for key, bad in (("h", "3.9"), ("h", "3.0"), ("ell", "true"), ("epsilon", '"1"'),
                     ("r", "null")):
        fields = {"h": "3", "r": "4", "alpha": "2", "ell": "1", "epsilon": "1", key: bad}
        text = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        with pytest.raises(FileFormatError) as err:
            parse_params(text)
        assert key in str(err.value)


def test_render_is_deterministic():
    code = covering_code_from_mrd(3, 1, 1, 2, 2)
    assert render_code(code, header=["a"]) == render_code(code, header=["a"])
