"""Tests of the benchmark's own references and checks.

Run from the repository root:  python3 -m pytest -q perfbench/test_checkers.py
"""

import os
import random
import sys
from itertools import product

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference as ref  # noqa: E402
import workloads as wk  # noqa: E402
from gcnet.ffield import field_from_size  # noqa: E402
from gcnet.linalg import count_rank_matrices  # noqa: E402
from reference import CheckError  # noqa: E402


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("size", [2, 3])
def test_reference_rank_reproduces_rank_counts(q, size):
    counts = [0] * (size + 1)
    for entries in product(range(q), repeat=size * size):
        rows = [entries[i * size:(i + 1) * size] for i in range(size)]
        counts[ref.rank(rows, q)] += 1
    assert counts == [count_rank_matrices(size, size, s, q) for s in range(size + 1)]


@pytest.mark.parametrize("q", [4, 16])
def test_reference_field_follows_the_file_encoding(q):
    f = ref.ref_field(q)
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
    table = field_from_size(q).mul_table
    assert all(f.mul(a, b) == int(table[a, b]) for a in range(q) for b in range(q))


def test_closed_forms_at_the_oracle_points():
    assert [ref.max_code_size(*p) for p in wk.ORACLE_POINTS] == [35, 5, 26, 57, 42, 8]
    assert ref.ref_qs(*wk.QS_NETWORK) == 3
    assert ref.ref_qv(*wk.QV_NETWORK) == 5


def _mrd_code_text():
    from gcnet.fileio import render_code
    from gcnet.rankmetric import covering_code_from_mrd

    return render_code(covering_code_from_mrd(4, 2, 1, 3, 2))


def test_corrupted_code_is_flagged(tmp_path):
    text = _mrd_code_text()
    path = tmp_path / "c.code"
    path.write_text(text)
    header = (4, 2, 1, 3, 2, 32)
    wk.Checks().covering_file(str(path), header)
    code = ref.parse_code_text(text)
    code["words"][5] = code["words"][2]
    code["words"][9] = code["words"][2]
    path.write_text(ref.render_code_text(4, 2, 1, 3, 2, code["words"]))
    with pytest.raises(CheckError, match="fails at codewords"):
        wk.Checks().covering_file(str(path), header)


def test_wrong_witness_is_flagged(tmp_path):
    code = ref.parse_code_text(_mrd_code_text())
    code["words"][7] = code["words"][3]
    text = ref.render_code_text(4, 2, 1, 3, 2, code["words"])
    path = tmp_path / "c.code"
    path.write_text(text)
    sel, dim = ref.worst_code_witness(ref.parse_code_text(text))
    assert dim == 2 and sel[0] == 3
    op = wk._code_verdict_op(str(path), wk.Checks())
    labels = [i + 1 for i in sel]
    op.check(wk.Outcome(1, f"FAIL: codewords {labels[0]},{labels[1]},{labels[2]} span 2 < 3\n"))
    with pytest.raises(CheckError):
        op.check(wk.Outcome(1, f"FAIL: codewords {labels[0]},{labels[1]},{labels[2] + 1} span 2 < 3\n"))
    with pytest.raises(CheckError):
        op.check(wk.Outcome(0, "OK: every 3 of 32 codewords span >= 3\n"))


def test_corrupted_solution_is_flagged(tmp_path):
    net = (3, 6, 2, 1, 1, 4, 1)
    mats = wk.random_solution(random.Random(5), *net)
    path = tmp_path / "s.sol"
    path.write_text(ref.render_solution_text(*net, mats))
    wk.Checks().solution_file(str(path), net)
    mats[4] = mats[1]
    path.write_text(ref.render_solution_text(*net, mats))
    with pytest.raises(CheckError, match=r"receiver \(1, 4\)"):
        wk.Checks().solution_file(str(path), net)


def test_corrupted_decoded_message_is_flagged():
    message = [[3, 1], [0, 2], [1, 1]]
    rounds = [(message, [[row[:] for row in message] for _ in range(10)])]
    wk.check_decoded(rounds, 1, 10, 3, 2, 4)
    rounds[0][1][7][2][0] = 2
    with pytest.raises(CheckError, match="receiver 7"):
        wk.check_decoded(rounds, 1, 10, 3, 2, 4)


def test_misplaced_bound_is_flagged():
    head = "h,ell,eps,alpha,q,t,r,name,value,valid,assumptions\n"
    ok = head + '4,2,1,2,2,1,,middle_ub_exact,40,true,""\n4,2,1,2,2,1,,middle_lb_mrd,16,true,""\n'
    wk.check_bound_rows(ok, 35)
    with pytest.raises(CheckError, match="middle_lb_mrd"):
        wk.check_bound_rows(ok.replace(",16,", ",36,"), 35)
    with pytest.raises(CheckError, match="middle_ub_exact"):
        wk.check_bound_rows(ok.replace(",40,", ",69/2,"), 35)


def test_uncertified_search_is_flagged():
    op = wk._oracle_op((4, 2, 2, 2, 2), "unused", wk.Checks())
    with pytest.raises(CheckError, match="certify"):
        op.check(wk.Outcome(0, "B = 5 (lower bound), nodes=10\n"))


def test_known_fault_is_exact():
    op = wk._bounds_op((3, 1, 1, 3, 3))
    head = "h,ell,eps,alpha,q,t,r,name,value,valid,assumptions\n"
    known = head + '3,1,1,3,3,1,,middle_ub_pairwise,13,true,""\n'
    with pytest.raises(CheckError) as exc:
        op.check(wk.Outcome(0, known))
    assert str(exc.value) == op.fault
    both = known + '3,1,1,3,3,1,,middle_lb_mrd,27,true,""\n'
    with pytest.raises(CheckError) as exc:
        op.check(wk.Outcome(0, both))
    assert "middle_lb_mrd=27 > 26" in str(exc.value) and str(exc.value) != op.fault
    moved = known.replace(",13,", ",14,")
    with pytest.raises(CheckError) as exc:
        op.check(wk.Outcome(0, moved))
    assert str(exc.value) != op.fault
