"""Command-line behavior: exit codes, artifacts, determinism."""

import json
import subprocess
import sys

import pytest

from gcnet.cli import main
from gcnet.combnet import NetworkParams
from gcnet.fileio import parse_code, parse_solution, render_params, render_solution
from gcnet.ffield import field_from_size
from gcnet.linalg import MatrixQ
from gcnet.combnet import LinearSolution


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", "--h", "3", "--r", "4", "--alpha", "2",
                       "--ell", "1", "--eps", "1")
    assert code == 0
    assert "NONTRIVIAL" in out
    assert "receivers=6" in out


def test_classify_from_params_file(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(render_params(NetworkParams(h=2, r=4, alpha=2, ell=1, epsilon=1)))
    code, out, _ = run(capsys, "classify", "--params", str(path))
    assert code == 0
    assert "TRIVIAL" in out


def test_classify_missing_flags_is_usage_error(capsys):
    code, _, err = run(capsys, "classify", "--h", "3")
    assert code == 2


def test_construct_then_verify(tmp_path, capsys):
    out_file = tmp_path / "code.txt"
    code, out, _ = run(capsys, "construct", "--n", "3", "--k", "1", "--delta", "1",
                       "--alpha", "2", "--q", "2", "-o", str(out_file))
    assert code == 0
    assert "size=4" in out
    code, out, _ = run(capsys, "verify", "--code", str(out_file))
    assert code == 0
    assert out.startswith("OK")
    stored = parse_code(out_file.read_text())
    assert stored.size == 4


def test_construct_to_stdout_parses(capsys):
    code, out, _ = run(capsys, "construct", "--n", "3", "--k", "1", "--delta", "1",
                       "--alpha", "2", "--q", "2")
    assert code == 0
    assert parse_code(out).size == 4


def test_verify_garbage_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "garbage.txt"
    bad.write_text("around the ragged rock\n")
    code, _, err = run(capsys, "verify", "--code", str(bad))
    assert code == 2
    assert "line 1" in err


def test_verify_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--code", str(tmp_path / "nope.txt"))
    assert code == 2


def test_verify_failing_solution(tmp_path, capsys):
    f2 = field_from_size(2)
    p = NetworkParams(h=2, r=3, alpha=2, ell=1, epsilon=0)
    a = MatrixQ(f2, [[1, 0]])
    sol = LinearSolution(params=p, field=f2, t=1,
                         matrices=(a, a, MatrixQ(f2, [[0, 1]])))
    path = tmp_path / "sol.txt"
    path.write_text(render_solution(sol))
    code, out, _ = run(capsys, "verify", "--solution", str(path))
    assert code == 1
    # witness printed with 1-based middle node labels
    assert "1,2" in out


def test_simulate_invalid_solution_fails_like_verify(tmp_path, capsys):
    # middle nodes 1 and 2 carry the same line, so receiver 1,2 cannot decode
    f2 = field_from_size(2)
    p = NetworkParams(h=2, r=3, alpha=2, ell=1, epsilon=0)
    a = MatrixQ(f2, [[1, 0]])
    sol = LinearSolution(params=p, field=f2, t=1,
                         matrices=(a, a, MatrixQ(f2, [[0, 1]])))
    path = tmp_path / "sol.txt"
    path.write_text(render_solution(sol))
    code, verify_out, _ = run(capsys, "verify", "--solution", str(path))
    assert code == 1
    code, out, err = run(capsys, "simulate", "--solution", str(path), "--seed", "9")
    assert code == 1
    assert out == verify_out == "FAIL: receiver at middle nodes 1,2 cannot decode\n"
    assert err == ""


def test_simulate_negative_count_is_usage_error(tmp_path, capsys):
    f2 = field_from_size(2)
    p = NetworkParams(h=2, r=3, alpha=2, ell=1, epsilon=0)
    sol = LinearSolution(params=p, field=f2, t=1, matrices=(
        MatrixQ(f2, [[1, 0]]), MatrixQ(f2, [[0, 1]]), MatrixQ(f2, [[1, 1]])))
    path = tmp_path / "sol.txt"
    path.write_text(render_solution(sol))
    code, out, err = run(capsys, "simulate", "--solution", str(path), "--seed", "9",
                         "--count", "-3")
    assert code == 2
    assert out == ""
    assert "--count: must be >= 0, got -3" in err


def test_search_negative_trials_is_usage_error(capsys):
    code, out, err = run(capsys, "search", "--h", "2", "--r", "3", "--alpha", "2",
                         "--ell", "1", "--eps", "0", "--q", "2", "--trials", "-5",
                         "--seed", "1")
    assert code == 2
    assert out == ""
    assert "--trials: must be >= 0, got -5" in err


@pytest.mark.parametrize("argv", [
    ["oracle", "--n", "2", "--k", "1", "--delta", "1", "--alpha", "2", "--q", "2"],
    ["qs", "--h", "2", "--r", "4", "--alpha", "2", "--ell", "1", "--eps", "0"],
    ["qv", "--h", "2", "--r", "4", "--alpha", "2", "--ell", "1", "--eps", "0"],
], ids=["oracle", "qs", "qv"])
def test_negative_node_limit_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--node-limit", "-1")
    assert code == 2
    assert out == ""
    assert "--node-limit: must be >= 0, got -1" in err


def test_search_find_verify_simulate(tmp_path, capsys):
    sol_file = tmp_path / "sol.txt"
    code, out, _ = run(capsys, "search", "--h", "3", "--r", "3", "--alpha", "2",
                       "--ell", "1", "--eps", "1", "--q", "11", "--t", "1",
                       "--trials", "1000", "--seed", "0", "-o", str(sol_file))
    assert code == 0
    assert "found" in out
    code, out, _ = run(capsys, "verify", "--solution", str(sol_file))
    assert code == 0
    code, out, _ = run(capsys, "simulate", "--solution", str(sol_file),
                       "--seed", "9", "--count", "25")
    assert code == 0
    assert "25 random messages" in out


def test_search_miss_exits_one(capsys):
    code, out, _ = run(capsys, "search", "--h", "2", "--r", "4", "--alpha", "2",
                       "--ell", "1", "--eps", "0", "--q", "2", "--t", "1",
                       "--trials", "30", "--seed", "1")
    assert code == 1
    assert "no verifying solution" in out


def test_search_writes_reproducible_artifact(tmp_path, capsys):
    args = ["search", "--h", "3", "--r", "3", "--alpha", "2", "--ell", "1",
            "--eps", "1", "--q", "11", "--t", "1", "--trials", "1000", "--seed", "0"]
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(args + ["-o", str(f1)]) == 0
    assert main(args + ["-o", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    header = f1.read_text().splitlines()[1]
    assert "seed=0" in header


def test_qs_and_qv_output(capsys):
    code, out, _ = run(capsys, "qs", "--h", "2", "--r", "4", "--alpha", "2",
                       "--ell", "1", "--eps", "0")
    assert code == 0
    assert out.strip() == "qs = 3 (exact)"
    code, out, _ = run(capsys, "qv", "--h", "2", "--r", "4", "--alpha", "2",
                       "--ell", "1", "--eps", "0")
    assert code == 0
    assert out.strip() == "qv = 3 (exact)"


def test_qs_cap_miss_exits_one(capsys):
    code, out, _ = run(capsys, "qs", "--h", "2", "--r", "8", "--alpha", "2",
                       "--ell", "1", "--eps", "0", "--q-cap", "4")
    assert code == 1
    assert "none" in out


def test_bounds_point_table(capsys):
    code, out, _ = run(capsys, "bounds", "--h", "3", "--ell", "1", "--eps", "1",
                       "--alpha", "2", "--q", "2", "--t", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# gcnet")
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "h,ell,eps,alpha,q,t,r,name,value,valid,assumptions"
    table = {l.split(",")[7]: l for l in lines if l.startswith("3,")}
    assert table["middle_ub_exact"].split(",")[8] == "7"
    assert table["middle_lb_mrd"].split(",")[8] == "4"
    assert "true" in table["middle_ub_exact"]


def test_bounds_sweep_rows_sorted(capsys):
    code, out, _ = run(capsys, "bounds", "--h", "3", "--ell", "1", "--eps", "1",
                       "--alpha", "2", "--t", "1", "--sweep", "q=2:5")
    assert code == 0
    qs = [int(l.split(",")[4]) for l in out.splitlines()
          if l and not l.startswith("#") and l[0].isdigit()]
    assert qs == sorted(qs)
    assert set(qs) == {2, 3, 4, 5}


def test_bounds_empty_sweep_is_header_only(capsys):
    code, out, _ = run(capsys, "bounds", "--h", "3", "--ell", "1", "--eps", "1",
                       "--alpha", "2", "--t", "1", "--sweep", "q=5:3")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows == ["h,ell,eps,alpha,q,t,r,name,value,valid,assumptions"]


def test_bounds_json_round_trip(capsys):
    code, out, _ = run(capsys, "bounds", "--h", "3", "--ell", "1", "--eps", "1",
                       "--alpha", "2", "--q", "11", "--t", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["tool"] == "gcnet"
    byname = {row["name"]: row for row in doc["rows"]}
    assert byname["middle_lb_lll"]["value"] == pytest.approx(3.1978026136310724)
    assert byname["middle_ub_exact"]["valid"] is True


def test_bounds_beyond_the_double_range(capsys):
    # q = 1024, t = 40: the relaxed form leaves the double range and the
    # exact one has more decimal digits than str() accepts by default
    argv = ["bounds", "--h", "3", "--ell", "1", "--eps", "1", "--alpha", "2",
            "--q", "1024", "--t", "40", "--r", "3"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    table = {l.split(",")[7]: l.split(",") for l in out.splitlines() if l.startswith("3,")}
    assert table["middle_ub_relaxed"][8:10] == ["", "false"]
    assert table["middle_ub_relaxed"][-1].endswith('finite=fail"')
    exact = table["middle_ub_exact"][8]
    assert exact.isdigit() and len(exact) > 4300
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    byname = {row["name"]: row for row in json.loads(out)["rows"]}
    assert byname["middle_ub_exact"]["value"] == exact


def test_bounds_flags_pairwise_above_alpha_two(capsys):
    code, out, _ = run(capsys, "bounds", "--h", "3", "--ell", "1", "--eps", "1",
                       "--alpha", "3", "--q", "3", "--t", "1")
    assert code == 0
    row = next(l for l in out.splitlines() if ",middle_ub_pairwise," in l)
    assert ",13,false," in row and row.endswith('alpha == 2=fail"')


def test_bounds_requires_some_inputs(capsys):
    code, _, err = run(capsys, "bounds", "--h", "3", "--ell", "1", "--eps", "1",
                       "--alpha", "2")
    assert code == 2


def test_bounds_bad_sweep_variable(capsys):
    code, _, err = run(capsys, "bounds", "--h", "3", "--ell", "1", "--eps", "1",
                       "--alpha", "2", "--t", "1", "--sweep", "zeta=1:3")
    assert code == 2


def test_gap_single_row(capsys):
    code, out, _ = run(capsys, "gap", "--h", "2", "--ell", "1", "--eps", "1",
                       "--alpha", "2", "--r", "1048576")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "r,gap_lower_bound,gap_lower_bound_closed"
    assert rows[1] == "1048576,5.100456,4.527864"


def test_gap_range_rows(capsys):
    code, out, _ = run(capsys, "gap", "--h", "2", "--ell", "1", "--eps", "1",
                       "--alpha", "2", "--r-range", "1024,1048576")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 3
    assert rows[1].startswith("1024,")


def test_gap_requires_exactly_one_r_spec(capsys):
    code, _, _ = run(capsys, "gap", "--h", "2", "--ell", "1", "--eps", "1",
                     "--alpha", "2")
    assert code == 2
    code, _, _ = run(capsys, "gap", "--h", "2", "--ell", "1", "--eps", "1",
                     "--alpha", "2", "--r", "8", "--r-range", "2:4")
    assert code == 2


def test_oracle_exact_value(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "2", "--k", "1", "--delta", "1",
                       "--alpha", "2", "--q", "2")
    assert code == 0
    assert out.startswith("B = 3 (exact)")


def test_oracle_writes_code(tmp_path, capsys):
    out_file = tmp_path / "best.txt"
    code, out, _ = run(capsys, "oracle", "--n", "3", "--k", "1", "--delta", "1",
                       "--alpha", "2", "--q", "2", "-o", str(out_file))
    assert code == 0
    assert "B = 7 (exact)" in out
    assert parse_code(out_file.read_text()).size == 7


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "gcnet", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "gcnet 0.1.0"


def test_module_entry_subcommand():
    proc = subprocess.run(
        [sys.executable, "-m", "gcnet", "classify", "--h", "2", "--r", "3",
         "--alpha", "2", "--ell", "1", "--eps", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "NONTRIVIAL" in proc.stdout
