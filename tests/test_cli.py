"""Command-line behavior: exit codes, artifacts, determinism."""

import inspect
import json
import subprocess
import sys

import pytest

from gcnet import cli, combnet
from gcnet.bounds import gamma_exact, middle_ub_exact, middle_ub_relaxed
from gcnet.cli import build_parser, main
from gcnet.combnet import NetworkParams, compute_qs, compute_qv, estimate_gap
from gcnet.fileio import parse_code, parse_solution, render_code, render_params, render_solution
from gcnet.ffield import field_from_size
from gcnet.grasscode import NODE_LIMIT, CoveringCode, max_covering_code
from gcnet.linalg import MatrixQ, SubspaceQ
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


def test_verify_failing_code_names_the_worst_witness(tmp_path, capsys):
    # codewords 1 and 2 are one line, so together they span 1 < 2
    f2 = field_from_size(2)
    lines = [SubspaceQ(f2, 2, [v]) for v in ([1, 0], [1, 0], [0, 1])]
    code = CoveringCode(field=f2, n=2, k=1, delta=1, alpha=2, codewords=tuple(lines))
    path = tmp_path / "code.txt"
    path.write_text(render_code(code))
    rc, out, err = run(capsys, "verify", "--code", str(path))
    assert rc == 1
    assert out == "FAIL: codewords 1,2 span 1 < 2\n"
    assert err == ""


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


def test_simulate_derives_the_direct_links_once(tmp_path, capsys, monkeypatch):
    f2 = field_from_size(2)
    p = NetworkParams(h=3, r=3, alpha=2, ell=1, epsilon=1)
    sol = LinearSolution(params=p, field=f2, t=1, matrices=(
        MatrixQ(f2, [[1, 0, 0]]), MatrixQ(f2, [[0, 1, 0]]), MatrixQ(f2, [[1, 1, 0]])))
    path = tmp_path / "sol.txt"
    path.write_text(render_solution(sol))
    calls = []
    derive = combnet.derive_direct_link_matrices

    def counted(s):
        calls.append(s)
        return derive(s)

    monkeypatch.setattr(combnet, "derive_direct_link_matrices", counted)
    code, out, _ = run(capsys, "simulate", "--solution", str(path), "--seed", "3",
                       "--count", "5")
    assert code == 0
    assert out == "OK: 5 random messages decoded at all 3 receivers (seed 3)\n"
    assert len(calls) == 1


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


def test_qv_budget_below_r_answers_none_at_once(capsys):
    # 8 codewords need 8 search nodes, so a budget of 6 decides nothing
    code, out, err = run(capsys, "qv", "--h", "3", "--r", "8", "--alpha", "2",
                         "--ell", "1", "--eps", "1", "--node-limit", "6")
    assert code == 1
    assert out == "qv: none found with q^t <= 64\n"
    assert err == ""


def test_every_node_limit_default_is_the_grasscode_one():
    for fn in (compute_qs, compute_qv, estimate_gap, max_covering_code):
        assert inspect.signature(fn).parameters["node_limit"].default == NODE_LIMIT
    parser = build_parser()
    net = ["--h", "2", "--r", "4", "--alpha", "2", "--ell", "1", "--eps", "0"]
    for argv in (["oracle", "--n", "2", "--k", "1", "--delta", "1", "--alpha", "2",
                  "--q", "2"], ["qs"] + net, ["qv"] + net):
        assert parser.parse_args(argv).node_limit == NODE_LIMIT


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
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert exact == str(middle_ub_exact(3, 1, 1, 2, 1024, 40).value)
    finally:
        sys.set_int_max_str_digits(limit)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    byname = {row["name"]: row for row in json.loads(out)["rows"]}
    assert byname["middle_ub_exact"]["value"] == exact


def test_bounds_prints_a_fraction_exactly(capsys):
    argv = ["bounds", "--h", "5", "--ell", "2", "--eps", "1", "--alpha", "2",
            "--q", "2", "--t", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    row = next(l for l in out.splitlines() if ",middle_ub_pairwise," in l)
    assert row.split(",")[8:10] == ["31/3", "true"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    byname = {row["name"]: row for row in json.loads(out)["rows"]}
    assert byname["middle_ub_pairwise"]["value"] == "31/3"


def test_bounds_exact_gamma(capsys):
    argv = ["bounds", "--h", "3", "--ell", "1", "--eps", "1", "--alpha", "2"]
    code, out, err = run(capsys, *argv, "--r", "5", "--exact-gamma")
    assert code == 2
    assert out == ""
    assert "--exact-gamma requires --q" in err
    relaxed = {}
    for extra in ([], ["--exact-gamma"]):
        code, out, _ = run(capsys, *argv, "--q", "2", "--t", "1", *extra)
        assert code == 0
        row = next(l for l in out.splitlines() if ",middle_ub_relaxed," in l)
        relaxed[bool(extra)] = row.split(",")[8]
    assert relaxed[False] == "14.920000"
    exact = middle_ub_relaxed(3, 1, 1, 2, 2, 1, gamma=gamma_exact(2)).value
    assert relaxed[True] == f"{exact:.6f}" != relaxed[False]


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


# ---------------------------------------------------------------------------
# The `#` echo: every parameter as parsed, from the one parser.
# ---------------------------------------------------------------------------

NET = ["--h", "3", "--r", "3", "--alpha", "2", "--ell", "1", "--eps", "1"]
BOUNDS = ["bounds", "--h", "3", "--ell", "1", "--eps", "1", "--alpha", "2", "--q", "2", "--t", "1"]


def echo_line(text):
    """The echo line of a written file or CSV table."""
    first, second = text.splitlines()[:2]
    assert first == "# gcnet 0.1.0"
    return second


def test_construct_echo(tmp_path, capsys):
    path = tmp_path / "code.txt"
    assert main(["construct", "--n", "3", "--k", "1", "--delta", "1", "--alpha", "2",
                 "--q", "2", "-o", str(path)]) == 0
    capsys.readouterr()
    assert echo_line(path.read_text()) == "# construct alpha=2 delta=1 k=1 n=3 q=2"


def test_search_echo_is_the_same_from_flags_and_params_file(tmp_path, capsys):
    net = tmp_path / "net.json"
    net.write_text(render_params(NetworkParams(h=3, r=3, alpha=2, ell=1, epsilon=1)))
    rest = ["--q", "11", "--t", "1", "--trials", "1000", "--seed", "0"]
    lines = []
    for name, source in (("flags.txt", NET), ("file.txt", ["--params", str(net)])):
        path = tmp_path / name
        assert main(["search", *source, *rest, "-o", str(path)]) == 0
        lines.append(echo_line(path.read_text()))
    capsys.readouterr()
    assert lines == ["# search alpha=2 ell=1 eps=1 h=3 q=11 r=3 seed=0 t=1 trials=1000"] * 2


def test_oracle_echo_names_its_budget_and_target(tmp_path, capsys):
    path = tmp_path / "best.txt"
    assert main(["oracle", "--n", "4", "--k", "2", "--delta", "2", "--alpha", "2", "--q", "2",
                 "--node-limit", "50", "--target-size", "3", "-o", str(path)]) == 0
    capsys.readouterr()
    assert echo_line(path.read_text()) == (
        "# oracle alpha=2 delta=2 k=2 n=4 node_limit=50 q=2 target_size=3")


def test_bounds_echo_in_csv_and_json(capsys):
    argv = [*BOUNDS, "--sweep", "r=3,5", "--gamma", "3"]
    echo = "bounds alpha=2 ell=1 eps=1 gamma=3.000000 h=3 q=2 sweep=r=3,5 t=1"
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert echo_line(out) == "# " + echo
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["meta"]["echo"] == echo


@pytest.mark.parametrize("extra, echo", [
    (["--exact-gamma"], "exact_gamma=true gamma=3.480000 h=3 q=2 t=1"),
    (["--plus-one"], "gamma=3.480000 h=3 plus_one=true q=2 t=1"),
    (["--exact-gamma", "--plus-one"],
     "exact_gamma=true gamma=3.480000 h=3 plus_one=true q=2 t=1"),
], ids=["exact-gamma", "plus-one", "both"])
def test_bounds_echo_names_its_switches(capsys, extra, echo):
    code, out, _ = run(capsys, *BOUNDS, *extra)
    assert code == 0
    assert echo_line(out) == "# bounds alpha=2 ell=1 eps=1 " + echo


def test_gap_echo(capsys):
    code, out, _ = run(capsys, "gap", "--h", "2", "--ell", "1", "--eps", "1", "--alpha", "2",
                       "--r-range", "4:16:4", "--gamma", "2.5")
    assert code == 0
    assert echo_line(out) == "# gap alpha=2 ell=1 eps=1 gamma=2.500000 h=2 r_range=4:16:4"


def test_one_parser_per_process():
    assert build_parser() is build_parser()


def test_errors_leave_the_shared_parser_unchanged(capsys):
    code, out, err = run(capsys, "qs", "--h", "x")
    assert (code, out) == (2, "")
    assert "argument --h: invalid int value: 'x'" in err
    code, out, err = run(capsys, "qs", "--h", "3")
    assert (code, out) == (2, "")
    assert "missing --r --alpha --ell --eps" in err
    code, out, err = run(capsys, *BOUNDS[:9], "--exact-gamma", "--r", "4")
    assert (code, out) == (2, "")
    assert "--exact-gamma requires --q" in err
    first = run(capsys, *BOUNDS, "--r", "4")
    assert first[0] == 0
    assert run(capsys, *BOUNDS, "--r", "4") == first


def test_handlers_look_up_simulate_at_call_time(tmp_path, capsys, monkeypatch):
    path = tmp_path / "sol.txt"
    assert main(["search", *NET, "--q", "11", "--seed", "0", "-o", str(path)]) == 0
    capsys.readouterr()
    calls = []
    plain = cli.simulate

    def counted(sol, messages):
        calls.append(messages)
        return plain(sol, messages)

    monkeypatch.setattr(cli, "simulate", counted)
    code, out, _ = run(capsys, "simulate", "--solution", str(path), "--seed", "1",
                       "--count", "3")
    assert code == 0
    assert out == "OK: 3 random messages decoded at all 3 receivers (seed 1)\n"
    assert len(calls) == 3
