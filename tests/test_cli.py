"""Command-line behavior: exit codes, artifacts, determinism."""

import hashlib
import inspect
import itertools
import json
import re
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import numpy as np
import pytest

from gcnet import backend, cli, grasscode
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


def test_params_file_with_non_integers_is_usage_error(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text('{"h": 3.9, "r": 4, "alpha": 2, "ell": true, "epsilon": "1"}')
    code, out, err = run(capsys, "classify", "--params", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: parameter h must be an integer, got 3.9\n"


def test_classify_counts_receivers_beyond_the_str_limit(capsys):
    # C(20000, 10000) has 6 019 digits, past the 4 300 that str converts
    code, out, err = run(capsys, "classify", "--h", "3", "--r", "20000", "--alpha", "10000",
                         "--ell", "1", "--eps", "1")
    assert (code, err) == (0, "")
    count = out.rstrip("\n").rpartition("receivers=")[2]
    assert count.isdigit() and len(count) > 4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert count == str(NetworkParams(h=3, r=20000, alpha=10000, ell=1, epsilon=1).n_receivers)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("r,alpha,exact", [
    (65544, 32772, True),  # C(65544, 32772) <= 2^65536 < C(65545, 32772)
    (65545, 32772, False),
    (1000000, 500000, False),
    (20000000, 10000000, False),
])
def test_classify_prints_counts_past_the_exact_limit_as_a_bound(capsys, r, alpha, exact):
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", "--h", "3", "--r", str(r), "--alpha", str(alpha),
                         "--ell", "1", "--eps", "1")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    head, _, count = out.rstrip("\n").rpartition(" receivers=")
    assert head == f"NONTRIVIAL h=3 r={r} alpha={alpha} ell=1 eps=1"
    if not exact:
        assert count == ">2^65536"
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert int(count) == comb(r, alpha) <= 2**65536 < comb(r + 1, alpha)
    finally:
        sys.set_int_max_str_digits(limit)


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


# md5 of ``construct`` stdout per (n, k, delta, alpha, q): the lifted MRD
# code of k x (n-k) matrices, alpha - 1 times over; "transposed" marks the
# points with k < n - k, whose Gabidulin code is built transposed
CONSTRUCT_DIGESTS = {
    (4, 2, 1, 3, 2): "6fc21f1fcc23b3c546dad2d258bef948",
    (6, 3, 2, 2, 2): "7dff2196226171acaec3c5e500e3112b",
    (4, 2, 2, 3, 4): "29efabe70a8a454fb46915a5d8a75074",
    (2, 1, 1, 3, 16): "dff00f3eeda23a53702e0b90189749ac",
    (5, 2, 1, 2, 3): "ea19ab7e625ffa6c340fb472b44de6ac",  # transposed
    (5, 3, 1, 2, 3): "e0b269655bf9f3efd73d8f425ea851f4",
    (4, 2, 2, 2, 9): "7c7b39e3fe175f0686aaeaac7d388898",
    (2, 1, 1, 2, 257): "bdf17dbe6a852c4e2a3130729b519ef2",
    (6, 3, 1, 2, 2): "e3b3b063e6331ca89c0326e400d63d16",
    (6, 2, 2, 2, 2): "52e528b36bf8126492d5483084d2db02",  # transposed
}


@pytest.mark.parametrize("point", list(CONSTRUCT_DIGESTS), ids=str)
def test_construct_output_is_pinned(capsys, point):
    argv = [v for flag, x in zip(("--n", "--k", "--delta", "--alpha", "--q"), point)
            for v in (flag, str(x))]
    code, out, _ = run(capsys, "construct", *argv)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == CONSTRUCT_DIGESTS[point]


#: ``oracle -o`` file md5 (pinned before the search stopped at its bound),
#: stdout and stderr at the benchmark's six oracle points, and at a
#: delta = 1 point of 714 codewords, pinned before its search read no span.
ORACLE_OUTPUTS = {
    (4, 2, 1, 2, 2): ("41c805eda6a2d07d04917075de7f4bed", 35, 35, "bound:multiplicity"),
    (4, 2, 2, 2, 2): ("8c219246a453fa5eb023ebc3c3096a08", 5, 5, "bound:partial-spread"),
    (3, 1, 1, 3, 3): ("67a5a312668d501b33f8b484a6535f84", 26, 26, "bound:multiplicity"),
    (3, 1, 1, 2, 7): ("140b51195559ea7c87fcba26bc9eea91", 57, 57, "bound:multiplicity"),
    (3, 1, 1, 3, 4): ("2621de695895c5fc1eb6d44ada0c4770", 42, 42, "bound:multiplicity"),
    (4, 1, 2, 3, 2): ("02e4ad6bf3c6a5a9d247c5070ae08719", 8, 9, "bound:binary-cap"),
    (4, 2, 1, 3, 4): ("7c58ddf93730579c909e714a9d99843f", 714, 714, "bound:multiplicity"),
}


@pytest.mark.parametrize("point", list(ORACLE_OUTPUTS), ids=str)
def test_oracle_output_is_pinned(tmp_path, capsys, point):
    digest, size, nodes, certified_by = ORACLE_OUTPUTS[point]
    argv = [v for flag, x in zip(("--n", "--k", "--delta", "--alpha", "--q"), point)
            for v in (flag, str(x))]
    path = tmp_path / "best.txt"
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", *argv, "-o", str(path))
    assert time.perf_counter() - start < 2
    assert code == 0
    assert out == f"B = {size} (exact), nodes={nodes}\n"
    assert err == f"certified_by={certified_by}\n"
    assert hashlib.md5(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv,message", [
    ("construct --n 20000 --k 10000 --q 3", "code size 3^100000000 exceeds the cap 65536"),
    ("construct --n 6000 --k 3000 --q 2", "code size 2^9000000 exceeds the cap 65536"),
    ("oracle --n 4000 --k 2000 --q 3",
     "Grassmannian has at least 3^4000000 elements, above the cap 1000000"),
    ("oracle --n 300 --k 150 --q 2",
     "Grassmannian has at least 2^22500 elements, above the cap 1000000"),
], ids=["construct-q3", "construct-q2", "oracle-q3", "oracle-q2"])
def test_over_cap_sizes_are_refused_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split(), "--delta", "1", "--alpha", "2")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


BIG_PRIME = 1000000007


@pytest.mark.parametrize("argv,line", [
    (f"construct --n 4 --k 2 --delta 1 --alpha 2 --q {BIG_PRIME}", ""),
    (f"oracle --n 4 --k 2 --delta 1 --alpha 2 --q {BIG_PRIME}", ""),
    (f"search --h 3 --r 3 --alpha 2 --ell 1 --eps 1 --q {BIG_PRIME} --seed 0", ""),
    ("verify --code CODE", " (line 1)"),
    ("verify --solution SOLUTION", " (line 1)"),
    ("simulate --solution SOLUTION --seed 0", " (line 1)"),
], ids=["construct", "oracle", "search", "verify-code", "verify-solution", "simulate"])
def test_field_orders_above_the_limit_are_refused_at_once(tmp_path, capsys, argv, line):
    # the limit is checked before q is factored, which trial-divides up to q
    files = {"CODE": f"4 2 1 2 {BIG_PRIME} 1\n1 0 0 0\n0 1 0 0\n",
             "SOLUTION": f"3 3 2 1 1 {BIG_PRIME} 1\n" + f"1 3 {BIG_PRIME}\n1 0 0\n" * 3}
    args = argv.split()
    for name, text in files.items():
        if name in args:
            path = tmp_path / name
            path.write_text(text)
            args[args.index(name)] = str(path)
    start = time.perf_counter()
    code, out, err = run(capsys, *args)
    assert time.perf_counter() - start < 1
    message = f"error: field order {BIG_PRIME} exceeds the supported limit 1024{line}\n"
    assert (code, out, err) == (2, "", message)


def test_verify_garbage_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "garbage.txt"
    bad.write_text("around the ragged rock\n")
    code, _, err = run(capsys, "verify", "--code", str(bad))
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("command", ["verify --solution", "simulate --seed 1 --solution"])
def test_huge_matrix_header_is_a_parse_error(tmp_path, capsys, command):
    # a 100000 x 100000 block header with no rows behind it: the rows
    # are read before the matrix is allocated
    path = tmp_path / "sol.txt"
    path.write_text("3 3 2 1 1 2 1\n100000 100000 2\n")
    code, out, err = run(capsys, *command.split(), str(path))
    assert (code, out, err) == (2, "", "error: unexpected end of file (line 2)\n")


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


def test_verify_code_of_zero_subspaces_names_its_witness(tmp_path, capsys):
    # k = 0: two zero subspaces of GF(2)^3 span 0 < delta = 2, with no row to rank
    path = tmp_path / "code.txt"
    path.write_text("3 0 2 2 2 2\n")
    rc, out, err = run(capsys, "verify", "--code", str(path))
    assert (rc, out, err) == (1, "FAIL: codewords 1,2 span 0 < 2\n", "")


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
    for count in ("100", "0"):
        code, out, err = run(capsys, "simulate", "--solution", str(path), "--seed", "9",
                             "--count", count)
        assert code == 1
        assert out == verify_out == "FAIL: receiver at middle nodes 1,2 cannot decode\n"
        assert err == ""
    # h > alpha*ell + eps: no solution exists, so there is nothing to check
    unsolvable = LinearSolution(params=NetworkParams(h=3, r=3, alpha=2, ell=1, epsilon=0),
                                field=f2, t=1, matrices=(MatrixQ(f2, [[1, 0, 0]]),) * 3)
    path.write_text(render_solution(unsolvable))
    code, out, err = run(capsys, "simulate", "--solution", str(path), "--seed", "9")
    assert (code, out) == (2, "")
    assert err == "error: network is unsolvable; verification is meaningless\n"


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


def test_search_zero_blocklength_is_refused_before_drawing(capsys):
    code, out, err = run(capsys, "search", "--h", "3", "--r", "4", "--alpha", "2",
                         "--ell", "1", "--eps", "1", "--q", "2", "--t", "0", "--seed", "1")
    assert (code, out, err) == (2, "", "error: blocklength t must be >= 1\n")


# Each child caps its own address space, so that an allocation the CLI
# fails to refuse raises MemoryError there instead of exhausting the host.
LIMITED_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from gcnet.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv,message", [
    ("search --h 3 --r 40 --alpha 20 --ell 1 --eps 1 --q 2 --t 1 --trials 1 --seed 1",
     "C(40, 20) receivers exceed the cap 1000000"),
    ("construct --n 4 --k 2 --delta 1 --alpha 100000000000 --q 2",
     "covering code has 1599999999984 codewords, above the cap 1000000"),
    ("construct --n 4 --k 2 --delta 1 --alpha 17 --q 16",
     "covering code has 1048576 codewords, above the cap 1000000"),
    ("search --h 3 --r 5 --alpha 2 --ell 1 --eps 1 --q 2 --t 3000 --trials 1 --seed 1",
     "one trial draws 135000000 entries, above the cap 1000000"),
    ("search --h 3 --r 5 --alpha 2 --ell 1 --eps 1 --q 2 --t 259 --trials 1 --seed 1",
     "one trial draws 1006215 entries, above the cap 1000000"),
    ("gap --h 3 --ell 1 --eps 1 --alpha 2 --r-range 1:100000000000",
     "bad range '1:100000000000': 100000000000 values, above the cap 1000000"),
    ("bounds --h 3 --ell 1 --eps 1 --alpha 2 --sweep r=1:100000000000",
     "bad range '1:100000000000': 100000000000 values, above the cap 1000000"),
], ids=["receivers", "construct-alpha", "construct-65536", "search-draw", "search-draw-t259",
        "gap-range", "bounds-sweep"])
def test_oversized_work_is_refused_before_it_is_allocated(argv, message):
    proc = subprocess.run([sys.executable, "-c", LIMITED_CHILD, *argv.split()],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("limit,out", [
    ("5", "B = 5 (lower bound), nodes=5\n"),
    ("0", "B = 0 (lower bound), nodes=0\n"),
])
def test_oracle_budget_stop_counts_only_the_nodes_tried(capsys, limit, out):
    # the extension the budget refuses is not counted
    assert run(capsys, "oracle", "--n", "4", "--k", "2", "--delta", "2", "--alpha", "2",
               "--q", "3", "--node-limit", limit) == (0, out, "certified_by=budget\n")


@pytest.mark.parametrize("argv, flag", [
    (["oracle", "--n", "2", "--k", "1", "--delta", "1", "--alpha", "2", "--q", "2"],
     "--target-size"),
    (["search", "--h", "3", "--r", "3", "--alpha", "2", "--ell", "1", "--eps", "1", "--q", "2",
      "--seed", "1"], "--t"),
    (["search", "--h", "3", "--r", "3", "--alpha", "2", "--ell", "1", "--eps", "1", "--q", "2"],
     "--seed"),
    (["simulate", "--solution", "sol.txt"], "--seed"),
], ids=["oracle-target-size", "search-t", "search-seed", "simulate-seed"])
def test_negative_sizes_are_usage_errors(capsys, argv, flag):
    code, out, err = run(capsys, *argv, flag, "-1")
    assert code == 2
    assert out == ""
    assert f"{flag}: must be >= 0, got -1" in err


def test_simulate_stacks_no_system_per_round(tmp_path, capsys, monkeypatch):
    path = tmp_path / "sol.txt"
    assert main(["search", "--h", "4", "--r", "4", "--alpha", "3", "--ell", "1", "--eps", "1",
                 "--q", "4", "--t", "2", "--seed", "0", "-o", str(path)]) == 0
    capsys.readouterr()
    calls = []
    vstack = np.vstack

    def counted(arrays, *args, **kwargs):
        calls.append(len(arrays))
        return vstack(arrays, *args, **kwargs)

    monkeypatch.setattr(np, "vstack", counted)
    counts = []
    for rounds in ("1", "5"):
        calls.clear()
        code, out, _ = run(capsys, "simulate", "--solution", str(path), "--seed", "2",
                           "--count", rounds)
        assert code == 0
        assert out == f"OK: {rounds} random messages decoded at all 4 receivers (seed 2)\n"
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_simulate_reduces_each_receiver_once_per_solution(tmp_path, capsys, monkeypatch):
    path = tmp_path / "sol.txt"
    assert main(["search", "--h", "4", "--r", "4", "--alpha", "3", "--ell", "1", "--eps", "1",
                 "--q", "4", "--t", "2", "--seed", "0", "-o", str(path)]) == 0
    capsys.readouterr()
    calls = []
    for name in ("rref_destructive", "rank_destructive"):
        kernel = getattr(backend, name)

        def counted(*args, name=name, kernel=kernel):
            calls.append(name)
            return kernel(*args)

        monkeypatch.setattr(backend, name, counted)
    for rounds in ("0", "5"):
        calls.clear()
        code, out, _ = run(capsys, "simulate", "--solution", str(path), "--seed", "2",
                           "--count", rounds)
        assert code == 0
        assert out == f"OK: {rounds} random messages decoded at all 4 receivers (seed 2)\n"
        # one reduction per receiver (C(4, 3) of them), no rank pass
        assert calls == ["rref_destructive"] * 4


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


# md5 of the ``search -o`` file per ((h, r, alpha, ell, eps), q, t, seed),
# pinned while each trial still drew its r coding matrices one call at a
# time.  Every point needs more than one trial (2 to 53), and ell*t * h*t
# is odd at four of them, so a move of the draw stream changes the file.
SEARCH_DIGESTS = {
    ((3, 3, 2, 1, 1), 2, 1, 1): "19bee35bee2c5b54ff2e743a6100e2b0",
    ((2, 3, 2, 1, 0), 4, 2, 5): "6d1de056cc3744ff892c6645297d5415",
    ((2, 6, 2, 1, 0), 16, 2, 1): "d4189a519f4d378751fa678be5bdcd37",
    ((3, 12, 3, 1, 0), 257, 1, 2): "99a6786eabcad27465b8a42e2e93d3ed",
    ((2, 30, 2, 1, 0), 257, 1, 2): "d9aeb1064837781aa0ef6b382169b7de",
    ((3, 20, 3, 1, 0), 1024, 1, 5): "a2688d9cd11ca5d0be62a795bc8b7c96",
    ((2, 50, 2, 1, 0), 1024, 1, 3): "276f4286ed3bf34fb84a14bc6793b4df",
    ((2, 3, 2, 1, 0), 2, 3, 0): "bc945a7a8ff6d3fdf2308d8ef1a8dc76",
    ((3, 6, 2, 1, 1), 2, 3, 0): "953522d36a110e9d0c61a1be537f6e3d",
}


@pytest.mark.parametrize("point", list(SEARCH_DIGESTS), ids=str)
def test_search_output_is_pinned(tmp_path, capsys, point):
    net, q, t, seed = point
    flags = ("--h", "--r", "--alpha", "--ell", "--eps")
    argv = [v for flag, x in zip(flags, net) for v in (flag, str(x))]
    path = tmp_path / "sol.txt"
    code, out, err = run(capsys, "search", *argv, "--q", str(q), "--t", str(t),
                         "--seed", str(seed), "-o", str(path))
    assert (code, out, err) == (0, f"found verifying solution (seed {seed}) -> {path}\n", "")
    assert hashlib.md5(path.read_bytes()).hexdigest() == SEARCH_DIGESTS[point]


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


def test_qs_decided_by_the_bound_is_exact(capsys):
    # caps of PG(3, q) have at most 2^3 (q = 2) or q^2 + 1 points, so
    # q < 4 cannot carry 11 codewords, and q = 4 does
    code, out, _ = run(capsys, "qs", "--h", "4", "--r", "11", "--alpha", "3", "--ell", "1",
                       "--eps", "1", "--q-cap", "16", "--node-limit", "200000")
    assert (code, out) == (0, "qs = 4 (exact)\n")


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


@pytest.mark.parametrize("argv", [
    "--h 3 --ell 1 --eps 1 --alpha 2 --q 2 --t 1000 --r 3",
    "--h 4 --ell 2 --eps 1 --alpha 2 --q 2 --t 1000",
    "--h 2 --ell 1 --eps 1 --alpha 2 --q 2 --t 3000",
], ids=["ub_exact", "pairwise", "lb_mrd"])
def test_bounds_past_the_exact_limit_report_no_value(capsys, argv):
    # exact values of a million bits and more are refused from their
    # exponent, not built and printed
    start = time.perf_counter()
    code, out, _ = run(capsys, "bounds", *argv.split())
    assert time.perf_counter() - start < 2
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l[:1].isdigit()]
    refused = {r[7] for r in rows if r[-1].endswith('leading power <= 2^65536=fail"')}
    assert refused and all(r[8:10] == ["", "false"] for r in rows if r[7] in refused)
    assert refused <= {"middle_ub_exact", "middle_ub_pairwise", "middle_lb_mrd"}


def test_bounds_dependency_degree_past_the_exact_limit(capsys):
    # r = 2^70: the union-bound count has about 5e7 bits, refused from bit lengths
    start = time.perf_counter()
    code, out, _ = run(capsys, "bounds", "--h", "3", "--ell", "1", "--eps", "1",
                       "--alpha", "1000000", "--r", str(2**70))
    assert time.perf_counter() - start < 2
    assert code == 0
    row = next(l for l in out.splitlines() if ",dependency_degree," in l)
    assert row.endswith(",dependency_degree,,false,2 <= alpha <= r=ok;leading power <= 2^65536=fail")


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
    code, out, err = run(capsys, "bounds", "--ell", "1", "--eps", "1", "--alpha", "2",
                         "--q", "2", "--t", "1")
    assert (code, out) == (2, "")
    assert "error: missing --h" in err


def test_bounds_bad_sweep_variable(capsys):
    code, _, err = run(capsys, "bounds", "--h", "3", "--ell", "1", "--eps", "1",
                       "--alpha", "2", "--t", "1", "--sweep", "zeta=1:3")
    assert code == 2
    for sweep, message in [
        ("q", "--sweep expects VAR=RANGE"),
        ("q=1:2:3:4", "bad range '1:2:3:4': expected start:stop[:step]"),
        ("q=2:5:0", "range step must be positive"),
        ("q=5:3", "bad range '5:3': no values"),
    ]:
        code, out, err = run(capsys, "bounds", "--h", "3", "--ell", "1", "--eps", "1",
                             "--alpha", "2", "--t", "1", "--sweep", sweep)
        assert (code, out) == (2, "")
        assert message in err


def test_sweep_range_cap_is_read_at_call_time(capsys, monkeypatch):
    monkeypatch.setattr(grasscode, "ENUMERATION_LIMIT", 3)
    for r_range, rows in [("4:6", 3), ("4:8:2", 3), ("4:9:2", 3)]:
        code, out, _ = run(capsys, "gap", "--h", "2", "--ell", "1", "--eps", "1",
                           "--alpha", "2", "--r-range", r_range)
        assert code == 0 and len(out.splitlines()) == 3 + rows
    for r_range in ["4:7", "4:10:2"]:
        code, out, err = run(capsys, "gap", "--h", "2", "--ell", "1", "--eps", "1",
                             "--alpha", "2", "--r-range", r_range)
        assert (code, out, err) == (2, "", f"error: bad range '{r_range}': 4 values, "
                                           f"above the cap 3\n")


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
    for r_range in [",", "5:1"]:
        code, out, err = run(capsys, "gap", "--h", "2", "--ell", "1", "--eps", "1",
                             "--alpha", "2", "--r-range", r_range)
        assert (code, out, err) == (2, "", f"error: bad range '{r_range}': no values\n")


def test_oracle_exact_value(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "2", "--k", "1", "--delta", "1",
                       "--alpha", "2", "--q", "2")
    assert code == 0
    assert out.startswith("B = 3 (exact)")


def test_oracle_writes_only_codes_that_verify_accepts(tmp_path, capsys):
    # G_2(5,1) holds no two points spanning 1 + 3 dimensions: the best code has one codeword
    out_file = tmp_path / "best.txt"
    code, out, _ = run(capsys, "oracle", "--n", "5", "--k", "1", "--delta", "3",
                       "--alpha", "2", "--q", "2", "-o", str(out_file))
    assert code == 0
    assert out == ("B = 1 (exact), nodes=1\n"
                   f"no code of size >= alpha found; nothing written to {out_file}\n")
    assert not out_file.exists()


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


def test_verify_code_of_distinct_codewords_scans_no_pairs(tmp_path):
    # the planes rowspace [I | A] over all 2x2 matrices A over GF(16): 65 536
    # distinct planes of GF(16)^4, so any two span at least 3 dimensions;
    # the 2.1e9 pairs are never visited
    lines = ["4 2 1 2 16 65536"]
    for a, b, c, d in itertools.product(range(16), repeat=4):
        lines += [f"1 0 {a} {b}", f"0 1 {c} {d}"]
    path = tmp_path / "planes.code"
    path.write_text("\n".join(lines) + "\n")
    proc = subprocess.run([sys.executable, "-m", "gcnet", "verify", "--code", str(path)],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "OK: every 2 of 65536 codewords span >= 3\n"


def readme_cli_examples() -> tuple[list[list[str]], str]:
    """The ``gcnet`` commands of README's first ``sh`` block under
    ``## CLI``, lines ending in ``\\`` joined, then its ``--params net.json``
    example, each as the argument list after ``gcnet``; and the text of
    that example's ``net.json``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("gcnet ")]
    params = re.search(r"`gcnet ([^`]*--params net\.json)`\s+with\s+`(\{[^`]*\})`", section)
    return commands + [params.group(1).split()], params.group(2)


def test_readme_cli_examples_exit_zero(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands, net_json = readme_cli_examples()
    (tmp_path / "net.json").write_text(net_json)
    assert len(commands) == 13
    for argv in commands:
        assert (main(argv), argv) == (0, argv)
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
