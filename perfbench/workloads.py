"""The three workloads: their operations, inputs and output checks.

A workload is a fixed list of CLI operations built from the benchmark
seed.  The seed only picks inputs (operation order, planted codes and
solutions, program seeds); the program sees nothing but the argument
lists and the files written here.  Every operation carries a check that
compares its output against :mod:`reference`.  An operation that fails
under a known program fault carries ``fault``: the exact reason its check
gives then.  Any other reason, another misplaced bound beside the known
one included, is an unexpected failure.
"""

from __future__ import annotations

import csv
import os
import random
import re
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Optional

import reference as ref
from reference import CheckError

#: (n, k, delta, alpha, q) oracle points with closed-form maxima.
ORACLE_POINTS = [
    (4, 2, 1, 2, 2),
    (4, 2, 2, 2, 2),
    (3, 1, 1, 3, 3),
    (3, 1, 1, 2, 7),
    (3, 1, 1, 3, 4),
    (4, 1, 2, 3, 2),
]

#: (h, r, alpha, ell, eps) of the alphabet decisions.
QS_NETWORK = (3, 8, 2, 1, 1)
QV_NETWORK = (2, 6, 2, 1, 0)

#: Crashes middle_ub_relaxed: q ** (ell*t*(eps*t+1)) does not fit a float.
OVERFLOW_BOUNDS = "bounds --h 3 --ell 1 --eps 1 --alpha 2 --q 1024 --t 40 --r 3"

#: The value ``bounds`` gives ``middle_ub_pairwise``, flagged valid, at the
#: alpha = 3 oracle points: an alpha = 2 packing bound with no alpha
#: assumption, below the certified maximum at each of them.
PAIRWISE_AT_ALPHA3 = {(3, 1, 1, 3, 3): "13", (3, 1, 1, 3, 4): "21", (4, 1, 2, 3, 2): "1"}

WRONG_SIDE = "valid bound on the wrong side of the maximum: "

#: (n, k, delta, alpha, q) of the lifted-MRD codes built and verified.
MRD_POINTS = [(4, 2, 1, 3, 2), (6, 3, 2, 2, 2), (4, 2, 2, 3, 4), (2, 1, 1, 3, 16)]

#: (n, k, delta, alpha, q, count) of seeded codes with a planted violation.
PLANTED_CODES = [
    (4, 2, 1, 2, 2, 24),
    (4, 2, 2, 2, 4, 14),
    (3, 1, 1, 3, 16, 24),
    (3, 1, 1, 2, 257, 16),
]

#: (h, r, alpha, ell, eps, q, t, searches) of seeded random searches.  The
#: q = 2 and q = 4 networks sit just inside the field-size threshold, where
#: about 93% of trials fail; the others succeed on nearly every trial.
SEARCHES = [
    (3, 5, 2, 1, 1, 2, 1, 24),
    (3, 10, 2, 1, 1, 4, 1, 6),
    (4, 6, 3, 1, 1, 16, 2, 2),
    (3, 4, 2, 1, 1, 257, 1, 2),
]
SEARCH_TRIALS = 2000

#: (h, r, alpha, ell, eps, q, t) of seeded solutions with two equal
#: coding matrices, so some receiver cannot decode.
PLANTED_SOLUTIONS = [
    (3, 6, 2, 1, 1, 2, 2),
    (3, 6, 2, 1, 1, 4, 1),
    (4, 8, 3, 1, 1, 16, 2),
    (3, 5, 2, 1, 1, 257, 1),
]

#: (h, r, alpha, ell, eps, q, t, count) of the solutions simulate decodes.
DECODE_SOLUTIONS = [
    (3, 5, 2, 1, 1, 16, 2, 8),
    (4, 6, 3, 1, 1, 2, 3, 8),
    (3, 6, 2, 1, 1, 4, 1, 12),
    (3, 4, 2, 1, 1, 257, 1, 12),
]


@dataclass
class Op:
    """One CLI invocation, the check of its outcome, and the exact reason
    the check gives under a known program fault, if any."""

    argv: list[str]
    check: Callable[["Outcome"], None]
    fault: Optional[str] = None

    @property
    def text(self) -> str:
        return " ".join(self.argv)


@dataclass
class Outcome:
    """What one invocation produced; ``error`` is a raised exception's type."""

    rc: Optional[int]
    out: str
    error: Optional[str] = None
    captured: list = field(default_factory=list)


@dataclass
class Workload:
    """Operations of one round, the GF(q) orders set-up builds, and the
    program seeds drawn from the benchmark seed."""

    fields: list[int]
    ops: list[Op]
    seeds: dict


def expect_rc(o: Outcome, rc: int) -> None:
    if o.error is not None:
        raise CheckError(f"raised {o.error}")
    if o.rc != rc:
        raise CheckError(f"exit code {o.rc}, expected {rc}")


def expect_line(o: Outcome, pattern: str) -> re.Match:
    m = re.fullmatch(pattern, o.out.strip())
    if m is None:
        raise CheckError(f"unexpected output {o.out.strip()[:200]!r}")
    return m


class Checks:
    """Reference checks of written files, cached by file content: every
    round re-reads the files, and identical bytes need one verdict."""

    def __init__(self):
        self._codes: dict[str, object] = {}
        self._solutions: dict[str, object] = {}

    def code_witness(self, text: str):
        if text not in self._codes:
            self._codes[text] = ref.worst_code_witness(ref.parse_code_text(text))
        return self._codes[text]

    def solution_witness(self, text: str):
        if text not in self._solutions:
            self._solutions[text] = ref.first_bad_receiver(ref.parse_solution_text(text))
        return self._solutions[text]

    def covering_file(self, path: str, header: tuple) -> None:
        text = _read(path)
        code = ref.parse_code_text(text)
        got = tuple(code[k] for k in ("n", "k", "delta", "alpha", "q")) + (len(code["words"]),)
        if got != header:
            raise CheckError(f"code file header {got}, expected {header}")
        worst = self.code_witness(text)
        if worst is not None:
            raise CheckError(f"written code fails at codewords {worst[0]} (span {worst[1]})")

    def solution_file(self, path: str, header: tuple) -> None:
        text = _read(path)
        sol = ref.parse_solution_text(text)
        got = tuple(sol[k] for k in ("h", "r", "alpha", "ell", "eps", "q", "t"))
        if got != header:
            raise CheckError(f"solution header {got}, expected {header}")
        bad = self.solution_witness(text)
        if bad is not None:
            raise CheckError(f"written solution fails at receiver {bad}")


def _read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Seeded inputs.
# ---------------------------------------------------------------------------


def random_matrix(rng: random.Random, rows: int, cols: int, q: int) -> list[list[int]]:
    return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]


def random_subspace_basis(rng: random.Random, n: int, k: int, q: int) -> list[list[int]]:
    while True:
        m = random_matrix(rng, k, n, q)
        if ref.rank(m, q) == k:
            return m


def other_basis(rng: random.Random, basis: list[list[int]], q: int) -> list[list[int]]:
    """A different basis of the same row space: an invertible recombination."""
    f = ref.ref_field(q)
    k = len(basis)
    while True:
        g = random_matrix(rng, k, k, q)
        if ref.rank(g, q) == k:
            break
    out = []
    for row in g:
        acc = [0] * len(basis[0])
        for c, b in zip(row, basis):
            acc = [f.add(a, f.mul(c, x)) for a, x in zip(acc, b)]
        out.append(acc)
    return out


def random_solution(rng: random.Random, h, r, alpha, ell, eps, q, t) -> list:
    """Uniform coding matrices, redrawn until the reference verifies them."""
    sol = {"h": h, "r": r, "alpha": alpha, "ell": ell, "eps": eps, "q": q, "t": t}
    while True:
        sol["mats"] = [random_matrix(rng, ell * t, h * t, q) for _ in range(r)]
        if ref.first_bad_receiver(sol) is None:
            return sol["mats"]


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# exhaustive
# ---------------------------------------------------------------------------


def _oracle_op(point, path, checks: Checks) -> Op:
    n, k, delta, alpha, q = point
    best = ref.max_code_size(n, k, delta, alpha, q)

    def check(o: Outcome) -> None:
        expect_rc(o, 0)
        m = expect_line(o, r"B = (\d+) \((exact|lower bound)\), nodes=(\d+)")
        if m.group(2) != "exact":
            raise CheckError("search did not certify its maximum")
        if int(m.group(1)) != best:
            raise CheckError(f"maximum {m.group(1)}, closed form {best}")
        checks.covering_file(path, (n, k, delta, alpha, q, best))

    return Op(f"oracle --n {n} --k {k} --delta {delta} --alpha {alpha} --q {q} -o {path}".split(),
              check)


def _decision_op(kind: str, net) -> Op:
    h, r, alpha, ell, eps = net
    want = (ref.ref_qs if kind == "qs" else ref.ref_qv)(h, r, alpha, ell, eps)

    def check(o: Outcome) -> None:
        expect_rc(o, 0)
        m = expect_line(o, kind + r" = (\d+) \((exact|upper bound)\)")
        if (int(m.group(1)), m.group(2)) != (want, "exact"):
            raise CheckError(f"{kind} {m.group(1)} ({m.group(2)}), expected {want} (exact)")

    return Op(f"{kind} --h {h} --r {r} --alpha {alpha} --ell {ell} --eps {eps}".split(), check)


def check_bound_rows(csv_text: str, best: int) -> None:
    """Every valid middle-layer lower bound is at most the certified
    maximum and every valid upper bound at least it."""
    lines = [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
    head = lines[0].split(",")
    col = {name: head.index(name) for name in ("name", "value", "valid")}
    wrong = []
    for ln in lines[1:]:
        cells = next(csv.reader([ln]))
        name, value, valid = cells[col["name"]], cells[col["value"]], cells[col["valid"]]
        if valid != "true" or not name.startswith("middle_"):
            continue
        v = ref.parse_number(value)
        if name.startswith("middle_lb_") and v > best:
            wrong.append(f"{name}={value} > {best}")
        if name.startswith("middle_ub_") and v < best:
            wrong.append(f"{name}={value} < {best}")
    if wrong:
        raise CheckError(WRONG_SIDE + "; ".join(wrong))


def _bounds_op(point) -> Op:
    n, k, delta, alpha, q = point
    best = ref.max_code_size(n, k, delta, alpha, q)
    h, ell, eps = n, k, n - k - delta

    def check(o: Outcome) -> None:
        expect_rc(o, 0)
        check_bound_rows(o.out, best)

    fault = None
    if point in PAIRWISE_AT_ALPHA3:
        fault = f"{WRONG_SIDE}middle_ub_pairwise={PAIRWISE_AT_ALPHA3[point]} < {best}"
    return Op(f"bounds --h {h} --ell {ell} --eps {eps} --alpha {alpha} --q {q} --t 1".split(),
              check, fault)


def _overflow_op() -> Op:
    def check(o: Outcome) -> None:
        expect_rc(o, 0)

    return Op(OVERFLOW_BOUNDS.split(), check, fault="raised OverflowError")


def exhaustive(seed: int, workdir: str) -> Workload:
    checks = Checks()
    ops = []
    for i, point in enumerate(ORACLE_POINTS):
        ops.append(_oracle_op(point, os.path.join(workdir, f"oracle{i}.code"), checks))
        ops.append(_bounds_op(point))
    ops.append(_decision_op("qs", QS_NETWORK))
    ops.append(_decision_op("qv", QV_NETWORK))
    ops.append(_overflow_op())
    order = list(range(len(ops)))
    random.Random(seed).shuffle(order)
    return Workload([2, 3, 4, 5, 7], [ops[i] for i in order], {"order": order})


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _labels(indices) -> str:
    return ",".join(str(i + 1) for i in indices)


def _code_verdict_op(path: str, checks: Checks) -> Op:
    """``verify --code``: the verdict and witness the reference finds."""

    def check(o: Outcome) -> None:
        text = _read(path)
        code = ref.parse_code_text(text)
        need = code["delta"] + code["k"]
        worst = checks.code_witness(text)
        if worst is None:
            expect_rc(o, 0)
            expect_line(o, re.escape(
                f"OK: every {code['alpha']} of {len(code['words'])} codewords span >= {need}"))
        else:
            expect_rc(o, 1)
            sel, dim = worst
            expect_line(o, re.escape(f"FAIL: codewords {_labels(sel)} span {dim} < {need}"))

    return Op(["verify", "--code", path], check)


def _solution_verdict_op(path: str, checks: Checks) -> Op:
    """``verify --solution``: the verdict and receiver the reference finds."""

    def check(o: Outcome) -> None:
        text = _read(path)
        sol = ref.parse_solution_text(text)
        bad = checks.solution_witness(text)
        if bad is None:
            expect_rc(o, 0)
            expect_line(o, re.escape(
                f"OK: all {comb(sol['r'], sol['alpha'])} receivers decode "
                f"(h={sol['h']} r={sol['r']} alpha={sol['alpha']} ell={sol['ell']} "
                f"eps={sol['eps']} q={sol['q']} t={sol['t']})"))
        else:
            expect_rc(o, 1)
            expect_line(o, re.escape(f"FAIL: receiver at middle nodes {_labels(bad)} cannot decode"))

    return Op(["verify", "--solution", path], check)


def _construct_op(point, path: str, checks: Checks) -> Op:
    n, k, delta, alpha, q = point
    size = (alpha - 1) * q ** (max(k, n - k) * (min(k, n - k) - delta + 1))

    def check(o: Outcome) -> None:
        expect_rc(o, 0)
        expect_line(o, re.escape(
            f"constructed covering code: n={n} k={k} delta={delta} alpha={alpha} q={q} "
            f"size={size} -> {path}"))
        checks.covering_file(path, (n, k, delta, alpha, q, size))

    return Op((f"construct --n {n} --k {k} --delta {delta} --alpha {alpha} --q {q} "
               f"-o {path}").split(), check)


def _search_op(net, trials: int, seed: int, path: str, checks: Checks) -> Op:
    h, r, alpha, ell, eps, q, t = net

    def check(o: Outcome) -> None:
        expect_rc(o, 0)
        expect_line(o, re.escape(f"found verifying solution (seed {seed}) -> {path}"))
        checks.solution_file(path, net)

    return Op((f"search --h {h} --r {r} --alpha {alpha} --ell {ell} --eps {eps} --q {q} "
               f"--t {t} --trials {trials} --seed {seed} -o {path}").split(), check)


def verify(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    checks = Checks()
    ops = []
    for i, point in enumerate(MRD_POINTS):
        path = os.path.join(workdir, f"mrd{i}.code")
        ops.append(_construct_op(point, path, checks))
        ops.append(_code_verdict_op(path, checks))
    for i, (n, k, delta, alpha, q, count) in enumerate(PLANTED_CODES):
        words = [random_subspace_basis(rng, n, k, q) for _ in range(count)]
        a, b = sorted(rng.sample(range(count), 2))
        copies = [b] if alpha == 2 else [b, rng.choice([x for x in range(count) if x not in (a, b)])]
        for j in copies:
            words[j] = other_basis(rng, words[a], q)
        path = os.path.join(workdir, f"planted{i}.code")
        _write(path, "# planted\n" + ref.render_code_text(n, k, delta, alpha, q, words))
        ops.append(_code_verdict_op(path, checks))
    search_seeds = []
    for i, (h, r, alpha, ell, eps, q, t, count) in enumerate(SEARCHES):
        net = (h, r, alpha, ell, eps, q, t)
        for j in range(count):
            s = rng.randrange(2**31)
            search_seeds.append(s)
            path = os.path.join(workdir, f"search{i}_{j}.sol")
            ops.append(_search_op(net, SEARCH_TRIALS, s, path, checks))
            ops.append(_solution_verdict_op(path, checks))
    for i, net in enumerate(PLANTED_SOLUTIONS):
        h, r, alpha, ell, eps, q, t = net
        mats = random_solution(rng, *net)
        a, b = sorted(rng.sample(range(r), 2))
        mats[b] = [row[:] for row in mats[a]]
        path = os.path.join(workdir, f"planted{i}.sol")
        _write(path, ref.render_solution_text(h, r, alpha, ell, eps, q, t, mats))
        ops.append(_solution_verdict_op(path, checks))
    return Workload([2, 4, 16, 257], ops, {"search": search_seeds})


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def _simulate_op(path: str, net, count: int, seed: int) -> Op:
    h, r, alpha, ell, eps, q, t = net
    receivers = comb(r, alpha)

    def check(o: Outcome) -> None:
        expect_rc(o, 0)
        expect_line(o, re.escape(
            f"OK: {count} random messages decoded at all {receivers} receivers (seed {seed})"))
        check_decoded(o.captured, count, receivers, h, t, q)

    return Op(f"simulate --solution {path} --count {count} --seed {seed}".split(), check)


def check_decoded(captured: list, count: int, receivers: int, h: int, t: int, q: int) -> None:
    """Every receiver returned exactly the message sent in its round.

    ``captured`` holds one ``(message, decoded)`` pair per round, as
    plain integer rows taken at the ``simulate`` boundary.
    """
    if len(captured) != count:
        raise CheckError(f"{len(captured)} message rounds, expected {count}")
    for round_no, (message, decoded) in enumerate(captured):
        if len(message) != h or any(len(row) != t or not all(0 <= v < q for v in row)
                                    for row in message):
            raise CheckError(f"round {round_no}: message is not an {h}x{t} matrix over GF({q})")
        if len(decoded) != receivers:
            raise CheckError(f"round {round_no}: {len(decoded)} receivers decoded, "
                             f"expected {receivers}")
        for i, got in enumerate(decoded):
            if got != message:
                raise CheckError(f"round {round_no}: receiver {i} decoded {got}, sent {message}")


def decode(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    ops = []
    sim_seeds = []
    for i, (h, r, alpha, ell, eps, q, t, count) in enumerate(DECODE_SOLUTIONS):
        net = (h, r, alpha, ell, eps, q, t)
        mats = random_solution(rng, *net)
        path = os.path.join(workdir, f"decode{i}.sol")
        _write(path, ref.render_solution_text(h, r, alpha, ell, eps, q, t, mats))
        s = rng.randrange(2**31)
        sim_seeds.append(s)
        ops.append(_simulate_op(path, net, count, s))
    return Workload([2, 4, 16, 257], ops, {"simulate": sim_seeds})


WORKLOADS = {"exhaustive": exhaustive, "verify": verify, "decode": decode}
