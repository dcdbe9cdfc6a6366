"""Command-line interface.

One binary with subcommands mirroring the module boundaries:

- ``classify``   network solvability class
- ``construct``  covering code from the lifted-MRD construction
- ``verify``     check a covering code or a stored solution
- ``search``     seeded random search for a verifying solution
- ``simulate``   end-to-end encode/decode over random messages
- ``qs`` / ``qv``  smallest scalar field size / vector space size
- ``bounds``     bound tables, optionally swept over one variable
- ``gap``        gap lower bounds over r
- ``oracle``     exhaustive maximum covering-code size

Exit codes: 0 success, 1 verification or search failure, 2 usage or
parse error.  Seeds are explicit flags only; reruns with identical
arguments produce byte-identical output (no timestamps).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__
from .bounds import (
    EXACT_LIMIT,
    GAMMA,
    BoundReport,
    bad_event_prob_ub,
    dependency_degree_report,
    field_size_necessary,
    field_size_sufficient,
    gamma_exact,
    gap_lower_bound,
    gap_lower_bound_closed,
    middle_lb_lll,
    middle_lb_mrd,
    middle_ub_exact,
    middle_ub_pairwise,
    middle_ub_relaxed,
)
from .combnet import (
    ALPHABET_CAP,
    NetworkParams,
    classify,
    compute_qs,
    compute_qv,
    random_solution_search,
    simulate,
    verify_solution,
)
from .ffield import comb_exceeds, field_from_size
from .fileio import (
    parse_code,
    parse_params,
    parse_solution,
    render_code,
    render_solution,
)
from . import combnet, grasscode
from .grasscode import NODE_LIMIT, is_covering_code, max_covering_code
from .linalg import random_matrix
from .rankmetric import covering_code_from_mrd

_SWEEPABLE = ("h", "ell", "eps", "alpha", "q", "t", "r")


#: Ints up to this many bits (at most 4215 decimal digits) stay below
#: the interpreter's default cap on int-to-str conversion, 4300 digits.
_STR_SAFE_BITS = 14000


def _fmt(value) -> str:
    """Deterministic text for a bound value: exact for ints and
    fractions, fixed six decimals for reals, empty for missing."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        # ``str`` refuses ints above ``sys.get_int_max_str_digits()``
        # digits, which exact bounds such as ``middle_ub_exact`` at
        # q = 1024, t = 40 exceed; ``Decimal`` has no such cap
        return str(Decimal(value))
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return _fmt(value.numerator)
        return f"{_fmt(value.numerator)}/{_fmt(value.denominator)}"
    return f"{float(value):.6f}"


def _json_value(value):
    """Fractions, and ints too long for ``str``, go to JSON as their
    exact decimal text."""
    if isinstance(value, Fraction):
        return _fmt(value)
    if isinstance(value, int) and value.bit_length() > _STR_SAFE_BITS:
        return _fmt(value)
    return value


def _assumption_text(report: BoundReport) -> str:
    return ";".join(f"{label}={'ok' if ok else 'fail'}" for label, ok in report.assumptions)


#: Parsed attributes that are not parameters of the run.
_NOT_ECHOED = frozenset({"command", "func", "format", "out", "params"})


def _echo(args) -> str:
    """The command and every parameter it ran with, as parsed, sorted
    by name; unset options and off switches are left out."""
    config = vars(args)
    body = " ".join(f"{k}={_fmt(config[k])}" for k in sorted(config)
                    if k not in _NOT_ECHOED and config[k] is not None and config[k] is not False)
    return f"{args.command} {body}".strip()


def _header_lines(args) -> list[str]:
    return [f"gcnet {__version__}", _echo(args)]


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _parse_values(text: str) -> list[int]:
    """A sweep range: ``start:stop`` or ``start:stop:step`` (inclusive),
    or a comma-separated list.  A range of more than
    ``grasscode.ENUMERATION_LIMIT`` values, read at call time, is refused
    before it is listed."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad range {text!r}: expected start:stop[:step]")
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step <= 0:
            raise ValueError("range step must be positive")
        count = (stop - start) // step + 1
        if count > grasscode.ENUMERATION_LIMIT:
            raise ValueError(f"bad range {text!r}: {count} values, above the cap "
                             f"{grasscode.ENUMERATION_LIMIT}")
        values = list(range(start, stop + 1, step))
    else:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"bad range {text!r}: no values")
    return values


def _count(text: str) -> int:
    """argparse type of a non-negative integer count."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _gamma(text: str) -> float:
    """argparse type of ``--gamma``: a positive finite number, the only
    values the bound evaluators can use (they report None for others)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < math.inf:  # NaN fails the comparison too
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _resolve_params(args, parser: argparse.ArgumentParser) -> NetworkParams:
    """The network from ``--params FILE`` or the flags.  Values read from
    the file are written back onto ``args``, so the echo shows them."""
    if args.params is not None:
        params = parse_params(_read_text(args.params))
        args.h, args.r, args.alpha = params.h, params.r, params.alpha
        args.ell, args.eps = params.ell, params.epsilon
        return params
    missing = [n for n in ("h", "r", "alpha", "ell", "eps") if getattr(args, n) is None]
    if missing:
        parser.error(f"missing --{' --'.join(missing)} (or use --params FILE)")
    return NetworkParams(h=args.h, r=args.r, alpha=args.alpha, ell=args.ell, epsilon=args.eps)


def _add_network_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--h", type=int, help="source messages")
    sp.add_argument("--r", type=int, help="middle layer nodes")
    sp.add_argument("--alpha", type=int, help="middle nodes per receiver")
    sp.add_argument("--ell", type=int, help="parallel links per middle node")
    sp.add_argument("--eps", type=int, help="direct source links per receiver")
    sp.add_argument("--params", metavar="FILE", help="JSON parameter file (overrides flags)")


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def _cmd_classify(args, parser) -> int:
    params = _resolve_params(args, parser)
    cls = classify(params)
    if comb_exceeds(params.r, params.alpha, EXACT_LIMIT):
        receivers = f">2^{EXACT_LIMIT.bit_length() - 1}"
    else:
        receivers = _fmt(params.n_receivers)
    print(f"{cls.name} h={params.h} r={params.r} alpha={params.alpha} "
          f"ell={params.ell} eps={params.epsilon} receivers={receivers}")
    return 0


def _cmd_construct(args, parser) -> int:
    code = covering_code_from_mrd(args.n, args.k, args.delta, args.alpha, args.q)
    _write_output(render_code(code, header=_header_lines(args)), args.out)
    if args.out is not None:
        print(f"constructed covering code: n={code.n} k={code.k} delta={code.delta} "
              f"alpha={code.alpha} q={code.field.q} size={code.size} -> {args.out}")
    return 0


def _labels(indices: tuple[int, ...]) -> str:
    """0-based indices as the 1-based comma list the CLI prints."""
    return ",".join(str(i + 1) for i in indices)


def _receiver_failure(witness: tuple[int, ...]) -> str:
    return f"FAIL: receiver at middle nodes {_labels(witness)} cannot decode"


def _cmd_verify(args, parser) -> int:
    if args.code is not None:
        code = parse_code(_read_text(args.code))
        ok, witness = is_covering_code(code)
        if ok:
            print(f"OK: every {code.alpha} of {code.size} codewords span >= {code.delta + code.k}")
            return 0
        print(f"FAIL: codewords {_labels(witness.indices)} span {witness.achieved_dim} "
              f"< {witness.required_dim}")
        return 1
    sol = parse_solution(_read_text(args.solution))
    ok, witness = verify_solution(sol)
    p = sol.params
    if ok:
        print(f"OK: all {p.n_receivers} receivers decode "
              f"(h={p.h} r={p.r} alpha={p.alpha} ell={p.ell} eps={p.epsilon} "
              f"q={sol.field.q} t={sol.t})")
        return 0
    print(_receiver_failure(witness))
    return 1


def _cmd_search(args, parser) -> int:
    params = _resolve_params(args, parser)
    field = field_from_size(args.q)
    sol = random_solution_search(params, field, args.t, args.trials, args.seed)
    if sol is None:
        print(f"no verifying solution in {args.trials} trials (seed {args.seed})")
        return 1
    if args.out is not None:
        _write_output(render_solution(sol, header=_header_lines(args)), args.out)
        print(f"found verifying solution (seed {args.seed}) -> {args.out}")
    else:
        print(f"found verifying solution (seed {args.seed})")
    return 0


def _cmd_simulate(args, parser) -> int:
    sol = parse_solution(_read_text(args.solution))
    try:
        sol.decoder_plan  # the batched reduction of all receivers decides validity too
    except ValueError:
        _, witness = verify_solution(sol)  # names the witness; UNSOLVABLE re-raises
        print(_receiver_failure(witness))
        return 1
    p = sol.params
    rng = np.random.default_rng(args.seed)
    for round_no in range(args.count):
        messages = random_matrix(sol.field, p.h, sol.t, rng)
        decoded = simulate(sol, messages)
        wrong = np.array([d.data for d in decoded]) != messages.data
        if wrong.any():
            recv = p.receivers()[wrong.any(axis=(1, 2)).argmax()]
            print(f"FAIL: round {round_no} receiver at middle nodes {_labels(recv)} "
                  f"decoded incorrectly")
            return 1
    print(f"OK: {args.count} random messages decoded at all {p.n_receivers} receivers "
          f"(seed {args.seed})")
    return 0


def _cmd_qs(args, parser) -> int:
    params = _resolve_params(args, parser)
    q, exact = compute_qs(params, q_cap=args.q_cap, node_limit=args.node_limit)
    if q is None:
        print(f"qs: none found with q <= {min(args.q_cap, combnet.ORDER_LIMIT)}")
        return 1
    print(f"qs = {q} ({'exact' if exact else 'upper bound'})")
    return 0


def _cmd_qv(args, parser) -> int:
    params = _resolve_params(args, parser)
    value, exact = compute_qv(params, qt_cap=args.qt_cap, node_limit=args.node_limit)
    if value is None:
        # q^t runs to the cap, but q itself stops at the field order limit
        limit = f", q <= {combnet.ORDER_LIMIT}" if args.qt_cap > combnet.ORDER_LIMIT else ""
        print(f"qv: none found with q^t <= {args.qt_cap}{limit}")
        return 1
    print(f"qv = {value} ({'exact' if exact else 'upper bound'})")
    return 0


def _point_reports(h, ell, eps, alpha, q, t, r, gamma, plus_one) -> list[BoundReport]:
    reports = []
    if q is not None and t is not None:
        reports.append(middle_ub_exact(h, ell, eps, alpha, q, t))
        reports.append(middle_ub_relaxed(h, ell, eps, alpha, q, t, gamma=gamma))
        reports.append(middle_ub_pairwise(h, ell, eps, q, t, gamma=gamma, alpha=alpha))
        reports.append(middle_lb_lll(h, ell, eps, alpha, q, t, gamma=gamma, plus_one=plus_one))
        reports.append(middle_lb_mrd(h, ell, eps, alpha, q, t))
        reports.append(bad_event_prob_ub(h, ell, eps, alpha, q, t, gamma=gamma))
    if r is not None and t is not None:
        reports.append(field_size_necessary(h, ell, eps, alpha, r, t, gamma=gamma))
        reports.append(field_size_sufficient(h, ell, eps, alpha, r, t, gamma=gamma))
    if r is not None:
        reports.append(gap_lower_bound(h, ell, eps, alpha, r, gamma=gamma))
        reports.append(gap_lower_bound_closed(h, ell, eps, alpha, r, gamma=gamma))
        reports.append(dependency_degree_report(r, alpha))
    return reports


def _cmd_bounds(args, parser) -> int:
    base = {name: getattr(args, name) for name in _SWEEPABLE}
    sweep_var, sweep_values = None, [None]
    if args.sweep is not None:
        if "=" not in args.sweep:
            parser.error("--sweep expects VAR=RANGE")
        sweep_var, range_text = args.sweep.split("=", 1)
        if sweep_var not in _SWEEPABLE:
            parser.error(f"--sweep variable must be one of {', '.join(_SWEEPABLE)}")
        sweep_values = sorted(_parse_values(range_text))
    for name in ("h", "ell", "eps", "alpha"):
        if base[name] is None and sweep_var != name:
            parser.error(f"missing --{name}")
    if base["q"] is None and sweep_var != "q" and base["r"] is None and sweep_var != "r":
        parser.error("provide --q --t for code bounds and/or --r for gap bounds")

    rows = []
    for value in sweep_values:
        point = dict(base)
        if sweep_var is not None:
            point[sweep_var] = value
        gamma = args.gamma
        if args.exact_gamma:
            if point["q"] is None:
                parser.error("--exact-gamma requires --q")
            gamma = gamma_exact(point["q"])
        for rep in _point_reports(**point, gamma=gamma, plus_one=args.plus_one):
            rows.append({**point, "name": rep.name, "value": rep.value, "valid": rep.valid,
                         "assumptions": _assumption_text(rep)})

    columns = [*_SWEEPABLE, "name", "value", "valid", "assumptions"]
    text = _render_table(rows, columns, args)
    _write_output(text, args.out)
    return 0


def _cmd_gap(args, parser) -> int:
    if (args.r is None) == (args.r_range is None):
        parser.error("provide exactly one of --r or --r-range")
    r_values = [args.r] if args.r is not None else sorted(_parse_values(args.r_range))
    rows = []
    for r in r_values:
        search = gap_lower_bound(args.h, args.ell, args.eps, args.alpha, r, gamma=args.gamma)
        closed = gap_lower_bound_closed(args.h, args.ell, args.eps, args.alpha, r, gamma=args.gamma)
        rows.append({
            "r": r,
            "gap_lower_bound": search.value if search.valid else None,
            "gap_lower_bound_closed": closed.value if closed.valid else None,
        })
    text = _render_table(rows, ["r", "gap_lower_bound", "gap_lower_bound_closed"], args)
    _write_output(text, args.out)
    return 0


def _cmd_oracle(args, parser) -> int:
    result = max_covering_code(
        args.n, args.k, args.delta, args.alpha, field_from_size(args.q),
        node_limit=args.node_limit, target_size=args.target_size,
    )
    kind = "exact" if result.exact else "lower bound"
    print(f"B = {result.size} ({kind}), nodes={result.nodes}")
    print(f"certified_by={result.certified_by}", file=sys.stderr)
    if args.out is not None:
        if result.size < args.alpha:
            print(f"no code of size >= alpha found; nothing written to {args.out}")
        else:
            _write_output(render_code(result.code, header=_header_lines(args)), args.out)
    return 0


def _render_table(rows: list[dict], columns: list[str], args) -> str:
    if args.format == "json":
        doc = {
            "meta": {"tool": "gcnet", "version": __version__, "echo": _echo(args)},
            "rows": [{k: _json_value(row[k]) for k in columns} for row in rows],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    for line in _header_lines(args):
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[k]) for k in columns])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one declaration of every command and its parameters, built on
    first use and shared by every later call in the process; callers
    must not change it."""
    parser = argparse.ArgumentParser(
        prog="gcnet",
        description="Linear solutions of generalized combination networks "
                    "via covering subspace codes: construct, verify, search, "
                    "and evaluate bounds.",
    )
    parser.add_argument("--version", action="version", version=f"gcnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("classify", help="solvability class of a network")
    _add_network_flags(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("construct", help="covering code from the lifted-MRD construction")
    sp.add_argument("--n", type=int, required=True, help="ambient dimension")
    sp.add_argument("--k", type=int, required=True, help="codeword dimension")
    sp.add_argument("--delta", type=int, required=True, help="covering surplus")
    sp.add_argument("--alpha", type=int, required=True, help="covering arity")
    sp.add_argument("--q", type=int, required=True, help="field size")
    sp.add_argument("-o", "--out", help="output file (default: stdout)")
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("verify", help="check a stored covering code or solution")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--code", help="covering code file")
    group.add_argument("--solution", help="solution file")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("search", help="seeded random search for a verifying solution")
    _add_network_flags(sp)
    sp.add_argument("--q", type=int, required=True, help="field size")
    sp.add_argument("--t", type=_count, default=1, help="message length (default 1)")
    sp.add_argument("--trials", type=_count, default=1000, help="draws to attempt")
    sp.add_argument("--seed", type=_count, required=True, help="base seed")
    sp.add_argument("-o", "--out", help="write the found solution here")
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("simulate", help="random-message encode/decode round trips")
    sp.add_argument("--solution", required=True, help="solution file")
    sp.add_argument("--count", type=_count, default=100, help="message rounds (default 100)")
    sp.add_argument("--seed", type=_count, required=True, help="message seed")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("qs", help="smallest scalar field size solving the network")
    _add_network_flags(sp)
    sp.add_argument("--q-cap", type=_count, default=ALPHABET_CAP, help="largest field size to try")
    sp.add_argument("--node-limit", type=_count, default=NODE_LIMIT)
    sp.set_defaults(func=_cmd_qs)

    sp = sub.add_parser("qv", help="smallest vector space size q^t solving the network")
    _add_network_flags(sp)
    sp.add_argument("--qt-cap", type=_count, default=ALPHABET_CAP, help="largest q^t to try")
    sp.add_argument("--node-limit", type=_count, default=NODE_LIMIT)
    sp.set_defaults(func=_cmd_qv)

    sp = sub.add_parser("bounds", help="evaluate bound tables at a point or over a sweep")
    sp.add_argument("--h", type=int)
    sp.add_argument("--ell", type=int)
    sp.add_argument("--eps", type=int)
    sp.add_argument("--alpha", type=int)
    sp.add_argument("--q", type=int, help="field size (enables code bounds)")
    sp.add_argument("--t", type=int, help="message length (enables code bounds)")
    sp.add_argument("--r", type=int, help="middle nodes (enables gap and threshold bounds)")
    sp.add_argument("--sweep", metavar="VAR=RANGE",
                    help="vary one of h,ell,eps,alpha,q,t,r over start:stop[:step] or a list")
    sp.add_argument("--gamma", type=_gamma, default=GAMMA)
    sp.add_argument("--exact-gamma", action="store_true",
                    help="use the convergent product for gamma at the given q")
    sp.add_argument("--plus-one", action="store_true",
                    help="use the +1 variant of the random-coding lower bound")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("-o", "--out", help="output file (default: stdout)")
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("gap", help="gap lower bounds as a function of r")
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--eps", type=int, required=True)
    sp.add_argument("--alpha", type=int, required=True)
    sp.add_argument("--r", type=int, help="single middle-layer size")
    sp.add_argument("--r-range", metavar="RANGE", help="start:stop[:step] or comma list")
    sp.add_argument("--gamma", type=_gamma, default=GAMMA)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("-o", "--out", help="output file (default: stdout)")
    sp.set_defaults(func=_cmd_gap)

    sp = sub.add_parser("oracle", help="exhaustive maximum covering-code size")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--delta", type=int, required=True)
    sp.add_argument("--alpha", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--node-limit", type=_count, default=NODE_LIMIT)
    sp.add_argument("--target-size", type=_count, default=None,
                    help="stop early once a code of this size is found")
    sp.add_argument("-o", "--out", help="write the best code found")
    sp.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, parser)
    except SystemExit as exc:
        # argparse's own errors, --help and --version, and parser.error in a handler
        return exc.code if isinstance(exc.code, int) else 2
    except FileNotFoundError as exc:
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
