"""gcnet benchmark: three workloads run end to end through gcnet.cli.main.

Usage:
    python3 perfbench/run.py --workload {exhaustive,verify,decode} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; gcnet is imported from its
``src`` directory, in this one process and thread.  A timed run
(``--trace 0``) repeats whole rounds of the workload's operations until
S seconds have passed and reports ``setup_s``, ``wall_s`` and
``peak_rss_mib``; both times are scaled by the machine speed sampled
around them (see :func:`sample_speed`).  A traced run (``--trace 1``)
alternates untraced and traced rounds of the workload until S seconds
have passed, and reports the per-layer figures per traced round.

Every operation's output is checked against the independent references
in ``reference.py``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with the environment and the program
seeds, goes to ``perfbench/out/``.  The exit code is 0 when every
operation either passed its check or failed with exactly the reason its
known fault gives.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from reference import CheckError
from tracing import Tracer
from workloads import WORKLOADS, Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Fresh interpreters timed per run for ``setup_s``, after one that
#: warms the byte-code cache and is not counted.
SETUP_PROBES = 11

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "ffield.tables_ms": "ms",
    "linalg.rank_calls": "count",
    "linalg.rank_us": "us",
    "linalg.kernel_us": "us",
    "linalg.rref_calls": "count",
    "linalg.rref_us": "us",
    "linalg.solve_us": "us",
    "linalg.matmul_us": "us",
    "grasscode.enumerate_ms": "ms",
    "grasscode.search_nodes": "count",
    "grasscode.nodes_per_s": "1/s",
    "grasscode.rank_calls_per_node": "count",
    "grasscode.search_glue_s": "s",
    "grasscode.subsets_per_s": "1/s",
    "combnet.receivers_per_s": "1/s",
    "combnet.trials": "count",
    "combnet.trials_per_s": "1/s",
    "combnet.decisions": "count",
    "combnet.direct_links_ms": "ms",
    "combnet.decode_us": "us",
    "rankmetric.construct_ms": "ms",
    "fileio.parse_ms": "ms",
    "fileio.render_ms": "ms",
    "bounds.eval_us": "us",
    "cli.self_ms": "ms",
    "trace.overhead_pct": "%",
}


def monotonic() -> float:
    """The system-wide clock the set-up probes read as well."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


#: Seconds one speed sample takes on the machine that wall_s and setup_s
#: are expressed for.
SPEED_REFERENCE_S = 1.0e-3


def sample_speed(into: list, count: int = 3) -> None:
    """Append the times of ``count`` fixed slices of pure-Python integer
    work that does not touch gcnet.

    On a shared VM the same work can take 60% longer from one second to
    the next, and raw wall time spreads by 20% from run to run.  The time
    of this slice tracks the search's time in proportion (log-log slope
    1.03 over 225 paired measurements), where slices of small-array NumPy
    work overreact (slope 0.6).
    """
    for _ in range(count):
        start = time.perf_counter()
        acc = 0
        for i in range(8000):
            acc += i * 3 ^ (i >> 2)
        into.append(time.perf_counter() - start)


def speed_scale(samples) -> float:
    """SPEED_REFERENCE_S over the mean sample, the slowest and fastest
    tenth dropped.  Raw times multiplied by it read as seconds on a
    machine where one slice takes SPEED_REFERENCE_S; a change in the
    program's own speed passes through unchanged."""
    s = sorted(samples)
    kept = s[len(s) // 10:len(s) - len(s) // 10]
    return SPEED_REFERENCE_S * len(kept) / sum(kept)


def measure_setup(fields) -> tuple[list[float], float]:
    """Seconds from spawning a fresh interpreter to its first operation,
    per probe, and the speed scale sampled between the probes."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
           ",".join(str(q) for q in fields)]
    times, samples = [], []
    for i in range(SETUP_PROBES + 1):
        sample_speed(samples)
        spawned = monotonic()
        proc = subprocess.run(cmd + [repr(spawned)], capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if i:
            times.append(float(proc.stdout.split()[-1]))
    return times, speed_scale(samples)


class Runner:
    """Runs operations through ``gcnet.cli.main`` with stdout captured.

    ``simulate`` is reached through a capture that keeps each round's
    message and decoded matrices for the decode check; it looks the
    function up on ``gcnet.combnet`` at call time, so spans set there by
    the tracer still see the call.
    """

    def __init__(self, tracer=None):
        import gcnet.cli
        import gcnet.combnet

        self.cli = gcnet.cli
        self.tracer = tracer
        self.captured: list = []
        combnet = gcnet.combnet

        def simulate(sol, messages):
            decoded = combnet.simulate(sol, messages)
            self.captured.append((messages.data, [d.data for d in decoded]))
            return decoded

        self.cli.simulate = simulate

    def run_op(self, op):
        self.captured = []
        out = io.StringIO()
        error = None
        if self.tracer is not None:
            self.tracer.label = op.text
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(op.argv))
            except Exception as exc:  # a traceback from the CLI is an operation failure
                rc, error = None, type(exc).__name__
            elapsed = time.perf_counter() - start
        captured = [([[int(v) for v in row] for row in msg],
                     [[[int(v) for v in row] for row in d] for d in dec])
                    for msg, dec in self.captured]
        return Outcome(rc, out.getvalue(), error, captured), elapsed

    def round(self, wl) -> dict:
        """One pass over the workload's operations, each checked, with
        speed samples between them for the round's speed scale."""
        times, samples = [], []
        failed, unexpected = [], []
        for op in wl.ops:
            sample_speed(samples)
            outcome, elapsed = self.run_op(op)
            times.append(elapsed)
            try:
                op.check(outcome)
                continue
            except CheckError as exc:
                reason = str(exc)
            except Exception:
                reason = "check raised " + traceback.format_exc(limit=3)
            failed.append({"op": op.text, "reason": reason})
            if reason != op.fault:
                unexpected.append(failed[-1])
        sample_speed(samples)
        return {"wall_s": sum(times), "op_s": times, "scale": speed_scale(samples),
                "attempted": len(wl.ops), "failed": failed, "unexpected": unexpected}


def build_fields(fields) -> None:
    from gcnet.ffield import field_from_size

    for q in fields:
        field_from_size(q)


def timed_run(args, workdir) -> dict:
    wl = WORKLOADS[args.workload](args.seed, workdir)
    setup, setup_scale = measure_setup(wl.fields)
    build_fields(wl.fields)
    runner = Runner()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(runner.round(wl))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # each round scaled by the speed sampled during it, then per-operation
    # medians: a slow spell spoils a few samples, not the whole estimate
    op_medians = [statistics.median(r["op_s"][i] * r["scale"] for r in rounds)
                  for i in range(len(wl.ops))]
    metrics = {
        "setup_s": statistics.median(setup) * setup_scale,
        "wall_s": sum(op_medians),
        "peak_rss_mib": peak_kib / 1024.0,
    }
    by_command: dict[str, float] = {}
    for op, t in zip(wl.ops, op_medians):
        by_command[op.argv[0]] = by_command.get(op.argv[0], 0.0) + t
    return {"metrics": metrics, "rounds": rounds, "seeds": {args.workload: wl.seeds},
            "samples": {"setup_speed_scale": setup_scale, "raw_setup_s": setup,
                        "round_speed_scale": [r["scale"] for r in rounds],
                        "raw_round_s": [r["wall_s"] for r in rounds],
                        "wall_s_by_command": by_command}}


def traced_run(args, workdir) -> dict:
    import gcnet.ffield

    wl = WORKLOADS[args.workload](args.seed, workdir)
    build_fields(wl.fields)
    tracer = Tracer()
    runner = Runner(tracer)
    field_create = gcnet.ffield.field_create
    plain, traced = [], []
    start = time.perf_counter()
    # each traced round follows an untraced round, so the overhead
    # compares rounds run close together in time
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(runner.round(wl))
        tracer.install()
        try:
            field_create.cache_clear()
            frame = tracer.enter("setup")
            build_fields(wl.fields)
            tracer.leave(frame)
            traced.append(runner.round(wl))
        finally:
            tracer.uninstall()
    metrics = tracer.metrics(len(traced))
    plain_s = sum(r["wall_s"] * r["scale"] for r in plain)
    traced_s = sum(r["wall_s"] * r["scale"] for r in traced)
    metrics["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
    trace = {
        "passes": len(traced),
        "untraced_round_s": [r["wall_s"] for r in plain],
        "traced_round_s": [r["wall_s"] for r in traced],
        "untraced_speed_scale": [r["scale"] for r in plain],
        "traced_speed_scale": [r["scale"] for r in traced],
        "shares": tracer.shares(),
        "spans": tracer.report(),
    }
    return {"metrics": metrics, "rounds": plain + traced,
            "seeds": {args.workload: wl.seeds}, "trace": trace}


def environment(nproc: int) -> dict:
    import gcnet
    import numpy

    return {
        "backend": gcnet.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "pinned_cpu": min(os.sched_getaffinity(0)),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gcnet", "__init__.py")):
        print(f"error: no gcnet sources in {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # one CPU for this process and the probes it starts, so that speed
    # samples and the work they scale share a processor
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import gcnet

    if not os.path.abspath(gcnet.__file__).startswith(SRC + os.sep):
        print(f"error: gcnet imported from {gcnet.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        res = (traced_run if args.trace else timed_run)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = res["rounds"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    unexpected = [f for r in rounds for f in r["unexpected"]]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()}
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = dict(result)
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "environment": environment(nproc),
        "program_seeds": res["seeds"], "samples": res.get("samples"),
        "failures": rounds[-1]["failed"], "unexpected": unexpected[:20],
    })
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    if args.trace:
        with open(os.path.join(OUT, f"trace-{stem}.json"), "w") as fh:
            json.dump(res["trace"], fh, indent=2)

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} backend={env['backend']} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']}")
    print(f"# program seeds: {json.dumps(res['seeds'], sort_keys=True)}")
    for f in rounds[-1]["failed"]:
        print(f"# failed: {f['op']}: {f['reason']}")
    for f in unexpected[:20]:
        print(f"# UNEXPECTED: {f['op']}: {f['reason']}")
    for k, m in metrics.items():
        print(f"# {k} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        sm = res["samples"]
        print(f"# raw set-up median {statistics.median(sm['raw_setup_s']):.4f} s x speed scale "
              f"{sm['setup_speed_scale']:.4f}; raw round median "
              f"{statistics.median(sm['raw_round_s']):.4f} s, round speed scales "
              f"{min(sm['round_speed_scale']):.3f}..{max(sm['round_speed_scale']):.3f}")
    print(f"# attempted={attempted} failed={failed} correct={result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
