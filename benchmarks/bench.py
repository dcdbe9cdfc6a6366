"""Record the benchmark of one source checkout as ``BENCH_<label>.json``.

Usage:
    python3 benchmarks/bench.py --label L [--checkout DIR] [--seeds 1,2,3,4,5]

Runs ``perfbench/run.py`` of the checkout (default: the one holding this
script) as one child process per (workload, seed), so that each run's
``peak_rss_mib`` is its own, then one traced run (``--trace 1``) per
workload on the first seed.  The workloads and the run length come
from ``BENCHMARK.json``; every workload and check is perfbench's own.
Seeds run in the outer loop, so each workload's runs spread over the
whole measurement.

``BENCH_<label>.json`` is written at the root of the repository holding
this script.  It names the checkout's commit and whether tracked files
were modified on top of it.  Per workload it holds the median and
quartiles of wall_s, setup_s and peak_rss_mib, every run's figures, the
operations attempted and failed, and the per-layer figures of the
traced run; and it records the seeds, run length, numpy and Python
versions, CPU count and the kernel ``backend_name()`` the runs
reported.  The exit code is 1 when any run reports an unexpected
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
END_TO_END = ("wall_s", "setup_s", "peak_rss_mib")


def run(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` child: its result line and full record."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    stem = f"{workload}-s{seed}-t{trace}"
    with open(os.path.join(checkout, "perfbench", "out", f"result-{stem}.json")) as fh:
        result["environment"] = json.load(fh)["environment"]
    return result


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of a metric's runs."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def git(checkout: str, *args):
    """Output of a git command in the checkout, or None outside git."""
    proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True,
                   help="names the record: BENCH_<label>.json, e.g. a change number")
    p.add_argument("--checkout", default=ROOT, help="source checkout to measure")
    p.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated benchmark seeds")
    args = p.parse_args(argv)
    if not args.label.replace("-", "").replace("_", "").isalnum():
        p.error("--label takes letters, digits, '-' and '_' only")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    checkout = os.path.abspath(args.checkout)

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            res = run(checkout, w, seed, seconds, 0)
            runs[w].append(res)
            print(f"# {w} seed={seed} "
                  + " ".join(f"{k}={res['metrics'][k]['value']:.4g}" for k in END_TO_END)
                  + f" failed={res['failed']}/{res['attempted']}", file=sys.stderr)
    traced = {w: run(checkout, w, seeds[0], seconds, 1) for w in workloads}

    env = runs[workloads[0]][0]["environment"]
    record = {
        "label": args.label,
        "commit": git(checkout, "rev-parse", "HEAD"),
        # tracked files edited since that commit: the runs measured them too
        "modified": bool(git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "command": spec["command"],
        "seconds": seconds,
        "seeds": seeds,
        "trace_seed": seeds[0],
        "environment": {"backend": env["backend"], "python": env["python"],
                        "numpy": env["numpy"], "cpu_count": env["nproc"]},
        "workloads": {},
    }
    for w in workloads:
        record["workloads"][w] = {
            "end_to_end": {
                k: dict(spread([r["metrics"][k]["value"] for r in runs[w]]),
                        unit=runs[w][0]["metrics"][k]["unit"])
                for k in END_TO_END
            },
            "attempted": sum(r["attempted"] for r in runs[w]),
            "failed": sum(r["failed"] for r in runs[w]),
            # the traced run's checks count too, so this is the exit code's verdict
            "correct": all(r["correct"] for r in runs[w]) and traced[w]["correct"],
            "runs": [dict({k: r["metrics"][k]["value"] for k in END_TO_END}, seed=seed,
                          attempted=r["attempted"], failed=r["failed"])
                     for seed, r in zip(seeds, runs[w])],
            "per_layer": traced[w]["metrics"],
        }
    correct = all(rec["correct"] for rec in record["workloads"].values())
    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.relpath(out, ROOT)}; correct={correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
