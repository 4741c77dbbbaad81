"""Benchmark of the cobweb package: three closed-loop workloads, one client each.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is ``verify-sweep``, ``rank-tables``, ``algebra-session`` or ``all``
(the three in turn).  ``BENCHMARK.json`` lists the workloads whose figures are
compared between commits; ``rank-tables`` is not among them (see README.md).  Each workload runs in its own fresh child process
(``bench/child.py``), which imports ``cobweb`` from this checkout's ``src``
and calls its public API in-process.  ``SETUP_RUNS - 1`` further children
only set up, and ``setup_s`` is the median over all of them.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are its
per-layer metrics, from a traced pass that follows an untraced pass over the
same requests.  The lines before it are the results record: environment,
workload parameters, input sizes, sample counts, output checks and failures.
Exit code 0 means a result was printed; anything else means no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")
WORKLOADS = ("verify-sweep", "rank-tables", "algebra-session")
SETUP_RUNS = 5
DEADLINE_S = 170.0  # per workload; a child still running then is killed


class BenchError(Exception):
    pass


def spawn(workload: str, args, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload}: child did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: child exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: child printed no result")
    return json.loads(lines[-1])


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, args, spec: dict) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    main = spawn(workload, args, False, deadline)
    setups = [main["setup_s"]]
    if not args.trace:
        setups += [spawn(workload, args, True, deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        passes = [main["untraced"], main["traced"]]
        values = main["per_layer"]
        names = [m["name"] for m in spec["per_layer"]]
    else:
        passes = [main]
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": main["ops_per_s"],
            "latency_iqm_ms": main["latency_iqm_ms"],
            "latency_tail_ms": main["latency_tail_ms"],
            "peak_rss_mb": main["peak_rss_mb"],
            "ok_ratio": 1.0 - main["fail_ratio"],
        }
        names = [m["name"] for m in spec["end_to_end"]]
    missing = [name for name in names if name not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    record = {k: v for k, v in main.items() if k != "per_layer"}
    record["setup_s_samples"] = setups
    return {
        "record": record,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
        "attempted": sum(p["samples"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "correct": all(p["wrong_outputs"] == 0 for p in passes),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    report = []  # printed only once every workload has a result
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        env = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        }
        report.append(json.dumps({"environment": env}))
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in chosen:
            res = results[workload] = run_workload(workload, args, spec)
            report.append(json.dumps({"workload": workload, **res["record"]}, indent=1))
            for name, m in res["metrics"].items():
                report.append(f"{workload:16} {name:44} {m['value']:>16.6g} {m['unit']}")
            checks = res["record"].get("checks") or res["record"]["traced"]["checks"]
            for label, c in checks.items():
                report.append(
                    f"{workload:16} check {label:60} {c['passed']}/{c['attempted']} passed")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, res in results.items() for k, v in res["metrics"].items()}
    report.append(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    print("\n".join(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
