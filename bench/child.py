"""One workload in a fresh process: set up, run the timed loop, check outputs.

Started by ``run.py``; prints one JSON object as its last line of stdout.
``--t0`` is the parent's ``time.perf_counter()`` just before it started this
process (the clock is system-wide), so ``setup_s`` covers interpreter start,
imports, request generation and long-lived state.  With ``--setup-only`` the
process stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter

from tracer import LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MEMORY_CAP_BYTES = 2 << 30  # address-space cap for this process; a request over it fails "memory"
TAIL_SHARE = 0.10  # latency_tail_ms is the mean latency of the slowest tenth of the mix

# CheckResult names of cobweb.verify, one wall-time metric each
VERIFY_CHECKS = (
    "order-axioms", "structure", "segment-cardinality", "chain-counts", "inverse-counters",
    "mobius-agreement", "incidence-coefficients", "reduction-soundness", "homomorphism",
    "algebra-laws", "negative-controls",
)


class RequestTimeout(BaseException):
    """Raised by SIGALRM when a request exceeds its time budget."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def import_package():
    """Import ``cobweb`` from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import cobweb

    if not os.path.abspath(cobweb.__file__).startswith(src + os.sep):
        raise ImportError(f"cobweb imported from {cobweb.__file__}, not from {src}")


def request_stream(workload):
    """The workload's requests, batch after batch: ``(batch, position, request)``."""
    index = 0
    while True:
        for pos, req in enumerate(workload.batch(index)):
            yield index, pos, req
        index += 1


def run_pass(workload, seconds=None, requests=None, tracer=None):
    """Run ``requests`` requests, or run until the timed wall time reaches
    ``seconds`` once at least one whole batch is done.  Output checks and
    input generation sit outside the timed region."""
    samples = []  # (label, seconds, failure or None)
    wall = 0.0
    for index, pos, req in request_stream(workload):
        if len(samples) == requests or (requests is None and index and wall >= seconds):
            break
        inputs = workload.prepare(req, random.Random(f"{workload.seed}:{index}:{pos}"))
        result = failure = None
        if tracer is not None:
            tracer.request = len(samples)
            tracer.enabled = True
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, req.budget_s)
        try:
            result = workload.execute(req, inputs)
        except RequestTimeout:
            failure = ("timeout", f"over the {req.budget_s} s budget")
        except MemoryError:
            failure = ("memory", "over the address-space cap")
        except Exception as exc:  # the request failed; record it and go on
            failure = ("exception", f"{type(exc).__name__}: {exc}"[:300])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
        wall += dt
        if failure is None:
            try:
                failure = workload.check(req, inputs, result)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                failure = ("wrong-output", f"unreadable output: {type(exc).__name__}: {exc}")
        if tracer is not None and req.argv is not None:
            tracer.counters["cli.output_bytes"] += len(result.out) if result else 0
            tracer.counters["cli.errors"] += result is None or result.code != 0
        samples.append((req.label, dt, failure))
    per_batch = workload.per_batch()
    return {"samples": samples, "wall": wall, "per_batch": per_batch,
            "batches": round(len(samples) / sum(per_batch.values()), 3),
            "sizes": dict(workload.sizes)}


def band_mean(points, lo: float, hi: float) -> tuple[float, int]:
    """Weighted mean of the values between the weight quantiles ``lo`` and
    ``hi`` of ``points`` (sorted ``(value, weight)`` pairs), with a sample cut
    by a bound counting in part.  Also returns how many samples count."""
    total = sum(w for _, w in points)
    a, b = lo * total, hi * total
    acc = num = den = 0.0
    used = 0
    for value, w in points:
        part = min(acc + w, b) - max(acc, a)
        if part > 0:
            num += part * value
            den += part
            used += 1
        acc += w
    return num / den, used


def summarize(run) -> dict:
    """End-to-end figures of one untraced pass.

    A run stops at a request boundary, so its last batch may be cut short.
    Each sample therefore weighs its class's count per batch divided by the
    class's samples in the run: every figure is that of the workload's fixed
    mix, whatever the seed and wherever the run stopped.  The latency figures
    are means over a band of the latency distribution, not single order
    statistics, so a run whose requests met both a fast and a slow host moves
    them by the share of each, not by a jump from one to the other."""
    samples = run["samples"]
    n = len(samples)
    count = Counter(label for label, _, _ in samples)
    weight = {label: run["per_batch"][label] / k for label, k in count.items()}
    points = sorted((dt, weight[label]) for label, dt, _ in samples)
    ok_weight = sum(weight[label] for label, _, f in samples if f is None)
    busy = sum(weight[label] * dt for label, dt, _ in samples)
    iqm, iqm_n = band_mean(points, 0.25, 0.75)
    tail, tail_n = band_mean(points, 1.0 - TAIL_SHARE, 1.0)
    lat = sorted(dt for _, dt, _ in samples)
    high = max(n - 11, 0)
    failures = [(label, f) for label, _, f in samples if f is not None]
    failed_by_class = Counter(label for label, _ in failures)
    by_class: dict[str, list] = {}
    for label, dt, f in samples:
        by_class.setdefault(label, []).append(dt)
    return {
        "samples": n,
        "batches": run["batches"],
        "timed_wall_s": run["wall"],
        "ops_per_s": ok_weight / busy,
        "latency_iqm_ms": iqm * 1e3,
        "latency_iqm_samples": iqm_n,
        "latency_tail_ms": tail * 1e3,
        "latency_tail_share": TAIL_SHARE,
        "latency_tail_samples": tail_n,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        # the highest percentile with at least 10 samples beyond it, for the record
        "latency_high_ms": lat[high] * 1e3,
        "latency_high_percentile": round(100.0 * (high + 1) / n, 2),
        "latency_high_samples_beyond": n - high - 1,
        "failed": len(failures),
        "fail_ratio": 1.0 - ok_weight / sum(w for _, w in points),
        "failures": sorted({f"{label}: {f[0]}: {f[1]}" for label, f in failures}),
        "failure_reasons": dict(Counter(f[0] for _, f in failures)),
        "wrong_outputs": sum(1 for _, f in failures if f[0] == "wrong-output"),
        "checks": {label: {"attempted": len(v), "passed": len(v) - failed_by_class[label]}
                   for label, v in by_class.items()},
        "class_ms": {label: [round(1e3 * f(v), 3) for f in (min, statistics.median, max)]
                     for label, v in by_class.items()},
        "sizes": run["sizes"],
    }


def layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer figures from the traced pass, with the accounting remainder."""
    stats = tracer.stats()  # a defaultdict: a name never traced reads as zeros
    self_s = lambda *names: sum(stats[n][1] for n in names)
    calls = lambda *names: sum(stats[n][0] for n in names)
    out = {
        "sequences.make_sequence.calls": calls("sequences.make_sequence"),
        "sequences.make_sequence.self_s": self_s("sequences.make_sequence"),
    }
    for name in ("build_poset", "comparable_pairs", "convolution_plan", "oracle", "to_dot"):
        out[f"poset.{name}.self_s"] = self_s(f"poset.{name}")
    out["poset.convolution_plan.calls"] = calls("poset.convolution_plan")
    out["poset.oracle.calls"] = calls("poset.oracle")
    out["poset.pairs_built"] = tracer.counters["poset.pairs_built"]
    for name in ("convolve", "invert", "power", "standard_full"):
        out[f"incidence.{name}.self_s"] = self_s(f"incidence.{name}")
    out["incidence.convolve.calls"] = calls("incidence.convolve")
    out["incidence.invert.calls"] = calls("incidence.invert")
    sr = ("reduced.standard_reduced", "reduced.standard_reduced.eta_pow")
    out["reduced.standard_reduced.self_s"] = self_s(*sr)
    out["reduced.standard_reduced.calls"] = calls(*sr)
    out["reduced.standard_reduced.eta_pow.self_s"] = self_s(sr[1])
    for name in ("convolve", "invert", "power", "lift", "project"):
        out[f"reduced.{name}.self_s"] = self_s(f"reduced.{name}")
    out["reduced.convolve.calls"] = calls("reduced.convolve")
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.wall_s"] = stats[f"verify.{check}"][2]
    out["cli.main.self_s"] = self_s("cli.main")
    out["cli.output_bytes"] = tracer.counters["cli.output_bytes"]
    out["cli.errors"] = tracer.counters["cli.errors"]
    layers = {layer: sum(row[1] for name, row in stats.items() if name.split(".")[0] == layer)
              for layer in LAYERS}
    for layer, seconds in layers.items():
        out[f"{layer}.self_s"] = seconds
    out["bench.self_s"] = traced_wall - sum(layers.values())
    out["trace.loop_wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    signal.signal(signal.SIGALRM, _on_alarm)
    import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    workload.setup()
    setup_s = time.perf_counter() - args.t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        if args.trace:
            # untraced and traced passes over the same requests; tracing overhead
            # is the difference of their timed wall times
            plain = run_pass(workload, seconds=args.seconds / 2)
            result["untraced"] = summarize(plain)
            workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
            workload.setup()
            tracer = Tracer()
            tracer.install()
            traced = run_pass(workload, requests=len(plain["samples"]), tracer=tracer)
            result["traced"] = summarize(traced)
            result["per_layer"] = layer_metrics(tracer, traced["wall"], plain["wall"])
            result["spans"] = tracer.span_count()
            result["spans_file"] = os.path.join("bench", "out", f"spans-{args.workload}.jsonl.gz")
            os.makedirs(os.path.join(ROOT, "bench", "out"), exist_ok=True)
            tracer.write(os.path.join(ROOT, result["spans_file"]))
        else:
            result.update(summarize(run_pass(workload, seconds=args.seconds)))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["params"] = workload.params()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
