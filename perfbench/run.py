"""Benchmark of the rankmax library, driven from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process runs a closed loop: each op starts when the
previous one has ended, and every op gets a fresh `RankOracle`.  The run is
made of whole passes over the workload's hosts, each pass in an order drawn
from the seed, and passes continue until `--seconds` have elapsed.  Every
answer is checked against a reference; a wrong answer or an exception counts
as a failed op and never stops the run.

With `--trace 0` the last line of stdout carries the end-to-end metrics.
With `--trace 1` passes alternate between untraced and traced (see
`tracing.py`) and the last line carries the per-layer metrics, including the
untraced and traced throughput.  A fuller record, with the environment, the
machine-independent work counts and the failures, is written to
`perfbench/out/`, and a traced run also writes its spans there.

The program exits with code 2, printing no result, when the checkout holds
no rankmax sources.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"

# One set-up takes tens of milliseconds, so an untraced run repeats it at
# evenly spaced moments between ops and reports the median, which then sees
# the same machine conditions as the ops.
SETUPS = 11

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "oracle.rank_number.calls": "count/op",
    "oracle.rank_number.self_s": "s/op",
    "oracle.rank_number.nodes": "count/op",
    "oracle.rank_number.memo_entries": "count",
    "oracle.exists_ranking.calls": "count/op",
    "oracle.exists_ranking.self_s": "s/op",
    "oracle.classify_edge.calls": "count/op",
    "oracle.classify_edge.self_s": "s/op",
    "oracle.classify_edge.good_ratio": "ratio",
    "oracle.good_edge_set.self_s": "s/op",
    "oracle.enumerate_optimal_rankings.self_s": "s/op",
    "oracle.verify_simultaneous.calls": "count/op",
    "oracle.verify_simultaneous.self_s": "s/op",
    "oracle.longest_path_length.calls": "count/op",
    "oracle.longest_path_length.self_s": "s/op",
    "oracle.refusals": "count",
    "ranking.is_valid_ranking.calls": "count/op",
    "ranking.is_valid_ranking.self_s": "s/op",
    "ranking.build_family.self_s": "s/op",
    "graph.Graph.add_edges.calls": "count/op",
    "graph.Graph.add_edges.self_s": "s/op",
    "graph.Graph.non_edges.self_s": "s/op",
    "construct.family_good_edges.self_s": "s/op",
    "construct.all_levels_good_edges.self_s": "s/op",
    "verify.compare_constructive_oracle.self_s": "s/op",
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
}


def set_up(workload):
    """Import rankmax afresh and build the workload's hosts.

    Returns (rankmax, built hosts, seconds taken)."""
    t0 = time.perf_counter()
    rm = workloads.import_rankmax()
    built = workload.build(rm)
    return rm, built, time.perf_counter() - t0


def time_set_up(workload) -> float:
    """Seconds taken by one more set-up; the loaded rankmax stays in use."""
    loaded = workloads.rankmax_modules()
    try:
        return set_up(workload)[2]
    finally:
        for name in workloads.rankmax_modules():
            del sys.modules[name]
        sys.modules.update(loaded)
        gc.collect()  # free the discarded copy now, not at a varying later time


def measure(rm, workload, hosts, seed: int, seconds: float, tracer=None,
            setup_times: list[float] | None = None) -> dict:
    """Run whole passes until `seconds` have elapsed (and, when tracing, at
    least one untraced and one traced pass).  Given `setup_times`, set-ups
    are timed between ops and appended until it holds SETUPS of them."""
    rng = random.Random(seed)
    passes, failures, counts = [], [], {}
    op_id = 0
    start = time.perf_counter()
    while len(passes) < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        order = list(hosts)
        rng.shuffle(order)
        latencies = []
        with tracing.installed(tracer) if traced else contextlib.nullcontext():
            for host in order:
                if traced:
                    tracer.op = op_id
                elif (setup_times is not None and len(setup_times) < SETUPS and
                      time.perf_counter() - start >= seconds * len(setup_times) / SETUPS):
                    setup_times.append(time_set_up(workload))
                error = None
                t0 = time.perf_counter()
                try:
                    answer = workload.op(rm, host)
                except Exception as exc:
                    error = f"op raised {type(exc).__name__}: {exc}"
                latencies.append(time.perf_counter() - t0)
                if error is None:
                    try:
                        error = workload.check(rm, host, answer)
                        for key, value in workload.counts(answer).items():
                            old = counts.get(key, 0)
                            counts[key] = (max(old, value) if key.startswith("max_")
                                           else old + value)
                    except Exception as exc:
                        error = f"check raised {type(exc).__name__}: {exc}"
                if error is not None:
                    failures.append(f"op {op_id} on {host.key}: {error}")
                op_id += 1
        passes.append({"traced": traced, "latencies": latencies})
    return {"passes": passes, "failures": failures, "counts": counts}


def rate(passes) -> float:
    """Ops completed per second spent in ops.  A plain ratio of totals, not
    a median over passes: the machine may switch between a fast and a slow
    speed, and a median would jump between the two as their shares cross."""
    return (sum(len(p["latencies"]) for p in passes)
            / sum(sum(p["latencies"]) for p in passes))


def end_to_end(run: dict, setup_times: list[float]) -> dict:
    passes = run["passes"]
    pooled = [x for p in passes for x in p["latencies"]]
    p90 = statistics.quantiles(pooled, n=10)[8] if len(pooled) > 1 else pooled[0]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": rate(passes),
        # The median of each pass's median: a mix of equally many fast and
        # slow hosts would put a pooled median on the gap between them.
        "op_ms_p50": 1e3 * statistics.median(statistics.median(p["latencies"])
                                             for p in passes),
        "op_ms_p90": 1e3 * p90,
        "peak_rss_mb": rss_kb / (1024 * 1024 if sys.platform == "darwin" else 1024),
    }


def per_layer(run: dict, tracer: tracing.Tracer) -> dict:
    traced = [p for p in run["passes"] if p["traced"]]
    untraced = [p for p in run["passes"] if not p["traced"]]
    ops = sum(len(p["latencies"]) for p in traced)
    out = {}
    for name, (calls, self_s) in tracer.totals.items():
        out[f"{name}.calls"] = calls / ops
        out[f"{name}.self_s"] = self_s / ops
    classified = tracer.totals["oracle.classify_edge"][0]
    out["oracle.rank_number.nodes"] = tracer.nodes / ops
    out["oracle.rank_number.memo_entries"] = tracer.memo_entries
    out["oracle.classify_edge.good_ratio"] = tracer.good / classified if classified else 0.0
    out["oracle.refusals"] = tracer.refusals
    out["trace.ops_per_s_untraced"] = rate(untraced)
    out["trace.ops_per_s_traced"] = rate(traced)
    return out


def commit_id() -> str | None:
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return None


def environment(seed: int) -> dict:
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": nproc, "platform": platform.platform(),
            "seed": seed, "commit": commit_id()}


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 reference: dict | None = None) -> dict:
    """One benchmark run; returns the full record (see the module docstring)."""
    reference = workloads.load_reference() if reference is None else reference
    rm, built, first_setup = set_up(workload)
    hosts = workload.hosts(rm, built, reference)
    tracer = tracing.Tracer(rm.CapExceeded) if trace else None
    setup_times = None if trace else [first_setup]
    run = measure(rm, workload, hosts, seed, seconds, tracer, setup_times)
    attempted = sum(len(p["latencies"]) for p in run["passes"])
    failed = len(run["failures"])
    metrics = per_layer(run, tracer) if trace else end_to_end(run, setup_times)
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": workload.name,
        "environment": environment(seed), "seconds": seconds, "trace": int(trace),
        "hosts": len(hosts), "passes": len(run["passes"]),
        "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
        "pass_seconds": [sum(p["latencies"]) for p in run["passes"]],
        "setup_seconds": setup_times,
        "counts_per_pass": {k: (v if k.startswith("max_") else v / len(run["passes"]))
                            for k, v in run["counts"].items()},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                    if k in units},
        "layer_totals_per_op": metrics if trace else None,
        "trace_overhead": (metrics["trace.ops_per_s_untraced"]
                           / metrics["trace.ops_per_s_traced"] - 1) if trace else None,
        "failures": run["failures"][:50],
        "spans": tracer.spans if trace else None,
    }


def write_record(record: dict, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{seed}-trace{record['trace']}"
    spans = record.pop("spans")
    if spans is not None:
        t0 = spans[0][1] if spans else 0.0
        rows = [[n, s - t0, e - t0, parent, op] for n, s, e, parent, op in spans]
        (OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent", "op"], "spans": rows}))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record = run_workload(workloads.WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"perfbench: cannot load rankmax: {exc}", file=sys.stderr)
        return 2
    write_record(record, args.seed)
    for failure in record["failures"]:
        print("FAILED", failure)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
