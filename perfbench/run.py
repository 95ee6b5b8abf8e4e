#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload wire_box --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
perfbench program from src/ into .bench_build/ (or $CARGO_TARGET_DIR);
later runs rebuild incrementally. The program measures the workload and
writes raw samples; this script turns them into metrics, prints the run
context and a table, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md for what each one means).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

WORKLOADS = ("wire_box", "embedded_halfspace", "online_feedback")
RUN_TIMEOUT_S = 170
BANDS = (("sel_lt1pct", 0.0, 0.01), ("sel_1to10pct", 0.01, 0.10),
         ("sel_10to50pct", 0.10, 0.50), ("sel_ge50pct", 0.50, 1.01))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources in %s; run from the repository root"
             % (ROOT / "src"))
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return out / "perfbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unavailable"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def src_digest():
    """SHA-256 over the library sources, which names the measured code
    where the tree is not a git checkout."""
    h = hashlib.sha256()
    for path in sorted(p for p in (ROOT / "src").rglob("*") if p.is_file()):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# --- End-to-end metrics --------------------------------------------------

END_TO_END = (
    ("setup_s", "s"), ("throughput_qps", "1/s"), ("latency_p50_us", "us"),
    ("latency_p90_us", "us"), ("qerror_p50", "ratio"),
    ("qerror_p95", "ratio"), ("retrain_mean_ms", "ms"),
)


def pooled(windows):
    """Per-interval read figures of every window's whole intervals, pooled
    over the windows (rate, p50 and p90 latency), and the retrain samples
    of each feedback pass that ran with no reading connection beside it."""
    out = {"rates": [], "p50": [], "p90": [], "passes": []}
    for w in windows:
        reads, span = w["reads"], (w["begin"], w["end"])
        if reads["done"]:
            out["rates"] += stats.interval_rates(reads["done"], *span,
                                                 w["queries_per_op"])
            for p in (50, 90):
                out["p%d" % p] += stats.interval_percentiles(
                    reads["value"], reads["done"], *span, p)
        if w["readers"] == 0:
            out["passes"].append(w["retrain"]["value"])
    return out


def end_to_end(raw, q):
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "throughput_qps": stats.interval_median(q["rates"]),
        "latency_p50_us": stats.interval_median(q["p50"]),
        "latency_p90_us": stats.interval_median(q["p90"]),
        "qerror_p50": stats.percentile(raw["qerror"], 50),
        "qerror_p95": stats.percentile(raw["qerror"], 95),
        # Each pass replays the same 20 retrains, whose costs fall in a
        # cheap and an expensive cluster; a percentile of that mix jumps
        # between the clusters, the mean of a pass follows the work.
        "retrain_mean_ms": stats.median_of_means(q["passes"]),
    }


# --- Per-layer metrics (traced run) --------------------------------------

# name, unit, the end-to-end metric it should move (workload/metric).
PER_LAYER = (
    ("server.request_us_p50", "us", "wire_box/latency_p50_us"),
    ("server.outside_us_p50", "us", "wire_box/latency_p50_us"),
    ("server.batch_queries_mean", "count", "wire_box/throughput_qps"),
    ("proto.encode_ns", "ns", "wire_box/latency_p50_us"),
    ("proto.decode_ns", "ns", "wire_box/latency_p50_us"),
    ("server.failed_frac", "ratio", "all/throughput_qps"),
    ("server.feedback_us_p50", "us", "online_feedback/retrain_mean_ms"),
    ("serve.one_us", "us", "embedded_halfspace/latency_p50_us"),
    ("serve.box_one_us", "us", "wire_box/latency_p50_us (no change)"),
    ("serve.many_us_per_query", "us", "embedded_halfspace/latency_p50_us"),
    ("serve.entries_visited_per_query", "count",
     "embedded_halfspace/latency_p50_us"),
    ("serve.prune_ratio", "ratio", "embedded_halfspace/latency_p50_us"),
    ("serve.plan_entries", "count", "embedded_halfspace/latency_p50_us"),
) + tuple(
    ("serve.one_us." + b[0], "us", "embedded_halfspace/latency_p50_us")
    for b in BANDS
) + tuple(
    ("serve.prune_ratio." + b[0], "ratio", "embedded_halfspace/latency_p50_us")
    for b in BANDS
) + (
    ("geometry.box_halfspace_ns", "ns", "embedded_halfspace/latency_p50_us"),
    ("pool.fanout_speedup", "x", "embedded_halfspace/throughput_qps"),
    ("pool.task_us_p50", "us", "embedded_halfspace/latency_p50_us"),
    ("train.retrain_ms", "ms", "online_feedback/retrain_mean_ms"),
    ("train.assemble_ms", "ms", "online_feedback/retrain_mean_ms"),
    ("train.solve_ms", "ms", "online_feedback/retrain_mean_ms"),
    ("train.compile_ms", "ms", "online_feedback/retrain_mean_ms"),
    ("online.gate_ms", "ms", "online_feedback/retrain_mean_ms"),
    ("train.fallback_share.primary", "ratio", "online_feedback/qerror_p50"),
    ("train.fallback_share.l2pg", "ratio", "online_feedback/qerror_p50"),
    ("train.fallback_share.nnls_polish", "ratio",
     "online_feedback/retrain_mean_ms"),
    ("train.fallback_share.uniform", "ratio", "online_feedback/qerror_p95"),
    ("train.solver_iterations_p50", "count",
     "online_feedback/retrain_mean_ms"),
    ("online.published_share", "ratio", "online_feedback/qerror_p50"),
    ("solver.pg_ms", "ms", "online_feedback/retrain_mean_ms"),
    ("solver.nnls_ms", "ms", "online_feedback/retrain_mean_ms"),
    ("self.server.batch_us", "us", "wire_box/latency_p50_us"),
    ("self.online.retrain_ms", "ms", "online_feedback/retrain_mean_ms"),
    ("self.train.solve_weights_ms", "ms", "online_feedback/retrain_mean_ms"),
    ("trace.overhead_pct", "%", "<workload>/latency_p50_us"),
)


def _hist(segment, name, field):
    return segment["metrics"]["histograms"].get(name, {}).get(field, 0.0)


def _counter(segment, name):
    return segment["metrics"]["counters"].get(name, 0)


def _spans(trace_events, segment):
    """Span events recorded while `segment` ran, with their self time."""
    inside = [e for e in trace_events
              if segment["t0_us"] <= e["ts"] <= segment["t1_us"]]
    spans = {}
    for name, dur, self_us in stats.self_times(inside):
        spans.setdefault(name, []).append((dur, self_us))
    return spans


def per_layer(raw, workload):
    with open(raw["trace_file"]) as f:
        events = [e for e in json.load(f)["traceEvents"] if e["ph"] == "X"]
    seg = raw["segments"]
    wire, emb, onl = (seg[w] for w in WORKLOADS)
    probes = raw["probes"]
    wire_spans = _spans(events, wire)
    onl_spans = _spans(events, onl)

    def p50(spans, name, scale, use_self=False):
        return stats.percentile([s[1 if use_self else 0] for s in
                                 spans.get(name, [])], 50) * scale

    def per_retrain_ms(name):
        total = sum(d for d, _ in onl_spans.get(name, []))
        return total / 1e3 / max(1, len(onl_spans.get("online.retrain", [])))

    def read_p50(window):
        return stats.interval_median(pooled([window])["p50"])

    m = {}
    request_p50 = _hist(wire, "server.request_us", "p50")
    m["server.request_us_p50"] = request_p50
    m["server.outside_us_p50"] = read_p50(wire["window"]) - request_p50
    m["server.batch_queries_mean"] = _hist(wire, "server.batch_size", "mean")
    m["proto.encode_ns"] = probes["proto_encode_ns"]
    m["proto.decode_ns"] = probes["proto_decode_ns"]
    m["server.failed_frac"] = raw["failed"] / max(1, raw["attempted"])
    w = onl["window"]
    m["server.feedback_us_p50"] = stats.percentile(stats.in_window(
        w["feedback"]["value"], w["feedback"]["done"], w["begin"], w["end"]),
        50)

    one_us = stats.percentile(probes["one_us"], 50)
    many_us = stats.percentile(probes["many_us"], 50)
    m["serve.one_us"] = one_us
    m["serve.box_one_us"] = stats.percentile(probes["box_one_us"], 50)
    m["serve.many_us_per_query"] = many_us / 64
    m["serve.entries_visited_per_query"] = probes["entries_visited_per_query"]
    m["serve.prune_ratio"] = probes["prune_ratio"]
    m["serve.plan_entries"] = probes["plan_entries"]
    for band, lo, hi in BANDS:
        rows = [r for r in probes["bands"] if lo <= r[0] < hi]
        m["serve.one_us." + band] = stats.percentile([r[1] for r in rows], 50)
        m["serve.prune_ratio." + band] = statistics.mean(r[2] for r in rows)
    m["geometry.box_halfspace_ns"] = probes["box_halfspace_ns"]
    m["pool.fanout_speedup"] = 64 * one_us / many_us
    m["pool.task_us_p50"] = _hist(emb, "pool.task_us", "p50")

    m["train.retrain_ms"] = per_retrain_ms("online.retrain")
    m["train.assemble_ms"] = per_retrain_ms("train.assemble_matrix")
    m["train.solve_ms"] = per_retrain_ms("train.solve_weights")
    m["train.compile_ms"] = probes["compile_ms"]
    m["online.gate_ms"] = probes["gate_ms"]
    solves = max(1, _counter(onl, "solver.solves_total"))
    for level, counter in (("primary", "primary"), ("l2pg", "l2grad"),
                           ("nnls_polish", "nnls_polish"),
                           ("uniform", "uniform")):
        m["train.fallback_share." + level] = (
            _counter(onl, "solver.fallback." + counter) / solves)
    m["train.solver_iterations_p50"] = _hist(onl, "solver.iterations", "p50")
    m["online.published_share"] = onl["published"] / max(1, onl["retrains"])
    m["solver.pg_ms"] = per_retrain_ms("solver.qp.pg")
    m["solver.nnls_ms"] = per_retrain_ms("solver.qp.nnls")
    m["self.server.batch_us"] = p50(wire_spans, "server.batch", 1, True)
    m["self.online.retrain_ms"] = p50(onl_spans, "online.retrain", 1e-3, True)
    m["self.train.solve_weights_ms"] = p50(
        onl_spans, "train.solve_weights", 1e-3, True)

    untraced = read_p50(raw["untraced"])
    traced = read_p50(seg[workload]["window"])
    m["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    return m


# --- Main -----------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    out = build_dir()
    raw_path = out / ("raw-%s.json" % args.workload)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path)]
    if args.trace:
        cmd += ["--trace-file", str(out / ("trace-%s.json" % args.workload))]
    # No SEL_* knob reaches the program: the library runs its defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEL_")}
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    if r.returncode:
        fail("perfbench exited with code %d" % r.returncode)
    with open(raw_path) as f:
        raw = json.load(f)

    windows = ([raw["untraced"]] + [raw["segments"][w]["window"]
                                    for w in WORKLOADS]
               if args.trace else raw["windows"])
    q = pooled(windows)
    try:
        if args.trace:
            values = per_layer(raw, args.workload)
            units = {n: u for n, u, _ in PER_LAYER}
            feeds = {n: "-> " + f.replace("<workload>", args.workload)
                     for n, _, f in PER_LAYER}
        else:
            values = end_to_end(raw, q)
            units = dict(END_TO_END)
            feeds = {}
    except ValueError as e:
        fail("too few samples for a reported statistic: %s" % e)

    context = dict(raw["context"], git_sha=git_sha(), src_sha256=src_digest(),
                   workload=args.workload,
                   seed=args.seed, seconds=args.seconds, trace=args.trace,
                   refused=raw["refused"], mismatches=raw["mismatches"])
    print("context " + json.dumps(context, sort_keys=True))
    for name, value in values.items():
        print("%-36s %14.6g %-6s %s" % (name, value, units[name],
                                        feeds.get(name, "")))
    correct = (raw["failed"] == 0 and raw["deterministic"]
               and raw["attempted"] >= 1)
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in values.items()},
    }))


if __name__ == "__main__":
    main()
