#!/usr/bin/env python3
"""Release-CI guard: the layers serving the Eq. (6)/(7) sums must pay off.

Runs three benches from <build-dir>/bench, reads the output each already
writes, keeps every row's best value across rounds (the minimum time, the
maximum qps) and checks it against the floors below; exits 1 on a failure.

    usage: python3 tools/check_bench.py <build-dir>
"""

import csv
import json
import os
import subprocess
import sys
import tempfile

OVERHEAD_PCT = 3.0  # SEL_METRICS=1 over unset, per estimate/volume loop
OVERHEAD_EPS_NS = 50.0  # absolute slack for sub-microsecond timers
SIMD_FLOOR = 1.8  # widest level's box_leaf_sum over forced-scalar
SERVER_FLOOR = 2.0  # batch-frame qps over single-frame qps, every cell
MICRO_FILTER = "BM_QuadHistEstimate|BM_PtsHistEstimate|BM_BoxBoxVolume/6"


class GuardFailure(Exception):
    pass


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def read_gbench_json(path):
    with open(path) as f:
        rows = json.load(f)["benchmarks"]
    return [b for b in rows if b.get("run_type") != "aggregate"]


def best(rounds, key, value, pick):
    """Per-key best of `value` over every row of every round."""
    out = {}
    for row in (row for rows in rounds for row in rows):
        k, v = key(row), float(row[value])
        out[k] = pick(out[k], v) if k in out else v
    return out


def check_metrics_overhead(rounds):
    """Rounds alternate SEL_METRICS unset (even) and =1 (odd)."""
    name = lambda b: b.get("run_name", b["name"])  # noqa: E731
    off = best(rounds[0::2], name, "real_time", min)
    on = best(rounds[1::2], name, "real_time", min)
    if not off:
        raise GuardFailure("benchmark filter matched nothing")
    bad = []
    for bench, t_off in sorted(off.items()):
        if bench not in on:
            raise GuardFailure(f"{bench} missing from enabled run")
        limit = t_off * (1.0 + OVERHEAD_PCT / 100.0) + OVERHEAD_EPS_NS
        ok = on[bench] <= limit
        print(f"{bench}: off={t_off:.1f}ns on={on[bench]:.1f}ns "
              f"limit={limit:.1f}ns [{'ok' if ok else 'OVER'}]")
        bad += [] if ok else [bench]
    if bad:
        raise GuardFailure(f"metrics overhead above {OVERHEAD_PCT:g}% on: "
                           f"{', '.join(bad)}")
    return f"metrics overhead within {OVERHEAD_PCT:g}% on {len(off)} loops"


def check_simd_speedup(rounds):
    ns = best(rounds, lambda r: (r["kernel"], r["level"]), "ns_per_entry",
              min)
    widest = max((lvl for _, lvl in ns), key=("scalar", "sse2", "avx2").index)
    if widest == "scalar":
        return "SKIP: host dispatch caps out at scalar; nothing to guard"
    for kernel, level in sorted(ns):
        base = ns.get((kernel, "scalar"))
        ratio = base / ns[(kernel, level)] if base else float("nan")
        print(f"{kernel} {level}: {ns[(kernel, level)]:.3f} ns/entry "
              f"(speedup {ratio:.2f}x)")
    scalar, vector = (ns.get(("box_leaf_sum", l)) for l in ("scalar", widest))
    if scalar is None or vector is None:
        raise GuardFailure("box_leaf_sum rows missing")
    speedup = scalar / vector if vector > 0 else float("inf")
    if speedup < SIMD_FLOOR:
        raise GuardFailure(f"{widest} box kernel speedup {speedup:.2f}x is "
                           f"below the {SIMD_FLOOR:.2f}x floor")
    return f"box_leaf_sum {widest} {speedup:.2f}x (floor {SIMD_FLOOR:.2f}x)"


def check_server_throughput(rounds):
    qps = best(rounds, lambda r: (r["mode"], r["clients"], r["window_us"]),
               "qps", max)
    cells = sorted({(c, w) for (_, c, w) in qps})
    if not cells:
        raise GuardFailure("no benchmark rows parsed")
    ratios = []
    for c, w in cells:
        single, batch = qps.get(("single", c, w)), qps.get(("batch", c, w))
        if single is None or batch is None:
            raise GuardFailure(
                f"clients={c} window={w} missing a request shape")
        ratios.append(batch / single if single > 0 else float("inf"))
        print(f"clients={c} window_us={w}: single={single:.0f}qps "
              f"batch={batch:.0f}qps speedup={ratios[-1]:.2f}x")
    if min(ratios) < SERVER_FLOOR:
        raise GuardFailure(f"batched-path speedup {min(ratios):.2f}x is "
                           f"below the {SERVER_FLOOR:.2f}x floor")
    return f"worst cell {min(ratios):.2f}x (floor {SERVER_FLOOR:.2f}x)"


# binary, arguments, output file, reader, round envs (None unsets), check.
GUARDS = [
    ("bench_micro", [f"--benchmark_filter={MICRO_FILTER}",
                     "--benchmark_repetitions=3",
                     "--benchmark_out=bench_micro.json"],
     "bench_micro.json", read_gbench_json,
     [{"SEL_METRICS": None}, {"SEL_METRICS": "1"}] * 2,
     check_metrics_overhead),
    ("bench_simd_kernels", [], "bench_simd_kernels.csv", read_csv, [{}] * 2,
     check_simd_speedup),
    ("bench_server_throughput", [], "bench_server_throughput.csv", read_csv,
     [{"REPRO_SCALE": "0.05"}], check_server_throughput),
]


def run_rounds(bench_dir, binary, args, out_name, reader, envs):
    """Runs `binary` once per environment, each in a fresh directory."""
    rounds = []
    for overrides in envs:
        env = {k: v for k, v in os.environ.items() if k not in overrides}
        env.update({k: v for k, v in overrides.items() if v is not None})
        with tempfile.TemporaryDirectory() as work:
            subprocess.run([os.path.join(bench_dir, binary), *args],
                           cwd=work, env=env, stdout=subprocess.DEVNULL,
                           check=True)
            rounds.append(reader(os.path.join(work, out_name)))
        if not rounds[-1]:
            raise GuardFailure(f"{binary} wrote no rows to {out_name}")
    return rounds


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: check_bench.py <build-dir>")
    bench_dir = os.path.join(os.path.abspath(argv[1]), "bench")
    failed = []
    for binary, *how, check in GUARDS:
        print(f"=== {binary} ===", flush=True)
        try:
            print(check(run_rounds(bench_dir, binary, *how)), flush=True)
        except (GuardFailure, subprocess.CalledProcessError, OSError,
                KeyError, ValueError) as e:
            print(f"FAIL: {e}", file=sys.stderr, flush=True)
            failed.append(binary)
    if failed:
        sys.exit(f"FAIL: {', '.join(failed)}")
    print("all bench guards passed")


if __name__ == "__main__":
    main(sys.argv)
