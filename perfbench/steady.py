#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

    python3 perfbench/steady.py --runs 10 [--workloads wire_box,...]
                                [--first-seed 1] [--json set.json]
                                [--against earlier-set.json]

Runs perfbench/run.py --trace 0 once per seed (first-seed, first-seed+1,
...) on each workload: one set of runs. For every end-to-end metric it
prints the set's median and spread: the distance between the first and
third quartile over the median. A spread above the metric's bound in
BENCHMARK.json fails the check (setup_s is exempt, as its bound is applied
to medians only); the target is a third of the bound.

A bound is what a median may drift between two sets of runs of the same
code, so one set cannot prove it. Save a set with --json and measure a
second one later, in another hour of the host, with --against the first:
a median that differs from the earlier set's by more than its bound, in
either direction, fails the check, setup_s included.

Exits non-zero on a failed check or on a run that is not correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402


def run_set(bench, workload, seeds):
    """One run.py --trace 0 per seed; returns each run's metrics."""
    runs = []
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", "0"]
        t0 = time.monotonic()
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.monotonic() - t0
        if r.returncode:
            sys.stderr.write(r.stderr)
            sys.exit("run failed: " + " ".join(cmd))
        lines = r.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        context = json.loads(next(line[8:] for line in lines
                                  if line.startswith("context ")))
        print("%s seed %d: %.0f s, correct=%s steal=%.1f%% wake=%.1fus "
              "spin=%.2fns %s" % (
            workload, seed, wall, result["correct"], context["steal_pct"],
            context["host_wake_us"], context["host_spin_ns"],
            " ".join("%s=%.6g" % (k, v["value"])
                     for k, v in result["metrics"].items())), flush=True)
        if not result["correct"]:
            print("  run is not correct", flush=True)
        runs.append(dict(result["metrics"], correct=result["correct"]))
    return runs


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--json", help="write the set's metrics here")
    ap.add_argument("--against",
                    help="a set written earlier with --json to compare with")
    args = ap.parse_args()
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    ok = True
    results = {}
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = run_set(bench, workload, seeds)
        results[workload] = runs
        ok = ok and all(run["correct"] for run in runs)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [run[name]["value"] for run in runs]
            median = statistics.median(values)
            sp = stats.spread(values)
            verdict = ("ok" if sp <= bound / 3 else
                       "within bound" if sp <= bound else
                       "TOO NOISY" if name != "setup_s" else "(spread exempt)")
            ok = ok and (sp <= bound or name == "setup_s")
            line = ("  %-16s %-16s median %12.6g  spread %.4f  bound %.2f  %s"
                    % (workload, name, median, sp, bound, verdict))
            if workload in earlier:
                before = statistics.median(
                    run[name]["value"] for run in earlier[workload])
                shift = (median - before) / before if before else 0.0
                line += "  shift %+.4f vs %.6g %s" % (
                    shift, before, "ok" if abs(shift) <= bound else "DRIFTED")
                ok = ok and abs(shift) <= bound
            print(line, flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
