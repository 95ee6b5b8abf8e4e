#!/usr/bin/env bash
# CI guard: enabling the metrics registry must not slow the hot loops.
#
# Runs the prediction-path microbenchmarks twice — SEL_METRICS unset vs
# SEL_METRICS=1 — taking the minimum of several repetitions (the min is
# the standard noise-robust statistic for "how fast can this go"), and
# fails if any benchmark's enabled time exceeds its disabled time by
# more than the threshold of 3% plus a small absolute epsilon for
# sub-microsecond timers.
#
#   usage: check_metrics_overhead.sh <path-to-bench_micro>
set -u

BENCH="${1:?usage: check_metrics_overhead.sh <path-to-bench_micro>}"
PCT=3     # allowed enabled-over-disabled slowdown, percent
REPS=3    # repetitions per bench run
ROUNDS=2  # alternating off/on rounds; each side keeps its min
# The estimate/volume hot loops.
FILTER="BM_QuadHistEstimate|BM_PtsHistEstimate|BM_BoxBoxVolume/6"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "${WORKDIR}"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

run_bench() {
  # $1 = output json path; metrics state comes from the environment.
  "${BENCH}" \
    --benchmark_filter="${FILTER}" \
    --benchmark_repetitions="${REPS}" \
    --benchmark_report_aggregates_only=false \
    --benchmark_format=json \
    --benchmark_out="$1" > /dev/null \
    || fail "bench_micro exited non-zero"
}

# The two states alternate across several rounds and each side keeps
# its global minimum, so a transient fast (or slow) window on a shared
# CI box cannot land entirely on one side of the comparison.
unset SEL_METRICS
for round in $(seq "${ROUNDS}"); do
  run_bench "${WORKDIR}/off.${round}.json"
  export SEL_METRICS=1
  run_bench "${WORKDIR}/on.${round}.json"
  unset SEL_METRICS
done

python3 - "${WORKDIR}" "${PCT}" <<'EOF' || exit 1
import glob
import json
import sys

workdir, pct = sys.argv[1], float(sys.argv[2])
EPS_NS = 50.0  # absolute slack for sub-microsecond timers


def min_times(paths):
    times = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for b in doc["benchmarks"]:
            if b.get("run_type") == "aggregate":
                continue
            name = b.get("run_name", b["name"])
            t = float(b["real_time"])  # reported in nanoseconds here
            if name not in times or t < times[name]:
                times[name] = t
    return times


off = min_times(sorted(glob.glob(workdir + "/off.*.json")))
on = min_times(sorted(glob.glob(workdir + "/on.*.json")))
if not off:
    print("FAIL: benchmark filter matched nothing", file=sys.stderr)
    sys.exit(1)

bad = []
for name, t_off in sorted(off.items()):
    t_on = on.get(name)
    if t_on is None:
        print(f"FAIL: {name} missing from enabled run", file=sys.stderr)
        sys.exit(1)
    limit = t_off * (1.0 + pct / 100.0) + EPS_NS
    verdict = "ok" if t_on <= limit else "OVER"
    print(f"{name}: off={t_off:.1f}ns on={t_on:.1f}ns "
          f"limit={limit:.1f}ns [{verdict}]")
    if t_on > limit:
        bad.append(name)

if bad:
    print(f"FAIL: metrics overhead above {pct}% on: {', '.join(bad)}",
          file=sys.stderr)
    sys.exit(1)
print(f"metrics overhead within {pct}% on {len(off)} benchmarks")
EOF
