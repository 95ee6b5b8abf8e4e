#!/usr/bin/env bash
# CI guard: the server's batched request path must actually pay off.
#
# Runs bench_server_throughput (the binary alternates cells across
# rounds in-process and reports a best-of qps per cell), then requires
# the EstimateBatch frame shape to clear the single-Estimate-per-frame
# shape by at least the floor of 2x in EVERY (clients, window)
# cell. Per-cell, not aggregate: the batch win is frame/syscall
# amortization over 64 queries, so any cell falling under 2x means the
# batching layer itself regressed, not a noisy neighbor.
#
#   usage: check_server_throughput.sh <path-to-bench_server_throughput>
#
# REPRO_SCALE defaults to 0.05 here: the guard wants the protocol
# overhead ratio, not dataset scale, and small keeps CI fast.
set -u

BENCH="${1:?usage: check_server_throughput.sh <path-to-bench_server_throughput>}"
MIN_SPEEDUP=2.0  # batch-frame qps over single-frame qps, every cell
export REPRO_SCALE="${REPRO_SCALE:-0.05}"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "${WORKDIR}"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

[ -f "${BENCH}" ] || fail "no such benchmark binary: ${BENCH}"
BENCH_ABS="$(cd "$(dirname "${BENCH}")" && pwd)/$(basename "${BENCH}")"

# The binary writes bench_server_throughput.csv into its working
# directory.
(cd "${WORKDIR}" && "${BENCH_ABS}" > /dev/null) \
  || fail "bench_server_throughput exited non-zero"
[ -s "${WORKDIR}/bench_server_throughput.csv" ] \
  || fail "bench produced no CSV"

python3 - "${WORKDIR}/bench_server_throughput.csv" "${MIN_SPEEDUP}" \
  <<'EOF' || exit 1
import csv
import sys

path, floor = sys.argv[1], float(sys.argv[2])

qps = {}  # (mode, clients, window_us) -> qps
with open(path) as f:
    for row in csv.DictReader(f):
        qps[(row["mode"], row["clients"], row["window_us"])] = \
            float(row["qps"])

cells = sorted({(c, w) for (m, c, w) in qps})
if not cells:
    print("FAIL: no benchmark rows parsed", file=sys.stderr)
    sys.exit(1)

worst = None
for c, w in cells:
    single = qps.get(("single", c, w))
    batch = qps.get(("batch", c, w))
    if single is None or batch is None:
        print(f"FAIL: clients={c} window={w} missing a request shape",
              file=sys.stderr)
        sys.exit(1)
    ratio = batch / single if single > 0 else float("inf")
    print(f"clients={c} window_us={w}: single={single:.0f}qps "
          f"batch={batch:.0f}qps speedup={ratio:.2f}x")
    if worst is None or ratio < worst:
        worst = ratio

print(f"worst cell: {worst:.2f}x (floor {floor:.2f}x)")
if worst < floor:
    print(f"FAIL: batched-path speedup {worst:.2f}x is below the "
          f"{floor:.2f}x floor", file=sys.stderr)
    sys.exit(1)
print(f"batched serving clears the single-request path by {worst:.2f}x+")
EOF
