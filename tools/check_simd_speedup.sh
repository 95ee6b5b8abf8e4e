#!/usr/bin/env bash
# CI guard: the SIMD kernel layer must actually pay off.
#
# Runs bench_simd_kernels twice (the binary itself alternates
# dispatch levels within every round and reports a per-level min), keeps
# the per-(kernel, level) minimum across runs — the min is the standard
# noise-robust statistic for "how fast can this go" — and fails unless
# the widest vector level's box_leaf_sum kernel beats forced-scalar by
# at least the floor of 1.8x. The box kernel is the guarded one
# because it dominates plan serving time; the other kernels are printed
# for visibility.
#
# Skips (exit 0) with a notice when the host caps out at scalar — the
# guard checks the vector implementations, not the host's ISA.
#
#   usage: check_simd_speedup.sh <path-to-bench_simd_kernels>
set -u

BENCH="${1:?usage: check_simd_speedup.sh <path-to-bench_simd_kernels>}"
MIN_SPEEDUP=1.8  # widest level's box_leaf_sum vs forced-scalar
ROUNDS=2         # bench runs; the min across them is compared
WORKDIR="$(mktemp -d)"
trap 'rm -rf "${WORKDIR}"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

[ -f "${BENCH}" ] || fail "no such benchmark binary: ${BENCH}"
BENCH_ABS="$(cd "$(dirname "${BENCH}")" && pwd)/$(basename "${BENCH}")"

# The binary writes bench_simd_kernels.csv into its working directory;
# run each round from the scratch dir and keep every round's CSV.
for round in $(seq "${ROUNDS}"); do
  (cd "${WORKDIR}" && "${BENCH_ABS}" > /dev/null) \
    || fail "bench_simd_kernels exited non-zero"
  mv "${WORKDIR}/bench_simd_kernels.csv" "${WORKDIR}/round.${round}.csv" \
    || fail "round ${round} produced no CSV"
done

python3 - "${WORKDIR}" "${MIN_SPEEDUP}" <<'EOF' || exit 1
import csv
import glob
import sys

workdir, floor = sys.argv[1], float(sys.argv[2])

best = {}  # (kernel, level) -> min ns_per_entry across rounds
for path in sorted(glob.glob(workdir + "/round.*.csv")):
    with open(path) as f:
        for row in csv.DictReader(f):
            key = (row["kernel"], row["level"])
            t = float(row["ns_per_entry"])
            if key not in best or t < best[key]:
                best[key] = t

if not best:
    print("FAIL: no benchmark rows parsed", file=sys.stderr)
    sys.exit(1)

levels = {lvl for (_, lvl) in best}
# Widest level present, in dispatch order.
widest = next((l for l in ("avx2", "sse2") if l in levels), "scalar")
if widest == "scalar":
    print("SKIP: host dispatch caps out at scalar; nothing to guard")
    sys.exit(0)

for (kernel, level) in sorted(best):
    base = best.get((kernel, "scalar"))
    ratio = base / best[(kernel, level)] if base else float("nan")
    print(f"{kernel} {level}: {best[(kernel, level)]:.3f} ns/entry "
          f"(speedup {ratio:.2f}x)")

scalar = best.get(("box_leaf_sum", "scalar"))
vector = best.get(("box_leaf_sum", widest))
if scalar is None or vector is None:
    print("FAIL: box_leaf_sum rows missing", file=sys.stderr)
    sys.exit(1)
speedup = scalar / vector if vector > 0 else float("inf")
print(f"box_leaf_sum {widest} speedup: {speedup:.2f}x "
      f"(floor {floor:.2f}x)")
if speedup < floor:
    print(f"FAIL: {widest} box kernel speedup {speedup:.2f}x is below "
          f"the {floor:.2f}x floor", file=sys.stderr)
    sys.exit(1)
print(f"simd box kernel is {speedup:.2f}x faster than forced-scalar")
EOF
