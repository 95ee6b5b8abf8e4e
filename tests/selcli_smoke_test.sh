#!/usr/bin/env bash
# End-to-end smoke test for selcli: generate data and a workload, then
# train / evaluate / estimate with every registered estimator. Savable
# estimators must complete the full loop; transient ones must fail the
# train step with the registry's capability error.
set -u

SELCLI="${1:?usage: selcli_smoke_test.sh <path-to-selcli>}"
WORKDIR="$(mktemp -d)"
SERVE_PID=""
# A step that fails while the background server runs must not leave it
# behind.
cleanup() {
  if [ -n "${SERVE_PID}" ] && kill -0 "${SERVE_PID}" 2> /dev/null; then
    kill -KILL "${SERVE_PID}" 2> /dev/null
    wait "${SERVE_PID}" 2> /dev/null
  fi
  rm -rf "${WORKDIR}"
}
trap cleanup EXIT
cd "${WORKDIR}"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

run() {
  "${SELCLI}" "$@" || fail "selcli $* exited non-zero"
}

run gen-data power 4000 data.csv 7100
run gen-workload data.csv 120 train.csv box data 7101
run gen-workload data.csv 60 test.csv box data 7102

# The registry enumerates itself; scrape the name column.
"${SELCLI}" estimators > estimators.txt || fail "selcli estimators failed"
NAMES="$(awk 'NR > 1 { print $1 }' estimators.txt)"
[ -n "${NAMES}" ] || fail "selcli estimators listed nothing"
for required in quadhist ptshist gmm quicksel; do
  echo "${NAMES}" | grep -qx "${required}" \
    || fail "estimator '${required}' missing from selcli estimators"
done

for name in ${NAMES}; do
  savable="$(awk -v n="${name}" '$1 == n { print $4 }' estimators.txt)"
  if [ "${name}" = "plan" ]; then
    # Compiled plans are savable but immutable: training must fail with
    # the model's own contract error, not a crash.
    if "${SELCLI}" train train.csv "${name}.model" "${name}" \
        > out.txt 2> err.txt; then
      fail "train ${name} should have failed (immutable model)"
    fi
    grep -q "immutable" err.txt \
      || fail "train ${name} missing immutability error: $(cat err.txt)"
  elif [ "${savable}" = "yes" ]; then
    run train train.csv "${name}.model" "${name}"
    [ -s "${name}.model" ] || fail "train ${name} wrote no model file"
    run evaluate "${name}.model" test.csv
    # The power dataset has 7 attributes; unmentioned ones stay [0,1].
    est="$("${SELCLI}" estimate "${name}.model" c0,c1,c2,c3,c4,c5,c6 \
          'c0 < 0.5 AND c1 < 0.5')" \
      || fail "estimate with ${name} exited non-zero"
    awk -v e="${est}" 'BEGIN { exit !(e >= 0.0 && e <= 1.0) }' \
      || fail "estimate with ${name} out of [0,1]: ${est}"
  else
    if "${SELCLI}" train train.csv "${name}.model" "${name}" \
        > out.txt 2> err.txt; then
      fail "train ${name} should have failed (no save support)"
    fi
    grep -q "does not support serialization" err.txt \
      || fail "train ${name} missing capability error: $(cat err.txt)"
  fi
done

# Unknown estimators fail with the registry's name listing — and with
# the InvalidArgument exit code (3), not a generic 1.
"${SELCLI}" train train.csv x.model nosuchmodel > out.txt 2> err.txt
rc=$?
[ "${rc}" -eq 3 ] \
  || fail "unknown estimator should exit 3 (InvalidArgument), got ${rc}"
grep -q "unknown estimator 'nosuchmodel'" err.txt \
  || fail "unknown-estimator error not from registry: $(cat err.txt)"
[ -s out.txt ] && fail "unknown-estimator error leaked to stdout"

# The flat-form kind tags load model files but name no estimator:
# training under one is an unknown estimator (exit 3).
for alias in static staticpoints; do
  "${SELCLI}" train train.csv x.model "${alias}" > out.txt 2> err.txt
  rc=$?
  [ "${rc}" -eq 3 ] \
    || fail "train ${alias} should exit 3 (unknown estimator), got ${rc}"
  grep -q "unknown estimator '${alias}'" err.txt \
    || fail "train ${alias} missing unknown-estimator error: $(cat err.txt)"
done

# Corrupt model files are IOError (exit 10), reported on stderr.
printf 'selmodel 1 static 2 3\nbox 0 0 1 nan 0.5\n' > corrupt.model
"${SELCLI}" evaluate corrupt.model test.csv > out.txt 2> err.txt
rc=$?
[ "${rc}" -eq 10 ] \
  || fail "corrupt model should exit 10 (IOError), got ${rc}"
grep -q "error:" err.txt \
  || fail "corrupt-model failure missing stderr diagnostic: $(cat err.txt)"

# Truncated model (fewer records than the header promises) is IOError too.
head -n 2 quadhist.model > truncated.model
"${SELCLI}" evaluate truncated.model test.csv > out.txt 2> err.txt
rc=$?
[ "${rc}" -eq 10 ] \
  || fail "truncated model should exit 10 (IOError), got ${rc}"

# A header that claims a huge dimension over a short record is a
# malformed record (exit 10), not an allocation sized by the header. The
# address-space cap turns such an allocation into a quick failure.
# Sanitizer builds reserve terabytes of shadow address space and cannot
# start under the cap, so they run the case uncapped.
capped=1
{ ( ulimit -v 1500000 && "${SELCLI}" estimators ); } > /dev/null 2>&1 \
  || capped=0
printf 'selmodel 1 quadhist 400000000 1\nbox 0.1\n' > huge_dim.model
( [ "${capped}" -eq 0 ] || ulimit -v 1500000
  "${SELCLI}" evaluate huge_dim.model test.csv > out.txt 2> err.txt )
rc=$?
[ "${rc}" -eq 10 ] \
  || fail "huge-dimension model should exit 10 (IOError), got ${rc}"
grep -q "malformed box record" err.txt \
  || fail "huge-dimension model missing malformed-record error: $(cat err.txt)"

# A workload whose dimension differs from the model's is InvalidArgument
# (exit 3), caught before any estimate runs.
printf 'type,dim,geometry...,selectivity\nbox,2,0.1,0.1,0.6,0.6,0.2\n' \
  > w2.csv
"${SELCLI}" evaluate ptshist.model w2.csv > out.txt 2> err.txt
rc=$?
[ "${rc}" -eq 3 ] \
  || fail "dimension-mismatched workload should exit 3, got ${rc}"
grep -q "dimensions but the model was trained on 7" err.txt \
  || fail "dimension-mismatch error missing: $(cat err.txt)"

# --- Serving plans: selcli compile lowers a trained model file. ---

# Lower the trained quadhist model to its flat serving form; the plan
# file must load and serve like any model.
run compile quadhist.model quadhist.plan
[ -s quadhist.plan ] || fail "compile wrote no plan file"
head -n 5 quadhist.plan | grep -q "selmodel 1 plan" \
  || fail "plan file missing its header: $(head -n 5 quadhist.plan)"
run evaluate quadhist.plan test.csv
est_model="$("${SELCLI}" estimate quadhist.model c0,c1,c2,c3,c4,c5,c6 \
      'c0 < 0.5 AND c1 < 0.5')" || fail "estimate via model failed"
est_plan="$("${SELCLI}" estimate quadhist.plan c0,c1,c2,c3,c4,c5,c6 \
      'c0 < 0.5 AND c1 < 0.5')" || fail "estimate via plan failed"
# The two paths may differ in summation order only; at %.6f printing
# they must agree to the last printed digit (tolerance one ulp there).
awk -v a="${est_model}" -v b="${est_plan}" \
  'BEGIN { d = a - b; if (d < 0) d = -d; exit !(d <= 1e-6) }' \
  || fail "plan estimate ${est_plan} != model estimate ${est_model}"

# A plan whose volume options are out of range is a malformed record
# (exit 10) at load time, not 2^31 QMC samples per entry on every
# non-box estimate.
grep -v '^#crc32 ' quadhist.plan \
  | sed 's/^popts .*/popts 2147483647 0/' > hostile.plan
run gen-workload data.csv 20 halfspace.csv halfspace data 7103
timeout 10 "${SELCLI}" evaluate hostile.plan halfspace.csv > out.txt 2> err.txt
rc=$?
[ "${rc}" -eq 10 ] \
  || fail "out-of-range popts should exit 10 (IOError), got ${rc}"
grep -q "malformed popts record" err.txt \
  || fail "out-of-range popts missing malformed-record error: $(cat err.txt)"

# Compiling a non-lowerable model is Unimplemented (exit 8), not a crash.
run train train.csv gmm_c.model gmm
"${SELCLI}" compile gmm_c.model gmm.plan > out.txt 2> err.txt
rc=$?
[ "${rc}" -eq 8 ] \
  || fail "compiling gmm should exit 8 (Unimplemented), got ${rc}"
grep -q "non-lowerable" err.txt \
  || fail "gmm compile missing non-lowerable error: $(cat err.txt)"

# --- Observability: the stats subcommand and the SEL_TRACE knob. ---

# stats trains + predicts with the metrics registry on and must report
# the core counters and latency histograms of that run, plus a CSV dump.
run stats train.csv quadhist metrics.csv > stats.txt
for needle in "solver.solves_total" "predict.queries_total" \
              "histogram predict.query_us" "histogram train.solve_us"; do
  grep -q "${needle}" stats.txt \
    || fail "selcli stats missing '${needle}': $(cat stats.txt)"
done
[ -s metrics.csv ] || fail "selcli stats wrote no metrics CSV"
head -n 1 metrics.csv | grep -q "^kind,name,count,value,sum,mean,p50,p95,p99$" \
  || fail "metrics CSV header wrong: $(head -n 1 metrics.csv)"
# Rectangular CSV: every row has the header's column count.
awk -F, 'NR == 1 { n = NF } NF != n { exit 1 }' metrics.csv \
  || fail "metrics CSV is ragged"

# The happy-path run must never have degraded to the uniform fallback.
grep -q "solver.fallback.uniform" stats.txt \
  && fail "happy-path stats run hit the uniform fallback"

# SEL_TRACE must produce Chrome-tracing JSON at the given path.
SEL_TRACE=trace.json "${SELCLI}" stats train.csv quadhist > /dev/null \
  || fail "selcli stats under SEL_TRACE exited non-zero"
[ -s trace.json ] || fail "SEL_TRACE produced no trace file"
if command -v python3 > /dev/null 2>&1; then
  python3 - <<'EOF' || fail "SEL_TRACE output is not valid Chrome trace JSON"
import json, sys
with open("trace.json") as f:
    d = json.load(f)
events = d["traceEvents"]
assert events, "no trace events"
names = {e["name"] for e in events if e.get("ph") == "X"}
assert "train.solve_weights" in names, names
assert "predict.batch" in names, names
for e in events:
    assert e["ph"] in ("X", "M"), e
    if e["ph"] == "X":
        assert e["dur"] >= 0 and "ts" in e and "tid" in e, e
EOF
else
  # Structural fallback when python3 is unavailable.
  grep -q '"traceEvents"' trace.json || fail "trace JSON missing traceEvents"
  grep -q '"ph":"X"' trace.json || fail "trace JSON has no complete events"
  grep -q 'train.solve_weights' trace.json \
    || fail "trace JSON missing the solver span"
fi

# stats --json emits one machine-readable document and nothing else.
"${SELCLI}" stats train.csv quadhist --json > stats.json \
  || fail "selcli stats --json exited non-zero"
if command -v python3 > /dev/null 2>&1; then
  python3 - <<'EOF' || fail "stats --json output is not valid JSON"
import json
with open("stats.json") as f:
    d = json.load(f)
assert "counters" in d and "gauges" in d and "histograms" in d, d.keys()
EOF
else
  grep -q '"counters"' stats.json || fail "stats --json missing counters"
  grep -q '"histograms"' stats.json || fail "stats --json missing histograms"
fi

# Network round trip: serve in the background, query over TCP, then a
# graceful SIGTERM drain that must exit 0.
"${SELCLI}" serve train.csv quadhist --port 0 > serve_out.txt 2>&1 &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
          serve_out.txt)"
  [ -n "${PORT}" ] && break
  kill -0 "${SERVE_PID}" 2> /dev/null || break
  sleep 0.1
done
[ -n "${PORT}" ] || { cat serve_out.txt; fail "serve never announced a port"; }

ping_out="$("${SELCLI}" query "127.0.0.1:${PORT}" --ping)" \
  || fail "query --ping exited non-zero"
[ "${ping_out}" = "pong" ] || fail "ping said: ${ping_out}"

net_est="$("${SELCLI}" query "127.0.0.1:${PORT}" c0,c1,c2,c3,c4,c5,c6 \
      'c0 < 0.5 AND c1 < 0.5')" || fail "query estimate exited non-zero"
awk -v e="${net_est}" 'BEGIN { exit !(e >= 0.0 && e <= 1.0) }' \
  || fail "query estimate out of [0,1]: ${net_est}"

fb_out="$("${SELCLI}" query "127.0.0.1:${PORT}" c0,c1,c2,c3,c4,c5,c6 \
      'c0 < 0.5 AND c1 < 0.5' --feedback 0.25)" \
  || fail "query --feedback exited non-zero"
[ "${fb_out}" = "feedback recorded" ] || fail "feedback said: ${fb_out}"

"${SELCLI}" query "127.0.0.1:${PORT}" --stats > netstats.json \
  || fail "query --stats exited non-zero"
grep -q '"server.requests_total"' netstats.json \
  || fail "server stats missing request counter: $(head -c 200 netstats.json)"

kill -TERM "${SERVE_PID}"
wait "${SERVE_PID}"
rc=$?
[ "${rc}" -eq 0 ] || { cat serve_out.txt; fail "serve drain exited ${rc}"; }
grep -q "draining" serve_out.txt || fail "serve never reported draining"
grep -q "server drained" serve_out.txt || fail "serve never reported drained"

echo "selcli smoke test passed"
