#!/usr/bin/env bash
# End-to-end smoke of the query service over real loopback TCP, exercising
# the daemon exactly the way an operator does: start gyo_serve on an
# ephemeral port, run scripted gyo_client queries (acyclic + cyclic + a
# STATUS probe), then SIGTERM the daemon and require a clean drain (exit 0
# and the "drained:" report on stdout).
#
# Usage: serve_smoke.sh [BUILD_DIR]
#   BUILD_DIR  directory with examples/gyo_serve and examples/gyo_client
#              (default build/release)
#
# The script fails on: either binary missing, the daemon not reporting its
# port within 10s, any client exiting nonzero, a result-cardinality mismatch
# against the pinned seeds, the cyclic query or the STATUS totals reporting
# no retired states, STATUS not reflecting the served queries, or the daemon
# surviving SIGTERM / exiting nonzero / leaving no drain report.
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build/release}"
serve_bin="${build_dir}/examples/gyo_serve"
client_bin="${build_dir}/examples/gyo_client"
for bin in "${serve_bin}" "${client_bin}"; do
  [[ -x "${bin}" ]] || { echo "error: ${bin} not built" >&2; exit 1; }
done

log="$(mktemp)"
server_pid=""
cleanup() {
  if [[ -n "${server_pid}" ]] && kill -0 "${server_pid}" 2>/dev/null; then
    kill -KILL "${server_pid}" 2>/dev/null || true
  fi
  rm -f "${log}"
}
trap cleanup EXIT

"${serve_bin}" --port 0 --threads 2 --max-concurrent-queries 2 \
  > "${log}" 2>&1 &
server_pid=$!

# The daemon prints "listening on HOST:PORT" once the socket is bound.
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^listening on [^:]*:\([0-9][0-9]*\)$/\1/p' "${log}")"
  [[ -n "${port}" ]] && break
  kill -0 "${server_pid}" 2>/dev/null \
    || { echo "error: gyo_serve died at startup:" >&2; cat "${log}" >&2
         exit 1; }
  sleep 0.1
done
[[ -n "${port}" ]] || { echo "error: no port within 10s" >&2; exit 1; }
echo "== gyo_serve (pid ${server_pid}) on port ${port}"

last_query_out=""
run_query() {  # run_query LABEL EXPECTED_ROWS ARGS...
  local label="$1" expected="$2"; shift 2
  local out
  out="$("${client_bin}" --port "${port}" "$@")"
  echo "${out}" | sed "s/^/  [${label}] /"
  echo "${out}" | grep -q "^result: ${expected} rows" \
    || { echo "error: ${label}: expected ${expected} rows" >&2; exit 1; }
  last_query_out="${out}"
}

# Acyclic chain (Yannakakis), a 4-cycle (CC-pruned fallback; target ac is
# covered by no single relation, so it really joins), and a re-used seed to
# pin cardinalities; --plan checks plan shipping end to end. tree2 repeats
# tree byte for byte, so it must be answered from the caches — the same 455
# rows, with the STATUS hit counters advanced.
run_query tree   455 --rows 400 --domain 6400 --seed 17 --plan ab,bc,cd ad
run_query cycle  200 --rows 200 --domain 3200 --seed 9 \
  ab,bc,cd,da ac
# The daemon executes with state retirement on: the cyclic join frees its
# consumed states.
echo "${last_query_out}" | grep -Eq "^  retired_states [1-9][0-9]*$" \
  || { echo "error: cycle: no retired states reported" >&2; exit 1; }
run_query tree2  455 --rows 400 --domain 6400 --seed 17 ab,bc,cd ad

echo "== STATUS"
status="$("${client_bin}" --port "${port}" --status)"
echo "${status}" | sed 's/^/  /'
echo "${status}" | grep -q "3 served" \
  || { echo "error: STATUS does not show 3 served queries" >&2; exit 1; }
echo "${status}" | grep -Eq "caches: plan [1-9][0-9]* hits" \
  || { echo "error: STATUS shows no plan-cache hit for the repeat" >&2
       exit 1; }
echo "${status}" | grep -Eq "result [1-9][0-9]* hits" \
  || { echo "error: STATUS shows no result-cache hit for the repeat" >&2
       exit 1; }
echo "${status}" | grep -Eq "^  retired_states [1-9][0-9]*$" \
  || { echo "error: STATUS totals show no retired states" >&2; exit 1; }

echo "== SIGTERM drain"
kill -TERM "${server_pid}"
for _ in $(seq 1 100); do
  kill -0 "${server_pid}" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "${server_pid}" 2>/dev/null; then
  echo "error: gyo_serve did not exit within 10s of SIGTERM" >&2
  exit 1
fi
rc=0
wait "${server_pid}" || rc=$?
server_pid=""
[[ "${rc}" -eq 0 ]] || { echo "error: gyo_serve exited ${rc}" >&2
                         cat "${log}" >&2; exit 1; }
grep -q "^drained:" "${log}" \
  || { echo "error: no drain report:" >&2; cat "${log}" >&2; exit 1; }
sed -n 's/^drained:/  drained:/p' "${log}"
echo "serve-smoke: OK"
