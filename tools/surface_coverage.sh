#!/usr/bin/env bash
# Surface coverage: the st:: functions that no shipped surface ever calls.
#
# Makes a `--coverage -O0` build (tests off) in build-coverage/, runs every
# surface a user can reach, then asks gcov for per-function summaries and
# prints, one per line and sorted, each demangled st:: function that ran
# in none of them. Code that only the unit tests reach shows up here.
#
# Surfaces run: every example, scenario_cli on four scenario setups, the
# figure and ablation benches, bench_fleet on four presets, bench_serve, a
# short bench_micro, and stserved driven through every stctl command.
#
# Usage (from anywhere; needs cmake, g++ and gcov):
#   tools/surface_coverage.sh > zero_calls.txt
# Progress and the surfaces' own output go to stderr; stdout is the list.
#
# Functions kept on purpose — checker-only code (invariants::*, compiled
# out of this build's paths), defensive branches of to_string tables,
# test fixtures — are listed with a one-word reason in
# tools/surface_coverage.allow; CI fails on any other line. A function
# counts as called if any object's copy of it ran.
# Inline functions and templates that no object emits do not appear, so
# an unused helper defined in a header can be missing from the list.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/build-coverage"

log() { printf '[surface_coverage] %s\n' "$*" >&2; }

log "configuring $build"
cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug -DBUILD_TESTING=OFF \
  -DCMAKE_CXX_FLAGS="--coverage -O0" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" >&2
log "building"
cmake --build "$build" -j "$(nproc)" >&2
find "$build" -name '*.gcda' -delete

work=$(mktemp -d)
served_pid=""
cleanup() {
  if [[ -n "$served_pid" ]] && kill -0 "$served_pid" 2>/dev/null; then
    kill "$served_pid" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT
cd "$work"

run() {
  log "run: ${*#"$build"/}"
  "$@" >&2
}

for example in quickstart cell_edge_walk vehicular_handover \
               rotation_resilience custom_trace; do
  run "$build/examples/$example"
done

cli="$build/examples/scenario_cli"
run "$cli" --scenario walk --duration 10 --csv snr --seed 7
run "$cli" --scenario rotation --duration 10 --ula --csv rss
run "$cli" --scenario vehicular --duration 10 --protocol reactive
run "$cli" --scenario walk --duration 10 --beamwidth 0 \
  --trace-out cli_trace.json --report-out cli_report.json

for bench in bench_fig2a_search bench_statemachine bench_fig2c_tracking \
             bench_handover_interruption bench_ablation_threshold \
             bench_ablation_policy bench_ablation_ssb_period \
             bench_ablation_beamwidth bench_measurement_budget \
             bench_pattern_family bench_policy_compare; do
  run "$build/bench/$bench"
done

fleet="$build/bench/bench_fleet"
run "$fleet" --ues 8 --duration-ms 4000 --report-out fleet_report.json
for preset in grid_walk corridor_drive edge_ping_pong; do
  run "$fleet" --preset "$preset" --ues 8 --duration-ms 4000
done

run "$build/bench/bench_serve" --seconds 1
run "$build/bench/bench_micro" --benchmark_min_time=0.01

socket="$work/stserved.sock"
ctl=("$build/tools/stctl" --socket "$socket")
job_id() { sed -n 's/.*"id": *\([0-9][0-9]*\).*/\1/p'; }
log "run: stserved driven by stctl"
"$build/tools/stserved" --socket "$socket" --workers 2 \
  --trace-out "$work/serve_trace.json" >&2 &
served_pid=$!
"${ctl[@]}" ping >&2
"${ctl[@]}" tail --frames 1 >&2 &
tail_pid=$!
"${ctl[@]}" run --preset grid_walk --seed 7 \
  --overrides '{"duration_ms": 2000.0}' >/dev/null
job=$("${ctl[@]}" submit --preset paper_walk --seed 3 \
  --overrides '{"duration_ms": 1000.0}' | job_id)
"${ctl[@]}" wait "$job" --timeout-ms 60000 >&2
"${ctl[@]}" status "$job" >&2
"${ctl[@]}" events "$job" --after 0 >/dev/null
"${ctl[@]}" result "$job" >/dev/null
long=$("${ctl[@]}" submit --preset paper_vehicular --seed 5 \
  --overrides '{"duration_ms": 600000.0}' | job_id)
"${ctl[@]}" cancel "$long" >&2
"${ctl[@]}" wait "$long" --timeout-ms 60000 >&2
"${ctl[@]}" watch --period-ms 50 --frames 2 >&2
"${ctl[@]}" stats >&2
"${ctl[@]}" drain >&2
wait "$served_pid"
served_pid=""
wait "$tail_pid" || true  # ends on its frame or when the daemon closes

log "collecting gcov function summaries"
# `gcov -f` prints "Function '<name>'" then "Lines executed:P% of N" per
# function. One gcov run per object: a run over several objects reports
# a header-defined function once, from one object's copy, which may be
# one that never ran. Names stay mangled for the filter, so a libstdc++
# template whose demangled return type is an st:: type stays out; they
# are demangled afterwards, and a function ran if any copy of it (any
# object, any constructor or destructor variant) has P > 0.
cd "$build"
find . -name '*.gcda' -print0 |
  xargs -0 -n 1 gcov -f -n 2>/dev/null |
  awk '
    /^Function '\''/ {
      name = substr($0, 11, length($0) - 11)
      next
    }
    name != "" && /^Lines executed:/ {
      if (name ~ /^_ZZ?N[KVRO]*2st/) print substr($2, 10) + 0, name
      name = ""
      next
    }
    { name = "" }
  ' | c++filt |
  awk '
    {
      pct = $1 + 0
      name = substr($0, index($0, " ") + 1)
      if (!(name in best) || pct > best[name]) best[name] = pct
    }
    END { for (n in best) if (best[n] == 0) print n }
  ' | LC_ALL=C sort
