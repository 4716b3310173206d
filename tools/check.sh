#!/usr/bin/env sh
# Verification legs, one shell function each. CI runs the same functions
# (`tools/check.sh <leg>` per workflow step), so a leg is written once.
#
#   tools/check.sh                 every leg, in the order listed below
#   tools/check.sh LEG [LEG ...]   only the named legs
#
#   tier1          Release build + ctest: the line ROADMAP.md documents
#   columns        column-parallel / oracle-cache byte-compare
#   wave           --threads x --search-cache byte-compare
#   serve          multi-table ustl-serve byte-compare
#   faults         fault-plan and deadline sweeps, byte-compared
#   observability  traced + metered serve sweep, span validation
#   profiling      profiler / sampling / flight-recorder sweep
#   persist        WAL + snapshot recovery, kill-tested
#   drain          SIGTERM graceful drain
#   bench          perf-regression gate over the BENCH_* trajectory
#   tsan           parallel subsystems under ThreadSanitizer
#   debug          Debug build + ctest (USTL_DCHECK scans enabled)
#
# Every leg but tsan and debug runs the binaries in build/, configuring
# and building it first (default Release: -O2, NDEBUG). The bench leg
# only means something on that Release build.
set -eu
cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"
LEGS="tier1 columns wave serve faults observability profiling persist"
LEGS="$LEGS drain bench tsan debug"

BUILT=0
build() {
  if [ "$BUILT" = 1 ]; then return; fi
  cmake -B build -S .
  cmake --build build -j"$JOBS"
  BUILT=1
}

# A 3-column replicated table and its serial standardization: the
# baseline every columns/wave configuration must reproduce.
COLUMN_INPUTS=0
column_inputs() {
  if [ "$COLUMN_INPUTS" = 1 ]; then return; fi
  build
  ./build/ustl-generate --dataset address --scale 0.05 --columns 3 \
    --out build/smoke_columns.csv
  ./build/ustl-consolidate --input build/smoke_columns.csv \
    --output build/smoke_serial.csv --approve all --budget 40
  COLUMN_INPUTS=1
}

# Three tables, their serial per-table ustl-consolidate baselines and two
# manifests admitting them in opposite orders: the inputs and goldens of
# every serve leg.
SERVE_INPUTS=0
serve_inputs() {
  if [ "$SERVE_INPUTS" = 1 ]; then return; fi
  build
  ./build/ustl-generate --dataset address --scale 0.05 --seed 21 \
    --out build/serve_a.csv
  ./build/ustl-generate --dataset journaltitle --scale 0.05 --seed 22 \
    --out build/serve_b.csv
  ./build/ustl-generate --dataset address --scale 0.03 --seed 23 --columns 2 \
    --out build/serve_c.csv
  for t in a b c; do
    ./build/ustl-consolidate --input build/serve_$t.csv \
      --output build/serve_$t.base.csv --approve all --budget 40
  done
  printf '%s\n' \
    "id=a input=build/serve_a.csv output=build/serve_a.out.csv budget=40" \
    "id=b input=build/serve_b.csv output=build/serve_b.out.csv budget=40" \
    "id=c input=build/serve_c.csv output=build/serve_c.out.csv budget=40" \
    > build/serve_fwd.txt
  printf '%s\n' \
    "id=c input=build/serve_c.csv output=build/serve_c.out.csv budget=40" \
    "id=b input=build/serve_b.csv output=build/serve_b.out.csv budget=40" \
    "id=a input=build/serve_a.csv output=build/serve_a.out.csv budget=40" \
    > build/serve_rev.txt
  SERVE_INPUTS=1
}

# Compares the three serve outputs against their serial baselines; a
# suffix argument (e.g. .r2) selects a --repeat round's outputs.
cmp_serve_outputs() {
  for t in a b c; do
    cmp build/serve_$t.base.csv "build/serve_$t.out.csv${1:-}"
  done
}

leg_tier1() {
  build
  (cd build && ctest --output-on-failure -j"$JOBS")
}

# The pipeline determinism contract: the serial run, the column-parallel
# run and the oracle-cache-off run standardize to byte-identical CSVs.
leg_columns() {
  column_inputs
  ./build/ustl-consolidate --input build/smoke_columns.csv \
    --output build/smoke_parallel.csv --approve all --budget 40 \
    --column-parallel --threads 4
  ./build/ustl-consolidate --input build/smoke_columns.csv \
    --output build/smoke_nocache.csv --approve all --budget 40 \
    --oracle-cache off
  cmp build/smoke_serial.csv build/smoke_parallel.csv
  cmp build/smoke_serial.csv build/smoke_nocache.csv
  echo "column-parallel smoke: byte-identical"
}

# Wave scan and search cache: grouped output — and therefore the
# standardized table — is byte-identical across --threads {1,4} x
# --search-cache {on,off}. The serial cache-on run is the baseline.
leg_wave() {
  column_inputs
  for config in "--threads 4" "--search-cache off" \
                "--threads 4 --search-cache off"; do
    # shellcheck disable=SC2086
    ./build/ustl-consolidate --input build/smoke_columns.csv \
      --output build/smoke_wave.csv --approve all --budget 40 $config
    cmp build/smoke_serial.csv build/smoke_wave.csv
  done
  echo "wave-scan/search-cache smoke: byte-identical"
}

# Three concurrent tables through one long-lived ustl-serve service match
# the serial per-table runs byte for byte, across --threads {1,4} x two
# admission orders x warm/cold cache (--repeat 2: round 2 runs against
# the round-1-warmed verdict + search caches).
leg_serve() {
  serve_inputs
  for threads in 1 4; do
    for manifest in serve_fwd serve_rev; do
      ./build/ustl-serve --manifest build/$manifest.txt \
        --threads "$threads" --repeat 2
      cmp_serve_outputs
      cmp_serve_outputs .r2
    done
  done
  echo "multi-table serve smoke: byte-identical"
}

# Retries may cost time, never bytes: the same tables under an
# eventually-successful fault plan (every faulty backend call recovers
# within the retry budget) match the clean baselines. A second sweep with
# injected latency plus a far-future deadline checks the deadline
# plumbing is inert when it does not fire.
leg_faults() {
  serve_inputs
  for threads in 1 4; do
    ./build/ustl-serve --manifest build/serve_fwd.txt --threads "$threads" \
      --fault-plan "rate=0.6,fails=2,seed=9" --retry-attempts 4
    cmp_serve_outputs
  done
  ./build/ustl-serve --manifest build/serve_fwd.txt --threads 4 \
    --fault-plan "rate=0.5,fails=1,slow=0.3,slow_ms=2,seed=11" \
    --deadline-ms 600000
  cmp_serve_outputs
  echo "fault-sweep serve smoke: byte-identical"
}

# Tracing records, never perturbs: --trace-out and --metrics-out armed
# still match the baselines across threads {1,4}, and every span stream
# passes the structural validator (id ordering, interval containment,
# one root per request).
leg_observability() {
  serve_inputs
  for threads in 1 4; do
    ./build/ustl-serve --manifest build/serve_fwd.txt --threads "$threads" \
      --trace-out "build/serve_trace_${threads}.jsonl" \
      --metrics-out build/serve_metrics.prom
    cmp_serve_outputs
    python3 tools/check_trace.py "build/serve_trace_${threads}.jsonl" \
      --min-requests 3
  done
  grep -q "ustl_requests_completed_total" build/serve_metrics.prom
  echo "observability serve smoke: byte-identical + traces valid"
}

# The full diagnosis kit armed — CPU-attributed profiling, deterministic
# 1-in-N trace sampling and the always-on flight recorder with a stall
# watchdog — still matches the baselines across threads {1,4}. Each
# profile dump passes the conservation validator together with its
# collapsed-stack twin, the sampled stream stays structurally valid, and
# a clean run dumps nothing. Then a forced deadline-exceeded request
# (every backend call slowed past a 1 ms deadline) must leave
# schema-valid dumps with that reason; the service still drains cleanly
# (exit 0), since a blown per-request deadline is a request outcome.
leg_profiling() {
  serve_inputs
  for threads in 1 4; do
    : > build/serve_flight_clean.jsonl
    ./build/ustl-serve --manifest build/serve_fwd.txt --threads "$threads" \
      --profile-out "build/serve_profile_${threads}.json" \
      --trace-out "build/serve_sampled_${threads}.jsonl" \
      --trace-sample 2 \
      --flight-dump build/serve_flight_clean.jsonl \
      --stall-threshold-ms 60000
    cmp_serve_outputs
    python3 tools/check_trace.py "build/serve_sampled_${threads}.jsonl" \
      --min-requests 1
    python3 tools/check_trace.py \
      --profile "build/serve_profile_${threads}.json" \
      --folded "build/serve_profile_${threads}.json.folded"
    if [ -s build/serve_flight_clean.jsonl ]; then
      echo "flight recorder dumped on a clean run"
      exit 1
    fi
  done
  ./build/ustl-serve --manifest build/serve_fwd.txt --threads 4 \
    --deadline-ms 1 --fault-plan "slow=1.0,slow_ms=25,rate=0" \
    --flight-dump build/serve_flight_deadline.jsonl
  python3 tools/check_trace.py --flight build/serve_flight_deadline.jsonl \
    --min-dumps 1 --reason deadline_exceeded
  echo "deep-observability smoke: byte-identical + profile/flight valid"
}

# Recovery may only ever skip oracle calls, never change output: a
# persisted run matches the baselines, a warm restart over the same
# directory recovers a nonzero record count and still matches, and a
# SIGKILL planted mid-WAL-append (whole frame and torn mid-frame) leaves
# a directory a restart recovers from — same bytes, no repair step.
leg_persist() {
  serve_inputs
  rm -rf build/persist_smoke
  ./build/ustl-serve --manifest build/serve_fwd.txt --threads 4 \
    --persist-dir build/persist_smoke --fsync batch
  cmp_serve_outputs
  ./build/ustl-serve --manifest build/serve_fwd.txt --threads 4 \
    --persist-dir build/persist_smoke --fsync batch \
    --metrics-out build/persist_metrics.prom
  cmp_serve_outputs
  awk '$1 == "ustl_persist_recovered_records" && $2 + 0 > 0 { found = 1 }
       END { exit !found }' build/persist_metrics.prom
  for crash_point in wal_append:5 wal_mid_record:9; do
    rm -rf build/persist_smoke
    if ./build/ustl-serve --manifest build/serve_fwd.txt --threads 4 \
        --persist-dir build/persist_smoke --fsync always \
        --crash-point "$crash_point"; then
      echo "crash point $crash_point never fired"
      exit 1
    fi
    ./build/ustl-serve --manifest build/serve_fwd.txt --threads 4 \
      --persist-dir build/persist_smoke --fsync batch \
      --metrics-out build/persist_metrics.prom
    cmp_serve_outputs
    awk '$1 == "ustl_persist_recovered_records" && $2 + 0 > 0 { found = 1 }
         END { exit !found }' build/persist_metrics.prom
  done
  echo "crash-recovery serve smoke: kill-tested, byte-identical"
}

# SIGTERM mid-workload must exit 0 after finishing in-flight requests,
# and still flush the final metrics scrape and snapshot. || true on the
# kill: if the workload finished first the process is gone, and a clean
# normal exit is also acceptable.
leg_drain() {
  serve_inputs
  rm -rf build/persist_smoke
  ./build/ustl-serve --manifest build/serve_fwd.txt --threads 4 --repeat 8 \
    --persist-dir build/persist_smoke --fsync batch \
    --metrics-out build/drain_metrics.prom &
  serve_pid=$!
  sleep 1
  kill -TERM "$serve_pid" 2>/dev/null || true
  if wait "$serve_pid"; then :; else
    echo "graceful drain exited nonzero"
    exit 1
  fi
  grep -q "ustl_requests_completed_total" build/drain_metrics.prom
  test -f build/persist_smoke/snapshot.bin
  echo "graceful drain smoke: clean exit + final snapshot"
}

# Rerun the self-checking micro-kernel suite plus the robustness legs and
# gate their hardware-independent metrics (fused-kernel speedup, zero
# allocs per join, retries recovered with byte-identical output, breaker
# trips, bounded cancel latency, <=2% zero-fault and full-diagnosis
# overhead, <=5% persistence overhead) against the recorded BENCH_*
# trajectory.
leg_bench() {
  build
  ./build/bench_micro_kernels > build/bench_fresh.json
  ./build/bench_robustness_serve >> build/bench_fresh.json
  python3 tools/check_bench.py --fresh build/bench_fresh.json
}

# The wave scans, the thread pool, the service, the retry/cancel
# machinery and the WAL/snapshot layer are only honest if an instrumented
# run agrees (-DUSTL_TSAN=ON also builds GoogleTest from source).
leg_tsan() {
  cmake -B build-tsan -S . -DUSTL_TSAN=ON
  cmake --build build-tsan -j"$JOBS" --target parallel_test grouping_test \
    pipeline_test serve_test robustness_test obs_test persist_test
  (cd build-tsan && ctest --output-on-failure \
    -R "parallel_test|grouping_test|pipeline_test|serve_test|robustness_test|obs_test|persist_test")
}

# NDEBUG unset (-O2 still applied via the global flags): the only
# configuration where the USTL_DCHECK invariant scans run.
leg_debug() {
  cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug
  cmake --build build-debug -j"$JOBS"
  (cd build-debug && ctest --output-on-failure -j"$JOBS")
}

if [ $# -eq 0 ]; then
  # shellcheck disable=SC2086
  set -- $LEGS
fi
for leg in "$@"; do
  case " $LEGS " in
    *" $leg "*) ;;
    *)
      echo "check.sh: unknown leg '$leg'; legs: $LEGS" >&2
      exit 2
      ;;
  esac
done
for leg in "$@"; do
  "leg_$leg"
done
