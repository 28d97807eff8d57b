#!/usr/bin/env bash
# Perf-baseline runner: executes the scheduler benches (pool_reuse,
# ablate_sched) plus the ring-evaluation benches (ring_eval,
# word_count_combine, batch_eval), the telemetry-overhead pair
# (trace_overhead) and the native-tier comparison (native_vs_batch),
# and writes a machine-readable JSON of their median per-iteration
# times, so future PRs can compare against this PR's numbers without
# re-reading bench logs.
#
# Usage: scripts/bench.sh [output.json]   (default: BENCH_BASELINE.json)
#
# Each entry carries the bench label, the median time in nanoseconds
# with the fastest and slowest sample beside it (`lo_ns`, `hi_ns`), and
# the worker count the bench ran with (parsed from the label when the
# label is the worker count, else the benches' WORKERS constant, 4).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_BASELINE.json}"
DATE="$(git log -1 --format=%cI 2>/dev/null || date -Iseconds)"
CPUS="$(nproc 2>/dev/null || echo 1)"

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

for bench in pool_reuse ablate_sched ring_eval word_count_combine batch_eval trace_overhead \
             native_vs_batch; do
  echo "==> cargo bench -p bench --bench $bench" >&2
  cargo bench -p bench --bench "$bench" 2>/dev/null | tee /dev/stderr | grep "time:" >>"$RAW"
done

awk -v date="$DATE" -v cpus="$CPUS" '
  function to_ns(v, u) {
    if (u ~ /^ns/) return v
    if (u ~ /^µs/) return v * 1e3
    if (u ~ /^ms/) return v * 1e6
    return v * 1e9
  }
  BEGIN {
    printf("{\n  \"date\": \"%s\",\n  \"host_cpus\": %s,\n  \"benches\": [", date, cpus)
    sep = ""
  }
  /time:/ {
    # Stub criterion line: <label> time: [<lo> <unit> <med> <unit> <hi> <unit>]
    name = $1
    lo = substr($3, 2)
    med = $5
    hi = $7
    workers = (name ~ /\/[0-9]+$/) ? name : (name ~ /nested_latency/ ? "8" : "4")
    sub(/^.*\//, "", workers)
    if (workers !~ /^[0-9]+$/) workers = "4"
    printf("%s\n    {\"name\": \"%s\", \"median_ns\": %.1f, \"lo_ns\": %.1f, \"hi_ns\": %.1f, \"workers\": %s}", \
           sep, name, to_ns(med, $6), to_ns(lo, $4), to_ns(hi, $8), workers)
    sep = ","
  }
  END { printf("\n  ]\n}\n") }
' "$RAW" >"$OUT"

echo "wrote $OUT" >&2
