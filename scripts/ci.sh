#!/usr/bin/env bash
# The repo's CI gate, runnable locally: format, lint, tier-1 build+test,
# then the tracing pipeline — run a traced example, validate the emitted
# Chrome trace + ExecutionReport JSON. All generated reports go under
# target/, never into the tree.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> perfbench: the whole-program benchmark builds against the library and its tests pass"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

mkdir -p target/ci
echo "==> traced example: concession_stand --trace"
cargo run --release --example concession_stand -- --trace target/ci/concession_trace.json \
  > target/ci/concession_stand.txt

echo "==> validate emitted trace + report JSON"
cargo run --release -p bench --bin trace_check -- \
  target/ci/concession_trace.json target/ci/concession_trace.json.report.json

echo "==> traced example: word_count --trace (combiner must engage)"
cargo run --release --example word_count -- --trace target/ci/word_count_trace.json \
  > target/ci/word_count.txt

echo "==> validate word_count trace + assert the map-side combiner ran"
cargo run --release -p bench --bin trace_check -- \
  target/ci/word_count_trace.json target/ci/word_count_trace.json.report.json \
  --require-counter shuffle.pairs_combined --require-counter ring.bytecode_compiles

echo "==> traced example: climate --trace (columnar batch tier must engage)"
cargo run --release --example climate -- --trace target/ci/climate_trace.json \
  > target/ci/climate.txt

echo "==> validate climate trace + assert the columnar batch tier ran"
cargo run --release -p bench --bin trace_check -- \
  target/ci/climate_trace.json target/ci/climate_trace.json.report.json \
  --require-counter ring.batch_calls --require-counter par.columnar_chunks

echo "==> experiment report (target/ci/report_output.txt)"
cargo run --release -p bench --bin report > target/ci/report_output.txt
tail -n 5 target/ci/report_output.txt

echo "==> live telemetry: word_count --serve-metrics, scrape /metrics + /profile"
cargo run --release --example word_count -- --serve-metrics 127.0.0.1:9309 --serve-seconds 20 \
  > target/ci/word_count_serve.txt &
SERVE_PID=$!
cargo run --release -p bench --bin trace_check -- \
  --scrape 127.0.0.1:9309 /metrics target/ci/metrics.prom --retry 15 \
  --expect-positive 'snap_shuffle_merge_ns_window{quantile="0.99",window="60s"}' \
  --expect-positive 'snap_pool_jobs_executed ' \
  --expect snap_vm_frame_ns_window
cargo run --release -p bench --bin trace_check -- \
  --scrape 127.0.0.1:9309 '/profile?seconds=2' target/ci/word_count.folded --retry 3 \
  --expect 'snap-worker'
wait "$SERVE_PID"

echo "==> bench smoke run + regression gate (unified BENCH_BASELINE)"
scripts/bench.sh target/ci/BENCH_BASELINE.json
cargo run --release -p bench --bin trace_check -- \
  --bench-json target/ci/BENCH_BASELINE.json --baseline BENCH_BASELINE.json

echo "==> telemetry overhead gate (continuous tier must cost <3%)"
cargo run --release -p bench --bin trace_check -- \
  --overhead-gate target/ci/BENCH_BASELINE.json

echo "==> codegen: compile-only smoke over every emitted template"
cargo test --release -p snap-codegen --test compile_smoke -- --nocapture

echo "==> codegen: differential proptest, random rings native vs oracle tiers"
cargo test --release -p snap-codegen --test codegen_diff -- --nocapture

echo "==> codegen_check: compile + run + tier equivalence on every scenario"
mkdir -p target/ci/codegen
cargo run --release -p bench --bin codegen_check -- \
  --require-toolchain \
  --out target/ci/codegen \
  --trace target/ci/codegen/codegen_check.trace.json

echo "==> validate codegen trace + assert native runs happened"
cargo run --release -p bench --bin trace_check -- \
  target/ci/codegen/codegen_check.trace.json \
  target/ci/codegen/codegen_check.trace.json.report.json \
  --require-counter codegen.runs \
  --require-counter codegen.native_elems

echo "==> asan: snap-workers + snap-parallel + snap-vm suites under AddressSanitizer (nightly)"
# --lib --tests: rustdoc does not get RUSTFLAGS, so doctests built
# without the sanitizer fail to link against the sanitized crates.
# snap-vm's worker-backend tests hold a list's read guard across a
# pooled call.
RUSTFLAGS=-Zsanitizer=address cargo +nightly test --target x86_64-unknown-linux-gnu \
  -p snap-workers -p snap-parallel -p snap-vm --lib --tests

echo "==> chaos: fault-injection stress under a fixed seed"
mkdir -p target/ci/chaos
SNAP_FAULT_SEED="${SNAP_FAULT_SEED:-20240806}" RUST_BACKTRACE=1 \
  cargo test --release --test integration_faults -- --ignored --nocapture

echo "CI gate passed."
