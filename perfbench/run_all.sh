#!/bin/sh
# Run every workload, each in its own process, from the repository root:
#   perfbench/run_all.sh --seed 1 --seconds 25 --trace 0
# Extra arguments are passed to each run.
set -e
for workload in e2_parallel_map e4_wordcount e5_climate; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" "$@"
done
