#!/usr/bin/env bash
# Build the benchmark and run it from the repo root.
#
#   benchmark/run.sh [--seed N]          every workload, untraced then traced
#   benchmark/run.sh aa [--seed N]       the suite twice; fails outside the bounds
#   benchmark/run.sh spec                print BENCHMARK.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                        one run; the result is the last line
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# glibc's malloc moves its mmap threshold as a process frees large blocks;
# where it lands differs from process to process and made set-up time
# bimodal (0.75 or 1.65 ms on block3d_flow). Pinning the thresholds keeps
# the fields on the heap, as in a long-running process.
export GLIBC_TUNABLES="${GLIBC_TUNABLES:-glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=268435456}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/rhrsc-benchmark" "$@"
