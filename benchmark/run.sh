#!/usr/bin/env bash
# Builds the benchmark and the real moat-serve daemon from source (offline),
# then runs one workload:
#
#   bash benchmark/run.sh --workload <tune-paper|tune-grid|serve-jobs> \
#        --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --self-test
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); scratch state goes to .bench_work.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac
cargo build --quiet --release --offline --locked --manifest-path "$root/Cargo.toml" --bin moat-serve >&2
cargo build --quiet --release --offline --manifest-path "$root/benchmark/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/moat-benchmark" \
    --root "$root" --serve-bin "$CARGO_TARGET_DIR/release/moat-serve" "$@"
