#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument goes to `amrm-benchmark`, for example
#   bash benches/amrm-benchmark/run.sh --workload mdf-diurnal --seed 2020
# Build output goes to stderr, so the result line stays the last line of
# standard output.
set -euo pipefail
crate="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$crate/Cargo.toml" --bins >&2
exec "${CARGO_TARGET_DIR:-$crate/target}/release/amrm-benchmark" "$@"
