#!/usr/bin/env bash
# The command of BENCHMARK.json. Run from the repository root:
#
#   bash benchmark/run.sh --workload status --seed 1 --seconds 20 --trace 0
#
# Builds the shipped myproxy-server in the root workspace, then builds
# and runs the benchmark package, both offline. Arguments pass through;
# without any, every workload runs untraced and then traced.
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
cargo build --quiet --release --offline --manifest-path Cargo.toml -p mp-cli --bin myproxy-server
CARGO_TARGET_DIR="$target" exec cargo run --quiet --release --offline \
    --manifest-path benchmark/Cargo.toml -- --server-bin "$target/release/myproxy-server" "$@"
