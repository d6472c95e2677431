#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json's `command`): builds the
# icd-node daemon and the runner from source, then runs the runner with
# the arguments given. Builds land under CARGO_TARGET_DIR when it is set.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet -p icd-node
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
