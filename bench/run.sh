#!/usr/bin/env bash
# Build the worker binary (root package) and the harness (this package)
# side by side, then run the harness from the repository root.
#
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bench/run.sh [--seed N] [--seconds S] [--quick] [--agree]
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-bench/target}"
cargo build --offline --release --manifest-path Cargo.toml --bin warp-worker --target-dir "$target" >&2
cargo build --offline --release --manifest-path bench/Cargo.toml --target-dir "$target" >&2
exec "$target/release/bench" "$@"
