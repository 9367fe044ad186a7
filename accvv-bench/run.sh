#!/usr/bin/env bash
# Build the release accvv binary and the benchmark into one target
# directory, then run the benchmark with the given arguments. Run it from
# anywhere: `bash accvv-bench/run.sh --workload release_cold --seed 1`.
# CARGO_TARGET_DIR, when set, picks the target directory.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin accvv --target-dir "$target"
cargo build --release --offline --quiet --manifest-path accvv-bench/Cargo.toml --target-dir "$target"
exec "$target/release/accvv-bench" "$@"
