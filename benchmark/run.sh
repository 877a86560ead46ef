#!/usr/bin/env bash
# Build the benchmark and the real `serve` daemon from source, then run
# the benchmark with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload fig10 --seed 2006 --seconds 10 --trace 0
#   bash benchmark/run.sh run --seed 2006 --out benchmark/out
#   bash benchmark/run.sh compare <parent-dir> <change-dir>
#
# Both builds go to $CARGO_TARGET_DIR (default: the root `target/`), so
# the daemon lands next to the benchmark binary, where it looks for it.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --manifest-path Cargo.toml -p lamps-bench --bin serve --target-dir "$target"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target"
exec "$target/release/lamps-benchmark" "$@"
