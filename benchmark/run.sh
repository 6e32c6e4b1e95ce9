#!/usr/bin/env bash
# The benchmark's one command: build, run, check, print.
#
#   benchmark/run.sh                                   all four workloads
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --repeat                          two sets, compared against the bounds
#
# Builds this package (and the crates it binds to) in release mode into
# $CARGO_TARGET_DIR, or target/benchmark at the repository root when
# that is unset, then hands every argument to the binary. Exits non-zero
# when the build fails, an output check fails, or two sets disagree.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/benchmark}"

# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

# The environment every results file carries.
export BENCH_RESULTS_DIR="${BENCH_RESULTS_DIR:-$here/results}"
export BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"

exec "$CARGO_TARGET_DIR/release/megate-benchmark" "$@"
