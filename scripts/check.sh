#!/usr/bin/env bash
# Repo-wide gate: release build, full test suite, lint-clean clippy.
# Run before every push; CI mirrors these three steps.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo build --release
# The whole workspace, debug build, default features. Among the suites
# this one run covers:
# - megate-obs with live metrics (the compiled-out configuration runs
#   separately, below);
# - tests/chaos.rs: seeded fault storms against the full control loop
#   (bounded staleness, zero blackholing, replayable by seed);
# - tests/partition.rs: controller crashes, restarts mid-solve, missed
#   publishes and splits layered on database faults (no double-booked
#   links, the DB-outage ladder for dead slices);
# - tests/dataplane_batch.rs: batched multi-core accounting must stay
#   bitwise-identical to the frame-at-a-time chain;
# - tests/solver_equivalence.rs: work-stealing MaxEndpointFlow must stay
#   bitwise-identical to the scalar reference at every thread count;
# - tests/incremental.rs: cold and 100%-dirty engine solves bitwise-equal
#   the stateless scheme, zero churn publishes nothing, warm/cold
#   interleavings stay feasible;
# - megate-net's protocol, service_chaos and transport_equivalence:
#   wire-protocol edge cases + the PROTOCOL.md codec-fingerprint pin, and
#   the chaos invariants re-proven over real TCP.
cargo test -q
# The observability substrate with the `disabled` feature: record paths
# must vanish.
cargo test -q -p megate-obs --features disabled
# A reduced fig_solver_scale run: 1M-class stage 3 must keep its busy-time
# scaling gate even at quick scale.
cargo run -q -p megate-bench --release --bin fig_solver_scale -- --scale quick
# A reduced fig_incremental run: steady-state warm intervals must keep the
# >=10x speedup and <=1% satisfied-demand gates even at quick scale.
cargo run -q -p megate-bench --release --bin fig_incremental -- --scale quick
# A reduced fig_propagation run: all three delivery paths must record
# solve-to-install latencies with p99 inside one 10 s sync period.
cargo run -q -p megate-bench --release --bin fig_propagation -- --scale quick
# A reduced fig_partition run: partitioned controllers under control-plane
# chaos must keep zero blackholing, no double-booked links and <=2%
# satisfied-demand loss vs the single-controller twin.
cargo run -q -p megate-bench --release --bin fig_partition -- --scale quick
# Both crates of the delivery round again at release speed: the
# flush-before-fault ordering, the executor's parked-worker count and
# the timer fired flag are races a debug build is too slow to lose.
cargo test -q --release -p megate-net
cargo test -q --release -p megate-hoststack
# A reduced fig_service run: agent fan-out over real sockets must keep
# every clean-service pull refreshed with p99 inside one 10 s sync period.
cargo run -q -p megate-bench --release --bin fig_service -- --scale quick
# The standalone benchmark package binds to public API of the crates
# (e.g. `McfProblem::solve_fptas_with`) from outside the workspace, so
# only building it shows a broken seam before the driver does. Same
# target dir as `benchmark/run.sh`.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target/benchmark}" \
    cargo test -q --offline --manifest-path benchmark/Cargo.toml
# Perf drift report vs the committed baselines — informational, never
# a gate failure here (timing jitter is machine-dependent); pass
# `--strict PCT` when a hard perf gate is wanted.
./scripts/bench_diff || true
cargo clippy --workspace -- -D warnings
# Rustdoc is part of the deliverable: broken intra-doc links or missing
# docs in `#![warn(missing_docs)]` crates fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "================================================================"
echo "check.sh: build + tests + clippy all green."
