#!/usr/bin/env bash
# Regenerates every table/figure of the paper plus the ablations and
# §8 extensions. Quick scale by default; pass "full" for the
# paper-sized ladders (minutes: includes million-endpoint solves), or
# "--quick" for a smoke run (compile bins + benches, drive key figures).
set -euo pipefail
SCALE="${1:-quick}"

usage() {
  cat <<'EOF'
usage: ./run_all_experiments.sh [quick|full|--quick|--help]

  quick    (default) every figure binary at reduced scale
  full     paper-sized ladders — minutes; includes million-endpoint solves
  --quick  smoke run: compile bins + benches, key gates, three figures
  --help   this message

Figure binary -> output mapping (all JSON lands in results/):

  fig02_motivation   results/fig02_motivation.json   per-endpoint vs aggregate TE gap
  fig08_endpoint_cdf results/fig08_endpoint_cdf.json endpoints per cluster CDF
  table2_topologies  results/table2_topologies.json  topology inventory
  fig09_runtime      results/fig09_runtime.json      solver runtime ladder (+ BENCH_fig09.json)
  fig10_satisfied    results/fig10_satisfied.json    satisfied-demand comparison
  fig11_latency      results/fig11_latency.json      path-latency distribution
  fig12_failures     results/fig12_failures.json     link-failure recovery
  fig13_connections  results/fig13_connections.json  per-host connection fan-out
  fig14_sync_scale   results/fig14_sync_scale.json   top-down model vs measured socket pull fleet (+ fig14_delta_bytes.json, BENCH_fig14.json)
  fig15_app_latency  results/fig15_app_latency.json  application-level latency
  fig16_availability results/fig16_availability.json availability under faults
  fig17_cost         results/fig17_cost.json         provisioning-cost comparison
  fig_resilience     results/fig_resilience.json     fault-storm control-loop drill (+ BENCH_resilience.json)
  fig_dataplane      results/fig_dataplane.json      batched multi-core TC fast path (+ BENCH_dataplane.json)
  fig_solver_scale   results/fig_solver_scale.json   flat stage-3 endpoints x threads sweep (+ BENCH_solver_scale.json)
  fig_incremental    results/fig_incremental.json    warm-started dirty-set solves vs cold (+ BENCH_incremental.json)
  fig_propagation    results/fig_propagation.json    solve-to-install latency per delivery path (+ BENCH_propagation.json)
  fig_partition      results/fig_partition.json      partitioned controllers under chaos vs the single-controller twin (+ BENCH_partition.json)
  ablations          results/ablations.json          component ablations
  ext_hybrid_sync    results/ext_hybrid_sync.json    §8 hybrid sync extension
  ext_prediction     results/ext_prediction.json     §8 demand-prediction extension
EOF
}

if [[ "$SCALE" == "--help" || "$SCALE" == "-h" ]]; then
  usage
  exit 0
fi

if [[ "$SCALE" == "--quick" ]]; then
  cargo build -p megate-bench --release --bins
  cargo bench -p megate-bench --no-run
  cargo test -q --test control_loop
  cargo test -q -p megate-obs
  cargo test -q --test observability
  cargo test -q --test chaos
  # Partitioned-controller chaos: no double-booked links, dead slices
  # ride the DB-outage ladder, per-seed determinism.
  cargo test -q --test partition
  # Batched fast path must keep accounting bitwise-identical before its
  # throughput figure means anything.
  cargo test -q --test dataplane_batch
  # Same bar for the flat stage-3 kernel before its scaling figure.
  cargo test -q --test solver_equivalence
  # And for the warm-started incremental engine before its figure.
  cargo test -q --test incremental
  # Wire-protocol edge cases + PROTOCOL.md fingerprint pin, the fleet
  # pull round, and the chaos invariants over real TCP, before the
  # socket figure.
  cargo test -q -p megate-net --test protocol
  cargo test -q -p megate-net --test fleet_round
  cargo test -q -p megate-net --test service_chaos
  cargo run -q -p megate-bench --release --bin fig09_runtime -- --scale quick
  cargo run -q -p megate-bench --release --bin fig_resilience -- --scale quick
  cargo run -q -p megate-bench --release --bin fig_dataplane -- --scale quick
  cargo run -q -p megate-bench --release --bin fig_solver_scale -- --scale quick
  cargo run -q -p megate-bench --release --bin fig_incremental -- --scale quick
  cargo run -q -p megate-bench --release --bin fig_propagation -- --scale quick
  cargo run -q -p megate-bench --release --bin fig_partition -- --scale quick
  cargo run -q -p megate-bench --release --bin fig14_sync_scale -- --scale quick
  # Perf drift vs the committed baselines/ — informational only.
  ./scripts/bench_diff || true
  echo "================================================================"
  echo "Smoke run done. JSON in results/ (incl. BENCH_fig09.json,"
  echo "BENCH_resilience.json, BENCH_dataplane.json, BENCH_solver_scale.json,"
  echo "BENCH_incremental.json, BENCH_propagation.json, BENCH_partition.json"
  echo "and BENCH_fig14.json metrics)."
  exit 0
fi

if [[ "$SCALE" != "quick" && "$SCALE" != "full" ]]; then
  usage
  exit 1
fi

BINS=(
  fig02_motivation fig08_endpoint_cdf table2_topologies
  fig09_runtime fig10_satisfied fig11_latency fig12_failures
  fig13_connections fig14_sync_scale
  fig15_app_latency fig16_availability fig17_cost
  fig_resilience fig_dataplane fig_solver_scale fig_incremental
  fig_propagation fig_partition
  ablations ext_hybrid_sync ext_prediction
)
cargo build -p megate-bench --release --bins
for b in "${BINS[@]}"; do
  echo "================================================================"
  echo ">> $b"
  cargo run -q -p megate-bench --release --bin "$b" -- --scale "$SCALE"
done
echo "================================================================"
echo "All experiments done. JSON in results/."
