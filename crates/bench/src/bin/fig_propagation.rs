//! Propagation figure — solve-to-install latency per pull path.
//!
//! For each (endpoints, churn) cell the harness drives the full closed
//! loop through all three configuration-delivery paths and reports the
//! per-path latency distribution out of the flight recorder's
//! `propagation.latency.*` histograms (DESIGN.md §5g):
//!
//! * **delta** — steady-state churn rounds where agents follow their
//!   changelog and apply per-version deltas;
//! * **snapshot** — the fleet sits out more intervals than the
//!   retention window holds, so the catch-up pull must fall back to
//!   full snapshots;
//! * **degraded** — one shard dies long enough for its agents to blow
//!   the stale TTL and degrade to ECMP; the recovery pull after the
//!   shard returns is the measured (worst-case) path.
//!
//! Latency is controller solve start → agent install completion, as
//! stamped by the `megate_obs::trace` version clock. The acceptance
//! bar mirrors the paper's sync cadence: p99 of every exercised path
//! must land inside one 10 s sync period.

use megate::prelude::*;
use megate_bench::{print_table, scale_from_args, write_json, Scale};
use megate_obs::HistogramSnapshot;
use megate_tedb::TeKey;
use megate_topo::b4;
use serde::Serialize;

/// One sync period (10 s) in nanoseconds — the p99 acceptance bar.
const SYNC_PERIOD_NS: u64 = 10_000_000_000;

/// How many versions of deltas the cell's controller retains. Kept
/// small so the snapshot phase only has to sit out a handful of
/// intervals to fall off the changelog.
const RETENTION: u64 = 4;

/// Stale TTL (sync periods) before a cut-off agent degrades to ECMP.
const STALE_TTL: u64 = 2;

const PATHS: [&str; 3] = [
    "propagation.latency.delta",
    "propagation.latency.snapshot",
    "propagation.latency.degraded",
];

#[derive(Serialize)]
struct PropagationRow {
    endpoints: usize,
    churn_pct: u32,
    churn_rounds: usize,
    delta_count: u64,
    delta_p50_ns: u64,
    delta_p99_ns: u64,
    delta_p999_ns: u64,
    snapshot_count: u64,
    snapshot_p50_ns: u64,
    snapshot_p99_ns: u64,
    snapshot_p999_ns: u64,
    degraded_count: u64,
    degraded_p50_ns: u64,
    degraded_p99_ns: u64,
    degraded_p999_ns: u64,
    trace_events: u64,
}

/// Current bucket occupancy of the three propagation histograms, in
/// [`PATHS`] order. Cells subtract consecutive readings so each row
/// reports only its own samples despite the process-global registry.
fn path_buckets() -> [HistogramSnapshot; 3] {
    PATHS.map(|name| megate_obs::histogram(name).snapshot())
}

/// The samples recorded between two readings, as a standalone
/// histogram snapshot (so the stock quantile estimator applies).
fn delta_hist(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::default();
    for (i, slot) in out.buckets.iter_mut().enumerate() {
        *slot = after.buckets[i] - before.buckets[i];
        out.count += *slot;
    }
    out.sum = after.sum.wrapping_sub(before.sum);
    out
}

/// Multiplies every demand of `pair` by `factor` — the fig_incremental
/// churn model, but with a violent factor: propagation needs real
/// *path* changes (deltas on the wire), and a mild demand wiggle
/// leaves every endpoint's tunnel assignment — and thus its config —
/// untouched.
fn perturb_pair(demands: &mut DemandSet, pair: SitePair, factor: f64) {
    let idxs: Vec<usize> = demands.indices_for(pair).to_vec();
    for i in idxs {
        let d = demands.demands()[i].demand_mbps;
        demands.set_demand_mbps(i, d * factor);
    }
}

/// One churn round: quadruple / restore a rotating window of
/// `n_volatile` pairs so tunnel splits actually move and the
/// controller publishes per-endpoint deltas.
fn churn_round(demands: &mut DemandSet, pairs: &[SitePair], n_volatile: usize, round: usize) {
    let factor = if round.is_multiple_of(2) { 4.0 } else { 0.25 };
    let start = (round / 2 * n_volatile) % pairs.len();
    for k in 0..n_volatile {
        perturb_pair(demands, pairs[(start + k) % pairs.len()], factor);
    }
}

fn run_cell(endpoints: usize, churn: f64, churn_rounds: usize) -> PropagationRow {
    let g = b4();
    let tunnels = TunnelTable::for_all_pairs(&g, 3);
    let catalog = EndpointCatalog::generate(&g, endpoints, WeibullEndpoints::with_scale(10.0), 2);
    let mut demands = DemandSet::generate(
        &g,
        &catalog,
        &TrafficConfig {
            endpoint_pairs: endpoints / 2,
            site_pairs: 12,
            ..Default::default()
        },
    );
    demands.scale_to_load(&g, 0.4);
    let config = SystemConfig {
        controller: ControllerConfig {
            qos_sequential: true,
            snapshot_every: RETENTION,
            retention_versions: RETENTION,
            ..ControllerConfig::default()
        },
        // Two unreplicated shards: the degraded phase kills the one
        // that does not hold the version record, exactly like the
        // chaos harness's staleness scenario.
        db_shards: 2,
        db_replication: 1,
        pull: PullPolicy {
            stale_ttl_periods: STALE_TTL,
            ..PullPolicy::default()
        },
        ..SystemConfig::default()
    };
    let mut sys = MegaTeSystem::new(g, tunnels, catalog, config);

    let before = path_buckets();
    let events0 = megate_obs::counter("trace.events").get();

    sys.bring_up(&demands).expect("hosts come up");
    let pairs: Vec<SitePair> = demands.pairs().collect();
    let n_volatile = ((churn * pairs.len() as f64).ceil() as usize).clamp(1, pairs.len());

    // Phase 1 — delta path: steady-state churn, solve + pull each
    // round (plus the initial adoption pull, which also counts as
    // delta).
    let mut round = 0usize;
    for _ in 0..churn_rounds {
        churn_round(&mut demands, &pairs, n_volatile, round);
        round += 1;
        sys.run_controller_interval(&demands)
            .expect("delta-phase interval solves");
        sys.pull_round();
    }

    // Phase 2 — snapshot fallback: publish past the retention window
    // while nobody pulls; the catch-up pull finds its changelog
    // GC'd and must take a full snapshot.
    for _ in 0..(RETENTION as usize + 2) {
        churn_round(&mut demands, &pairs, n_volatile, round);
        round += 1;
        sys.run_controller_interval(&demands)
            .expect("snapshot-phase interval solves");
    }
    sys.pull_round();

    // Phase 3 — degraded recovery: kill the shard that does NOT hold
    // the version record, so agents keep seeing versions they cannot
    // fetch, blow the stale TTL and degrade; then heal the shard and
    // measure the recovery pull.
    let victim = 1 - sys.database().shard_of(&TeKey::Version { partition: 0 });
    sys.database().set_shard_down(victim, true);
    for _ in 0..(STALE_TTL + 2) {
        sys.run_controller_interval(&demands)
            .expect("outage-phase interval solves");
        sys.pull_round();
    }
    assert!(
        sys.degraded_count() > 0,
        "agents on the dead shard must degrade past the stale TTL"
    );
    sys.database().set_shard_down(victim, false);
    sys.run_controller_interval(&demands)
        .expect("recovery interval solves");
    let recovery = sys.pull_round();
    assert_eq!(
        recovery.degraded, 0,
        "degradation clears on the first good pull"
    );

    let after = path_buckets();
    let hists: Vec<HistogramSnapshot> = (0..3).map(|i| delta_hist(&before[i], &after[i])).collect();
    let q = |h: &HistogramSnapshot, q: f64| h.quantile(q);
    PropagationRow {
        endpoints,
        churn_pct: (churn * 100.0).round() as u32,
        churn_rounds,
        delta_count: hists[0].count,
        delta_p50_ns: q(&hists[0], 0.50),
        delta_p99_ns: q(&hists[0], 0.99),
        delta_p999_ns: q(&hists[0], 0.999),
        snapshot_count: hists[1].count,
        snapshot_p50_ns: q(&hists[1], 0.50),
        snapshot_p99_ns: q(&hists[1], 0.99),
        snapshot_p999_ns: q(&hists[1], 0.999),
        degraded_count: hists[2].count,
        degraded_p50_ns: q(&hists[2], 0.50),
        degraded_p99_ns: q(&hists[2], 0.99),
        degraded_p999_ns: q(&hists[2], 0.999),
        trace_events: megate_obs::counter("trace.events").get() - events0,
    }
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.2}ms", ns as f64 / 1e6)
}

fn main() {
    let scale = scale_from_args();
    let (endpoint_levels, churn_levels, churn_rounds): (&[usize], &[f64], usize) = match scale {
        Scale::Quick => (&[120], &[0.05, 0.25], 3),
        Scale::Full => (&[120, 360, 1000], &[0.02, 0.10, 0.30], 6),
    };

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for &endpoints in endpoint_levels {
        for &churn in churn_levels {
            let row = run_cell(endpoints, churn, churn_rounds);
            // Every cell must exercise all three delivery paths — a
            // zero count means the scenario silently stopped covering
            // that path, not that the path got infinitely fast.
            assert!(row.delta_count > 0, "cell recorded no delta-path installs");
            assert!(
                row.snapshot_count > 0,
                "cell recorded no snapshot-path installs"
            );
            assert!(
                row.degraded_count > 0,
                "cell recorded no degraded-path installs"
            );
            // The acceptance bar: p99 solve-to-install inside one 10 s
            // sync period on every path.
            for (name, p99) in [
                ("delta", row.delta_p99_ns),
                ("snapshot", row.snapshot_p99_ns),
                ("degraded", row.degraded_p99_ns),
            ] {
                assert!(
                    p99 <= SYNC_PERIOD_NS,
                    "{endpoints} endpoints, churn {churn}: {name} p99 {p99}ns \
                     exceeds one sync period"
                );
            }
            rows.push(vec![
                endpoints.to_string(),
                format!("{}%", row.churn_pct),
                row.delta_count.to_string(),
                fmt_ms(row.delta_p50_ns),
                fmt_ms(row.delta_p99_ns),
                row.snapshot_count.to_string(),
                fmt_ms(row.snapshot_p99_ns),
                row.degraded_count.to_string(),
                fmt_ms(row.degraded_p99_ns),
                row.trace_events.to_string(),
            ]);
            json.push(row);
        }
    }
    print_table(
        "Propagation: solve-to-install latency per delivery path \
         (p99 <= one 10s sync period on every path)",
        &[
            "endpoints",
            "churn",
            "delta·n",
            "delta·p50",
            "delta·p99",
            "snap·n",
            "snap·p99",
            "degr·n",
            "degr·p99",
            "events",
        ],
        &rows,
    );
    write_json("fig_propagation", &json);
    match megate_obs::write_bench_snapshot("propagation") {
        Ok(path) => println!("metrics snapshot: {}", path.display()),
        Err(e) => println!("metrics snapshot skipped: {e}"),
    }
}
