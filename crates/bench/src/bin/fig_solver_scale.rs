//! Stage-3 (`MaxEndpointFlow`) scaling figure — the flat work-stealing
//! kernel across an endpoints × threads sweep (DESIGN.md §5e).
//!
//! The paper's operating requirement is that the whole TE interval
//! fits inside one 10-second sync period at millions of endpoints
//! (§6.3). Stages 1+2 (SiteMerge + the site-level LP) are solved once
//! per instance here; the sweep then re-runs only stage 3 through
//! [`MegaTeScheme::max_endpoint_flow_all`] at each thread count, so
//! the figure isolates exactly the part this kernel rebuilt.
//!
//! Two honesty rules, mirrored from `fig_dataplane`:
//!
//! * **Busy time, not wall-clock.** Each worker's time is its
//!   per-thread CPU time (`megate_obs::thread_cpu_ns`), so the
//!   speedup reflects how the kernel divides work, not how many
//!   hardware threads this bench host happens to have. The stage's
//!   critical path is the busiest worker; speedups and the 10-second
//!   gate are evaluated on that.
//! * **Identical output, asserted.** Every thread count's merged
//!   endpoint assignment must be bitwise-identical
//!   (`tests/solver_equivalence.rs` holds the kernel to the scalar
//!   reference).

use megate::prelude::*;
use megate_bench::{build_instance, print_table, scale_from_args, write_json, Scale};
use megate_solvers::megate::MegaTeScheme;
use megate_solvers::MegaTeConfig;
use megate_topo::TunnelId;
use serde::Serialize;

#[derive(Serialize)]
struct SolverScaleRow {
    topology: String,
    endpoints: usize,
    pairs: usize,
    threads: usize,
    stage_wall_ms: f64,
    max_worker_busy_ms: f64,
    total_busy_ms: f64,
    busy_speedup_vs_1: f64,
    pairs_stolen: usize,
    within_sync_period: bool,
}

/// One 10-second TE sync period, the §6.3 budget stage 3 must fit in.
const SYNC_PERIOD_MS: f64 = 10_000.0;

fn main() {
    let scale = scale_from_args();
    let (endpoint_sweep, thread_sweep): (&[usize], &[usize]) = match scale {
        Scale::Quick => (&[100_000], &[1, 2, 4]),
        Scale::Full => (&[100_000, 400_000, 1_000_000, 2_000_000], &[1, 2, 4, 8]),
    };

    let mut json: Vec<SolverScaleRow> = Vec::new();
    for &endpoints in endpoint_sweep {
        println!("building Twan instance with {endpoints} endpoint demands...");
        let inst = build_instance(TopologySpec::Twan, endpoints, 7);
        let p = inst.problem();
        let scheme = MegaTeScheme::default();
        let (pairs, site_flows) = scheme.max_site_flow(&p).expect("stage 1+2");

        let mut reference: Option<Vec<Option<TunnelId>>> = None;
        let mut busy_1_ms = 0.0f64;
        for &threads in thread_sweep {
            let scheme = MegaTeScheme::new(MegaTeConfig {
                threads,
                ..Default::default()
            });
            let mut assignment: Vec<Option<TunnelId>> = vec![None; p.demands.len()];
            let stats = scheme.max_endpoint_flow_all(&p, &pairs, &site_flows, &mut assignment);

            match &reference {
                None => reference = Some(assignment),
                Some(r) => assert_eq!(
                    r, &assignment,
                    "{endpoints} endpoints: assignment diverged at {threads} threads"
                ),
            }

            let max_busy_ms = stats.max_worker_busy.as_secs_f64() * 1e3;
            if threads == 1 {
                busy_1_ms = max_busy_ms;
            }
            json.push(SolverScaleRow {
                topology: inst.topology.to_string(),
                endpoints,
                pairs: pairs.len(),
                threads,
                stage_wall_ms: stats.wall.as_secs_f64() * 1e3,
                max_worker_busy_ms: max_busy_ms,
                total_busy_ms: stats.total_busy.as_secs_f64() * 1e3,
                busy_speedup_vs_1: if max_busy_ms > 0.0 {
                    busy_1_ms / max_busy_ms
                } else {
                    1.0
                },
                pairs_stolen: stats.pairs_stolen,
                within_sync_period: max_busy_ms < SYNC_PERIOD_MS,
            });
        }
    }

    let rows: Vec<Vec<String>> = json
        .iter()
        .map(|r| {
            vec![
                r.endpoints.to_string(),
                r.pairs.to_string(),
                r.threads.to_string(),
                format!("{:.1}", r.stage_wall_ms),
                format!("{:.1}", r.max_worker_busy_ms),
                format!("{:.1}", r.total_busy_ms),
                format!("{:.2}x", r.busy_speedup_vs_1),
                r.pairs_stolen.to_string(),
                if r.within_sync_period {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]
        })
        .collect();
    print_table(
        "MaxEndpointFlow scaling: flat work-stealing kernel, stage-3 only \
         (busy = per-thread CPU time; speedup = 1-thread busy / busiest worker)",
        &[
            "endpoints",
            "pairs",
            "threads",
            "wall ms",
            "max busy ms",
            "total busy ms",
            "speedup",
            "stolen",
            "<10s",
        ],
        &rows,
    );

    // Acceptance gates. Quick keeps a reduced bar for CI; full enforces
    // the paper-sized claim: 1M+ endpoints inside one sync period on
    // 4+ threads with >= 3x stage-3 speedup over 1 thread.
    for r in &json {
        let bar = match (scale, r.endpoints >= 1_000_000) {
            (Scale::Full, true) if r.threads >= 4 => Some(3.0),
            (Scale::Quick, _) if r.threads == 4 => Some(2.0),
            _ => None,
        };
        if let Some(min_speedup) = bar {
            assert!(
                r.busy_speedup_vs_1 >= min_speedup,
                "{} endpoints at {} threads: busy speedup {:.2}x below the {:.1}x gate",
                r.endpoints,
                r.threads,
                r.busy_speedup_vs_1,
                min_speedup
            );
        }
        if r.endpoints >= 1_000_000 && r.threads >= 4 {
            assert!(
                r.within_sync_period,
                "{} endpoints at {} threads: stage 3 took {:.0} ms, over the 10 s sync period",
                r.endpoints, r.threads, r.max_worker_busy_ms
            );
        }
    }

    write_json("fig_solver_scale", &json);
    match megate_obs::write_bench_snapshot("solver_scale") {
        Ok(path) => println!("metrics snapshot: {}", path.display()),
        Err(e) => println!("metrics snapshot skipped: {e}"),
    }
}
