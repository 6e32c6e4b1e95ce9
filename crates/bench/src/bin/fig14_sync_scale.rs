//! Figure 14 — controller resources vs endpoint count: top-down push
//! (persistent connections) against MegaTE's bottom-up pull.
//!
//! Paper: 1M endpoints need ≥167 high-usage cores and 125 GB under the
//! top-down loop; the bottom-up controller stays at one core and
//! offloads to database shards (2 shards + 10 s query spreading).
//!
//! The top-down columns are the calibrated model of the paper's
//! pressure test — the push baseline is a model by design. The
//! bottom-up columns are measured: a real [`Controller`] on a seeded
//! B4 instance publishes into a two-shard TE-DB served over loopback
//! TCP, and one socket agent per endpoint pulls through
//! [`pull_round`] — spread over the sync period, and as a burst. Per
//! fleet size (1k/10k agents under `--scale quick`, 10k/100k/1M under
//! `--scale full`) it reports:
//!
//! * peak shard QPS (all shards) and per-shard peak bytes/s over
//!   `period/10` windows, spread vs burst;
//! * wire requests per agent in the spread round, counted by the
//!   server — a quiet agent sends one `POLL` and the server makes two
//!   shard reads for it, so this is not the shard queries per agent;
//! * convergence, from publish until the last agent holds the new
//!   version;
//! * DB shards needed, ⌈spread peak QPS ÷ `SHARD_QPS_CAPACITY`⌉;
//! * the controller's core share: its interval time ÷ the sync period.
//!
//! The second panel reports published and pulled bytes of each
//! interval — the cold one that configures everyone, then perturbed
//! ones at the churn the controller measured — against the cold one,
//! with each round's wire requests and shard reads per agent. Every
//! round after the cold one asserts that its requests are one per agent
//! plus one per delta an agent had to read: a quiet agent costs one
//! request.

use megate::prelude::*;
use megate_bench::{print_table, scale_from_args, write_json, Scale};
use megate_net::agent::{pull_round, Agent};
use megate_net::server::{Server, ServerState};
use megate_net::{Endpoint, Executor, NetClient};
use megate_tedb::store::SHARD_QPS_CAPACITY;
use megate_tedb::TopDownModel;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The sync period.
const PERIOD: Duration = Duration::from_secs(10);
/// Demand load of every instance (a fixed constant, no calibration).
const LOAD: f64 = 0.8;
/// Pulls in flight at once.
const RUNNERS: usize = 2048;
/// Per interval: the demand churn (ppm) it perturbs, and whether its
/// round is spread or a burst. The first is the cold interval.
const STEPS: [(u32, bool); 4] = [
    (0, false),
    (10_000, true),
    (10_000, false),
    (100_000, false),
];

#[derive(Serialize)]
struct ScaleRow {
    endpoints: usize,
    topdown_cores: usize,
    topdown_memory_gb: f64,
    bottomup_core_share: f64,
    spread_peak_qps: f64,
    burst_peak_qps: f64,
    spread_requests_per_agent: f64,
    spread_shard_peak_bytes_per_s: f64,
    burst_shard_peak_bytes_per_s: f64,
    db_shards: u64,
    convergence_s: f64,
    pull_p99_ms: f64,
}

#[derive(Serialize)]
struct IntervalRow {
    endpoints: usize,
    demand_churn_ppm: u32,
    spread: bool,
    measured_churn: f64,
    published_bytes: u64,
    pulled_bytes: u64,
    requests_per_agent: f64,
    shard_reads_per_agent: f64,
}

/// What the shards served during one round, over `period/10` windows.
struct Load {
    peak_qps: f64,
    shard_peak_bytes_per_s: f64,
    bytes: u64,
    queries: u64,
}

/// Runs `round` while sampling the shards' query and byte counters
/// every `period/10`, through the window the round ends in.
fn measured<T>(db: &TeDatabase, round: impl FnOnce() -> T) -> (T, Load) {
    let window = PERIOD / 10;
    let read = || (db.per_shard_queries(), db.per_shard_bytes());
    db.reset_query_counters();
    let done = AtomicBool::new(false);
    let (out, samples) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = vec![read()];
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(window);
                samples.push(read());
            }
            samples
        });
        let out = round();
        done.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("sampler"))
    });
    let per_s = |d: u64| d as f64 / window.as_secs_f64();
    let mut load = Load {
        peak_qps: 0.0,
        shard_peak_bytes_per_s: 0.0,
        bytes: samples.last().unwrap().1.iter().sum(),
        queries: samples.last().unwrap().0.iter().sum(),
    };
    for w in samples.windows(2) {
        let queries: u64 = w[1].0.iter().zip(&w[0].0).map(|(b, a)| b - a).sum();
        load.peak_qps = load.peak_qps.max(per_s(queries));
        for (b, a) in w[1].1.iter().zip(&w[0].1) {
            load.shard_peak_bytes_per_s = load.shard_peak_bytes_per_s.max(per_s(b - a));
        }
    }
    (out, load)
}

/// The reads beyond its poll that each agent's pull toward `target`
/// needs: one delta per change its endpoint's changelog logs in
/// (installed, target].
fn delta_reads(db: &TeDatabase, fleet: &[Agent], target: u64) -> usize {
    fleet
        .iter()
        .map(|a| {
            db.fetch(&TeKey::Changelog {
                endpoint: a.endpoint,
            })
            .and_then(|raw| Changelog::decode(&raw))
            .map_or(0, |log| {
                let pending = |v: &&u64| **v > a.version() && **v <= target;
                log.versions.iter().filter(pending).count()
            })
        })
        .sum()
}

/// One fleet size: the figure's row and one row per interval.
fn run_size(n: usize) -> (ScaleRow, Vec<IntervalRow>) {
    let graph = TopologySpec::B4.build();
    let sites = graph.site_count();
    let catalog = EndpointCatalog::generate(
        &graph,
        n,
        WeibullEndpoints::with_scale(n as f64 / sites as f64),
        7,
    );
    let traffic = TrafficConfig {
        endpoint_pairs: n,
        site_pairs: sites * (sites - 1),
        seed: 7,
        ..Default::default()
    };
    let mut demands = DemandSet::generate(&graph, &catalog, &traffic);
    demands.scale_to_load(&graph, LOAD);
    let tunnels = TunnelTable::for_all_pairs(&graph, 4);
    let db = TeDatabase::new(2);
    let mut fleet: Vec<Agent> = catalog
        .ids()
        .map(|e| Agent::new(e.0, 0, PullPolicy::default()))
        .collect();
    let mut controller = Controller::new(graph, tunnels, catalog, db.clone(), Default::default());

    let exec = Executor::new(4);
    let state = ServerState::new(db.clone());
    let server = Server::start(
        state.clone(),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        &exec,
    )
    .expect("bind the TE-DB service on loopback");
    let client = NetClient::new(server.local().clone(), 4, exec.clone());
    // Spread over the part of the period that leaves the last agent a
    // whole retry budget before the next one.
    let spread = PERIOD - Duration::from_nanos(fleet[0].policy.deadline_ns);

    let (mut interval, mut latencies, mut rows) = (Duration::ZERO, Vec::new(), Vec::new());
    let (mut spread_load, mut burst_load, mut convergence) = (None, None, Duration::ZERO);
    let mut spread_requests = 0;
    for (step, &(ppm, spreading)) in STEPS.iter().enumerate() {
        demands.perturb(ppm, step as u64);
        let report = controller.run_interval(&demands).expect("interval");
        interval = interval.max(report.total_time);
        let s = if spreading { spread } else { Duration::ZERO };
        let deltas = delta_reads(&db, &fleet, report.version);
        let requests_before = state.requests();
        let (pulls, load) = measured(&db, || pull_round(&exec, &client, &mut fleet, s, RUNNERS));
        let requests = (state.requests() - requests_before) as usize;
        let stale = pulls.iter().filter(|p| !p.report.refreshed).count();
        assert_eq!(
            stale, 0,
            "{n} agents: {stale} pulls failed on a fault-free service"
        );
        if step > 0 {
            assert!(pulls.iter().all(|p| !p.report.via_snapshot));
            assert_eq!(
                requests,
                n + deltas,
                "{n} agents, {deltas} delta reads: a quiet agent must cost one request"
            );
        }
        latencies.extend(pulls.iter().map(|p| p.latency));
        rows.push(IntervalRow {
            endpoints: n,
            demand_churn_ppm: ppm,
            spread: spreading,
            measured_churn: report.changed_endpoints as f64 / report.configured_endpoints as f64,
            published_bytes: report.published_bytes,
            pulled_bytes: load.bytes,
            requests_per_agent: requests as f64 / n as f64,
            shard_reads_per_agent: load.queries as f64 / n as f64,
        });
        if spreading {
            spread_requests = requests;
            convergence = pulls.iter().map(|p| p.done_at).max().unwrap_or_default();
            spread_load = Some(load);
        } else if step > 0 {
            // Same churn as the spread round, so the same requests.
            burst_load.get_or_insert(load);
        }
    }
    client.close();
    state.shutdown();

    latencies.sort_unstable();
    let p99 = latencies[(latencies.len() - 1) * 99 / 100];
    let spread_load = spread_load.expect("STEPS holds a spread round");
    let burst_load = burst_load.expect("STEPS holds a perturbed burst");
    let td = TopDownModel::default();
    let row = ScaleRow {
        endpoints: n,
        topdown_cores: td.cores_needed(n),
        topdown_memory_gb: td.memory_gb(n),
        bottomup_core_share: interval.as_secs_f64() / PERIOD.as_secs_f64(),
        spread_peak_qps: spread_load.peak_qps,
        burst_peak_qps: burst_load.peak_qps,
        spread_requests_per_agent: spread_requests as f64 / n as f64,
        spread_shard_peak_bytes_per_s: spread_load.shard_peak_bytes_per_s,
        burst_shard_peak_bytes_per_s: burst_load.shard_peak_bytes_per_s,
        db_shards: (spread_load.peak_qps / SHARD_QPS_CAPACITY as f64)
            .ceil()
            .max(1.0) as u64,
        convergence_s: convergence.as_secs_f64(),
        pull_p99_ms: p99.as_secs_f64() * 1e3,
    };
    // p99 over every pull of every round, bursts included.
    assert!(
        p99 <= PERIOD,
        "{n} agents: p99 pull latency {p99:?} exceeds one sync period"
    );
    assert!(
        convergence <= PERIOD,
        "{n} agents: spread convergence took {convergence:?}"
    );
    assert!(
        row.spread_peak_qps < row.burst_peak_qps,
        "{n} agents: spreading did not lower the peak ({:.0} vs {:.0} qps)",
        row.spread_peak_qps,
        row.burst_peak_qps
    );
    assert!(
        interval <= PERIOD,
        "{n} agents: a controller interval took {interval:?}"
    );
    (row, rows)
}

fn main() {
    let sizes: &[usize] = match scale_from_args() {
        Scale::Quick => &[1_000, 10_000],
        Scale::Full => &[10_000, 100_000, 1_000_000],
    };
    let td = TopDownModel::default();
    // Paper: "at least 167 CPU cores ... and 125 GB of memory" at 1M.
    assert_eq!(td.cores_needed(1_000_000), 167);
    assert!((td.memory_gb(1_000_000) - 125.0).abs() < 1e-9);

    let (json, intervals): (Vec<ScaleRow>, Vec<Vec<IntervalRow>>) =
        sizes.iter().map(|&n| run_size(n)).unzip();
    let rows: Vec<Vec<String>> = json
        .iter()
        .map(|r| {
            vec![
                r.endpoints.to_string(),
                r.topdown_cores.to_string(),
                format!("{:.1}", r.topdown_memory_gb),
                format!("{:.3}", r.bottomup_core_share),
                format!("{:.0}", r.spread_peak_qps),
                format!("{:.0}", r.burst_peak_qps),
                format!("{:.1}x", r.burst_peak_qps / r.spread_peak_qps),
                format!("{:.3}", r.spread_requests_per_agent),
                r.db_shards.to_string(),
                format!("{:.2}", r.spread_shard_peak_bytes_per_s / 1e6),
                format!("{:.2}", r.burst_shard_peak_bytes_per_s / 1e6),
                format!("{:.2}", r.convergence_s),
                format!("{:.1}", r.pull_p99_ms),
            ]
        })
        .collect();
    print_table(
        "Figure 14: controller resources vs endpoints (top-down modelled: paper 1M -> \
         167 cores / 125 GB; bottom-up measured over sockets, 10 s sync period)",
        &[
            "endpoints",
            "TD cores",
            "TD mem GB",
            "BU core share",
            "spread peak qps",
            "burst peak qps",
            "burst/spread",
            "req/agent",
            "DB shards",
            "spread shard MB/s",
            "burst shard MB/s",
            "convergence s",
            "pull p99 ms",
        ],
        &rows,
    );
    write_json("fig14_sync_scale", &json);

    // Second panel: what each interval publishes and what its pulls
    // move, against the cold interval that configured everyone.
    let mut byte_rows = Vec::new();
    for rows in &intervals {
        let cold = &rows[0];
        let n = cold.endpoints;
        for r in rows {
            byte_rows.push(vec![
                n.to_string(),
                match r.demand_churn_ppm {
                    0 => "cold".to_string(),
                    ppm => format!("{:.1}%", ppm as f64 / 1e4),
                },
                if r.spread { "spread" } else { "burst" }.to_string(),
                format!("{:.1}%", r.measured_churn * 100.0),
                format!("{:.1}", r.published_bytes as f64 / 1e3),
                format!("{:.1}", r.pulled_bytes as f64 / 1e3),
                format!(
                    "{:.1}x",
                    cold.published_bytes as f64 / r.published_bytes as f64
                ),
                format!("{:.1}x", cold.pulled_bytes as f64 / r.pulled_bytes as f64),
                format!("{:.3}", r.requests_per_agent),
                format!("{:.3}", r.shard_reads_per_agent),
            ]);
            if r.measured_churn < 0.10 {
                assert!(
                    cold.published_bytes >= 5 * r.published_bytes,
                    "{n} agents at {:.1}% churn: published {} bytes vs {} cold, under the 5x cut",
                    r.measured_churn * 100.0,
                    r.published_bytes,
                    cold.published_bytes
                );
            }
        }
        assert!(
            rows.iter().any(|r| r.measured_churn < 0.10),
            "{n} agents: no interval measured under 10% churn"
        );
    }
    print_table(
        "Delta-versioned keyspace: bytes per interval vs the cold interval",
        &[
            "endpoints",
            "demand churn",
            "round",
            "measured churn",
            "pub KB",
            "pull KB",
            "pub cut",
            "pull cut",
            "req/agent",
            "reads/agent",
        ],
        &byte_rows,
    );
    write_json("fig14_delta_bytes", &intervals);

    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        if let Some(hwm) = status.lines().find(|l| l.starts_with("VmHWM:")) {
            println!("peak RSS {}", hwm.trim_start_matches("VmHWM:").trim());
        }
    }
    match megate_obs::write_bench_snapshot("fig14") {
        Ok(path) => println!("metrics snapshot: {}", path.display()),
        Err(e) => println!("metrics snapshot skipped: {e}"),
    }
}
