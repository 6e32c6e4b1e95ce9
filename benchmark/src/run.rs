//! One workload, start to finish: set-up (several times), the
//! control-loop script, the fast-path passes, then — in a traced run —
//! the layer replay; and the metric bag all of it fills.

use crate::control::{self, ControlOutcome, IntervalSample, Kind};
use crate::fastpath::{self, FastpathOutcome, Rig};
use crate::fleet::ControlPlane;
use crate::instance::{self, BuildTimes};
use crate::metrics::Bag;
use crate::replay::{self, ReplayOutcome};
use crate::spans::{self, Recorder};
use crate::stats::{percentile_sorted, ratio, Samples};
use crate::workloads::Workload;
use std::time::Instant;

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// `bench.budget_gap_pct` above this fails a traced run.
const BUDGET_GAP_LIMIT_PCT: f64 = 5.0;
/// Counts the program keeps itself, copied into traced output when the
/// registry has them. Nothing measured or checked depends on these.
const PROGRAM_COUNTS: [&str; 6] = [
    "lp.pivots",
    "lp.fptas_phases",
    "lp.refactorizations",
    "ssp.dp_runs",
    "ssp.fastpath_hits",
    "net.requests",
];

pub struct RunResult {
    pub bag: Bag,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub wall_s: f64,
    pub agents: usize,
    pub hosts: usize,
    pub site_pairs: usize,
    pub program_counts: Vec<(&'static str, Option<u64>)>,
    pub chrome_trace: Option<String>,
}

struct Setup {
    setup_s: Samples,
    build: BuildTimes,
    bring_up_s: f64,
}

fn median_of<'a>(
    samples: impl Iterator<Item = &'a IntervalSample>,
    f: impl Fn(&IntervalSample) -> f64,
) -> (Option<f64>, usize) {
    let mut s = Samples::default();
    s.extend(samples.map(f));
    (s.median(), s.count())
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn end_to_end(bag: &mut Bag, setup: &Setup, c: &ControlOutcome, f: &FastpathOutcome) {
    bag.set("setup_s", setup.setup_s.median(), setup.setup_s.count());
    let (v, n) = median_of(c.of(Kind::Cold), |s| s.wall_s);
    bag.set("interval_cold_s", v, n);
    let (v, n) = median_of(c.of(Kind::Warm), |s| s.wall_s);
    bag.set("interval_warm_s", v, n);
    let (v, n) = median_of(c.of(Kind::Failover), |s| s.wall_s);
    bag.set("failover_s", v, n);

    // Pull latency: each warm round's own percentile, then the median
    // over rounds, so one stalled round cannot set the p99.
    let (mut p50, mut p99, mut rate, mut fanout) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let mut pulls = 0;
    for s in c.of(Kind::Warm) {
        let mut ms: Vec<f64> = s.round.latency_ns.iter().map(|&n| n as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        pulls += ms.len();
        p50.extend(percentile_sorted(&ms, 0.50));
        p99.extend(percentile_sorted(&ms, 0.99));
        rate.push(ratio(s.round.pulls as f64 / 1e3, s.round.wall_s));
        fanout.push(ratio(s.bytes_out as f64, s.round.pulls as f64));
    }
    bag.set("pull_p50_ms", p50.median(), pulls);
    bag.set("pull_p99_ms", p99.median(), pulls);
    bag.set("pull_kagents_per_s", rate.median(), rate.count());
    bag.set("fanout_bytes_per_agent", fanout.median(), fanout.count());
    bag.set(
        "satisfied_pct",
        c.of(Kind::Warm).next().map(|s| s.satisfied_pct),
        1,
    );
    bag.set("peak_rss_mb", peak_rss_mb(), 1);
    bag.set(
        "fastpath_single_mfps",
        f.single_mfps.median(),
        f.single_mfps.count(),
    );
    bag.set(
        "fastpath_batched_mfps",
        f.batched_mfps.median(),
        f.batched_mfps.count(),
    );
}

fn per_layer(
    bag: &mut Bag,
    setup: &Setup,
    rig: &Rig,
    c: &ControlOutcome,
    f: &FastpathOutcome,
    r: &ReplayOutcome,
    parse_ns: f64,
) {
    let first = |kind| c.of(kind).next();

    for (kind, name) in [
        (Kind::Cold, "core.controller_cold_s"),
        (Kind::Warm, "core.controller_warm_s"),
        (Kind::Failover, "core.controller_failover_s"),
    ] {
        let (v, n) = median_of(c.of(kind), |s| s.controller_s);
        bag.set(name, v, n);
    }
    // Counts come from the first interval of their kind, so they repeat
    // exactly for a seed whatever the repetition counts were.
    let warm = first(Kind::Warm);
    let fail = first(Kind::Failover);
    bag.set(
        "core.published_bytes",
        warm.map(|s| s.report.published_bytes as f64),
        1,
    );
    bag.set(
        "core.changed_endpoints",
        warm.map(|s| s.report.changed_endpoints as f64),
        1,
    );
    bag.set(
        "core.failover_published_bytes",
        fail.map(|s| s.report.published_bytes as f64),
        1,
    );
    bag.set(
        "core.failover_changed_endpoints",
        fail.map(|s| s.report.changed_endpoints as f64),
        1,
    );
    let flushes = c
        .intervals
        .iter()
        .filter(|s| s.report.snapshot_flush)
        .count();
    bag.set(
        "core.snapshot_flushes",
        Some(flushes as f64),
        c.intervals.len(),
    );

    bag.set("solvers.engine_cold_s", Some(r.engine_cold_s), 1);
    bag.set("solvers.engine_warm_s", Some(r.engine_warm_s), 1);
    let inc = warm.and_then(|s| s.report.incremental.as_ref());
    bag.set("solvers.dirty_pairs", inc.map(|i| i.dirty_pairs as f64), 1);
    bag.set("solvers.total_pairs", inc.map(|i| i.total_pairs as f64), 1);
    bag.set(
        "solvers.carried_endpoints",
        inc.map(|i| i.carried_endpoints as f64),
        1,
    );
    bag.set(
        "solvers.dirty_share",
        inc.map(|i| 100.0 * ratio(i.dirty_pairs as f64, i.total_pairs as f64)),
        1,
    );

    const CLASS: [[&str; 5]; 3] = [
        [
            "lp.class1.site_mcf_s",
            "lp.class1.mode_fptas",
            "lp.class1.size_estimate",
            "lp.class1.rows",
            "lp.class1.satisfied_ratio",
        ],
        [
            "lp.class2.site_mcf_s",
            "lp.class2.mode_fptas",
            "lp.class2.size_estimate",
            "lp.class2.rows",
            "lp.class2.satisfied_ratio",
        ],
        [
            "lp.class3.site_mcf_s",
            "lp.class3.mode_fptas",
            "lp.class3.size_estimate",
            "lp.class3.rows",
            "lp.class3.satisfied_ratio",
        ],
    ];
    for (names, lp) in CLASS.iter().zip(&r.classes) {
        let values = [
            lp.site_mcf_s,
            lp.mode_fptas,
            lp.size_estimate,
            lp.rows,
            lp.satisfied_ratio,
        ];
        for (name, v) in names.iter().zip(values) {
            bag.set(name, Some(v), 1);
        }
    }

    let stage = first(Kind::Cold).and_then(|s| s.report.allocation.endpoint_stage);
    bag.set("ssp.stage3_wall_s", stage.map(|s| s.wall.as_secs_f64()), 1);
    bag.set(
        "ssp.stage3_busy_max_s",
        stage.map(|s| s.max_worker_busy.as_secs_f64()),
        1,
    );
    bag.set(
        "ssp.stage3_busy_total_s",
        stage.map(|s| s.total_busy.as_secs_f64()),
        1,
    );
    bag.set("ssp.pairs_stolen", stage.map(|s| s.pairs_stolen as f64), 1);

    bag.set("solvers.paths_s", Some(r.paths_s), 1);
    bag.set("solvers.diff_s", Some(r.diff_s), 1);
    bag.set("core.encode_snapshot_s", Some(r.encode_snapshot_s), 1);
    bag.set("core.encode_delta_s", Some(r.encode_delta_s), 1);
    bag.set("core.decode_s", Some(r.decode_s), 1);

    bag.set("tedb.put_s", Some(r.put_s), 1);
    bag.set("tedb.fetch_ns_p50", r.fetch_ns.median(), r.fetch_ns.count());
    bag.set(
        "tedb.fetch_ns_p99",
        r.fetch_ns.percentile(0.99),
        r.fetch_ns.count(),
    );
    let db = c.plane.state().db();
    bag.set("tedb.queries", Some(db.total_queries() as f64), 1);
    bag.set("tedb.bytes", Some(db.total_bytes() as f64), 1);
    let shards = db.per_shard_queries();
    let mean = shards.iter().sum::<u64>() as f64 / shards.len().max(1) as f64;
    let max = shards.iter().copied().max().unwrap_or(0) as f64;
    bag.set("tedb.shard_imbalance", Some(ratio(max, mean)), shards.len());

    let (v, n) = median_of(c.of(Kind::Warm), |s| s.round.wall_s);
    bag.set("net.round_wall_s", v, n);
    let (v, n) = median_of(c.of(Kind::Cold), |s| s.round.wall_s);
    bag.set("net.bootstrap_round_s", v, n);
    let (v, n) = median_of(c.of(Kind::Warm), |s| s.bytes_out as f64);
    bag.set("net.bytes_out", v, n);
    let (v, n) = median_of(c.of(Kind::Warm), |s| s.bytes_in as f64);
    bag.set("net.bytes_in", v, n);
    bag.set("net.accepted_conns", Some(c.accepted_conns as f64), 1);
    let rounds = c.intervals.len();
    let via_snapshot: usize = c.intervals.iter().map(|s| s.round.via_snapshot).sum();
    bag.set("net.via_snapshot_pulls", Some(via_snapshot as f64), rounds);
    let retries: usize = c.intervals.iter().map(|s| s.round.retry_attempts).sum();
    bag.set("net.retry_attempts", Some(retries as f64), rounds);
    bag.set(
        "net.ping_rtt_us_p50",
        r.ping_rtt_us.median(),
        r.ping_rtt_us.count(),
    );
    bag.set(
        "net.ping_rtt_us_p99",
        r.ping_rtt_us.percentile(0.99),
        r.ping_rtt_us.count(),
    );
    bag.set(
        "net.get_version_rtt_us_p50",
        r.get_version_rtt_us.median(),
        r.get_version_rtt_us.count(),
    );
    bag.set(
        "net.dispatch_ns_p50",
        r.dispatch_ns.median(),
        r.dispatch_ns.count(),
    );
    // An agent whose paths did not move asks for the version and its
    // changelog; a changed one also fetches its delta.
    let requests_per_pull =
        warm.map(|s| 2.0 + ratio(s.report.changed_endpoints as f64, s.round.pulls as f64));
    let wait_share = match (
        requests_per_pull,
        r.ping_rtt_us.median(),
        bag.get("pull_p50_ms"),
    ) {
        (Some(reqs), Some(rtt_us), Some(p50)) => Some(1.0 - ratio(reqs * rtt_us / 1e3, p50.value)),
        _ => None,
    };
    bag.set("net.pull_wait_share", wait_share, 1);

    let mut install_us = Samples::default();
    let mut install_s = Samples::default();
    for s in c.of(Kind::Warm).filter(|s| s.traced) {
        install_us.extend(s.round.install_ns.iter().map(|&n| n as f64 / 1e3));
        install_s.push(s.round.install_ns.iter().sum::<u64>() as f64 / 1e9);
    }
    bag.set("hoststack.install_s", install_s.median(), install_s.count());
    bag.set(
        "hoststack.install_us_p50",
        install_us.median(),
        install_us.count(),
    );
    bag.set(
        "hoststack.install_us_p99",
        install_us.percentile(0.99),
        install_us.count(),
    );
    bag.set(
        "hoststack.installs",
        warm.map(|s| s.round.installs as f64),
        1,
    );
    bag.set(
        "hoststack.path_map_entries",
        Some(c.path_map_entries as f64),
        1,
    );

    let n = f.install_call_us.count();
    bag.set(
        "hoststack.install_contended_us_p50",
        f.install_call_us.median(),
        n,
    );
    bag.set(
        "hoststack.install_contended_us_p99",
        f.install_call_us.percentile(0.99),
        n,
    );
    bag.set(
        "hoststack.install_scheduled_us_p50",
        f.install_latency_us.median(),
        n,
    );
    bag.set(
        "hoststack.install_scheduled_us_p99",
        f.install_latency_us.percentile(0.99),
        n,
    );
    bag.set(
        "bench.install_schedule_lag_us_p99",
        f.install_lag_us.percentile(0.99),
        n,
    );
    bag.set(
        "hoststack.tc_egress_ns_per_frame_p50",
        f.single_ns_p50.median(),
        f.single_ns_p50.count(),
    );
    bag.set(
        "hoststack.tc_egress_ns_per_frame_p99",
        f.single_ns_p99.median(),
        f.single_ns_p99.count(),
    );
    bag.set("packet.parse_batch_ns_per_frame", Some(parse_ns), 1);
    bag.set(
        "dataplane.sr_inserted_share",
        Some(ratio(f.sr_inserted as f64, f.frames as f64)),
        1,
    );
    bag.set(
        "dataplane.accounting_misses",
        Some(f.accounting_misses as f64),
        1,
    );
    // Per pass, so it does not grow with how many passes the time allowed.
    bag.set(
        "dataplane.fragments_resolved",
        Some(ratio(f.fragments_resolved as f64, f.passes as f64)),
        f.passes as usize,
    );

    bag.set("topo.build_s", Some(setup.build.topo_build_s), 1);
    bag.set("topo.tunnels_s", Some(setup.build.topo_tunnels_s), 1);
    bag.set(
        "traffic.generate_s",
        Some(setup.build.traffic_generate_s),
        1,
    );
    bag.set("hoststack.bring_up_s", Some(setup.bring_up_s), 1);
    bag.set("dataplane.trace_generate_s", Some(rig.trace_generate_s), 1);
    bag.set(
        "dataplane.profile_install_s",
        Some(rig.profile_install_s),
        1,
    );

    // The interval's two spans against its wall clock: the worst case
    // over every interval of the run.
    let gap = c
        .intervals
        .iter()
        .map(|s| 100.0 * ratio((s.wall_s - s.controller_s - s.round.wall_s).abs(), s.wall_s))
        .fold(0.0, f64::max);
    bag.set("bench.budget_gap_pct", Some(gap), c.intervals.len());
    let replayed = r.engine_cold_s + r.paths_s + r.diff_s + r.encode_delta_s + r.put_s;
    let controller_cold = bag.get("core.controller_cold_s").map(|v| v.value);
    bag.set(
        "bench.replay_gap_pct",
        controller_cold.map(|c| 100.0 * ratio((replayed - c).abs(), c)),
        1,
    );
    let (on, n_on) = median_of(c.of(Kind::Warm).filter(|s| s.traced), |s| s.wall_s);
    let (off, n_off) = median_of(c.of(Kind::Warm).filter(|s| !s.traced), |s| s.wall_s);
    bag.set(
        "bench.trace_overhead_pct",
        on.zip(off).map(|(on, off)| 100.0 * (ratio(on, off) - 1.0)),
        n_on.min(n_off),
    );
}

pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> RunResult {
    run_with(w, seed, seconds, traced, fastpath::TRACE_FRAMES)
}

fn run_with(w: &Workload, seed: u64, seconds: f64, traced: bool, trace_frames: usize) -> RunResult {
    let wall = Instant::now();
    let rec = Recorder::new(traced);

    // Set-up, several times over; the last one is used.
    let mut setup_s = Samples::default();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, _, plane, _, _)) = built.take() {
            ControlPlane::stop(plane);
        }
        let t = Instant::now();
        let span = rec.begin("bench.setup", spans::NONE, 0, 0);
        let (inst, times) = instance::build(w.topology, w.endpoints, w.load, w.instance_seed);
        let (plane, bring_up_s) = ControlPlane::start(&inst);
        let rig = Rig::build(seed, trace_frames);
        rec.end(span);
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((inst, times, plane, bring_up_s, rig));
    }
    let (inst, build, plane, bring_up_s, rig) = built.expect("SETUP_REPS is at least one");
    let setup = Setup {
        setup_s,
        build,
        bring_up_s,
    };

    let control = control::run(w, seed, &rec, inst, plane);
    let span = rec.begin("bench.fastpath", spans::NONE, 0, 0);
    let fast = fastpath::run(&rig, seconds * w.fastpath_share);
    rec.end(span);

    let mut bag = Bag::default();
    end_to_end(&mut bag, &setup, &control, &fast);
    let mut failures: Vec<String> = control
        .failures
        .iter()
        .chain(&fast.failures)
        .cloned()
        .collect();
    let mut failed = control.failed + fast.failed;
    let mut program_counts = Vec::new();
    if traced {
        let span = rec.begin("bench.replay", spans::NONE, 0, 0);
        let replayed = replay::run(&control, w.instance_seed);
        let parse_ns = fastpath::replay_parse(&rig);
        rec.end(span);
        per_layer(&mut bag, &setup, &rig, &control, &fast, &replayed, parse_ns);
        let gap = bag
            .get("bench.budget_gap_pct")
            .map_or(f64::INFINITY, |v| v.value);
        if gap > BUDGET_GAP_LIMIT_PCT {
            failed += 1;
            failures.push(format!(
                "bench.budget_gap_pct {gap:.2} > {BUDGET_GAP_LIMIT_PCT}: the controller and pull-round spans do not add up to the interval"
            ));
        }
        let registry = megate_obs::global().snapshot();
        program_counts = PROGRAM_COUNTS
            .iter()
            .map(|&name| (name, registry.counters.get(name).copied()))
            .collect();
    }

    let result = RunResult {
        bag,
        attempted: control.attempted + fast.attempted,
        failed,
        failures,
        wall_s: 0.0,
        agents: control.agents,
        hosts: control.hosts,
        site_pairs: control.site_pairs,
        program_counts,
        chrome_trace: traced.then(|| rec.chrome_trace()),
    };
    ControlPlane::stop(control.plane);
    RunResult {
        wall_s: wall.elapsed().as_secs_f64(),
        ..result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use megate_topo::TopologySpec;

    /// A miniature instance (B4, 1 200 endpoint demands) through the
    /// whole traced script — set-up, cold, warm, failure, restore, fast
    /// path, layer replay — with the correctness gate on.
    #[test]
    fn miniature_runs_clean_through_the_whole_script() {
        let w = Workload {
            name: "miniature",
            why: "test",
            topology: TopologySpec::B4,
            endpoints: 1_200,
            instance_seed: 7,
            load: 0.6,
            cold: 2,
            warm: 2,
            fail: 2,
            fastpath_share: 0.5,
        };
        let r = run_with(&w, 7, 0.2, true, 4_000);
        assert_eq!(r.failed, 0, "{:?}", r.failures);
        assert!(
            r.attempted > 2 * 6 * r.agents as u64,
            "every round pulls and installs"
        );
        assert_eq!(r.site_pairs, 35);
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(r.bag.get(d.name).is_some(), "{} was not measured", d.name);
        }
        let value = |name: &str| r.bag.get(name).expect(name).value;
        assert!((50.0..=100.0).contains(&value("satisfied_pct")));
        // The failure event flushes snapshots; so does the restore.
        assert!(value("core.snapshot_flushes") >= 2.0);
        assert_eq!(value("net.retry_attempts"), 0.0);
        assert_eq!(value("dataplane.accounting_misses"), 0.0);
        assert_eq!(value("lp.class1.mode_fptas"), 0.0);
        assert!(value("bench.budget_gap_pct") <= BUDGET_GAP_LIMIT_PCT);
        let trace = r.chrome_trace.expect("a traced run keeps its spans");
        for span in [
            "bench.setup",
            "core.controller",
            "net.pull_round",
            "hoststack.install",
        ] {
            assert!(trace.contains(span), "no {span} span");
        }
    }
}
