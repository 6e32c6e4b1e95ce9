//! Observability integration: one end-to-end TE cycle must leave a
//! metric snapshot carrying every layer's series (DESIGN.md §5b), both
//! expositions must round-trip, and the disabled path must cost
//! nothing the LP pivot loop could notice.
//!
//! These tests flip and inspect process-global state (the metric
//! registry and the enable switch), so they serialize through one
//! file-local mutex regardless of the harness's thread count.

use megate::prelude::*;
use std::sync::{Mutex, MutexGuard};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One full control-loop cycle on a small B4 system: bring-up,
/// solve/publish, agent pull, packets through TC egress and the WAN.
fn run_probe() {
    let graph = megate_topo::b4();
    let tunnels = TunnelTable::for_all_pairs(&graph, 3);
    let catalog = EndpointCatalog::generate(&graph, 120, WeibullEndpoints::with_scale(10.0), 2);
    let mut demands = DemandSet::generate(
        &graph,
        &catalog,
        &TrafficConfig {
            endpoint_pairs: 80,
            site_pairs: 15,
            ..Default::default()
        },
    );
    demands.scale_to_load(&graph, 0.4);
    let mut sys = MegaTeSystem::new(graph, tunnels, catalog, SystemConfig::default());
    sys.bring_up(&demands).unwrap();
    sys.run_controller_interval(&demands)
        .expect("probe interval solves");
    assert!(sys.agents_pull() > 0);
    let traffic = sys.send_demand_packets(&demands);
    assert!(traffic.delivered > 0);
}

#[test]
fn end_to_end_cycle_populates_every_layer() {
    let _g = obs_lock();
    megate_obs::set_enabled(true);
    run_probe();
    let snap = megate_obs::global().snapshot();

    // Per-phase solver timings, nested under the controller interval.
    for phase in [
        "controller.solve",
        "controller.publish",
        "solver.max_site_flow",
    ] {
        assert!(
            snap.histograms
                .keys()
                .any(|k| k.starts_with("span.") && k.contains(phase)),
            "missing span for {phase}; have: {:?}",
            snap.histograms.keys().collect::<Vec<_>>()
        );
    }
    // FastSSP stage spans record on worker threads (flat paths).
    assert!(snap.histograms.keys().any(|k| k.contains("ssp.dp")));

    // Flat stage-3 kernel series (DESIGN.md §5e). The fast-path and DP
    // counters are registered up front by `flat::register_metrics`;
    // the steal counter exists even when a small probe never steals,
    // and every solved pair records into the endpoint-count histogram
    // so fig_solver_scale can report work-distribution skew.
    for ctr in ["ssp.fastpath_hits", "ssp.dp_runs", "solver.pairs_stolen"] {
        assert!(
            snap.counters.contains_key(ctr),
            "flat-kernel counter {ctr} must be registered after a solve"
        );
    }
    assert!(
        snap.counters.get("ssp.fastpath_hits").copied().unwrap_or(0) > 0,
        "a light-load probe resolves most tunnels on the fast paths"
    );
    let pair_hist = snap
        .histograms
        .get("solver.pair_endpoints")
        .expect("per-pair endpoint-count histogram must exist");
    assert!(
        pair_hist.count > 0,
        "every solved pair records its endpoint count"
    );

    // Incremental-engine series (DESIGN.md §5f): the warm/cold solve
    // counters and the dirty-pair counter are registered when the
    // controller builds its engine, and a cold-start interval must
    // have recorded at least one cold solve. The diff churn gauge is
    // set by the publish path's allocation diff.
    for ctr in [
        "solver.warm_solves",
        "solver.cold_solves",
        "solver.dirty_pairs",
    ] {
        assert!(
            snap.counters.contains_key(ctr),
            "incremental-engine counter {ctr} must be registered up front"
        );
    }
    assert!(
        snap.counters
            .get("solver.cold_solves")
            .copied()
            .unwrap_or(0)
            > 0,
        "a cold-start interval runs at least one cold solve"
    );
    assert!(
        snap.gauges.contains_key("solver.diff_churn_ppm"),
        "the publish path must record the allocation-diff churn"
    );

    // TE-DB byte counters: the controller's published-byte mirror and
    // the database's own wire counter both moved.
    for ctr in ["controller.delta_bytes", "tedb.wire_bytes"] {
        assert!(
            snap.counters.get(ctr).copied().unwrap_or(0) > 0,
            "{ctr} must be nonzero after a cold-start interval"
        );
    }
    // Shard query latency histograms saw traffic.
    assert!(snap
        .histograms
        .iter()
        .any(|(k, h)| k.starts_with("tedb.shard") && h.count > 0));

    // Host-stack series: the ring never dropped here, but the counter
    // must exist (registered at construction); SR insertion did happen.
    assert!(snap.counters.contains_key("hoststack.ringbuf.drops"));
    assert!(
        snap.counters
            .get("hoststack.sr_inserted")
            .copied()
            .unwrap_or(0)
            > 0
    );
    assert!(
        snap.gauges
            .get("hoststack.map.traffic_map.occupancy")
            .copied()
            .unwrap_or(0)
            > 0
    );

    // Data plane delivered frames; the fleet converged after the pull.
    assert!(
        snap.counters
            .get("dataplane.frames_delivered")
            .copied()
            .unwrap_or(0)
            > 0
    );
    assert_eq!(
        snap.gauges.get("controller.config_staleness").copied(),
        Some(0)
    );

    // Resilience series are registered at construction, so they must
    // be present (at zero) even on a fault-free probe — a chaos run
    // only moves them.
    for ctr in [
        "tedb.failover_reads",
        "agent.retries",
        "controller.fallback_publishes",
    ] {
        assert!(
            snap.counters.contains_key(ctr),
            "resilience counter {ctr} must be registered up front"
        );
    }
    assert!(
        snap.gauges.contains_key("agent.degraded_endpoints"),
        "degradation gauge must be registered up front"
    );
    assert_eq!(
        snap.gauges.get("agent.degraded_endpoints").copied(),
        Some(0),
        "nobody degrades on a healthy probe"
    );

    // Propagation-tracing series (DESIGN.md §5g): the per-path
    // solve-to-install latency histograms are registered at system
    // construction, and a converged probe lands every agent's first
    // pull in the delta bucket (never-configured adoption counts as the
    // delta path).
    for h in [
        "propagation.latency.delta",
        "propagation.latency.snapshot",
        "propagation.latency.degraded",
    ] {
        assert!(
            snap.histograms.contains_key(h),
            "propagation histogram {h} must be registered up front"
        );
    }
    let delta_lat = &snap.histograms["propagation.latency.delta"];
    assert!(
        delta_lat.count > 0,
        "a converged probe records delta-path install latencies"
    );
    assert!(
        delta_lat.quantile(0.99) < 10_000_000_000,
        "even a debug-build probe installs well inside one 10 s sync period"
    );

    // The flight recorder itself: events flowed and its own meta
    // series moved.
    assert!(
        snap.counters.get("trace.events").copied().unwrap_or(0) > 0,
        "the probe must have recorded flight-recorder events"
    );
    assert!(
        snap.gauges.get("trace.threads").copied().unwrap_or(0) > 0,
        "at least one thread registered a trace ring"
    );
    let events = megate_obs::trace::snapshot();
    use megate_obs::trace::Stage;
    for stage in [
        Stage::SolveStart,
        Stage::SolveEnd,
        Stage::Encode,
        Stage::Publish,
        Stage::ShardWrite,
        Stage::VersionBump,
        Stage::ChangelogPull,
        Stage::Install,
        Stage::PullDone,
        Stage::SpanEnter,
        Stage::SpanExit,
    ] {
        assert!(
            events.iter().any(|e| e.stage == stage),
            "probe cycle must record a {} event",
            stage.name()
        );
    }
    // One endpoint's causal path is reconstructible: its PullDone cites
    // the version the controller published.
    let done = events
        .iter()
        .find(|e| e.stage == Stage::PullDone)
        .expect("a PullDone event exists");
    assert!(done.version > 0, "PullDone carries the achieved version");
    assert!(
        !megate_obs::trace::events_for(done.entity, 16).is_empty(),
        "the endpoint's events are filterable by entity"
    );
    // And the whole thing exports as a Chrome trace.
    let chrome = megate_obs::trace::to_chrome_trace(&events);
    assert!(chrome.contains("\"ph\":\"B\"") && chrome.contains("\"name\":\"install\""));
}

/// One partitioned control-plane cycle with every fault flavor — the
/// cluster's own series (DESIGN.md §5h) must all be present, and the
/// ones the faults touched must have moved.
#[test]
fn partitioned_cycle_populates_cluster_series() {
    let _g = obs_lock();
    megate_obs::set_enabled(true);
    let graph = megate_topo::b4();
    let tunnels = TunnelTable::for_all_pairs(&graph, 3);
    let catalog = EndpointCatalog::generate(&graph, 120, WeibullEndpoints::with_scale(10.0), 2);
    let mut demands = DemandSet::generate(
        &graph,
        &catalog,
        &TrafficConfig {
            endpoint_pairs: 80,
            site_pairs: 15,
            ..Default::default()
        },
    );
    demands.scale_to_load(&graph, 0.4);
    let cluster = ClusterConfig {
        partitions: 2,
        controller: ControllerConfig {
            qos_sequential: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut sys =
        MegaTeSystem::new_partitioned(graph, tunnels, catalog, SystemConfig::default(), cluster);
    sys.bring_up(&demands).unwrap();
    let before = megate_obs::global().snapshot();
    sys.run_partitioned_interval(&demands).unwrap();
    sys.pull_round();
    // Exercise every controller-fault flavor once.
    sys.cluster_mut().unwrap().miss_publish(1);
    sys.run_partitioned_interval(&demands).unwrap();
    sys.cluster_mut().unwrap().crash(1);
    sys.run_partitioned_interval(&demands).unwrap();
    assert!(sys.cluster_mut().unwrap().heal(1));
    sys.cluster_mut().unwrap().restart_mid_solve(1);
    sys.run_partitioned_interval(&demands).unwrap();
    let split_seed = 0xfeed;
    assert!(sys.cluster_mut().unwrap().split(1, split_seed).is_some());
    sys.refresh_partition_map();
    sys.run_partitioned_interval(&demands).unwrap();
    sys.pull_round();
    let snap = megate_obs::global().snapshot();

    // Counters: registered up front, and each moved under its fault.
    for ctr in [
        "controller.partition.crashes",
        "controller.partition.restarts",
        "controller.partition.missed_publishes",
        "controller.partition.splits",
        "controller.partition.reconciles",
    ] {
        let delta = snap.counters.get(ctr).copied().unwrap_or(0)
            - before.counters.get(ctr).copied().unwrap_or(0);
        assert!(delta > 0, "cluster counter {ctr} must move under its fault");
    }
    // Withdrawals only fire on a genuinely over-booked link; register-only.
    assert!(
        snap.counters
            .contains_key("controller.partition.withdrawals"),
        "withdrawal counter must be registered up front"
    );

    // Gauges reflect the post-split cluster shape.
    assert_eq!(
        snap.gauges.get("controller.partition.count").copied(),
        Some(3),
        "the split grew the cluster to three partitions"
    );
    assert_eq!(
        snap.gauges.get("controller.partition.live").copied(),
        Some(3),
        "every controller is up at the end"
    );
    assert!(
        snap.gauges
            .get("controller.partition.border_links")
            .copied()
            .unwrap_or(0)
            > 0,
        "a 3-way slice of B4 has border links"
    );

    // Per-partition DB attribution: each partition's controller writes
    // through its own `for_partition` handle.
    for p in 0..2u32 {
        let name = format!("tedb.partition{p}.bytes");
        assert!(
            snap.counters.get(&name).copied().unwrap_or(0) > 0,
            "{name} must attribute that partition's publish traffic"
        );
    }

    // The flight recorder holds the control-plane lifecycle.
    use megate_obs::trace::Stage;
    let events = megate_obs::trace::snapshot();
    for stage in [Stage::CtlCrash, Stage::CtlRestart, Stage::Reconcile] {
        assert!(
            events.iter().any(|e| e.stage == stage),
            "partitioned cycle must record a {} event",
            stage.name()
        );
    }
}

#[test]
fn expositions_round_trip_after_real_traffic() {
    let _g = obs_lock();
    megate_obs::set_enabled(true);
    run_probe();
    let snap = megate_obs::global().snapshot();

    let text = snap.to_prometheus();
    let parsed =
        megate_obs::Snapshot::from_prometheus(&text).expect("our own exposition must parse");
    assert_eq!(parsed, snap.sanitized(), "Prometheus text must round-trip");

    let json = snap.to_json();
    let parsed = megate_obs::Snapshot::from_json(&json).expect("JSON must parse");
    assert_eq!(parsed, snap, "JSON snapshot must round-trip exactly");
}

#[test]
fn bench_snapshot_file_round_trips() {
    let _g = obs_lock();
    megate_obs::set_enabled(true);
    run_probe();
    let path = megate_obs::write_bench_snapshot("obs_itest").expect("writable results/");
    let text = std::fs::read_to_string(&path).expect("snapshot file readable");
    let parsed = megate_obs::Snapshot::from_json(&text).expect("file parses");
    assert!(parsed.counters.get("tedb.wire_bytes").copied().unwrap_or(0) > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn disabled_lp_pivot_loop_records_nothing() {
    let _g = obs_lock();
    megate_obs::set_enabled(false);
    let before = megate_obs::global().snapshot();
    let trace_before = megate_obs::trace::snapshot().len();
    run_probe();
    let after = megate_obs::global().snapshot();
    let trace_after = megate_obs::trace::snapshot().len();
    megate_obs::set_enabled(true);

    // The flight recorder honors the same kill switch: a full cycle
    // recorded not one event.
    assert_eq!(
        trace_before, trace_after,
        "disabled run must record no flight-recorder events"
    );

    // A full solve ran, yet no counter moved — the pivot loop's
    // `inc()` calls were pure branch-not-taken. Values are compared
    // with absent ≡ 0: a disabled run may still *register* a counter
    // (at 0) that no earlier test in this process had touched.
    let value = |counters: &std::collections::BTreeMap<String, u64>, name: &str| {
        counters.get(name).copied().unwrap_or(0)
    };
    assert_eq!(
        value(&before.counters, "lp.pivots"),
        value(&after.counters, "lp.pivots"),
        "disabled pivot counter must not move"
    );
    for name in before.counters.keys().chain(after.counters.keys()) {
        assert_eq!(
            value(&before.counters, name),
            value(&after.counters, name),
            "counter {name} moved while disabled"
        );
    }
    for (name, h) in &after.histograms {
        let prev = before.histograms.get(name).map(|h| h.count).unwrap_or(0);
        assert_eq!(h.count, prev, "histogram {name} recorded while disabled");
    }
}

#[test]
fn disabled_record_path_is_near_free() {
    let _g = obs_lock();
    megate_obs::set_enabled(false);
    let ctr = megate_obs::counter("obs_itest.disabled_cost");
    let hist = megate_obs::histogram("obs_itest.disabled_cost_ns");
    let started = std::time::Instant::now();
    for i in 0..10_000_000u64 {
        ctr.inc();
        hist.record(i);
    }
    let elapsed = started.elapsed();
    let trace_events = megate_obs::trace::snapshot().len();
    let trace_started = std::time::Instant::now();
    for i in 0..10_000_000u64 {
        megate_obs::trace::record(megate_obs::trace::Stage::Install, 1, 2, i);
    }
    let trace_elapsed = trace_started.elapsed();
    megate_obs::set_enabled(true);
    assert_eq!(ctr.get(), 0);
    assert_eq!(hist.snapshot().count, 0);
    assert_eq!(
        megate_obs::trace::snapshot().len(),
        trace_events,
        "disabled trace::record must write nothing"
    );
    // 20M disabled record calls. Each is one relaxed load + branch
    // (single-digit ns even unoptimized); the bound is generous enough
    // for debug builds and loaded CI, while still catching a record
    // path that takes a lock or touches the registry (~100x slower).
    assert!(
        elapsed < std::time::Duration::from_secs(4),
        "disabled record path too slow: {elapsed:?}"
    );
    // Same bound for the flight recorder's record path (10M calls).
    assert!(
        trace_elapsed < std::time::Duration::from_secs(2),
        "disabled trace record path too slow: {trace_elapsed:?}"
    );
}

/// Cold seed, then one hot site pair's demands jump 5x and stay there
/// for three intervals. Returns each interval's warm/cold decision and
/// the path sets it published.
fn churn_sequence(threshold_ppm: i64) -> (Vec<bool>, Vec<megate_solvers::AllocationPaths>) {
    let graph = megate_topo::b4();
    let tunnels = TunnelTable::for_all_pairs(&graph, 3);
    let catalog = EndpointCatalog::generate(&graph, 1200, WeibullEndpoints::with_scale(40.0), 9);
    let mut demands = DemandSet::generate(
        &graph,
        &catalog,
        &TrafficConfig {
            endpoint_pairs: 600,
            site_pairs: 30,
            sigma: 0.8,
            seed: 9,
            ..Default::default()
        },
    );
    demands.scale_to_load(&graph, 1.3);
    let mut ctl = Controller::new(
        graph,
        tunnels,
        catalog,
        TeDatabase::new(2),
        megate::ControllerConfig {
            cold_every: 0,
            warm_churn_max_ppm: threshold_ppm,
            ..Default::default()
        },
    );
    let mut surged = demands.clone();
    let hot = surged
        .pairs()
        .max_by_key(|&p| surged.indices_for(p).len())
        .expect("the instance has site pairs");
    for i in surged.indices_for(hot).to_vec() {
        let d = surged.demands()[i].demand_mbps;
        surged.set_demand_mbps(i, d * 5.0);
    }
    let mut cold = Vec::new();
    let mut published = Vec::new();
    for (n, interval) in [&demands, &surged, &surged, &surged]
        .into_iter()
        .enumerate()
    {
        let report = ctl.run_interval(interval).expect("interval solves");
        let engine = report.incremental.expect("no fallback publishes here");
        cold.push(engine.cold);
        published.push(ctl.published_paths().clone());
        if n == 1 {
            let moved = report.changed_endpoints + report.removed_endpoints;
            let ppm = moved * 1_000_000 / (moved + report.unchanged_endpoints);
            assert!(
                !engine.cold && ppm as i64 > threshold_ppm,
                "the surge must be a warm interval publishing more than \
                 {threshold_ppm} ppm churn (cold {}, {ppm} ppm)",
                engine.cold
            );
        }
    }
    (cold, published)
}

/// The controller's warm/cold steering takes published-path churn from
/// the diff it holds, not from the `solver.diff_churn_ppm` gauge — so
/// switching metrics off cannot change what gets solved or published.
#[test]
fn control_decisions_do_not_depend_on_the_metrics_switch() {
    let _g = obs_lock();
    megate_obs::set_enabled(true);
    let (cold_on, published_on) = churn_sequence(50_000);
    megate_obs::set_enabled(false);
    let (cold_off, published_off) = churn_sequence(50_000);
    megate_obs::set_enabled(true);
    // Seed cold; the surge is one dirty pair of 27, so warm; its
    // published churn tops the threshold, forcing the next solve cold;
    // that clears the hint.
    assert_eq!(cold_on, [true, false, true, false]);
    assert_eq!(cold_off, cold_on);
    assert!(published_off == published_on);
}
