//! Partitioned-controller chaos: N controllers that survive each other.
//!
//! The single-controller chaos suite (`tests/chaos.rs`) proves the
//! fleet rides out *database* faults; this suite layers *control-plane*
//! faults on top — controller crashes, restarts mid-solve, missed
//! publishes and partition splits, scheduled by a seeded
//! [`ControllerFaultPlan`] alongside a seeded TE-DB [`FaultPlan`] —
//! and pins the partitioned acceptance criteria:
//!
//! * **zero blackholing** — every demand the fault-free partitioned
//!   twin delivers is still delivered under the combined storm;
//! * **no double-booking** — after quota reconciliation, the union of
//!   all partitions' published paths never exceeds any link's capacity,
//!   border links included, at every tick of the storm;
//! * **the DB-outage ladder for dead controllers** — agents of a
//!   crashed partition age past the stale-TTL and degrade to ECMP
//!   exactly as they would under a database outage, while the other
//!   partitions' agents stay fresh;
//! * **reconvergence** — within two sync periods after the last fault
//!   clears, every agent is back at its partition's latest version and
//!   nobody is degraded;
//! * **determinism** — one seed, one bitwise-identical trace.

use megate::prelude::*;
use megate_topo::b4;

/// Flight-recorder events printed per offender when an invariant trips.
const DUMP_EVENTS: usize = 40;

/// Everything observable about one tick, compared bitwise across runs.
#[derive(Debug, Clone, PartialEq)]
struct Tick {
    /// Per-partition version wires (None while unreadable).
    versions: Vec<Option<u64>>,
    live: usize,
    partitions: u32,
    updated: usize,
    stale: usize,
    degraded: usize,
    retries: u64,
    sr_labelled: usize,
    /// Which demands were delivered this tick.
    delivered: Vec<bool>,
}

fn build(
    partitions: u32,
    db_shards: usize,
    db_replication: usize,
    stale_ttl: u64,
) -> (MegaTeSystem, DemandSet) {
    let g = b4();
    let tunnels = TunnelTable::for_all_pairs(&g, 3);
    let catalog = EndpointCatalog::generate(&g, 100, WeibullEndpoints::with_scale(10.0), 2);
    let mut demands = DemandSet::generate(
        &g,
        &catalog,
        &TrafficConfig {
            endpoint_pairs: 60,
            site_pairs: 12,
            ..Default::default()
        },
    );
    demands.scale_to_load(&g, 0.4);
    let config = SystemConfig {
        db_shards,
        db_replication,
        pull: PullPolicy {
            stale_ttl_periods: stale_ttl,
            ..PullPolicy::default()
        },
        ..SystemConfig::default()
    };
    let cluster = ClusterConfig {
        partitions,
        controller: ControllerConfig {
            qos_sequential: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let sys = MegaTeSystem::new_partitioned(g, tunnels, catalog, config, cluster);
    (sys, demands)
}

fn db_spec(seed: u64) -> FaultSpec {
    FaultSpec {
        seed,
        horizon: 8,
        outage_rate: 0.10,
        max_outage_ticks: 3,
        flap_rate: 0.05,
        flap_cycles: 2,
        slow_rate: 0.15,
        slow_ns: 100_000,
        loss_rate: 0.10,
        loss_ppm: 250_000,
        corrupt_rate: 0.08,
        corrupt_ppm: 200_000,
        spell_ticks: 2,
    }
}

fn ctl_spec(seed: u64) -> ControllerFaultSpec {
    ControllerFaultSpec {
        seed,
        horizon: 8,
        crash_rate: 0.18,
        // Longer than the stale-TTL, so a long crash marches the dead
        // partition's agents all the way down the ladder to ECMP.
        max_down_ticks: 6,
        restart_rate: 0.08,
        miss_rate: 0.10,
        split_at: Some(3),
    }
}

/// One tick of the partitioned closed loop: database faults, controller
/// faults (with pending-heal retries), quota reconciliation + per-slot
/// solves, a resilient pull round, one frame per demand — plus every
/// per-tick invariant.
fn run_tick(
    sys: &mut MegaTeSystem,
    demands: &DemandSet,
    db_plan: Option<&FaultPlan>,
    ctl_plan: Option<&ControllerFaultPlan>,
    tick: u64,
    stale_ttl: u64,
) -> Tick {
    if let Some(plan) = db_plan {
        plan.apply_tick(tick, sys.database());
    }
    if let Some(plan) = ctl_plan {
        sys.apply_controller_tick(plan, tick);
    }
    let report = sys
        .run_partitioned_interval(demands)
        .expect("partitioned interval solves");
    let round = sys.pull_round();

    // Bounded staleness, per host, with the owning partition in the
    // dump: a violation under a dead controller names the partition
    // whose crash/restart/reconcile events the recorder holds.
    for (i, (behind, degraded)) in sys.host_health().iter().enumerate() {
        let ep = sys.endpoint_of_host(i).expect("host exists");
        let partition = sys.partition_of_endpoint(ep).expect("partitioned mode");
        assert!(
            *behind <= stale_ttl || *degraded,
            "tick {tick}: host {i} (partition {partition}, ctl {}) is {behind} periods \
             behind (TTL {stale_ttl}) yet still steering on stale SR paths\n\
             --- endpoint {} events ---\n{}\n--- partition {partition} events ---\n{}",
            if sys.cluster().unwrap().is_up(partition) {
                "up"
            } else {
                "DEAD"
            },
            ep.0,
            megate_obs::trace::dump_entity(ep.0, DUMP_EVENTS),
            megate_obs::trace::dump_entity(partition as u64, DUMP_EVENTS),
        );
    }

    // No double-booking: the union of published paths fits every link.
    let over = sys.cluster().unwrap().max_overbooked_mbps(demands);
    assert!(
        over <= 1e-6,
        "tick {tick}: published paths over-book a link by {over} Mbps after reconciliation"
    );

    let traffic = sys.send_demand_packets(demands);
    assert_eq!(
        traffic.delivered + traffic.dropped,
        demands.len(),
        "tick {tick}: every frame is accounted for"
    );
    let partitions = sys.cluster().unwrap().partition_count();
    let versions = (0..partitions)
        .map(|p| {
            sys.database()
                .latest_partition_version_checked(p)
                .ok()
                .flatten()
        })
        .collect();
    Tick {
        versions,
        live: report.live,
        partitions,
        updated: round.updated,
        stale: round.stale,
        degraded: round.degraded,
        retries: round.retries,
        sr_labelled: traffic.sr_labelled,
        delivered: traffic
            .per_demand_latency
            .iter()
            .map(Option::is_some)
            .collect(),
    }
}

/// The full combined storm for one seed: database faults and controller
/// faults (including one split) over a replicated database, then two
/// fault-free periods to prove reconvergence.
fn storm_trace(seed: u64) -> Vec<Tick> {
    let stale_ttl = 3;
    let (mut sys, demands) = build(2, 4, 2, stale_ttl);
    sys.bring_up(&demands).expect("hosts come up");
    sys.database().set_fault_seed(seed);
    let db_plan = FaultPlan::generate(&db_spec(seed), sys.database().shard_count());
    let ctl_plan = ControllerFaultPlan::generate(&ctl_spec(seed), 2);
    assert!(db_plan.event_count() > 0, "db plan schedules faults");
    assert!(
        ctl_plan.onset_count() > 1,
        "controller plan schedules faults"
    );

    // Fault-free partitioned twin: the blackholing reference.
    let (mut baseline, _) = build(2, 4, 2, stale_ttl);
    baseline.bring_up(&demands).expect("hosts come up");

    let mut trace = Vec::new();
    let last_tick = db_plan.clear_tick.max(ctl_plan.clear_tick) + 2;
    for tick in 0..=last_tick {
        let storm = run_tick(
            &mut sys,
            &demands,
            Some(&db_plan),
            Some(&ctl_plan),
            tick,
            stale_ttl,
        );
        let healthy = run_tick(&mut baseline, &demands, None, None, tick, stale_ttl);
        for (i, (s, h)) in storm.delivered.iter().zip(&healthy.delivered).enumerate() {
            assert!(
                *s || !*h,
                "tick {tick}: demand {i} blackholed under the combined storm\n{}",
                megate_obs::trace::dump_entity(demands.demands()[i].src.0, DUMP_EVENTS)
            );
        }
        trace.push(storm);
    }

    // Reconvergence: all faults cleared; two periods later every agent
    // is at its partition's latest version and nobody is degraded.
    assert!(
        !sys.database().any_fault_active(),
        "db plan must have cleared"
    );
    assert_eq!(
        sys.cluster().unwrap().live_count(),
        sys.cluster().unwrap().partition_count() as usize,
        "every controller (including the split's) is back up"
    );
    let end = trace.last().expect("nonempty trace");
    assert_eq!(end.stale, 0, "all agents reconverged within two periods");
    assert_eq!(end.degraded, 0, "degradation cleared after recovery");
    assert_eq!(sys.max_periods_behind(), 0);
    trace
}

#[test]
fn combined_storm_keeps_invariants_and_reconverges() {
    let trace = storm_trace(42);
    // The storm must have been eventful: a controller died at some
    // point (live < partitions), someone went stale, and the split
    // actually grew the cluster.
    assert!(
        trace.iter().any(|t| t.live < t.partitions as usize),
        "no tick ever saw a dead controller"
    );
    assert!(
        trace.iter().any(|t| t.stale > 0),
        "no tick ever saw staleness"
    );
    assert_eq!(
        trace.last().unwrap().partitions,
        3,
        "the scheduled split must have re-sliced the cluster"
    );
    // The dead partition's agents rode the ladder to ECMP at least once.
    assert!(
        trace.iter().any(|t| t.degraded > 0),
        "no agent ever degraded — the storm never exercised the ladder"
    );
    // The flight recorder holds the control-plane storm: crashes carry
    // the dead partition's id, restarts its warm/cold outcome, and the
    // reconciler its per-round border adjustments.
    use megate_obs::trace::Stage;
    let events = megate_obs::trace::snapshot();
    assert!(
        events
            .iter()
            .any(|e| e.stage == Stage::CtlCrash && e.entity == 1),
        "a crash of partition 1 must be on the record"
    );
    assert!(
        events.iter().any(|e| e.stage == Stage::CtlRestart),
        "a restart must be on the record"
    );
    assert!(
        events.iter().any(|e| e.stage == Stage::Reconcile),
        "reconciliation passes must be on the record"
    );
}

#[test]
fn identical_seeds_produce_identical_storm_outcomes() {
    // The determinism guard: database fault rolls, controller fault
    // rolls, backoff jitter, quota negotiation and the solver are all
    // seeded and ordered, so any partitioned chaos failure replays
    // from its seed alone.
    assert_eq!(storm_trace(7), storm_trace(7));
    assert_ne!(
        storm_trace(7),
        storm_trace(8),
        "distinct seeds must diverge"
    );
}

#[test]
fn shard_outage_and_controller_crash_in_the_same_tick() {
    // The satellite case: a TE-DB shard dies in the same tick as a
    // controller. The dead partition's agents ride the ladder; the
    // survivor's agents fail over to replicas or eat retries; the heal
    // cannot land until the database is back, then everything
    // reconverges within two periods.
    let stale_ttl = 2;
    let (mut sys, demands) = build(2, 2, 1, stale_ttl);
    sys.bring_up(&demands).expect("hosts come up");
    sys.run_partitioned_interval(&demands).expect("interval");
    let r0 = sys.pull_round();
    assert_eq!(
        r0.stale, 0,
        "healthy partitioned fleet converges in one round"
    );
    let healthy = sys.send_demand_packets(&demands);

    // Both at once: the shard holding partition 1's version record goes
    // dark and partition 1's controller dies.
    let victim = sys.database().shard_of(&TeKey::Version { partition: 1 });
    sys.database().set_shard_down(victim, true);
    sys.cluster_mut().unwrap().crash(1);
    assert!(
        !sys.cluster_mut().unwrap().heal(1),
        "recovery must not land while the version record may be unreachable"
    );

    let mut max_degraded = 0;
    for _ in 0..(stale_ttl + 3) {
        sys.run_partitioned_interval(&demands).expect("interval");
        let round = sys.pull_round();
        max_degraded = max_degraded.max(round.degraded);
        let traffic = sys.send_demand_packets(&demands);
        for (i, h) in healthy.per_demand_latency.iter().enumerate() {
            assert!(
                h.is_none() || traffic.per_demand_latency[i].is_some(),
                "demand {i} blackholed during the combined outage"
            );
        }
    }
    assert!(
        max_degraded > 0,
        "agents must degrade under the combined outage"
    );

    // Heal the database; the pending controller heal lands on the next
    // plan tick, and the fleet reconverges within two sync periods.
    sys.database().set_shard_down(victim, false);
    let empty = ControllerFaultPlan {
        events: Default::default(),
        clear_tick: 0,
    };
    sys.apply_controller_tick(&empty, 0); // retries the pending heal
    assert!(
        sys.cluster().unwrap().is_up(1),
        "heal lands once the db is back"
    );
    let mut rounds = 0;
    loop {
        sys.run_partitioned_interval(&demands).expect("interval");
        let round = sys.pull_round();
        rounds += 1;
        if round.stale == 0 && round.degraded == 0 {
            break;
        }
        assert!(
            rounds < 2,
            "must reconverge within two sync periods of the heal"
        );
    }
    let after = sys.send_demand_packets(&demands);
    assert!(
        after.sr_labelled >= healthy.sr_labelled,
        "SR steering restored after the combined outage"
    );
}
