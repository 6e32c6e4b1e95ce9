//! End-to-end chaos harness: the full controller + agents + data-plane
//! loop under a seeded, replayable fault plan.
//!
//! What these tests pin down (the resilience acceptance criteria):
//!
//! * **bounded staleness** — at every tick, every host is either fresh
//!   within the stale-TTL or has degraded to site-level/ECMP paths;
//!   nobody steers on arbitrarily old SR state;
//! * **zero blackholing** — every demand delivered by the fault-free
//!   baseline is still delivered under faults (degradation trades
//!   optimality for correctness, never reachability);
//! * **reconvergence** — within two sync periods after the last fault
//!   clears, every agent is back at the latest version and nobody is
//!   degraded;
//! * **determinism** — the same fault seed produces a bitwise-identical
//!   trace, so any chaos failure replays from its seed.

use megate::prelude::*;
use megate_tedb::TeKey;
use megate_topo::b4;

/// Flight-recorder events printed per offending endpoint when a
/// staleness or blackholing invariant trips.
const DUMP_EVENTS: usize = 40;

/// Everything observable about one tick, compared bitwise across runs.
#[derive(Debug, Clone, PartialEq)]
struct Tick {
    version: u64,
    updated: usize,
    stale: usize,
    degraded: usize,
    retries: u64,
    sr_labelled: usize,
    /// Which demands were delivered this tick.
    delivered: Vec<bool>,
}

fn build(db_shards: usize, db_replication: usize, stale_ttl: u64) -> (MegaTeSystem, DemandSet) {
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
    let sys = MegaTeSystem::new(g, tunnels, catalog, config);
    (sys, demands)
}

fn fault_spec(seed: u64) -> FaultSpec {
    FaultSpec {
        seed,
        horizon: 8,
        outage_rate: 0.15,
        max_outage_ticks: 3,
        flap_rate: 0.08,
        flap_cycles: 2,
        slow_rate: 0.20,
        slow_ns: 100_000,
        loss_rate: 0.15,
        loss_ppm: 250_000,
        corrupt_rate: 0.10,
        corrupt_ppm: 200_000,
        spell_ticks: 2,
    }
}

/// One tick of the closed loop: faults (if a plan is given), a
/// controller interval, a resilient pull round, one frame per demand.
fn run_tick(
    sys: &mut MegaTeSystem,
    demands: &DemandSet,
    plan: Option<&FaultPlan>,
    tick: u64,
    stale_ttl: u64,
) -> Tick {
    if let Some(plan) = plan {
        plan.apply_tick(tick, sys.database());
    }
    let report = sys
        .run_controller_interval(demands)
        .expect("interval solves");
    let round = sys.pull_round();
    // The bounded-staleness invariant, checked at every single tick:
    // staler than the TTL implies degraded. On violation, dump the
    // offender's flight-recorder tail — the causal pull/install path
    // that should have kept it fresh.
    for (i, (behind, degraded)) in sys.host_health().iter().enumerate() {
        assert!(
            *behind <= stale_ttl || *degraded,
            "tick {tick}: host {i} is {behind} periods behind (TTL {stale_ttl}) yet \
             still steering on stale SR paths\n{}",
            megate_obs::trace::dump_entity(
                sys.endpoint_of_host(i).map_or(u64::MAX, |ep| ep.0),
                DUMP_EVENTS,
            )
        );
    }
    let traffic = sys.send_demand_packets(demands);
    assert_eq!(
        traffic.delivered + traffic.dropped,
        demands.len(),
        "tick {tick}: every frame is accounted for"
    );
    Tick {
        version: report.version,
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

/// The full chaos run for one seed: seeded fault plan over a replicated
/// database, then two fault-free periods to prove reconvergence.
fn chaos_trace(seed: u64) -> Vec<Tick> {
    let stale_ttl = 3;
    let (mut sys, demands) = build(4, 2, stale_ttl);
    sys.bring_up(&demands).expect("hosts come up");
    sys.database().set_fault_seed(seed);
    let plan = FaultPlan::generate(&fault_spec(seed), sys.database().shard_count());
    assert!(
        plan.event_count() > 0,
        "the plan must actually schedule faults"
    );

    // Fault-free twin: same topology, demands and tick count — the
    // blackholing reference.
    let (mut baseline, _) = build(4, 2, stale_ttl);
    baseline.bring_up(&demands).expect("hosts come up");

    let mut trace = Vec::new();
    let last_tick = plan.clear_tick + 2; // two periods after all-clear
    for tick in 0..=last_tick {
        let chaos = run_tick(&mut sys, &demands, Some(&plan), tick, stale_ttl);
        let healthy = run_tick(&mut baseline, &demands, None, tick, stale_ttl);
        // Zero blackholing: anything the healthy system delivers, the
        // faulted one delivers too (possibly over degraded paths). On
        // violation, dump the source endpoint's flight-recorder tail.
        for (i, (c, h)) in chaos.delivered.iter().zip(&healthy.delivered).enumerate() {
            assert!(
                *c || !*h,
                "tick {tick}: demand {i} blackholed under faults\n{}",
                megate_obs::trace::dump_entity(demands.demands()[i].src.0, DUMP_EVENTS)
            );
        }
        trace.push(chaos);
    }

    // Reconvergence: faults cleared at `clear_tick`; two periods later
    // the whole fleet is at the latest version and nobody is degraded.
    assert!(!sys.database().any_fault_active(), "plan must have cleared");
    let end = trace.last().expect("nonempty trace");
    assert_eq!(end.stale, 0, "all agents reconverged within two periods");
    assert_eq!(end.degraded, 0, "degradation cleared after recovery");
    assert_eq!(sys.max_periods_behind(), 0);
    trace
}

#[test]
fn chaos_run_keeps_invariants_and_reconverges() {
    let trace = chaos_trace(7);
    // The run must have actually been eventful: faults caused retries
    // and at least one tick left someone stale.
    assert!(
        trace.iter().map(|t| t.retries).sum::<u64>() > 0,
        "no retry ever fired"
    );
    assert!(
        trace.iter().any(|t| t.stale > 0),
        "no tick ever saw staleness"
    );
    // Versions advance monotonically through the whole storm.
    for w in trace.windows(2) {
        assert_eq!(w[1].version, w[0].version + 1);
    }
}

#[test]
fn identical_seeds_produce_identical_chaos_outcomes() {
    // The determinism guard of the whole harness: fault rolls, backoff
    // jitter, failover order and the solver are all seeded/ordered, so
    // a chaos failure is replayable from its seed alone.
    assert_eq!(chaos_trace(7), chaos_trace(7));
    assert_ne!(
        chaos_trace(7),
        chaos_trace(8),
        "distinct seeds must diverge"
    );
}

#[test]
fn stale_agents_degrade_to_ecmp_and_recover() {
    // Unreplicated two-shard database. One shard dies while the
    // version record (on the other shard) keeps advancing: agents
    // whose records live on the dead shard go stale, hit the TTL,
    // degrade to ECMP — and their traffic keeps flowing — then
    // reconverge once the shard returns.
    let stale_ttl = 2;
    let (mut sys, demands) = build(2, 1, stale_ttl);
    sys.bring_up(&demands).expect("hosts come up");
    sys.run_controller_interval(&demands).expect("interval");
    let r0 = sys.pull_round();
    assert_eq!(r0.stale, 0, "healthy fleet converges in one round");
    let healthy = sys.send_demand_packets(&demands);
    assert!(healthy.sr_labelled > 0);

    // Kill the shard that does NOT hold the version record, so the
    // fleet keeps seeing new versions it cannot fully fetch.
    let version_shard = sys.database().shard_of(&TeKey::Version { partition: 0 });
    let victim = 1 - version_shard;
    sys.database().set_shard_down(victim, true);

    let mut max_degraded = 0;
    for _ in 0..(stale_ttl + 2) {
        sys.run_controller_interval(&demands).expect("interval");
        let round = sys.pull_round();
        max_degraded = max_degraded.max(round.degraded);
        // Degradation never breaks delivery: degraded hosts ride ECMP.
        let traffic = sys.send_demand_packets(&demands);
        for (i, h) in healthy.per_demand_latency.iter().enumerate() {
            assert!(
                h.is_none() || traffic.per_demand_latency[i].is_some(),
                "demand {i} blackholed during degradation"
            );
        }
    }
    assert!(
        max_degraded > 0,
        "hosts with records on the dead shard must degrade past the TTL"
    );
    assert_eq!(sys.degraded_count(), max_degraded);

    // Recovery: shard back, one interval + one pull round.
    sys.database().set_shard_down(victim, false);
    sys.run_controller_interval(&demands).expect("interval");
    let round = sys.pull_round();
    assert_eq!(round.stale, 0, "everyone reconverges in one round");
    assert_eq!(
        round.degraded, 0,
        "degradation clears on the next good pull"
    );
    assert_eq!(sys.degraded_count(), 0);
    let after = sys.send_demand_packets(&demands);
    assert!(
        after.sr_labelled >= healthy.sr_labelled,
        "SR steering restored"
    );
}

#[test]
fn deadline_fallback_discards_warm_state_then_warm_solving_resumes() {
    // A solve-deadline overrun publishes the previous allocation, so
    // the incremental engine's retained basis no longer describes what
    // the fleet is steering on. The fallback must junk that state: the
    // next real solve is cold, and only then does warm solving resume.
    let (mut sys, demands) = build(2, 1, 3);
    sys.bring_up(&demands).expect("hosts come up");
    let r1 = sys.run_controller_interval(&demands).expect("interval");
    assert!(
        r1.incremental.as_ref().is_some_and(|r| r.cold),
        "first solve is cold"
    );
    let r2 = sys.run_controller_interval(&demands).expect("interval");
    assert!(
        r2.incremental.as_ref().is_some_and(|r| !r.cold),
        "an unchanged interval warm-solves"
    );
    assert!(sys.controller_mut().has_warm_state());

    sys.controller_mut().config_mut().solve_deadline = Some(std::time::Duration::ZERO);
    let r3 = sys
        .run_controller_interval(&demands)
        .expect("fallback publishes");
    assert!(
        r3.incremental.is_none(),
        "a fallback interval reports no solve"
    );
    assert!(
        !sys.controller_mut().has_warm_state(),
        "the stale basis must not survive a fallback publish"
    );

    sys.controller_mut().config_mut().solve_deadline = None;
    let r4 = sys.run_controller_interval(&demands).expect("interval");
    assert!(
        r4.incremental.as_ref().is_some_and(|r| r.cold),
        "the first post-fallback solve re-seeds cold"
    );
    let r5 = sys.run_controller_interval(&demands).expect("interval");
    assert!(
        r5.incremental.as_ref().is_some_and(|r| !r.cold),
        "warm solving resumes"
    );
}

#[test]
fn replication_rides_through_a_single_shard_outage() {
    // With 2-way replication a lone shard outage is invisible to the
    // fleet: no staleness, no degradation, reads fail over.
    let (mut sys, demands) = build(4, 2, 3);
    sys.bring_up(&demands).expect("hosts come up");
    sys.run_controller_interval(&demands).expect("interval");
    assert_eq!(sys.pull_round().stale, 0);

    let failovers = megate_obs::counter("tedb.failover_reads").get();
    sys.database().set_shard_down(1, true);
    sys.run_controller_interval(&demands).expect("interval");
    let round = sys.pull_round();
    assert_eq!(round.stale, 0, "replica reads hide the outage");
    assert_eq!(round.degraded, 0);
    assert!(
        megate_obs::counter("tedb.failover_reads").get() > failovers,
        "the outage must have been absorbed by failover reads"
    );
    sys.database().set_shard_down(1, false);
    sys.run_controller_interval(&demands).expect("interval");
    assert_eq!(sys.pull_round().stale, 0);
}
