//! Equivalence gate for the batched multi-core fast path (DESIGN.md §5d).
//!
//! The batched TC pipeline restructures flow collection around per-CPU
//! shards and deferred merges, so the one property that makes it safe
//! to ship is proved here at the workspace level: replaying the same
//! trace through the frame-at-a-time chain and the batched multi-core
//! driver must leave **bitwise-identical** `traffic_map` totals and
//! identical TC counters, across batch geometries, sync cadences, and
//! map-pressure corner cases.

use megate_dataplane::workers::{
    install_profile, run_batched, run_single_frame, Trace, TrafficGen, TrafficProfile, WorkerConfig,
};
use megate_hoststack::SimKernel;
use megate_packet::FiveTuple;

fn sorted_traffic(kernel: &SimKernel) -> Vec<(FiveTuple, u64)> {
    let mut snap = kernel.maps().traffic_map.snapshot();
    snap.sort();
    snap
}

fn sorted_frags(kernel: &SimKernel) -> Vec<(u16, FiveTuple)> {
    let mut snap = kernel.maps().frag_map.snapshot();
    snap.sort();
    snap
}

/// One execution model's sorted `traffic_map` snapshot and stat block.
type Replay = (Vec<(FiveTuple, u64)>, megate_hoststack::TcStats);

/// Replay `trace` through both execution models: (serial, batched).
fn replay_both(trace: &Trace, profile: &TrafficProfile, cfg: WorkerConfig) -> (Replay, Replay) {
    let serial = SimKernel::new();
    install_profile(&serial, profile);
    let serial_rep = run_single_frame(&serial, trace);

    let batched = SimKernel::new();
    install_profile(&batched, profile);
    let batched_rep = run_batched(&batched, trace, cfg);

    assert_eq!(
        sorted_frags(&serial),
        sorted_frags(&batched),
        "frag_map state must be identical between paths"
    );
    (
        (sorted_traffic(&serial), serial_rep.stats),
        (sorted_traffic(&batched), batched_rep.stats),
    )
}

#[test]
fn batched_accounting_is_bitwise_identical_across_geometries() {
    let profile = TrafficProfile::default();
    let trace = TrafficGen::new(99, profile).generate(20_000);
    for cfg in [
        WorkerConfig {
            cores: 1,
            batch_size: 1,
            sync_every: 1,
            ring_depth: 4,
        },
        WorkerConfig {
            cores: 2,
            batch_size: 32,
            sync_every: 4,
            ring_depth: 16,
        },
        WorkerConfig {
            cores: 4,
            batch_size: 256,
            sync_every: 16,
            ring_depth: 64,
        },
        WorkerConfig {
            cores: 7,
            batch_size: 17,
            sync_every: 3,
            ring_depth: 8,
        },
    ] {
        let ((serial, serial_stats), (batched, batched_stats)) = replay_both(&trace, &profile, cfg);
        assert_eq!(
            serial, batched,
            "traffic_map diverged at cores={} batch={} sync={}",
            cfg.cores, cfg.batch_size, cfg.sync_every
        );
        assert_eq!(
            serial_stats, batched_stats,
            "TC counters diverged at cores={} batch={} sync={}",
            cfg.cores, cfg.batch_size, cfg.sync_every
        );
    }
}

#[test]
fn batched_path_exercises_every_frame_kind() {
    // A trace heavy on fragments and noise so the equivalence above is
    // not vacuous for the tricky cases.
    let profile = TrafficProfile {
        flows: 512,
        frag_per_mille: 150,
        noise_per_mille: 100,
        ..TrafficProfile::default()
    };
    let trace = TrafficGen::new(7, profile).generate(10_000);
    let cfg = WorkerConfig {
        cores: 3,
        batch_size: 64,
        sync_every: 8,
        ring_depth: 16,
    };
    let ((serial, serial_stats), (batched, batched_stats)) = replay_both(&trace, &profile, cfg);
    assert_eq!(serial, batched);
    assert_eq!(serial_stats, batched_stats);
    assert!(batched_stats.sr_inserted > 0, "SR insertion not exercised");
    assert!(
        batched_stats.fragments_resolved > 0,
        "fragment path not exercised"
    );
    assert!(
        batched_stats.frames > batched_stats.sr_inserted,
        "trace must include frames that pass unlabelled"
    );
}

#[test]
fn telemetry_event_counts_match_between_paths() {
    use megate_hoststack::TelemetryEvent;
    let profile = TrafficProfile {
        flows: 256,
        ..TrafficProfile::default()
    };
    let trace = TrafficGen::new(31, profile).generate(5_000);

    let count = |events: &[TelemetryEvent]| {
        let new_flows = events
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::NewFlow { .. }))
            .count();
        let sr = events
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::SrInserted { .. }))
            .count();
        (new_flows, sr)
    };

    let serial = SimKernel::new();
    install_profile(&serial, &profile);
    run_single_frame(&serial, &trace);
    let serial_counts = count(&serial.maps().telemetry.drain());

    let batched = SimKernel::new();
    install_profile(&batched, &profile);
    let cfg = WorkerConfig {
        cores: 2,
        batch_size: 128,
        sync_every: 4,
        ring_depth: 16,
    };
    run_batched(&batched, &trace, cfg);
    let batched_counts = count(&batched.maps().telemetry.drain());

    assert_eq!(
        serial_counts, batched_counts,
        "(new_flows, sr_inserted) telemetry must match between paths"
    );
}
