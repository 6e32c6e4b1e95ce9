//! Control-loop integration: versioned publish, asynchronous pull,
//! eventual consistency, and the top-down vs bottom-up resource story
//! (§3.2, §6.4).

use megate::prelude::*;
use megate::Controller;
use megate_tedb::{BottomUpModel, TopDownModel};

fn controller_fixture() -> (Controller, DemandSet, TeDatabase) {
    let graph = megate_topo::b4();
    let tunnels = TunnelTable::for_all_pairs(&graph, 3);
    let catalog = EndpointCatalog::generate(&graph, 150, WeibullEndpoints::with_scale(12.0), 4);
    let mut demands = DemandSet::generate(
        &graph,
        &catalog,
        &TrafficConfig {
            endpoint_pairs: 100,
            site_pairs: 15,
            ..Default::default()
        },
    );
    demands.scale_to_load(&graph, 0.5);
    let db = TeDatabase::new(2);
    let ctl = Controller::new(
        graph,
        tunnels,
        catalog,
        db.clone(),
        megate::ControllerConfig {
            qos_sequential: true,
            ..Default::default()
        },
    );
    (ctl, demands, db)
}

#[test]
fn write_then_publish_ordering_holds_under_concurrency() {
    // A reader polling the version must always find the corresponding
    // records — the §3.2 eventual-consistency contract, now over the
    // typed delta keyspace: every changelog entry at or below the
    // observed version must have a fetchable delta record.
    let (mut ctl, demands, db) = controller_fixture();
    let graph = megate_topo::b4();
    let r = ctl.run_interval(&demands).unwrap();
    let endpoint = {
        let assign = r.allocation.endpoint_assignment.as_ref().unwrap();
        let i = assign.iter().position(|c| c.is_some()).unwrap();
        demands.demands()[i].src
    };

    std::thread::scope(|s| {
        let mut writer_ctl = ctl;
        let mut writer_demands = demands.clone();
        s.spawn(move || {
            for round in 0..5 {
                // Vary the load so intervals keep producing deltas.
                writer_demands.scale_to_load(&graph, 0.3 + 0.1 * round as f64);
                writer_ctl.run_interval(&writer_demands).unwrap();
            }
        });
        let reader_db = db.clone();
        s.spawn(move || {
            for _ in 0..200 {
                if let Some(v) = reader_db.latest_version() {
                    let log = reader_db
                        .changelog(endpoint.0)
                        .expect("version visible but changelog missing");
                    for &logged in log.versions.iter().filter(|lv| **lv <= v) {
                        assert!(
                            reader_db
                                .fetch(&TeKey::Delta {
                                    endpoint: endpoint.0,
                                    version: logged
                                })
                                .is_some(),
                            "version {v} visible but delta {logged} missing"
                        );
                    }
                }
            }
        });
    });
}

#[test]
fn stale_agents_catch_up_on_next_poll() {
    let graph = megate_topo::b4();
    let tunnels = TunnelTable::for_all_pairs(&graph, 3);
    let catalog = EndpointCatalog::generate(&graph, 100, WeibullEndpoints::with_scale(10.0), 4);
    let mut demands = DemandSet::generate(
        &graph,
        &catalog,
        &TrafficConfig {
            endpoint_pairs: 60,
            site_pairs: 12,
            ..Default::default()
        },
    );
    demands.scale_to_load(&graph, 0.5);
    let mut sys = MegaTeSystem::new(graph, tunnels, catalog, megate::SystemConfig::default());
    sys.bring_up(&demands).unwrap();

    // Three controller intervals with no pulls in between: agents skip
    // straight to the latest version on their next poll.
    sys.run_controller_interval(&demands).unwrap();
    sys.run_controller_interval(&demands).unwrap();
    sys.run_controller_interval(&demands).unwrap();
    let updated = sys.agents_pull();
    assert!(updated > 0);
    assert_eq!(sys.database().latest_version(), Some(3));
    assert_eq!(sys.agents_pull(), 0, "already converged");
}

#[test]
fn figure14_story_topdown_vs_bottomup() {
    let td = TopDownModel::default();
    let bu = BottomUpModel::default();
    // 1k endpoints: both approaches are cheap (the paper's observation
    // that top-down is fine at small scale).
    assert_eq!(td.cores_needed(1_000), 1);
    // 1M endpoints: top-down explodes, bottom-up's controller doesn't.
    assert_eq!(td.cores_needed(1_000_000), 167);
    assert!(td.memory_gb(1_000_000) >= 125.0);
    assert_eq!(bu.controller_cores, 1);
    assert!((bu.controller_mem_gb - 1.0).abs() < f64::EPSILON);
}

#[test]
fn shard_outage_stalls_then_agents_converge_on_recovery() {
    let graph = megate_topo::b4();
    let tunnels = TunnelTable::for_all_pairs(&graph, 3);
    let catalog = EndpointCatalog::generate(&graph, 100, WeibullEndpoints::with_scale(10.0), 4);
    let mut demands = DemandSet::generate(
        &graph,
        &catalog,
        &TrafficConfig {
            endpoint_pairs: 60,
            site_pairs: 12,
            ..Default::default()
        },
    );
    demands.scale_to_load(&graph, 0.5);
    let mut sys = MegaTeSystem::new(graph, tunnels, catalog, megate::SystemConfig::default());
    sys.bring_up(&demands).unwrap();
    sys.run_controller_interval(&demands).unwrap();
    let full = sys.agents_pull();
    assert!(full > 0);

    // New version published, but one shard goes dark before the pull.
    sys.run_controller_interval(&demands).unwrap();
    let db = sys.database().clone();
    db.set_shard_down(0, true);
    let during_outage = sys.agents_pull();
    assert!(
        during_outage < full,
        "agents on the dark shard must stay stale: {during_outage} vs {full}"
    );

    // Recovery: the stale agents converge on their next poll.
    db.set_shard_down(0, false);
    let after = sys.agents_pull();
    assert!(after > 0, "stale agents retry after recovery");
    assert_eq!(sys.agents_pull(), 0, "everyone converged");
}

#[test]
fn corrupted_delta_records_keep_old_paths() {
    let graph = megate_topo::b4();
    let tunnels = TunnelTable::for_all_pairs(&graph, 3);
    let catalog = EndpointCatalog::generate(&graph, 100, WeibullEndpoints::with_scale(10.0), 4);
    let traffic = TrafficConfig {
        endpoint_pairs: 60,
        site_pairs: 12,
        ..Default::default()
    };
    let mut demands = DemandSet::generate(&graph, &catalog, &traffic);
    demands.scale_to_load(&graph, 0.5);
    let n_endpoints = catalog.len() as u64;
    let mut sys = MegaTeSystem::new(
        graph.clone(),
        tunnels,
        catalog.clone(),
        megate::SystemConfig::default(),
    );
    sys.bring_up(&demands).unwrap();
    sys.run_controller_interval(&demands).unwrap();
    sys.agents_pull();
    let labelled_before = sys.send_demand_packets(&demands).sr_labelled;
    assert!(labelled_before > 0);

    // A different demand set forces real churn at v2, then every v2
    // delta (and any snapshot) is corrupted before the agents pull.
    let mut shifted = DemandSet::generate(
        &graph,
        &catalog,
        &TrafficConfig {
            seed: 43,
            ..traffic
        },
    );
    shifted.scale_to_load(&graph, 0.5);
    let r2 = sys.run_controller_interval(&shifted).unwrap();
    assert!(
        r2.changed_endpoints + r2.removed_endpoints > 0,
        "no churn to corrupt"
    );
    let db = sys.database().clone();
    for ep in 0..n_endpoints {
        for key in [
            TeKey::Delta {
                endpoint: ep,
                version: r2.version,
            },
            TeKey::Snapshot { endpoint: ep },
        ] {
            if db.fetch(&key).is_some() {
                db.put(&key, vec![0xFF, 0xEE]); // undecodable
            }
        }
    }
    sys.agents_pull();
    // Agents must not have wiped their working config: SR labelling
    // continues with the old paths.
    let labelled_after = sys.send_demand_packets(&demands).sr_labelled;
    assert!(
        labelled_after >= labelled_before,
        "corrupted records must not disable SR: {labelled_after} vs {labelled_before}"
    );
}

#[test]
fn steady_state_delta_publishing_cuts_published_bytes_5x() {
    // The acceptance story of the delta keyspace: once agents are warm,
    // an interval with little churn moves a small fraction of the bytes
    // a full republish would — in total and on every shard.
    let graph = megate_topo::b4();
    let tunnels = TunnelTable::for_all_pairs(&graph, 3);
    let catalog = EndpointCatalog::generate(&graph, 100, WeibullEndpoints::with_scale(10.0), 4);
    let mut demands = DemandSet::generate(
        &graph,
        &catalog,
        &TrafficConfig {
            endpoint_pairs: 60,
            site_pairs: 12,
            ..Default::default()
        },
    );
    demands.scale_to_load(&graph, 0.5);
    let mut sys = MegaTeSystem::new(graph, tunnels, catalog, megate::SystemConfig::default());
    sys.bring_up(&demands).unwrap();
    let db = sys.database().clone();

    // Cold interval: every configured endpoint is new, so the publish
    // moves the same bytes a full republish would move every interval.
    db.reset_query_counters();
    let r1 = sys.run_controller_interval(&demands).unwrap();
    let cold_publish = db.total_bytes();
    let cold_publish_per_shard = db.per_shard_bytes();
    assert!(r1.changed_endpoints > 0);
    sys.agents_pull();

    // Steady interval: identical demands (churn well under 10%), so
    // only the version record and changelog probes move.
    db.reset_query_counters();
    let r2 = sys.run_controller_interval(&demands).unwrap();
    let steady_publish = db.total_bytes();
    let steady_publish_per_shard = db.per_shard_bytes();
    assert_eq!(r2.changed_endpoints, 0);

    assert!(
        steady_publish * 5 <= cold_publish,
        "delta publish must move >=5x fewer bytes: {steady_publish} vs {cold_publish}"
    );
    for (shard, (steady, cold)) in steady_publish_per_shard
        .iter()
        .zip(&cold_publish_per_shard)
        .enumerate()
    {
        assert!(
            steady * 5 <= *cold,
            "shard {shard}: {steady} vs {cold} bytes"
        );
    }

    // The pull side shrinks too: warm agents only probe their changelog.
    db.reset_query_counters();
    sys.agents_pull();
    let steady_pull = db.total_bytes();
    assert!(steady_pull > 0, "agents still probe for changes");
    assert!(
        steady_pull < cold_publish,
        "steady pulls must cost less than one full republish"
    );
}

#[test]
fn delta_chain_reproduces_snapshot_install_bit_for_bit() {
    // Drive several churning intervals, letting agents converge through
    // the delta path each time; then check every endpoint's path_map is
    // byte-identical to a fresh agent installing the full snapshot at
    // the same version.
    let graph = megate_topo::b4();
    let tunnels = TunnelTable::for_all_pairs(&graph, 3);
    let catalog = EndpointCatalog::generate(&graph, 100, WeibullEndpoints::with_scale(10.0), 4);
    let traffic = TrafficConfig {
        endpoint_pairs: 60,
        site_pairs: 12,
        ..Default::default()
    };
    // Flush snapshots every version so the reference state exists at
    // the same version the agents reach via deltas.
    let mut config = megate::SystemConfig::default();
    config.controller.snapshot_every = 1;
    let mut sys = MegaTeSystem::new(graph.clone(), tunnels, catalog.clone(), config);

    let mut churned = 0;
    for round in 0..4u64 {
        let mut demands = DemandSet::generate(
            &graph,
            &catalog,
            &TrafficConfig {
                seed: 42 + round,
                ..traffic
            },
        );
        demands.scale_to_load(&graph, 0.5);
        let r = sys.run_controller_interval(&demands).unwrap();
        if r.version > 1 {
            churned += r.changed_endpoints + r.removed_endpoints;
        }
        let updated = sys.agents_pull();
        assert!(updated > 0, "agents advance every interval");
    }
    assert!(churned > 0, "reseeded demands must produce churn");

    let db = sys.database().clone();
    let target = db.latest_version().expect("published");
    let mut checked = 0;
    for ep in catalog.ids() {
        let Some(raw) = db.fetch(&TeKey::Snapshot { endpoint: ep.0 }) else {
            continue;
        };
        assert_eq!(sys.agent_version(ep), Some(target));
        let stamp = u64::from_be_bytes(raw[..8].try_into().unwrap());
        let cfg = decode_paths(&raw[8..]).expect("snapshot decodes");
        // Reference: a fresh host installing the snapshot wholesale.
        let kernel = SimKernel::new();
        let mut fresh = EndpointAgent::new(kernel.maps().clone());
        let instance = InstanceId(ep.0);
        fresh.install_snapshot(stamp, instance, &cfg.to_installs(instance));
        let mut reference = fresh.maps().path_map.snapshot();
        reference.sort();
        assert_eq!(
            sys.installed_paths(ep),
            reference,
            "endpoint {} diverged from snapshot state",
            ep.0
        );
        checked += 1;
    }
    assert!(checked > 0, "at least one endpoint must carry a snapshot");
}
