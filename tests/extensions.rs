//! Integration of the §8 extensions and substrate depth: queueing-aware
//! latency on real allocations, hybrid sync with the push channel,
//! interval replay with the real solver, and prediction-driven
//! provisioning.

use megate::prelude::*;
use megate_dataplane::{replay_intervals, IntervalInput, IntervalSolve};
use megate_solvers::TeScheme;
use megate_tedb::{evaluate_hybrid, heavy_tailed_volumes, HybridConfig};
use megate_traffic::{diurnal_multiplier, evaluate_predictor, Predictor};

fn instance(load: f64) -> (Graph, TunnelTable, DemandSet) {
    let graph = megate_topo::b4();
    let tunnels = TunnelTable::for_all_pairs(&graph, 3);
    let catalog = EndpointCatalog::generate(&graph, 800, WeibullEndpoints::with_scale(60.0), 4);
    let mut demands = DemandSet::generate(
        &graph,
        &catalog,
        &TrafficConfig {
            endpoint_pairs: 600,
            site_pairs: 20,
            sigma: 0.8,
            ..Default::default()
        },
    );
    demands.scale_to_load(&graph, load);
    (graph, tunnels, demands)
}

#[test]
fn queueing_penalizes_hot_allocations_end_to_end() {
    use megate::Controller;
    use megate_dataplane::{HostRegistry, WanNetwork};
    use megate_packet::MegaTeFrameSpec;

    let (graph, tunnels, demands) = instance(1.5);
    let p = TeProblem {
        graph: &graph,
        tunnels: &tunnels,
        demands: &demands,
    };
    let alloc = MegaTeScheme::default().solve(&p).unwrap();

    // Utilization from the real allocation feeds the queueing model.
    let utilization: Vec<f64> = alloc
        .link_loads(&p)
        .iter()
        .zip(graph.link_ids())
        .map(|(&l, e)| l / graph.link(e).capacity_mbps)
        .collect();

    // Route one assigned flow with and without queueing awareness.
    let assign = alloc.endpoint_assignment.as_ref().unwrap();
    let i = assign.iter().position(|c| c.is_some()).unwrap();
    let t = assign[i].unwrap();
    let d = &demands.demands()[i];
    let tun = tunnels.tunnel(t);

    let mut hosts = HostRegistry::new();
    hosts.register(Controller::endpoint_ip(d.src), tun.pair.src);
    hosts.register(Controller::endpoint_ip(d.dst), tun.pair.dst);
    let tuple = megate_packet::FiveTuple {
        src_ip: Controller::endpoint_ip(d.src),
        dst_ip: Controller::endpoint_ip(d.dst),
        proto: megate_packet::Proto::Tcp,
        src_port: 9000,
        dst_port: 443,
    };
    let hops: Vec<u32> = tun.sites.iter().skip(1).map(|s| s.0).collect();
    let mut spec = MegaTeFrameSpec::simple(tuple, 1, Some(hops));
    spec.outer_src_ip = tuple.src_ip;
    spec.outer_dst_ip = tuple.dst_ip;

    let cold = WanNetwork::new(&graph, &tunnels, hosts.clone());
    let hot = WanNetwork::new(&graph, &tunnels, hosts).with_utilization(utilization);
    let mut f1 = spec.build();
    let mut f2 = spec.build();
    let a = cold.route_frame(&mut f1);
    let b = hot.route_frame(&mut f2);
    assert!(a.delivered && b.delivered);
    assert!(
        b.latency_ms >= a.latency_ms,
        "queueing can only add latency: {} vs {}",
        b.latency_ms,
        a.latency_ms
    );
}

#[test]
fn interval_replay_with_the_real_solver_over_a_half_day() {
    let (graph, tunnels, base) = instance(1.1);
    let scheme = MegaTeScheme::default();
    let failed_at = 6usize;
    let scenario = FailureScenario::sample_connected(&graph, 1, 3).unwrap();

    let inputs: Vec<IntervalInput> = (0..12)
        .map(|i| IntervalInput {
            index: i,
            demand_multiplier: diurnal_multiplier(i * 24, 288),
            failing_links: if i == failed_at {
                &scenario.failed_links
            } else {
                &[]
            },
        })
        .collect();

    let metrics = replay_intervals(&graph, &tunnels, 300.0, inputs, |input| {
        let mut demands = base.clone();
        demands.scale(input.demand_multiplier);
        let g = if input.failing_links.is_empty() {
            graph.clone()
        } else {
            graph.with_failed_links(input.failing_links)
        };
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let alloc = scheme.solve(&p).expect("solvable");
        IntervalSolve {
            tunnel_flow_mbps: alloc.tunnel_flow_mbps,
            total_demand_mbps: demands.total_mbps(),
            recompute_seconds: alloc.solve_time.as_secs_f64().max(1.0),
        }
    });

    assert_eq!(metrics.len(), 12);
    assert!(metrics[failed_at].failed);
    // Every interval keeps carrying the bulk of the traffic.
    for m in &metrics {
        assert!(m.satisfied > 0.5, "interval {}: {}", m.index, m.satisfied);
    }
    // Off-peak intervals satisfy more than the failure interval.
    let healthy_min = metrics
        .iter()
        .filter(|m| !m.failed)
        .map(|m| m.satisfied)
        .fold(1.0f64, f64::min);
    assert!(healthy_min >= metrics[failed_at].satisfied - 0.25);
}

#[test]
fn hybrid_push_channel_delivers_while_tail_polls() {
    // Hybrid sync end to end: the heavy endpoint holds a watch channel
    // (push), the tail polls. After a publish the watcher knows the
    // version immediately; the poller learns it on its next poll.
    let db = TeDatabase::new(2);
    let watcher = db.watch_versions();
    db.put(&TeKey::Snapshot { endpoint: 1 }, vec![1]);
    db.publish_version(1);
    assert_eq!(watcher.try_recv(), Ok(1), "push delivers immediately");
    // The poller's cheap version check also sees it (eventually).
    assert_eq!(db.latest_version(), Some(1));

    // The design-point sweep agrees with the §8 motivation.
    let volumes = heavy_tailed_volumes(100_000, 11);
    let out = evaluate_hybrid(
        &volumes,
        HybridConfig {
            persistent_fraction: 0.01,
            spread_seconds: 10.0,
        },
    );
    assert!(out.covered_traffic_fraction > 0.2);
    assert!(out.traffic_weighted_sync_s < 5.0);
}

#[test]
fn prediction_extension_feeds_sane_provisioning() {
    // Provision each pair with the recent-peak prediction and check the
    // real next-interval demand rarely exceeds it.
    let series = megate_traffic::diurnal_series(50.0, 0.15, 5, 96);
    let p = Predictor::RecentPeak { window: 6 };
    let mut violations = 0;
    for t in 12..series.len() {
        let provisioned = p.predict(&series[..t]);
        if series[t] > provisioned * 1.05 {
            violations += 1;
        }
    }
    let rate = violations as f64 / (series.len() - 12) as f64;
    assert!(rate < 0.35, "peak provisioning violation rate {rate}");
    // And the summary metrics agree.
    let e = evaluate_predictor(p, &series, 12);
    assert!(e.under_fraction < 0.1, "under {}", e.under_fraction);
}
