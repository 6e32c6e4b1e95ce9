//! The layer replay of a traced run: each stage of the interval re-run
//! through its layer's public functions on the same inputs, so a
//! layer's cost is measured from outside the program. Nothing here
//! feeds an end-to-end metric or a correctness check.

use crate::control::{churn, ControlOutcome};
use crate::fleet::{controller_config, published_config, DB_REPLICATION, DB_SHARDS};
use crate::stats::Samples;
use megate::config::EndpointConfig;
use megate::config::{decode_delta, decode_paths, diff_configs, encode_delta, encode_paths};
use megate_lp::{Commodity, McfProblem, PathSpec};
use megate_net::frame::Request;
use megate_net::server::dispatch;
use megate_solvers::{
    diff_endpoint_paths, endpoint_paths, AllocationPaths, IncrementalConfig, IncrementalEngine,
    TeProblem,
};
use megate_tedb::{TeDatabase, TeKey};
use megate_traffic::QosClass;
use std::time::Instant;

/// Sequential round trips per request kind, and direct dispatches.
const NET_PROBES: usize = 10_000;

/// One QoS class's site-aggregated LP, replayed on its own.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassLp {
    pub site_mcf_s: f64,
    pub mode_fptas: f64,
    pub size_estimate: f64,
    pub rows: f64,
    pub satisfied_ratio: f64,
}

#[derive(Default)]
pub struct ReplayOutcome {
    pub engine_cold_s: f64,
    pub engine_warm_s: f64,
    pub classes: [ClassLp; 3],
    pub paths_s: f64,
    pub diff_s: f64,
    pub encode_snapshot_s: f64,
    pub encode_delta_s: f64,
    pub decode_s: f64,
    pub put_s: f64,
    pub fetch_ns: Samples,
    pub ping_rtt_us: Samples,
    pub get_version_rtt_us: Samples,
    pub dispatch_ns: Samples,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The solver side: the incremental engine cold then warm, and each
/// class's site LP alone.
fn replay_solvers(
    c: &ControlOutcome,
    instance_seed: u64,
    out: &mut ReplayOutcome,
) -> (AllocationPaths, AllocationPaths) {
    let inst = &c.instance;
    let cfg = controller_config();
    let mut engine = IncrementalEngine::new(IncrementalConfig {
        solver: cfg.solver.clone(),
        qos_sequential: cfg.qos_sequential,
        warm_churn_max_ppm: cfg.warm_churn_max_ppm,
        cold_every: cfg.cold_every,
    });
    let mut demands = inst.demands.clone();
    let t = Instant::now();
    let (cold, _) = engine
        .solve(
            &TeProblem {
                graph: &inst.graph,
                tunnels: &inst.tunnels,
                demands: &demands,
            },
            true,
        )
        .expect("replayed cold solve");
    out.engine_cold_s = secs(t);

    let t = Instant::now();
    let cold_paths = endpoint_paths(
        &demands,
        &inst.tunnels,
        cold.endpoint_assignment
            .as_deref()
            .expect("MegaTE assigns endpoints"),
    );
    out.paths_s = secs(t);

    churn(&mut demands, instance_seed, 0);
    let t = Instant::now();
    let (warm, _) = engine
        .solve(
            &TeProblem {
                graph: &inst.graph,
                tunnels: &inst.tunnels,
                demands: &demands,
            },
            false,
        )
        .expect("replayed warm solve");
    out.engine_warm_s = secs(t);
    let warm_paths = endpoint_paths(
        &demands,
        &inst.tunnels,
        warm.endpoint_assignment
            .as_deref()
            .expect("MegaTE assigns endpoints"),
    );

    // Each class's LP on the residual of the replay's own LP flows
    // (the controller feeds classes 2-3 post-stage-3 residuals instead;
    // `bench.replay_gap_pct` carries the difference).
    let mut caps: Vec<f64> = inst
        .graph
        .link_ids()
        .map(|l| inst.graph.link(l).capacity_mbps)
        .collect();
    for (ci, qos) in QosClass::IN_PRIORITY_ORDER.into_iter().enumerate() {
        let mcf = McfProblem {
            link_capacity: caps.clone(),
            commodities: inst
                .demands
                .site_demands(Some(qos))
                .into_iter()
                .filter(|(pair, _)| !inst.tunnels.tunnels_for(*pair).is_empty())
                .map(|(pair, demand)| Commodity {
                    demand,
                    paths: inst
                        .tunnels
                        .tunnels_for(pair)
                        .iter()
                        .map(|&t| {
                            let tun = inst.tunnels.tunnel(t);
                            PathSpec {
                                links: tun.links.iter().map(|l| l.index()).collect(),
                                weight: tun.weight,
                            }
                        })
                        .collect(),
                })
                .collect(),
            epsilon_weight: cfg.solver.epsilon_weight,
        };
        if mcf.commodities.is_empty() {
            continue;
        }
        let size = mcf.size_estimate();
        let fptas = size > cfg.solver.auto_exact_entry_cap;
        let mut used = vec![false; caps.len()];
        for p in mcf.commodities.iter().flat_map(|c| &c.paths) {
            for &e in &p.links {
                used[e] = true;
            }
        }
        let rows = mcf.commodities.len() + used.iter().filter(|&&u| u).count();
        let t = Instant::now();
        let solution = if fptas {
            mcf.solve_fptas_with(cfg.solver.auto_fptas_eps, cfg.solver.threads.max(1))
        } else {
            mcf.solve_exact().expect("replayed exact site LP")
        };
        out.classes[ci] = ClassLp {
            site_mcf_s: secs(t),
            mode_fptas: f64::from(u8::from(fptas)),
            size_estimate: size as f64,
            rows: rows as f64,
            satisfied_ratio: solution.satisfied_ratio(&mcf),
        };
        for (cap, load) in caps.iter_mut().zip(solution.link_loads(&mcf)) {
            *cap = (*cap - load).max(f64::MIN_POSITIVE);
        }
    }
    (cold_paths, warm_paths)
}

/// Diff, codecs and shard writes over the replayed path sets, as a cold
/// interval publishes them: one delta from nothing per endpoint.
fn replay_publish(cold: &AllocationPaths, warm: &AllocationPaths, out: &mut ReplayOutcome) {
    let t = Instant::now();
    let first = diff_endpoint_paths(&AllocationPaths::new(), cold);
    let second = diff_endpoint_paths(cold, warm);
    out.diff_s = secs(t);
    std::hint::black_box(&second);

    let configs: Vec<(u64, EndpointConfig)> = first
        .changed
        .iter()
        .map(|ep| (ep.0, published_config(cold, ep.0)))
        .collect();
    let empty = EndpointConfig::default();
    let t = Instant::now();
    let snapshots: Vec<Vec<u8>> = configs
        .iter()
        .map(|(_, cfg)| encode_paths(cfg).expect("published paths fit the codec"))
        .collect();
    out.encode_snapshot_s = secs(t);
    let t = Instant::now();
    let deltas: Vec<Vec<u8>> = configs
        .iter()
        .map(|(_, cfg)| {
            encode_delta(&diff_configs(&empty, cfg)).expect("published paths fit the codec")
        })
        .collect();
    out.encode_delta_s = secs(t);
    let t = Instant::now();
    for (snapshot, delta) in snapshots.iter().zip(&deltas) {
        std::hint::black_box(decode_paths(snapshot).expect("own snapshot decodes"));
        std::hint::black_box(decode_delta(delta).expect("own delta decodes"));
    }
    out.decode_s = secs(t);

    let db = TeDatabase::with_replication(DB_SHARDS, DB_REPLICATION);
    let t = Instant::now();
    for ((endpoint, _), delta) in configs.iter().zip(deltas) {
        db.put(
            &TeKey::Delta {
                endpoint: *endpoint,
                version: 1,
            },
            delta,
        );
        db.record_change(*endpoint, 1).expect("no shard is down");
    }
    db.publish_partition_version(0, 1);
    out.put_s = secs(t);
    for (endpoint, _) in &configs {
        let key = TeKey::Delta {
            endpoint: *endpoint,
            version: 1,
        };
        let t = Instant::now();
        let read = db.fetch_outcome(&key);
        out.fetch_ns.push(t.elapsed().as_nanos() as f64);
        std::hint::black_box(read.expect("no shard is down"));
    }
}

/// The wire alone: sequential round trips on one connection of the live
/// pool, and `dispatch` with no socket under it.
fn replay_net(c: &ControlOutcome, out: &mut ReplayOutcome) {
    let client = c.plane.client().clone();
    let (ping, version) = c.plane.exec().block_on(async move {
        let mut rtts = [
            Vec::with_capacity(NET_PROBES),
            Vec::with_capacity(NET_PROBES),
        ];
        for (kind, req) in [Request::Ping, Request::GetVersion { partition: 0 }]
            .iter()
            .enumerate()
        {
            for _ in 0..NET_PROBES {
                let t = Instant::now();
                let reply = client.request(req).await;
                rtts[kind].push(t.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(reply.expect("the service answers on loopback"));
            }
        }
        let [ping, version] = rtts;
        (ping, version)
    });
    out.ping_rtt_us.extend(ping);
    out.get_version_rtt_us.extend(version);

    let db = c.plane.state().db();
    let req = Request::GetVersion { partition: 0 };
    for _ in 0..NET_PROBES {
        let t = Instant::now();
        let reply = dispatch(db, &req);
        out.dispatch_ns.push(t.elapsed().as_nanos() as f64);
        std::hint::black_box(reply);
    }
}

pub fn run(c: &ControlOutcome, instance_seed: u64) -> ReplayOutcome {
    let mut out = ReplayOutcome::default();
    let (cold_paths, warm_paths) = replay_solvers(c, instance_seed, &mut out);
    replay_publish(&cold_paths, &warm_paths, &mut out);
    replay_net(c, &mut out);
    out
}
