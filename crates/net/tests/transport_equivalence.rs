//! One scenario, two transports, same answers.
//!
//! The §3.2 pull path is one piece of sans-IO code
//! (`megate::resilience`) with two drivers: `MegaTeSystem::pull_round`
//! reads the TE database in-process and installs into host `path_map`s;
//! `megate_net::agent::Agent` reads it over a socket and installs into
//! an `EndpointConfig`. This test runs both against the *same* database
//! contents through a scenario that walks every rung — history GC'd
//! past the fleet (snapshot + replay), steady churn (delta chains), a
//! non-version shard dying past the stale TTL (degrade to ECMP), heal
//! (recover) — and demands that after every sync period each endpoint
//! holds the same version, the same path set, the same degradation
//! state and the same staleness clock on both.

use megate::prelude::*;
use megate_net::agent::{pull_round, Agent};
use megate_net::server::{Server, ServerState};
use megate_net::{Endpoint, Executor, NetClient};
use std::sync::Arc;
use std::time::Duration;

const STALE_TTL: u64 = 2;

/// What one endpoint's agent holds at the end of a sync period.
#[derive(Debug, PartialEq, Eq)]
struct AgentView {
    version: u64,
    paths: Vec<([u8; 4], Vec<u32>)>,
    degraded: bool,
    periods_behind: u64,
}

struct Twin {
    graph: Graph,
    catalog: EndpointCatalog,
    sys: MegaTeSystem,
    exec: Executor,
    state: Arc<ServerState>,
    client: Arc<NetClient>,
    fleet: Vec<Agent>,
    round: u64,
    via_snapshot: usize,
}

impl Twin {
    fn start() -> Self {
        let graph = megate_topo::b4();
        let tunnels = TunnelTable::for_all_pairs(&graph, 3);
        let catalog = EndpointCatalog::generate(&graph, 100, WeibullEndpoints::with_scale(10.0), 4);
        let policy = PullPolicy {
            stale_ttl_periods: STALE_TTL,
            ..PullPolicy::default()
        };
        let mut config = SystemConfig {
            pull: policy,
            ..SystemConfig::default()
        };
        // A short history, so a few unpulled intervals GC it.
        config.controller.snapshot_every = 2;
        config.controller.retention_versions = 3;
        let sys = MegaTeSystem::new(graph.clone(), tunnels, catalog.clone(), config);

        let exec = Executor::new(2);
        let state = ServerState::new(sys.database().clone());
        let server = Server::start(
            state.clone(),
            &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
            &exec,
        )
        .expect("bind");
        let client = NetClient::new(server.local().clone(), 2, exec.clone());
        let fleet = catalog
            .ids()
            .map(|ep| Agent::new(ep.0, 0, policy))
            .collect();
        Self {
            graph,
            catalog,
            sys,
            exec,
            state,
            client,
            fleet,
            round: 0,
            via_snapshot: 0,
        }
    }

    /// One controller interval on freshly reseeded demands, so every
    /// version carries churn.
    fn publish(&mut self) {
        let mut demands = DemandSet::generate(
            &self.graph,
            &self.catalog,
            &TrafficConfig {
                endpoint_pairs: 60,
                site_pairs: 12,
                seed: 42 + self.round,
                ..Default::default()
            },
        );
        demands.scale_to_load(&self.graph, 0.5);
        self.round += 1;
        self.sys
            .run_controller_interval(&demands)
            .expect("interval solves");
    }

    /// One sync period: publish, pull through both transports, compare
    /// every endpoint. Returns the in-process round report.
    fn period(&mut self, phase: &str) -> PullRound {
        self.publish();
        let round = self.sys.pull_round();

        let n = self.fleet.len();
        let pulls = pull_round(&self.exec, &self.client, &mut self.fleet, Duration::ZERO, n);
        self.via_snapshot += pulls.iter().filter(|p| p.report.via_snapshot).count();

        let health = self.sys.host_health();
        for (idx, agent) in self.fleet.iter().enumerate() {
            let ep = self.sys.endpoint_of_host(idx).unwrap();
            assert_eq!(ep.0, agent.endpoint, "fleets are built in catalog order");
            let in_process = AgentView {
                version: self.sys.agent_version(ep).unwrap(),
                paths: self
                    .sys
                    .installed_paths(ep)
                    .into_iter()
                    .map(|((_, dst), hops)| (dst, hops))
                    .collect(),
                degraded: health[idx].1,
                periods_behind: health[idx].0,
            };
            let socket = AgentView {
                version: agent.version(),
                paths: agent.config().paths.clone(),
                degraded: agent.is_degraded(),
                periods_behind: agent.periods_behind(),
            };
            assert_eq!(
                in_process, socket,
                "[{phase}, v{}] endpoint {} diverged between transports",
                self.round, ep.0
            );
        }
        round
    }
}

#[test]
fn in_process_and_socket_pulls_agree_after_every_period() {
    let mut t = Twin::start();

    // Publish past the retention window before anyone pulls: the first
    // catch-up finds its delta history GC'd and takes the snapshot.
    for _ in 0..4 {
        t.publish();
    }
    let first = t.period("snapshot catch-up");
    assert!(first.updated > 0 && first.stale == 0);
    assert!(
        t.via_snapshot > 0,
        "a GC'd history must send socket agents through the snapshot fallback"
    );

    // Steady churn: delta chains.
    for _ in 0..2 {
        assert_eq!(t.period("delta").stale, 0);
    }
    let snapshots_so_far = t.via_snapshot;

    // Kill the shard that does NOT hold the version record: the fleet
    // keeps seeing versions it cannot fully fetch, and whoever depends
    // on the dead shard goes stale, then degrades at the TTL.
    let db = t.sys.database().clone();
    let victim = 1 - db.shard_of(&TeKey::Version { partition: 0 }.wire());
    db.set_shard_down(victim, true);
    let mut degraded = 0;
    for _ in 0..STALE_TTL + 1 {
        degraded = t.period("outage").degraded;
    }
    assert!(degraded > 0, "agents on the dead shard degrade at the TTL");

    // Heal: degraded agents rebuild from a snapshot, everyone is fresh.
    db.set_shard_down(victim, false);
    let healed = t.period("heal");
    assert_eq!((healed.stale, healed.degraded), (0, 0));
    assert!(
        t.via_snapshot > snapshots_so_far,
        "recovery from degradation goes through the snapshot fallback"
    );
    assert_eq!(t.period("steady").stale, 0);

    t.client.close();
    t.state.shutdown();
}
