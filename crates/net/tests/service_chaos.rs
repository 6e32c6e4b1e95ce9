//! Chaos invariants with real sockets in the loop: the §3.2 pull
//! ladder's guarantees — bounded staleness, zero blackholing,
//! reconvergence — re-proven against the wire-protocol service under
//! combined shard outages and transport faults (connection resets,
//! truncated frames, slow-loris stalls).
//!
//! A real [`Controller`] on a seeded B4 instance publishes every
//! period, on freshly reseeded demands. Ground truth is what it
//! published: an agent claiming version `v` for endpoint `e` must hold
//! exactly `e`'s entry of `published_paths()` as of `v` — anything else
//! is a silent blackhole / misroute.

use megate::prelude::*;
use megate_net::agent::{pull_round, Agent, FleetPull};
use megate_net::server::{Server, ServerState, TransportFaults};
use megate_net::{Endpoint, Executor, NetClient};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const STALE_TTL: u64 = 2;

/// A compressed sync period so chaos rounds stay test-sized: the
/// 2 s/period retry budget shrinks to 400 ms, the degrade TTL to 2
/// periods. Ratios (budget ≪ period, TTL ≥ outage length) match the
/// production defaults.
fn quick_policy() -> PullPolicy {
    PullPolicy {
        deadline_ns: 400_000_000,
        max_attempts: 6,
        stale_ttl_periods: STALE_TTL,
        ..PullPolicy::default()
    }
}

struct Harness {
    graph: Graph,
    catalog: EndpointCatalog,
    controller: Controller,
    /// `published_paths()` after each version; index 0 is "nothing
    /// published yet".
    history: Vec<BTreeMap<EndpointId, BTreeMap<EndpointId, Vec<u32>>>>,
    exec: Executor,
    state: Arc<ServerState>,
    client: Arc<NetClient>,
    fleet: Vec<Agent>,
}

impl Harness {
    fn start() -> Self {
        let graph = megate_topo::b4();
        let catalog = EndpointCatalog::generate(&graph, 48, WeibullEndpoints::with_scale(4.0), 3);
        let db = TeDatabase::with_replication(8, 2);
        db.set_fault_seed(0x51ab);
        let controller = Controller::new(
            graph.clone(),
            TunnelTable::for_all_pairs(&graph, 3),
            catalog.clone(),
            db.clone(),
            ControllerConfig {
                snapshot_every: 4,
                ..Default::default()
            },
        );
        let exec = Executor::new(3);
        let state = ServerState::new(db);
        let server = Server::start(
            state.clone(),
            &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
            &exec,
        )
        .expect("bind");
        let client = NetClient::new(server.local().clone(), 4, exec.clone());
        let fleet = catalog
            .ids()
            .map(|ep| Agent::new(ep.0, 0, quick_policy()))
            .collect();
        Self {
            graph,
            catalog,
            controller,
            history: vec![BTreeMap::new()],
            exec,
            state,
            client,
            fleet,
        }
    }

    /// One sync period: an interval on reseeded demands, then every
    /// agent pulls concurrently over the pooled client.
    fn run_period(&mut self) -> Vec<FleetPull> {
        let mut demands = DemandSet::generate(
            &self.graph,
            &self.catalog,
            &TrafficConfig {
                endpoint_pairs: 40,
                site_pairs: 12,
                seed: 0xc4a05 + self.history.len() as u64,
                ..Default::default()
            },
        );
        demands.scale_to_load(&self.graph, 0.5);
        self.controller.run_interval(&demands).expect("interval");
        self.history.push(self.controller.published_paths().clone());
        let n = self.fleet.len();
        pull_round(&self.exec, &self.client, &mut self.fleet, Duration::ZERO, n)
    }

    /// The invariants every period must uphold, chaos or not.
    fn check_invariants(&self, phase: &str) {
        for a in &self.fleet {
            // Bounded staleness: past the TTL an agent must have
            // stopped steering on its stale paths.
            if a.periods_behind() >= STALE_TTL {
                assert!(
                    a.is_degraded(),
                    "[{phase}] endpoint {} is {} periods behind but still \
                     steering on stale paths",
                    a.endpoint,
                    a.periods_behind(),
                );
            }
            // Zero blackholing: whatever version an agent claims, its
            // installed paths are exactly what was published at that
            // version; degraded agents hold the flushed (ECMP) config.
            let published = &self.history[a.version() as usize];
            let want: Vec<_> = published
                .get(&EndpointId(a.endpoint))
                .filter(|_| !a.is_degraded())
                .into_iter()
                .flatten()
                .map(|(dst, hops)| (Controller::endpoint_ip(*dst), hops.clone()))
                .collect();
            assert_eq!(
                a.config().paths,
                want,
                "[{phase}] endpoint {} (v{}, degraded {}) holds a config \
                 that was never published for it",
                a.endpoint,
                a.version(),
                a.is_degraded(),
            );
        }
    }

    fn fresh_count(&self) -> usize {
        let target = self.controller.version();
        self.fleet
            .iter()
            .filter(|a| a.version() == target && !a.is_degraded())
            .count()
    }
}

#[test]
fn socket_chaos_preserves_staleness_and_blackholing_invariants() {
    let mut h = Harness::start();

    // Phase 1 — clean service: everyone converges immediately.
    for round in 1..=2u32 {
        h.run_period();
        h.check_invariants("clean");
        assert_eq!(
            h.fresh_count(),
            h.fleet.len(),
            "round {round}: clean service must converge every agent",
        );
    }

    // Phase 2 — chaos: one TE-DB shard down (replication covers it
    // with failover) plus transport faults on the wire: resets,
    // truncated frames and slow-loris responses.
    h.state.db().set_shard_down(0, true);
    h.state.db().set_shard_slow(3, 20_000_000); // 20 ms per read
    h.state.set_transport_faults(TransportFaults {
        reset_ppm: 120_000,
        truncate_ppm: 80_000,
        stall_ppm: 40_000,
        stall_chunk_delay: Duration::from_millis(2),
        seed: 0xbad,
    });
    let mut hit = 0;
    for _ in 0..3 {
        let pulls = h.run_period();
        hit += pulls
            .iter()
            .filter(|p| p.report.attempts > 1 || !p.report.refreshed)
            .count();
        h.check_invariants("chaos");
    }
    // Faults that silently stopped firing would pass everything else.
    assert!(hit > 0, "the chaos phase forced no retry and no timeout");

    // Phase 3 — heal, then reconverge. An agent that degraded during
    // chaos rebuilds from snapshot; everyone must be fresh within two
    // clean periods.
    h.state.db().set_shard_down(0, false);
    h.state.db().set_shard_slow(3, 0);
    h.state.set_transport_faults(TransportFaults::default());
    for _ in 0..2 {
        h.run_period();
        h.check_invariants("heal");
    }
    assert_eq!(
        h.fresh_count(),
        h.fleet.len(),
        "fleet must reconverge within two clean periods of the heal",
    );

    h.client.close();
    h.state.shutdown();
}
