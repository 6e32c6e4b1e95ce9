//! End-to-end system harness: hosts, database, controller, WAN.
//!
//! [`MegaTeSystem`] wires every layer of the reproduction together the
//! way Figure 3(b) draws it:
//!
//! ```text
//!   controller ──deltas/snapshots──▶ TE database ◀──poll version── endpoint agents
//!        ▲        (typed keyspace,       ▲              │ changelog → delta pulls
//!        │         changelog, GC)        └──────────────┘ (snapshot fallback)
//!   demands (bottom-up)                                  │ apply in place
//!        │                                          path_map (eBPF)
//!        │                                                ▼
//!   endpoint agents ◀──traffic_map── TC programs ──SR frames──▶ WAN routers
//! ```
//!
//! Each source endpoint gets a simulated host (kernel + agent); packets
//! are real frame bytes passing through the TC egress chain and the
//! SR-aware WAN. This harness is what the integration tests and
//! examples drive; solver-scale experiments use `megate-solvers`
//! directly without per-host state.

use crate::cluster::{ClusterConfig, ClusterReport, ControllerCluster, ControllerFaultPlan};
use crate::config::{ConfigDelta, EndpointConfig};
use crate::controller::{Controller, ControllerConfig, ControllerError, IntervalReport};
use crate::resilience::{
    InstallTarget, PullLadder, PullPolicy, PullRead, PullStep, RetryBudget, StalenessClock,
};
use megate_dataplane::{HostRegistry, WanNetwork};
use megate_hoststack::{
    EndpointAgent, InstanceId, MapError, PathInstall, PathMapEntry, Pid, SimKernel,
};
use megate_packet::{FiveTuple, MegaTeFrameSpec, Proto};
use megate_tedb::TeDatabase;
use megate_topo::{EndpointCatalog, EndpointId, Graph, TunnelTable};
use megate_traffic::DemandSet;
use std::collections::HashMap;

/// System-level knobs.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Tenant VNI used for all generated traffic.
    pub vni: u32,
    /// Controller configuration.
    pub controller: ControllerConfig,
    /// Database shards.
    pub db_shards: usize,
    /// Database replication factor (1 = no replication; clamped to
    /// `db_shards`).
    pub db_replication: usize,
    /// The agents' retry/backoff/staleness policy.
    pub pull: PullPolicy,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            vni: 100,
            controller: ControllerConfig {
                qos_sequential: true,
                ..Default::default()
            },
            db_shards: 2,
            db_replication: 1,
            pull: PullPolicy::default(),
        }
    }
}

/// Host bring-up failed — an eBPF map refused an entry (e.g. full).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemError {
    /// The endpoint whose host failed to come up.
    pub endpoint: EndpointId,
    /// The underlying map failure.
    pub cause: MapError,
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bring-up of endpoint {} failed: {}",
            self.endpoint.0, self.cause
        )
    }
}

impl std::error::Error for SystemError {}

/// One simulated end host: kernel + agent + the instance living on it.
struct Host {
    endpoint: EndpointId,
    kernel: SimKernel,
    agent: EndpointAgent,
    /// Consecutive pull rounds this host has ended below the published
    /// version — the staleness clock behind the degrade TTL.
    staleness: StalenessClock,
}

/// A catch-up plan lands in the host's `path_map` through its agent.
impl InstallTarget for Host {
    fn install_base(&mut self, stamp: u64, config: EndpointConfig) {
        let instance = InstanceId(self.endpoint.0);
        self.agent
            .install_snapshot(stamp, instance, &config.to_installs(instance));
    }

    fn apply_delta(&mut self, version: u64, delta: &ConfigDelta) {
        let instance = InstanceId(self.endpoint.0);
        let changed: Vec<PathInstall> = delta
            .changed
            .iter()
            .map(|(dst_ip, hops)| PathInstall {
                instance,
                dst_ip: *dst_ip,
                hops: hops.clone(),
            })
            .collect();
        let removed: Vec<(InstanceId, [u8; 4])> =
            delta.removed.iter().map(|dst| (instance, *dst)).collect();
        self.agent.apply_delta(version, &changed, &removed);
    }

    fn adopt(&mut self, version: u64) {
        self.agent.install_config(version, &[]);
    }
}

/// Outcome of one fleet-wide resilient pull round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PullRound {
    /// Agents that advanced their installed version this round.
    pub updated: usize,
    /// Agents still below the published version after the round.
    pub stale: usize,
    /// Agents currently degraded to site-level/ECMP forwarding.
    pub degraded: usize,
    /// Retries spent this round (version polls + config pulls).
    pub retries: u64,
    /// The version the round converged toward, if any was reachable
    /// (falls back to the last version ever observed when the version
    /// record itself is unreadable).
    pub target: Option<u64>,
}

/// Outcome of pushing one interval's packets through the data plane.
#[derive(Debug, Clone, Default)]
pub struct TrafficReport {
    /// Frames delivered to the right destination.
    pub delivered: usize,
    /// Frames dropped (with reasons counted).
    pub dropped: usize,
    /// Frames that carried a MegaTE SR header.
    pub sr_labelled: usize,
    /// Demand-weighted mean latency over delivered frames (ms).
    pub mean_latency_ms: f64,
    /// Per-demand latency (ms), `None` when dropped/unrouted.
    pub per_demand_latency: Vec<Option<f64>>,
}

/// One controller partition's version wire as the fleet last saw it.
#[derive(Debug, Clone, Copy, Default)]
struct PartitionClock {
    /// Highest version ever observed on this partition's version wire —
    /// the staleness anchor when the record itself becomes unreadable.
    last_target: u64,
    /// The wire failed to advance in the latest pull round.
    stalled: bool,
}

/// The full MegaTE system over a simulated WAN.
pub struct MegaTeSystem {
    graph: Graph,
    tunnels: TunnelTable,
    db: TeDatabase,
    controller: Controller,
    hosts: Vec<Host>,
    host_of_endpoint: HashMap<EndpointId, usize>,
    registry: HostRegistry,
    config: SystemConfig,
    /// Monotonic pull-round counter; salts the backoff jitter streams.
    pull_rounds: u64,
    /// The partitioned control plane, when built with
    /// [`new_partitioned`](Self::new_partitioned). `None` is
    /// single-controller mode: every host follows partition 0's clock.
    cluster: Option<ControllerCluster>,
    /// Per-partition version clocks, indexed by partition id.
    partition_clocks: Vec<PartitionClock>,
}

impl MegaTeSystem {
    /// Builds the system: one host per endpoint in the catalog.
    ///
    /// Note: per-host kernels make this O(#endpoints) in memory; use it
    /// at integration scale (hundreds to thousands of endpoints).
    pub fn new(
        graph: Graph,
        tunnels: TunnelTable,
        catalog: EndpointCatalog,
        config: SystemConfig,
    ) -> Self {
        let db = TeDatabase::with_replication(config.db_shards, config.db_replication);
        let mut registry = HostRegistry::new();
        let mut hosts = Vec::with_capacity(catalog.len());
        let mut host_of_endpoint = HashMap::with_capacity(catalog.len());
        for ep in catalog.ids() {
            registry.register(Controller::endpoint_ip(ep), catalog.site_of(ep));
            let kernel = SimKernel::new();
            let mut agent = EndpointAgent::new(kernel.maps().clone());
            // Flight-recorder identity: Install events carry the
            // endpoint id, so `trace::dump_entity(ep)` follows one
            // endpoint's whole propagation path.
            agent.set_identity(ep.0);
            host_of_endpoint.insert(ep, hosts.len());
            hosts.push(Host {
                endpoint: ep,
                kernel,
                agent,
                staleness: StalenessClock::default(),
            });
        }
        let controller = Controller::new(
            graph.clone(),
            tunnels.clone(),
            catalog,
            db.clone(),
            config.controller.clone(),
        );
        // Registered up front so metric presence doesn't depend on a
        // fault (or, for the per-path solve-to-install latencies, a
        // pull) having occurred.
        megate_obs::counter("agent.retries");
        megate_obs::gauge("agent.degraded_endpoints");
        megate_obs::histogram("agent.reconverge_periods");
        megate_obs::histogram("propagation.latency.delta");
        megate_obs::histogram("propagation.latency.snapshot");
        megate_obs::histogram("propagation.latency.degraded");
        Self {
            graph,
            tunnels,
            db,
            controller,
            hosts,
            host_of_endpoint,
            registry,
            config,
            pull_rounds: 0,
            cluster: None,
            partition_clocks: vec![PartitionClock::default()],
        }
    }

    /// Builds the system in **partitioned** mode: the site graph is
    /// sliced into `cluster.partitions` controller partitions, each
    /// endpoint's host follows its own partition's version clock, and
    /// TE intervals run through
    /// [`run_partitioned_interval`](Self::run_partitioned_interval)
    /// instead of [`run_controller_interval`](Self::run_controller_interval)
    /// (the embedded single controller is left idle — do not mix the
    /// two interval entry points on one system).
    pub fn new_partitioned(
        graph: Graph,
        tunnels: TunnelTable,
        catalog: EndpointCatalog,
        config: SystemConfig,
        cluster: ClusterConfig,
    ) -> Self {
        let mut sys = Self::new(graph, tunnels, catalog.clone(), config);
        let cluster = ControllerCluster::new(
            sys.graph.clone(),
            sys.tunnels.clone(),
            catalog,
            sys.db.clone(),
            cluster,
        );
        sys.cluster = Some(cluster);
        sys
    }

    /// The partitioned control plane, when built with
    /// [`new_partitioned`](Self::new_partitioned).
    pub fn cluster(&self) -> Option<&ControllerCluster> {
        self.cluster.as_ref()
    }

    /// Mutable access to the partitioned control plane (for direct
    /// fault injection in tests).
    pub fn cluster_mut(&mut self) -> Option<&mut ControllerCluster> {
        self.cluster.as_mut()
    }

    /// The partition owning an endpoint's host, in partitioned mode.
    pub fn partition_of_endpoint(&self, ep: EndpointId) -> Option<u32> {
        let cluster = self.cluster.as_ref()?;
        Some(cluster.partition_of_endpoint(ep))
    }

    /// One cluster-wide TE interval: quota reconciliation, then every
    /// live partition's solve+publish. Panics unless the system was
    /// built with [`new_partitioned`](Self::new_partitioned).
    pub fn run_partitioned_interval(
        &mut self,
        demands: &DemandSet,
    ) -> Result<ClusterReport, ControllerError> {
        self.cluster
            .as_mut()
            .expect("run_partitioned_interval needs new_partitioned")
            .run_interval(demands)
    }

    /// Applies one tick of a controller-fault plan (retrying pending
    /// heals first). Panics unless the system was built with
    /// [`new_partitioned`](Self::new_partitioned).
    pub fn apply_controller_tick(&mut self, plan: &ControllerFaultPlan, tick: u64) {
        self.cluster
            .as_mut()
            .expect("apply_controller_tick needs new_partitioned")
            .apply_tick(plan, tick);
    }

    /// Sizes the partition clocks to the cluster's current slicing.
    /// Existing clocks are preserved — a split only appends a fresh
    /// clock for the new slice. [`pull_round`](Self::pull_round) does
    /// this itself; harnesses may call it right after a split.
    pub fn refresh_partition_map(&mut self) {
        let cluster = self.cluster.as_ref().expect("partitioned mode");
        self.partition_clocks.resize(
            cluster.partition_count() as usize,
            PartitionClock::default(),
        );
    }

    /// The controller (for failure injection etc.).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }

    /// The shared TE database handle.
    pub fn database(&self) -> &TeDatabase {
        &self.db
    }

    /// The five-tuple generated traffic uses for demand `i`.
    pub fn tuple_for_demand(demands: &DemandSet, i: usize) -> FiveTuple {
        let d = &demands.demands()[i];
        FiveTuple {
            src_ip: Controller::endpoint_ip(d.src),
            dst_ip: Controller::endpoint_ip(d.dst),
            proto: Proto::Tcp,
            src_port: 1024 + (i % 60_000) as u16,
            dst_port: 443,
        }
    }

    /// Brings instances up: each source endpoint's instance starts a
    /// process and opens its connections, so `inf_map` can attribute
    /// the flows (§5.1's instance identification). `Err` when a host's
    /// eBPF maps refuse an entry (e.g. `env_map` full).
    pub fn bring_up(&mut self, demands: &DemandSet) -> Result<(), SystemError> {
        for (i, d) in demands.demands().iter().enumerate() {
            let host = self.host_of_endpoint[&d.src];
            let host = &mut self.hosts[host];
            let pid = Pid(1000 + i as u32);
            let tuple = Self::tuple_for_demand(demands, i);
            host.kernel
                .spawn_process(InstanceId(d.src.0), pid)
                .map_err(|cause| SystemError {
                    endpoint: d.src,
                    cause,
                })?;
            host.kernel
                .open_connection(pid, tuple)
                .map_err(|cause| SystemError {
                    endpoint: d.src,
                    cause,
                })?;
        }
        Ok(())
    }

    /// Controller half of the TE cycle: solve + publish.
    pub fn run_controller_interval(
        &mut self,
        demands: &DemandSet,
    ) -> Result<IntervalReport, ControllerError> {
        self.controller.run_interval(demands)
    }

    /// Endpoint half of the TE cycle (Figure 4(b)): one
    /// [`pull_round`](Self::pull_round), returning how many agents
    /// advanced their installed version.
    pub fn agents_pull(&mut self) -> usize {
        self.pull_round().updated
    }

    /// One fleet-wide **resilient** pull round (one sync period): the
    /// in-process driver of the shared §3.2 pull path
    /// ([`crate::resilience`]).
    ///
    /// Each partition's version wire is polled once under its own
    /// [`RetryBudget`]; a record that stays unreadable falls back to the
    /// last version ever observed — config records may still be
    /// reachable on healthy shards, and the staleness clocks must keep
    /// ticking. Every host below its partition's version then runs
    /// [`PullLadder`] attempts, charging backoff delays *and* injected
    /// shard latency to the period's deadline, and closes the period on
    /// its [`StalenessClock`]. Single-controller mode is partition 0; a
    /// cluster adds two behaviors:
    ///
    /// * **Partition stall aging.** A healthy controller bumps its
    ///   version every interval, so a wire that stops advancing means
    ///   the publisher is dead (or missed its publish). Its hosts age
    ///   their staleness clocks even at the last published version —
    ///   riding the same stale-TTL → ECMP ladder a database outage
    ///   triggers — and recover on the first post-heal publish.
    /// * **Degraded hosts don't re-pull stale state** while their
    ///   partition is stalled: that would reinstall the dead
    ///   controller's paths and clear degradation, only for the stall
    ///   clock to re-degrade them next round (flapping).
    pub fn pull_round(&mut self) -> PullRound {
        self.pull_rounds += 1;
        let round = self.pull_rounds;
        let _span = megate_obs::span("controller.agents_pull");
        let policy = self.config.pull;
        let mut out = PullRound::default();
        // Stall aging needs publishers that bump their version every
        // interval; only a cluster promises that. A split re-slices it.
        let ages_on_stall = self.cluster.is_some();
        if ages_on_stall {
            self.refresh_partition_map();
        }

        for (p, clock) in self.partition_clocks.iter_mut().enumerate() {
            let mut budget = policy.budget(policy.seed ^ round ^ ((p as u64) << 48));
            let mut polled = None;
            while budget.next_attempt().is_some() {
                if let Ok(v) = self.db.latest_partition_version_checked(p as u32) {
                    polled = v;
                    break;
                }
            }
            out.retries += u64::from(budget.retries());
            // Nothing new on a wire that has published before: the
            // partition's controller went silent (crash or missed
            // publish) or the wire is unreadable.
            clock.stalled = clock.last_target > 0 && polled.is_none_or(|v| v <= clock.last_target);
            clock.last_target = clock.last_target.max(polled.unwrap_or(0));
        }
        let newest = self.partition_clocks.iter().map(|c| c.last_target).max();
        out.target = newest.filter(|&t| t > 0);

        let mut max_lag = 0u64;
        for host in &mut self.hosts {
            let partition = self
                .cluster
                .as_ref()
                .map_or(0, |c| c.partition_of_endpoint(host.endpoint));
            let clock = self.partition_clocks[partition as usize];
            let (target, stalled) = (clock.last_target, clock.stalled && ages_on_stall);
            if target == 0 {
                continue; // nothing ever published for this slice
            }
            if host.agent.config_version() < target && !(stalled && host.agent.is_degraded()) {
                let seed = policy.seed ^ host.endpoint.0.wrapping_mul(0x9E37) ^ (round << 24);
                let mut budget = policy.budget(seed);
                let before = host.agent.config_version();
                while host.agent.config_version() < target && budget.next_attempt().is_some() {
                    Self::pull_attempt(&self.db, host, target, &mut budget);
                }
                out.retries += u64::from(budget.retries());
                out.updated += usize::from(host.agent.config_version() != before);
            }
            // Behind the published version, or the publisher itself
            // went silent: the staleness clock ticks either way.
            let version = host.agent.config_version();
            let fresh = version >= target && !stalled;
            let degraded = host.agent.is_degraded();
            if host
                .staleness
                .end_period(&policy, host.endpoint.0, version, fresh, degraded)
            {
                // Stale past the TTL: stop steering on old paths.
                host.agent.degrade();
            }
            out.stale += usize::from(!fresh);
            out.degraded += usize::from(host.agent.is_degraded());
            max_lag = max_lag.max(target.saturating_sub(host.agent.config_version()));
        }
        megate_obs::counter("agent.retries").add(out.retries);
        megate_obs::gauge("agent.degraded_endpoints").set(out.degraded as i64);
        // How far (in versions) the slowest agent still lags.
        megate_obs::gauge("controller.config_staleness").set(max_lag as i64);
        out
    }

    /// One attempt of one host's catch-up: serves the ladder's reads
    /// from the database, charging injected shard latency to `budget`
    /// (detected corruption is a failed read, like an outage), and
    /// applies the plan it resolves to.
    fn pull_attempt(db: &TeDatabase, host: &mut Host, target: u64, budget: &mut RetryBudget) {
        let endpoint = host.endpoint.0;
        let (mut ladder, mut step) =
            PullLadder::start(endpoint, host.agent.config_version(), target);
        while let PullStep::Read(key) = step {
            step = ladder.on_read(match db.fetch_outcome(&key) {
                Ok(o) => {
                    budget.charge(o.injected_ns);
                    match (o.corrupted, o.value) {
                        (true, _) => PullRead::Failed,
                        (false, Some(raw)) => PullRead::Value(raw),
                        (false, None) => PullRead::Missing,
                    }
                }
                Err(_) => PullRead::Failed,
            });
        }
        if let PullStep::Done(plan) = step {
            plan.install(endpoint, host.agent.is_degraded(), host);
        }
    }

    /// Agents currently degraded to site-level/ECMP forwarding.
    pub fn degraded_count(&self) -> usize {
        self.hosts.iter().filter(|h| h.agent.is_degraded()).count()
    }

    /// The worst per-host staleness clock: how many consecutive pull
    /// rounds the most-behind agent has ended below the published
    /// version.
    pub fn max_periods_behind(&self) -> u64 {
        self.hosts
            .iter()
            .map(|h| h.staleness.periods_behind())
            .max()
            .unwrap_or(0)
    }

    /// Per-host `(periods_behind, degraded)` — the chaos harness's
    /// invariant probe: nobody may steer on configuration staler than
    /// the TTL without having degraded.
    pub fn host_health(&self) -> Vec<(u64, bool)> {
        self.hosts
            .iter()
            .map(|h| (h.staleness.periods_behind(), h.agent.is_degraded()))
            .collect()
    }

    /// The endpoint served by host index `idx` (the order
    /// [`host_health`](Self::host_health) reports in) — lets an
    /// invariant failure look up the offender's flight-recorder events
    /// via [`megate_obs::trace::dump_entity`].
    pub fn endpoint_of_host(&self, idx: usize) -> Option<EndpointId> {
        self.hosts.get(idx).map(|h| h.endpoint)
    }

    /// Sends one frame per demand through TC egress and the WAN,
    /// measuring delivery and latency.
    pub fn send_demand_packets(&mut self, demands: &DemandSet) -> TrafficReport {
        let network = WanNetwork::new(&self.graph, &self.tunnels, self.registry.clone());
        let mut report = TrafficReport {
            per_demand_latency: vec![None; demands.len()],
            ..Default::default()
        };
        let mut latency_volume = 0.0;
        let mut volume = 0.0;
        for (i, d) in demands.demands().iter().enumerate() {
            let host_idx = self.host_of_endpoint[&d.src];
            let tuple = Self::tuple_for_demand(demands, i);
            let mut frame = MegaTeFrameSpec {
                outer_src_ip: Controller::endpoint_ip(d.src),
                outer_dst_ip: Controller::endpoint_ip(d.dst),
                vni: self.config.vni,
                inner: tuple,
                inner_ipid: i as u16,
                inner_fragment: (0, false),
                payload_len: 256,
                sr_hops: None,
            }
            .build();
            let verdict = self.hosts[host_idx].kernel.tc_egress(&mut frame);
            if verdict == megate_hoststack::TcVerdict::PassWithSr {
                report.sr_labelled += 1;
            }
            let outcome = network.route_frame(&mut frame);
            if outcome.delivered {
                // Destination host's TC ingress strips the SR header
                // before the guest sees the frame (§5.2 receive path).
                if let Some(&dst_host) = self.host_of_endpoint.get(&d.dst) {
                    self.hosts[dst_host].kernel.tc_ingress(&mut frame);
                    debug_assert!(megate_packet::parse_megate_frame(&frame)
                        .map(|p| p.sr.is_none())
                        .unwrap_or(false));
                }
                report.delivered += 1;
                report.per_demand_latency[i] = Some(outcome.latency_ms);
                latency_volume += outcome.latency_ms * d.demand_mbps;
                volume += d.demand_mbps;
            } else {
                report.dropped += 1;
            }
        }
        report.mean_latency_ms = if volume > 0.0 {
            latency_volume / volume
        } else {
            0.0
        };
        report
    }

    /// Collects instance-level flow reports from every agent (the
    /// bottom-up demand input of the next interval).
    pub fn collect_flow_reports(&mut self) -> usize {
        self.hosts
            .iter()
            .map(|h| h.agent.collect_flows().len())
            .sum()
    }

    /// Full bottom-up measurement: drains every agent's flow counters
    /// and turns them into the next interval's demand matrix via
    /// [`Controller::demands_from_measurements`]. This is the closed
    /// loop of Figure 3(b): traffic → `traffic_map` → agent report →
    /// backend aggregation → solver input.
    pub fn measure_demands(
        &mut self,
        interval: std::time::Duration,
        classify: impl Fn(&FiveTuple) -> megate_traffic::QosClass,
    ) -> DemandSet {
        let mut records = Vec::new();
        for h in &self.hosts {
            for r in h.agent.collect_flows() {
                records.push((r.tuple, r.bytes));
            }
        }
        self.controller
            .demands_from_measurements(&records, interval, classify)
    }

    /// The `(key, hops)` entries currently installed in an endpoint
    /// host's `path_map`, sorted — for state-equivalence checks
    /// (delta chains must reproduce snapshot installs bit for bit).
    pub fn installed_paths(&self, endpoint: EndpointId) -> Vec<PathMapEntry> {
        let Some(&idx) = self.host_of_endpoint.get(&endpoint) else {
            return Vec::new();
        };
        let mut entries = self.hosts[idx].agent.maps().path_map.snapshot();
        entries.sort();
        entries
    }

    /// The configuration version an endpoint's agent has installed.
    pub fn agent_version(&self, endpoint: EndpointId) -> Option<u64> {
        self.host_of_endpoint
            .get(&endpoint)
            .map(|&idx| self.hosts[idx].agent.config_version())
    }

    /// Decommissions an endpoint's instance (§1's dynamic instance
    /// churn): scrubs every eBPF map entry attributed to it on its host
    /// so recycled five-tuples cannot inherit stale attribution or
    /// paths. Returns the number of map entries removed.
    pub fn decommission_endpoint(&mut self, endpoint: EndpointId) -> usize {
        match self.host_of_endpoint.get(&endpoint) {
            Some(&idx) => self.hosts[idx]
                .kernel
                .decommission_instance(InstanceId(endpoint.0)),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megate_topo::{b4, WeibullEndpoints};
    use megate_traffic::TrafficConfig;

    fn small_system() -> (MegaTeSystem, DemandSet) {
        let g = b4();
        let tunnels = TunnelTable::for_all_pairs(&g, 3);
        let catalog = EndpointCatalog::generate(&g, 120, WeibullEndpoints::with_scale(10.0), 2);
        let mut demands = DemandSet::generate(
            &g,
            &catalog,
            &TrafficConfig {
                endpoint_pairs: 80,
                site_pairs: 15,
                ..Default::default()
            },
        );
        demands.scale_to_load(&g, 0.4);
        let sys = MegaTeSystem::new(g, tunnels, catalog, SystemConfig::default());
        (sys, demands)
    }

    fn partitioned_system(parts: u32) -> (MegaTeSystem, DemandSet) {
        let g = b4();
        let tunnels = TunnelTable::for_all_pairs(&g, 3);
        let catalog = EndpointCatalog::generate(&g, 120, WeibullEndpoints::with_scale(10.0), 2);
        let mut demands = DemandSet::generate(
            &g,
            &catalog,
            &TrafficConfig {
                endpoint_pairs: 80,
                site_pairs: 15,
                ..Default::default()
            },
        );
        demands.scale_to_load(&g, 0.4);
        let sys = MegaTeSystem::new_partitioned(
            g,
            tunnels,
            catalog,
            SystemConfig::default(),
            ClusterConfig {
                partitions: parts,
                controller: ControllerConfig {
                    qos_sequential: true,
                    snapshot_every: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        (sys, demands)
    }

    #[test]
    fn partitioned_full_cycle_converges_per_partition() {
        let (mut sys, demands) = partitioned_system(2);
        sys.bring_up(&demands).unwrap();
        let report = sys.run_partitioned_interval(&demands).unwrap();
        assert_eq!(report.live, 2);
        assert_eq!(report.reports.len(), 2);
        let round = sys.pull_round();
        assert!(
            round.updated > 0,
            "agents must pull their partition's version"
        );
        assert_eq!(round.stale, 0, "healthy cluster converges in one round");
        let traffic = sys.send_demand_packets(&demands);
        assert!(traffic.delivered > 0);
        assert!(traffic.sr_labelled > 0, "partitioned config still steers");
    }

    #[test]
    fn dead_partitions_agents_degrade_then_reconverge_after_heal() {
        let (mut sys, demands) = partitioned_system(2);
        sys.bring_up(&demands).unwrap();
        sys.run_partitioned_interval(&demands).unwrap();
        sys.pull_round();
        sys.cluster_mut().unwrap().crash(1);
        let ttl = sys.config.pull.stale_ttl_periods;
        for _ in 0..ttl + 2 {
            sys.run_partitioned_interval(&demands).unwrap();
            sys.pull_round();
        }
        assert!(sys.degraded_count() > 0, "the dead slice must degrade");
        for (idx, &(_, degraded)) in sys.host_health().iter().enumerate() {
            let ep = sys.endpoint_of_host(idx).unwrap();
            let p = sys.partition_of_endpoint(ep).unwrap();
            assert_eq!(
                degraded,
                p == 1,
                "exactly the dead partition's agents ride the ECMP ladder (host {idx})"
            );
        }
        // ECMP still delivers the degraded slice's traffic.
        let traffic = sys.send_demand_packets(&demands);
        assert_eq!(traffic.delivered + traffic.dropped, demands.len());
        assert!(traffic.delivered > 0);

        assert!(sys.cluster_mut().unwrap().heal(1));
        let mut rounds = 0;
        loop {
            sys.run_partitioned_interval(&demands).unwrap();
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
    }

    #[test]
    fn full_cycle_labels_and_delivers() {
        let (mut sys, demands) = small_system();
        sys.bring_up(&demands).unwrap();
        let report = sys.run_controller_interval(&demands).unwrap();
        assert!(report.configured_endpoints > 0);
        let updated = sys.agents_pull();
        assert!(updated > 0, "agents must pull the new version");

        let traffic = sys.send_demand_packets(&demands);
        assert_eq!(traffic.delivered + traffic.dropped, demands.len());
        assert!(traffic.delivered > 0);
        assert!(
            traffic.sr_labelled > 0,
            "TE-configured flows must carry SR headers"
        );
        assert!(traffic.mean_latency_ms > 0.0);
    }

    #[test]
    fn without_pull_no_sr_labels() {
        let (mut sys, demands) = small_system();
        sys.bring_up(&demands).unwrap();
        sys.run_controller_interval(&demands).unwrap();
        // Agents never pull: packets stay conventional.
        let traffic = sys.send_demand_packets(&demands);
        assert_eq!(traffic.sr_labelled, 0);
        // ECMP still delivers them.
        assert!(traffic.delivered > 0);
    }

    #[test]
    fn decommissioned_endpoint_stops_getting_sr() {
        let (mut sys, demands) = small_system();
        sys.bring_up(&demands).unwrap();
        sys.run_controller_interval(&demands).unwrap();
        sys.agents_pull();
        let before = sys.send_demand_packets(&demands);
        assert!(before.sr_labelled > 0);

        // Kill the source instance of the first SR-labelled demand.
        let victim = demands.demands()[0].src;
        let removed = sys.decommission_endpoint(victim);
        assert!(removed > 0, "decommission must scrub map entries");

        // Its packets lose attribution (no SR), everyone else keeps it.
        let after = sys.send_demand_packets(&demands);
        assert!(after.sr_labelled < before.sr_labelled || removed == 0);
        // Unknown endpoints are a no-op.
        assert_eq!(sys.decommission_endpoint(EndpointId(999_999)), 0);
    }

    #[test]
    fn flow_reports_cover_sent_traffic() {
        let (mut sys, demands) = small_system();
        sys.bring_up(&demands).unwrap();
        sys.run_controller_interval(&demands).unwrap();
        sys.agents_pull();
        sys.send_demand_packets(&demands);
        let records = sys.collect_flow_reports();
        assert!(records > 0, "traffic_map must have counted flows");
        // Second collection is empty (counters reset).
        assert_eq!(sys.collect_flow_reports(), 0);
    }
}
