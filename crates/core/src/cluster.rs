//! Partitioned control plane: N controllers that survive each other.
//!
//! A [`ControllerCluster`] slices the site graph with a Concord-style
//! balanced edge-cut ([`megate_topo::Partitioning`]) and gives each
//! slice its own [`Controller`]: a disjoint demand subset (a demand is
//! owned by the partition of its *source* site), a disjoint TE-DB key
//! range (per-partition version clocks, per-partition wire-byte
//! attribution via [`TeDatabase::for_partition`]) and an independent
//! solve cadence. Controllers share no in-memory state — one crashing
//! leaves the others publishing, and its agents ride the same
//! changelog → delta → snapshot → stale-TTL → ECMP ladder a database
//! outage triggers.
//!
//! Cross-partition tunnels are resolved *before* each round of solves
//! by a deterministic capacity quota ([`ControllerCluster::run_interval`]):
//! for every link, each claimant partition is granted what its
//! currently-published paths already carry plus an equal share of the
//! remaining headroom. The granted quotas sum to at most the link
//! capacity, so independent solves can never double-book a border
//! link — including against the stale load of a crashed peer, whose
//! published paths keep steering traffic until it heals.
//!
//! Controller faults are scheduled by a [`ControllerFaultPlan`] — the
//! control-plane sibling of `megate_tedb`'s `FaultPlan`, drawing from
//! its own salted splitmix64 streams so adding it never perturbed the
//! pinned shard-fault schedules.

use crate::controller::{Controller, ControllerConfig, ControllerError, IntervalReport};
use megate_obs::trace;
use megate_solvers::AllocationPaths;
use megate_tedb::TeDatabase;
use megate_topo::{
    EndpointCatalog, EndpointId, Graph, PartitionId, Partitioning, SiteId, SitePair, TunnelTable,
};
use megate_traffic::DemandSet;
use std::collections::BTreeMap;

/// Cluster-level knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// How many controller partitions to slice the site graph into.
    pub partitions: u32,
    /// Seed of the partitioner's tie-breaks (same seed ⇒ same slicing).
    pub partition_seed: u64,
    /// Template for every slot's controller; `partition` is overwritten
    /// per slot.
    pub controller: ControllerConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            partitions: 2,
            partition_seed: 0x0063_6f6e_636f_7264, // "concord"
            controller: ControllerConfig::default(),
        }
    }
}

/// One partition's controller seat. `controller` is `None` while the
/// partition's controller is crashed — the seat (and the partition's
/// published state) outlives the process.
struct ControllerSlot {
    partition: PartitionId,
    controller: Option<Controller>,
    /// Skip the next interval's solve+publish (a scheduled missed
    /// publish, or the lost solve of a restart-mid-solve).
    skip_publish: bool,
    /// A heal was requested but recovery keeps failing (version record
    /// unreachable); retried every tick until it lands.
    wants_heal: bool,
}

/// Outcome of one cluster-wide TE interval.
#[derive(Debug, Clone, Default)]
pub struct ClusterReport {
    /// Controllers that ran a solve this interval.
    pub reports: Vec<(PartitionId, IntervalReport)>,
    /// Live controllers at the end of the interval.
    pub live: usize,
    /// Links whose quota granted a partition less than the full link
    /// capacity this round (contested, typically border links).
    pub reconciled_links: usize,
    /// Endpoints whose paths were withdrawn to resolve an over-booked
    /// link (post-split or post-crash conflicting state).
    pub withdrawn_endpoints: usize,
}

/// The partitioned control plane.
pub struct ControllerCluster {
    graph: Graph,
    tunnels: TunnelTable,
    catalog: EndpointCatalog,
    db: TeDatabase,
    template: ControllerConfig,
    partitioning: Partitioning,
    slots: Vec<ControllerSlot>,
    /// The last configuration each partition successfully published —
    /// the cluster's view of what the dataplane steers on. Survives the
    /// owning controller's crash (the database and the hosts still hold
    /// it), which is exactly what the quota negotiation needs.
    published: BTreeMap<PartitionId, AllocationPaths>,
}

impl ControllerCluster {
    /// Slices `graph` into `cfg.partitions` controller partitions and
    /// seats one controller per slice.
    pub fn new(
        graph: Graph,
        tunnels: TunnelTable,
        catalog: EndpointCatalog,
        db: TeDatabase,
        cfg: ClusterConfig,
    ) -> Self {
        let partitioning = Partitioning::new(&graph, cfg.partitions, cfg.partition_seed);
        // Registered up front so metric presence doesn't depend on a
        // fault having occurred.
        megate_obs::counter("controller.partition.crashes");
        megate_obs::counter("controller.partition.restarts");
        megate_obs::counter("controller.partition.missed_publishes");
        megate_obs::counter("controller.partition.splits");
        megate_obs::counter("controller.partition.withdrawals");
        megate_obs::counter("controller.partition.reconciles");
        megate_obs::gauge("controller.partition.count");
        megate_obs::gauge("controller.partition.live");
        megate_obs::gauge("controller.partition.border_links");
        let mut cluster = Self {
            graph,
            tunnels,
            catalog,
            db,
            template: cfg.controller,
            partitioning,
            slots: Vec::new(),
            published: BTreeMap::new(),
        };
        for p in cluster.partitioning.partition_ids() {
            let controller = cluster.seat_controller(p);
            cluster.slots.push(ControllerSlot {
                partition: p,
                controller: Some(controller),
                skip_publish: false,
                wants_heal: false,
            });
            cluster.published.insert(p, AllocationPaths::new());
        }
        cluster.refresh_gauges();
        cluster
    }

    /// A fresh controller for partition `p`, attributing its database
    /// bytes to `tedb.partition{p}.bytes`.
    fn seat_controller(&self, p: PartitionId) -> Controller {
        Controller::new(
            self.graph.clone(),
            self.tunnels.clone(),
            self.catalog.clone(),
            self.db.for_partition(p),
            ControllerConfig {
                partition: p,
                ..self.template.clone()
            },
        )
    }

    fn refresh_gauges(&self) {
        megate_obs::gauge("controller.partition.count").set(self.slots.len() as i64);
        megate_obs::gauge("controller.partition.live").set(self.live_count() as i64);
        let border = self
            .graph
            .link_ids()
            .filter(|&l| self.partitioning.is_border_link(&self.graph, l))
            .count();
        megate_obs::gauge("controller.partition.border_links").set(border as i64);
    }

    /// The current slicing.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Number of partitions (grows on splits, never shrinks).
    pub fn partition_count(&self) -> u32 {
        self.partitioning.partition_count()
    }

    /// Controllers currently up.
    pub fn live_count(&self) -> usize {
        self.slots.iter().filter(|s| s.controller.is_some()).count()
    }

    /// Whether partition `p`'s controller is currently up.
    pub fn is_up(&self, p: PartitionId) -> bool {
        self.slots
            .get(p as usize)
            .is_some_and(|s| s.controller.is_some())
    }

    /// The partition owning endpoint `ep` (by its attachment site).
    pub fn partition_of_endpoint(&self, ep: EndpointId) -> PartitionId {
        self.partitioning.partition_of(self.catalog.site_of(ep))
    }

    /// Endpoints attached to partition `p`'s sites.
    pub fn endpoints_of(&self, p: PartitionId) -> Vec<EndpointId> {
        self.catalog
            .ids()
            .filter(|&ep| self.partition_of_endpoint(ep) == p)
            .collect()
    }

    /// The demands partition `p` owns: those whose *source* site lies
    /// in the slice (matching tunnel ownership — every tunnel for those
    /// demands starts inside `p`).
    fn demands_for(&self, p: PartitionId, demands: &DemandSet) -> DemandSet {
        let mut sub = DemandSet::default();
        for d in demands.demands() {
            let src_site = self.catalog.site_of(d.src);
            if self.partitioning.partition_of(src_site) == p {
                sub.push(
                    SitePair::new(src_site, self.catalog.site_of(d.dst)),
                    d.clone(),
                );
            }
        }
        sub
    }

    /// Per-link load each partition's *published* paths currently place
    /// on the network, weighted by this interval's demands. This is the
    /// negotiation input: it reflects what the dataplane actually
    /// steers, so a crashed controller's stale load is still honored.
    fn usage_by_partition(&self, demands: &DemandSet) -> BTreeMap<PartitionId, Vec<f64>> {
        let mut usage: BTreeMap<PartitionId, Vec<f64>> = self
            .partitioning
            .partition_ids()
            .map(|p| (p, vec![0.0; self.graph.link_count()]))
            .collect();
        for d in demands.demands() {
            let p = self.partition_of_endpoint(d.src);
            let Some(hops) = self
                .published
                .get(&p)
                .and_then(|paths| paths.get(&d.src))
                .and_then(|set| set.get(&d.dst))
            else {
                continue;
            };
            let u = usage.get_mut(&p).expect("partition usage row");
            let mut prev = self.catalog.site_of(d.src);
            for &h in hops {
                let next = SiteId(h);
                if let Some(l) = self.graph.find_link(prev, next) {
                    u[l.index()] += d.demand_mbps;
                }
                prev = next;
            }
        }
        usage
    }

    /// Which partitions can place load on each link: the owners (first
    /// site's partition) of every tunnel crossing it. Non-claimants get
    /// no share of the link's headroom — they cannot route over it.
    fn claimants_by_link(&self) -> Vec<Vec<PartitionId>> {
        let mut claim: Vec<Vec<PartitionId>> = vec![Vec::new(); self.graph.link_count()];
        for t in self.tunnels.all_tunnels() {
            let owner = self.partitioning.partition_of(t.sites[0]);
            for w in t.sites.windows(2) {
                if let Some(l) = self.graph.find_link(w[0], w[1]) {
                    let c = &mut claim[l.index()];
                    if !c.contains(&owner) {
                        c.push(owner);
                    }
                }
            }
        }
        for c in &mut claim {
            c.sort_unstable();
        }
        claim
    }

    /// The endpoints of partition `p` whose published path for some
    /// destination crosses `link`.
    fn endpoints_crossing(&self, p: PartitionId, link: usize) -> Vec<EndpointId> {
        let Some(paths) = self.published.get(&p) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (src, set) in paths {
            let src_site = self.catalog.site_of(*src);
            let crosses = set.values().any(|hops| {
                let mut prev = src_site;
                hops.iter().any(|&h| {
                    let next = SiteId(h);
                    let hit = self.graph.find_link(prev, next).map(|l| l.index()) == Some(link);
                    prev = next;
                    hit
                })
            });
            if crosses {
                out.push(*src);
            }
        }
        out
    }

    /// The deterministic capacity negotiation (the "reconciliation
    /// pass"): every partition is granted, per link, the load its
    /// published paths already carry plus an equal share of the
    /// remaining headroom split across the link's claimants. Grants sum
    /// to at most the capacity, so the subsequent independent solves
    /// cannot double-book any link. If conflicting state (post-split or
    /// post-crash) has a link genuinely over-booked, every claimant but
    /// the lowest-numbered live partition withdraws its crossing paths
    /// first.
    ///
    /// Returns `(per-slot capacity overrides, contested links, endpoints
    /// withdrawn)`.
    fn reconcile(&mut self, demands: &DemandSet) -> (Vec<Vec<f64>>, usize, usize) {
        megate_obs::counter("controller.partition.reconciles").inc();
        let mut usage = self.usage_by_partition(demands);
        let claimants = self.claimants_by_link();
        let eps = 1e-6;

        // Corrective sweep: resolve links already over their capacity.
        let mut withdrawn = 0usize;
        for l in 0..self.graph.link_count() {
            let cap = self.graph.link(megate_topo::LinkId(l as u32)).capacity_mbps;
            let total: f64 = usage.values().map(|u| u[l]).sum();
            if total <= cap + eps {
                continue;
            }
            // Deterministic priority: the lowest-numbered partition with
            // load keeps its paths, everyone else backs off this link.
            let mut loaded: Vec<PartitionId> = usage
                .iter()
                .filter(|(_, u)| u[l] > eps)
                .map(|(&p, _)| p)
                .collect();
            loaded.sort_unstable();
            for &p in loaded.iter().skip(1) {
                let victims = self.endpoints_crossing(p, l);
                if victims.is_empty() {
                    continue;
                }
                if let Some(ctl) = self.slots[p as usize].controller.as_mut() {
                    let _ = ctl.withdraw_endpoints(&victims);
                }
                if let Some(paths) = self.published.get_mut(&p) {
                    for ep in &victims {
                        paths.remove(ep);
                    }
                }
                withdrawn += victims.len();
                megate_obs::counter("controller.partition.withdrawals").add(victims.len() as u64);
            }
            if withdrawn > 0 {
                usage = self.usage_by_partition(demands);
            }
        }

        // Quota grants per slot.
        let mut caps: Vec<Vec<f64>> = Vec::with_capacity(self.slots.len());
        let mut contested = vec![false; self.graph.link_count()];
        for slot in &self.slots {
            let p = slot.partition;
            let own = usage.get(&p).expect("partition usage row");
            let mut grant = vec![0.0; self.graph.link_count()];
            let mut adjusted_border = 0u64;
            for l in 0..self.graph.link_count() {
                let cap = self.graph.link(megate_topo::LinkId(l as u32)).capacity_mbps;
                let total: f64 = usage.values().map(|u| u[l]).sum();
                let free = (cap - total).max(0.0);
                let n = claimants[l].len().max(1) as f64;
                let is_claimant = claimants[l].contains(&p);
                let share = if is_claimant { free / n } else { 0.0 };
                grant[l] = own[l] + share;
                if is_claimant && claimants[l].len() > 1 && grant[l] + eps < cap {
                    contested[l] = true;
                    if self
                        .partitioning
                        .is_border_link(&self.graph, megate_topo::LinkId(l as u32))
                    {
                        adjusted_border += 1;
                    }
                }
            }
            let version = slot.controller.as_ref().map_or(0, Controller::version);
            trace::record(trace::Stage::Reconcile, version, p as u64, adjusted_border);
            caps.push(grant);
        }
        let reconciled = contested.iter().filter(|&&c| c).count();
        (caps, reconciled, withdrawn)
    }

    /// One cluster-wide TE interval: negotiate quotas from the current
    /// published state, then run every live controller's solve on its
    /// own demand subset against its granted capacities.
    pub fn run_interval(&mut self, demands: &DemandSet) -> Result<ClusterReport, ControllerError> {
        let (caps, reconciled_links, withdrawn_endpoints) = self.reconcile(demands);
        let mut report = ClusterReport {
            reconciled_links,
            withdrawn_endpoints,
            ..Default::default()
        };
        // Subsets are taken against the *current* slicing, so a
        // mid-run split moves demand ownership with the sites.
        let subs: Vec<DemandSet> = self
            .slots
            .iter()
            .map(|s| self.demands_for(s.partition, demands))
            .collect();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(ctl) = slot.controller.as_mut() else {
                continue;
            };
            if slot.skip_publish {
                slot.skip_publish = false;
                continue;
            }
            let interval = ctl.run_interval_with_capacities(&subs[i], &caps[i])?;
            self.published
                .insert(slot.partition, ctl.published_paths().clone());
            report.reports.push((slot.partition, interval));
        }
        report.live = self.live_count();
        self.refresh_gauges();
        Ok(report)
    }

    /// Crashes partition `p`'s controller: all in-memory state (diff
    /// base, version clock, warm solver state) is lost. Its published
    /// configuration stays in the database and on the hosts.
    pub fn crash(&mut self, p: PartitionId) {
        let Some(slot) = self.slots.get_mut(p as usize) else {
            return;
        };
        let Some(ctl) = slot.controller.take() else {
            return;
        };
        trace::record(trace::Stage::CtlCrash, ctl.version(), p as u64, 0);
        slot.skip_publish = false;
        slot.wants_heal = false;
        megate_obs::counter("controller.partition.crashes").inc();
        self.refresh_gauges();
    }

    /// Requests a heal of partition `p`: a fresh controller rebuilds
    /// warm state from the database ([`Controller::recover_from_db`]).
    /// If the partition's version record is unreachable (shard outage)
    /// the seat stays empty and the heal is retried every tick.
    /// Returns whether the controller came up.
    pub fn heal(&mut self, p: PartitionId) -> bool {
        if self.is_up(p) {
            return true;
        }
        if self.slots.get(p as usize).is_none() {
            return false;
        }
        self.slots[p as usize].wants_heal = true;
        let endpoints = self.endpoints_of(p);
        let mut ctl = self.seat_controller(p);
        match ctl.recover_from_db(&endpoints) {
            Ok(_) => {
                self.published.insert(p, ctl.published_paths().clone());
                let slot = &mut self.slots[p as usize];
                slot.controller = Some(ctl);
                slot.wants_heal = false;
                megate_obs::counter("controller.partition.restarts").inc();
                self.refresh_gauges();
                true
            }
            Err(_) => false,
        }
    }

    /// A controller dying *mid-solve* and being restarted immediately
    /// by its supervisor: in-memory state is lost (crash), a fresh
    /// process recovers from the database, and the interrupted
    /// interval's publish never happens.
    pub fn restart_mid_solve(&mut self, p: PartitionId) {
        if !self.is_up(p) {
            return;
        }
        self.crash(p);
        if self.heal(p) {
            self.slots[p as usize].skip_publish = true;
        }
    }

    /// The controller stays up but its next interval publishes nothing
    /// (dropped writes between solve and version bump).
    pub fn miss_publish(&mut self, p: PartitionId) {
        if let Some(slot) = self.slots.get_mut(p as usize) {
            if slot.controller.is_some() {
                slot.skip_publish = true;
                megate_obs::counter("controller.partition.missed_publishes").inc();
            }
        }
    }

    /// Splits partition `p` in two: the new slice gets its own
    /// controller, seeded version clock and endpoint set. The parent
    /// silently releases the moved endpoints (their configuration stays
    /// live in the database and on the hosts); the new controller
    /// rebuilds warm state from their snapshots. Returns the new
    /// partition id, or `None` when `p` cannot be split (missing or a
    /// single site).
    pub fn split(&mut self, p: PartitionId, seed: u64) -> Option<PartitionId> {
        if p >= self.partition_count() || self.partitioning.size_of(p) < 2 {
            return None;
        }
        let new_p = self.partitioning.split(&self.graph, p, seed);
        // Seed the new partition's version clock from the parent's, so
        // agents already at that version stay converged across the cut.
        let parent_version = match self.slots[p as usize].controller.as_ref() {
            Some(ctl) => ctl.version(),
            None => self
                .db
                .latest_partition_version_checked(p)
                .ok()
                .flatten()
                .unwrap_or(0),
        };
        self.db.publish_partition_version(new_p, parent_version);
        let moved = self.endpoints_of(new_p);
        if let Some(ctl) = self.slots[p as usize].controller.as_mut() {
            ctl.release_endpoints(&moved);
        }
        if let Some(paths) = self.published.get_mut(&p) {
            let mut carried = AllocationPaths::new();
            for ep in &moved {
                if let Some(set) = paths.remove(ep) {
                    carried.insert(*ep, set);
                }
            }
            self.published.insert(new_p, carried);
        } else {
            self.published.insert(new_p, AllocationPaths::new());
        }
        let mut ctl = self.seat_controller(new_p);
        let up = ctl.recover_from_db(&moved).is_ok();
        self.slots.push(ControllerSlot {
            partition: new_p,
            controller: up.then_some(ctl),
            skip_publish: false,
            wants_heal: !up,
        });
        megate_obs::counter("controller.partition.splits").inc();
        self.refresh_gauges();
        Some(new_p)
    }

    /// Applies every controller fault scheduled at `tick`, after
    /// retrying any pending heals (a restart whose recovery kept
    /// failing during a database outage).
    pub fn apply_tick(&mut self, plan: &ControllerFaultPlan, tick: u64) {
        let pending: Vec<PartitionId> = self
            .slots
            .iter()
            .filter(|s| s.controller.is_none() && s.wants_heal)
            .map(|s| s.partition)
            .collect();
        for p in pending {
            self.heal(p);
        }
        if let Some(events) = plan.events.get(&tick) {
            for &(p, ev) in events {
                match ev {
                    ControllerFaultEvent::Crash => self.crash(p),
                    ControllerFaultEvent::Heal => {
                        if let Some(slot) = self.slots.get_mut(p as usize) {
                            slot.wants_heal = true;
                        }
                        self.heal(p);
                    }
                    ControllerFaultEvent::RestartMidSolve => self.restart_mid_solve(p),
                    ControllerFaultEvent::MissedPublish => self.miss_publish(p),
                    ControllerFaultEvent::Split { seed } => {
                        self.split(p, seed);
                    }
                }
            }
        }
    }

    /// Per-link load the union of all partitions' published paths
    /// places on the network under `demands` — the harness's
    /// never-double-booked probe.
    pub fn published_usage(&self, demands: &DemandSet) -> Vec<f64> {
        let usage = self.usage_by_partition(demands);
        let mut total = vec![0.0; self.graph.link_count()];
        for u in usage.values() {
            for (t, v) in total.iter_mut().zip(u) {
                *t += v;
            }
        }
        total
    }

    /// The worst link over-booking in Mbps (≤ 0 means every link is
    /// within capacity).
    pub fn max_overbooked_mbps(&self, demands: &DemandSet) -> f64 {
        self.published_usage(demands)
            .iter()
            .enumerate()
            .map(|(l, &u)| u - self.graph.link(megate_topo::LinkId(l as u32)).capacity_mbps)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Parameters of a generated controller-fault timeline. Probabilities
/// are per tick per partition; durations in ticks. The streams are
/// salted differently from `megate_tedb`'s `FaultPlan` (whose output is
/// pinned byte-for-byte), so both plans can share a chaos seed without
/// correlating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerFaultSpec {
    /// Seed of the whole timeline; same seed ⇒ same plan.
    pub seed: u64,
    /// Faults may *start* in ticks `[0, horizon)`.
    pub horizon: u64,
    /// Chance per (tick, partition) that the controller crashes.
    pub crash_rate: f64,
    /// Crash length in ticks (uniform in `[1, max_down_ticks]`).
    pub max_down_ticks: u64,
    /// Chance per (tick, partition) of a restart mid-solve (state lost,
    /// immediate recovery, that interval's publish lost).
    pub restart_rate: f64,
    /// Chance per (tick, partition) of a missed publish.
    pub miss_rate: f64,
    /// Schedule one partition split at this tick (target partition
    /// drawn deterministically from the seed).
    pub split_at: Option<u64>,
}

impl Default for ControllerFaultSpec {
    fn default() -> Self {
        Self {
            seed: 1,
            horizon: 24,
            crash_rate: 0.05,
            max_down_ticks: 4,
            restart_rate: 0.04,
            miss_rate: 0.06,
            split_at: None,
        }
    }
}

/// One scheduled control-plane event on one partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerFaultEvent {
    /// The controller process dies; in-memory state is lost.
    Crash,
    /// A fresh controller comes up and recovers from the database
    /// (retried every tick while the database is unreachable).
    Heal,
    /// Crash + immediate recovery; the interrupted interval never
    /// publishes.
    RestartMidSolve,
    /// The next interval's solve runs nowhere — no version bump.
    MissedPublish,
    /// The partition splits in two (Concord re-slicing under load).
    Split {
        /// Tie-break seed of the sub-slicing.
        seed: u64,
    },
}

/// A replayable controller-fault timeline: tick → events firing then.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerFaultPlan {
    /// Events by tick, in deterministic (partition, kind) order.
    pub events: BTreeMap<u64, Vec<(PartitionId, ControllerFaultEvent)>>,
    /// First tick at which the control plane is guaranteed fault-free
    /// and stays that way.
    pub clear_tick: u64,
}

/// splitmix64 over the controller-fault salt space. The multiplier and
/// xor salt differ from `megate_tedb::store::splitmix64`'s callers on
/// purpose: the shard-fault streams are pinned by a regression test and
/// must never observe these draws.
fn ctl_roll(seed: u64, tick: u64, partition: PartitionId, kind: u64) -> f64 {
    let mut x = seed.wrapping_mul(0xA076_1D64_78BD_642F)
        ^ (tick << 21)
        ^ ((partition as u64) << 9)
        ^ kind
        ^ 0x0063_6f6e_636f_7264;
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn ctl_draw(seed: u64, tick: u64, partition: PartitionId) -> u64 {
    let x = seed ^ 0x6d65_6761_7465 ^ (tick << 33) ^ ((partition as u64) << 3);
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ControllerFaultPlan {
    /// Generates the deterministic timeline for `partitions`
    /// controllers. Partition 0 is never *crashed* when there is more
    /// than one partition — the cluster always keeps one stable
    /// controller, mirroring the shard-0 convention of the database
    /// fault plan — but may still miss publishes.
    pub fn generate(spec: &ControllerFaultSpec, partitions: u32) -> Self {
        let mut events: BTreeMap<u64, Vec<(PartitionId, ControllerFaultEvent)>> = BTreeMap::new();
        let mut down_until = vec![0u64; partitions as usize];
        let push = |events: &mut BTreeMap<u64, Vec<(PartitionId, ControllerFaultEvent)>>,
                    tick: u64,
                    p: PartitionId,
                    ev: ControllerFaultEvent| {
            events.entry(tick).or_default().push((p, ev));
        };
        for tick in 0..spec.horizon {
            for p in 0..partitions {
                let crashable = partitions == 1 || p != 0;
                let b = &mut down_until[p as usize];
                if tick >= *b {
                    if crashable && ctl_roll(spec.seed, tick, p, 0) < spec.crash_rate {
                        let len = 1 + ctl_draw(spec.seed, tick, p) % spec.max_down_ticks.max(1);
                        push(&mut events, tick, p, ControllerFaultEvent::Crash);
                        push(&mut events, tick + len, p, ControllerFaultEvent::Heal);
                        *b = tick + len + 1;
                    } else if crashable && ctl_roll(spec.seed, tick, p, 1) < spec.restart_rate {
                        push(&mut events, tick, p, ControllerFaultEvent::RestartMidSolve);
                        *b = tick + 1;
                    } else if ctl_roll(spec.seed, tick, p, 2) < spec.miss_rate {
                        push(&mut events, tick, p, ControllerFaultEvent::MissedPublish);
                        *b = tick + 1;
                    }
                }
            }
        }
        if let Some(t) = spec.split_at {
            let target = (ctl_draw(spec.seed, t, u32::MAX) % partitions as u64) as PartitionId;
            push(
                &mut events,
                t,
                target,
                ControllerFaultEvent::Split {
                    seed: spec.seed ^ 0x0053_504c_4954, // "SPLIT"
                },
            );
        }
        let clear_tick = events.iter().next_back().map_or(0, |(&last, _)| last + 1);
        Self { events, clear_tick }
    }

    /// Total number of scheduled events.
    pub fn event_count(&self) -> usize {
        self.events.values().map(Vec::len).sum()
    }

    /// Number of fault *onsets* (crashes, restarts, misses, splits —
    /// everything but heals).
    pub fn onset_count(&self) -> usize {
        self.events
            .values()
            .flatten()
            .filter(|(_, ev)| !matches!(ev, ControllerFaultEvent::Heal))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megate_topo::{b4, WeibullEndpoints};
    use megate_traffic::TrafficConfig;

    fn build(partitions: u32) -> (ControllerCluster, DemandSet, TeDatabase) {
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
        let db = TeDatabase::with_replication(2, 1);
        let cluster = ControllerCluster::new(
            g,
            tunnels,
            catalog,
            db.clone(),
            ClusterConfig {
                partitions,
                controller: ControllerConfig {
                    qos_sequential: true,
                    snapshot_every: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        (cluster, demands, db)
    }

    #[test]
    fn partitions_publish_disjoint_version_clocks() {
        let (mut cluster, demands, db) = build(2);
        let report = cluster.run_interval(&demands).unwrap();
        assert_eq!(report.live, 2);
        assert_eq!(report.reports.len(), 2);
        for p in 0..2u32 {
            assert_eq!(
                db.latest_partition_version_checked(p).unwrap(),
                Some(1),
                "partition {p} must own version clock 1"
            );
        }
        // Each partition solved only its own demands.
        let counts: Vec<usize> = (0..2u32)
            .map(|p| cluster.demands_for(p, &demands).demands().len())
            .collect();
        assert_eq!(counts.iter().sum::<usize>(), demands.demands().len());
        assert!(counts.iter().all(|&c| c > 0), "both slices own demand");
    }

    #[test]
    fn quotas_never_oversubscribe_any_link() {
        let (mut cluster, demands, _db) = build(3);
        for _ in 0..4 {
            cluster.run_interval(&demands).unwrap();
            let over = cluster.max_overbooked_mbps(&demands);
            assert!(
                over <= 1e-6,
                "published paths over-book a link by {over} Mbps"
            );
        }
        // Grants themselves must sum within capacity.
        let (caps, _, _) = cluster.reconcile(&demands);
        for l in 0..cluster.graph.link_count() {
            let total: f64 = caps.iter().map(|c| c[l]).sum();
            let cap = cluster
                .graph
                .link(megate_topo::LinkId(l as u32))
                .capacity_mbps;
            assert!(
                total <= cap + 1e-6,
                "link {l}: grants {total} exceed capacity {cap}"
            );
        }
    }

    #[test]
    fn crash_keeps_peers_publishing_and_heal_recovers_warm() {
        let (mut cluster, demands, db) = build(2);
        cluster.run_interval(&demands).unwrap();
        cluster.run_interval(&demands).unwrap();
        cluster.crash(1);
        assert_eq!(cluster.live_count(), 1);
        let report = cluster.run_interval(&demands).unwrap();
        assert_eq!(report.reports.len(), 1, "only partition 0 solves");
        assert_eq!(
            db.latest_partition_version_checked(0).unwrap(),
            Some(3),
            "survivor keeps its clock moving"
        );
        assert_eq!(
            db.latest_partition_version_checked(1).unwrap(),
            Some(2),
            "dead partition's clock freezes"
        );
        assert!(cluster.heal(1), "heal must land on a healthy database");
        assert_eq!(cluster.live_count(), 2);
        let report = cluster.run_interval(&demands).unwrap();
        assert_eq!(report.reports.len(), 2);
        assert_eq!(db.latest_partition_version_checked(1).unwrap(), Some(3));
    }

    #[test]
    fn heal_is_retried_while_the_database_is_dark() {
        let (mut cluster, demands, db) = build(2);
        cluster.run_interval(&demands).unwrap();
        cluster.crash(1);
        for s in 0..db.shard_count() {
            db.set_shard_down(s, true);
        }
        assert!(!cluster.heal(1), "recovery cannot land during an outage");
        let plan = ControllerFaultPlan {
            events: BTreeMap::new(),
            clear_tick: 0,
        };
        cluster.apply_tick(&plan, 0);
        assert_eq!(cluster.live_count(), 1, "still down");
        for s in 0..db.shard_count() {
            db.set_shard_down(s, false);
        }
        cluster.apply_tick(&plan, 1);
        assert_eq!(cluster.live_count(), 2, "pending heal retried and landed");
    }

    #[test]
    fn split_moves_endpoints_and_seeds_the_new_clock() {
        let (mut cluster, demands, db) = build(2);
        cluster.run_interval(&demands).unwrap();
        let new_p = cluster.split(0, 7).expect("b4 slices are splittable");
        assert_eq!(new_p, 2);
        assert_eq!(cluster.partition_count(), 3);
        assert_eq!(
            db.latest_partition_version_checked(new_p).unwrap(),
            Some(1),
            "new clock seeded from the parent's version"
        );
        let moved = cluster.endpoints_of(new_p);
        assert!(!moved.is_empty(), "the new slice owns endpoints");
        let report = cluster.run_interval(&demands).unwrap();
        assert_eq!(report.reports.len(), 3);
        assert!(cluster.max_overbooked_mbps(&demands) <= 1e-6);
    }

    #[test]
    fn fault_plans_are_deterministic_and_distinct_per_seed() {
        let spec = ControllerFaultSpec::default();
        let a = ControllerFaultPlan::generate(&spec, 3);
        let b = ControllerFaultPlan::generate(&spec, 3);
        assert_eq!(a, b);
        let c = ControllerFaultPlan::generate(&ControllerFaultSpec { seed: 2, ..spec }, 3);
        assert_ne!(a, c, "distinct seeds should almost surely differ");
        assert!(a.event_count() > 0, "default rates schedule something");
        // Every crash pairs with a later heal; partition 0 never crashes.
        let mut down = vec![0i64; 3];
        for evs in a.events.values() {
            for &(p, ev) in evs {
                match ev {
                    ControllerFaultEvent::Crash => {
                        assert_ne!(p, 0, "partition 0 is the stability anchor");
                        down[p as usize] += 1;
                        assert_eq!(down[p as usize], 1, "no nested crashes");
                    }
                    ControllerFaultEvent::Heal => down[p as usize] -= 1,
                    _ => {}
                }
            }
        }
        assert!(down.iter().all(|&d| d == 0), "unbalanced crashes: {down:?}");
        assert!(a.clear_tick > 0);
    }

    #[test]
    fn restart_mid_solve_loses_one_publish_only() {
        let (mut cluster, demands, db) = build(2);
        cluster.run_interval(&demands).unwrap();
        cluster.restart_mid_solve(1);
        assert_eq!(cluster.live_count(), 2, "supervisor restarted it");
        let report = cluster.run_interval(&demands).unwrap();
        assert_eq!(
            report.reports.len(),
            1,
            "the interrupted interval's publish is lost"
        );
        assert_eq!(db.latest_partition_version_checked(1).unwrap(), Some(1));
        let report = cluster.run_interval(&demands).unwrap();
        assert_eq!(report.reports.len(), 2, "back to normal next interval");
        assert_eq!(db.latest_partition_version_checked(1).unwrap(), Some(2));
    }
}
