//! The centralized MegaTE controller (§3.2, Figure 3(b)).
//!
//! Per TE interval (or on a failure event) the controller:
//!
//! 1. takes the interval's endpoint-pair demands (collected bottom-up
//!    by the endpoint agents),
//! 2. runs the two-stage optimization per QoS class in priority order,
//! 3. translates the binary assignment `f_{k,t}^i` into per-source-
//!    endpoint configurations (destination → SR hop list),
//! 4. **diffs** them against the previous interval and publishes only
//!    what moved — a typed-key delta per changed endpoint, a changelog
//!    update, and (every `snapshot_every`th version, or on failure
//!    events) full snapshot catch-ups for endpoints still dirty — and
//! 5. bumps the version record last (write-then-publish ordering) —
//!    it never talks to endpoints directly.
//!
//! Delta records and changelog entries older than the retention window
//! are garbage-collected each interval, so database footprint is
//! bounded by `retention_versions`, not by controller uptime.

use crate::config::{
    decode_delta, decode_paths, diff_configs, encode_delta, encode_paths, ConfigError,
    EndpointConfig,
};
use megate_obs::trace;
use megate_solvers::{
    diff_endpoint_paths, endpoint_paths, AllocationPaths, IncrementalConfig, IncrementalEngine,
    IncrementalReport, MegaTeConfig, SolveError, TeAllocation, TeProblem,
};
use megate_tedb::{Changelog, ShardOutage, TeDatabase, TeKey};
use megate_topo::{EndpointCatalog, EndpointId, FailureScenario, Graph, TunnelTable};
use megate_traffic::DemandSet;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

/// Controller configuration.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// The two-stage solver's knobs.
    pub solver: MegaTeConfig,
    /// Allocate QoS classes sequentially, each on the capacity the
    /// higher classes left (§4.1). Off by default — one pass over all
    /// demands; the system fixtures and the benchmark turn it on.
    pub qos_sequential: bool,
    /// Flush full snapshots for still-dirty endpoints every Nth
    /// version (failure events always flush). Must not exceed
    /// `retention_versions`, or agents could find neither their deltas
    /// nor a current snapshot.
    pub snapshot_every: u64,
    /// How many versions of deltas/changelog history the database
    /// retains; older records are garbage-collected each interval.
    pub retention_versions: u64,
    /// Solve deadline. When a solve overruns it (checked post-hoc —
    /// the solver is not preempted mid-pivot) the controller treats
    /// the interval as failed and falls back to re-publishing the
    /// last-good allocation with a forced snapshot flush, so the fleet
    /// converges on *known* state instead of waiting on a wedged
    /// optimization. `None` disables the deadline.
    pub solve_deadline: Option<Duration>,
    /// Force the incremental engine to run a full cold solve every Nth
    /// solve, bounding the drift of repeated warm (residual-freeze)
    /// intervals. `0` disables the forced cadence.
    pub cold_every: u64,
    /// Warm solves are only attempted while dirty-pair churn stays at
    /// or below this many parts-per-million; the previous interval's
    /// published-path churn (its publish diff's `churn_ratio`) above
    /// this threshold also forces the next solve cold.
    pub warm_churn_max_ppm: i64,
    /// Which controller partition this instance owns. Partition 0 is
    /// the single-controller default and publishes under the legacy
    /// version key; a partitioned control plane gives each controller
    /// its own id, version clock and disjoint endpoint set (see
    /// `cluster`).
    pub partition: u32,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            solver: MegaTeConfig::default(),
            qos_sequential: false,
            snapshot_every: 16,
            retention_versions: 64,
            solve_deadline: None,
            cold_every: 32,
            warm_churn_max_ppm: 250_000,
            partition: 0,
        }
    }
}

/// Failure modes of one controller interval: the solve itself, or
/// encoding a pathological configuration (e.g. a tunnel whose hop list
/// exceeds the codec frame limit).
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerError {
    /// The two-stage optimization failed.
    Solve(SolveError),
    /// A configuration could not be encoded; nothing was published.
    Config(ConfigError),
    /// The solver returned no endpoint assignment (a scheme that only
    /// produces aggregate flows was plugged into the endpoint
    /// pipeline).
    MissingAssignment,
    /// The solve overran [`ControllerConfig::solve_deadline`] and no
    /// last-good allocation existed to fall back to.
    DeadlineExceeded {
        /// How long the solve actually took.
        elapsed: Duration,
        /// The configured deadline it overran.
        deadline: Duration,
    },
}

impl From<SolveError> for ControllerError {
    fn from(e: SolveError) -> Self {
        ControllerError::Solve(e)
    }
}

impl From<ConfigError> for ControllerError {
    fn from(e: ConfigError) -> Self {
        ControllerError::Config(e)
    }
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerError::Solve(e) => write!(f, "solve failed: {e}"),
            ControllerError::Config(e) => write!(f, "config encoding failed: {e}"),
            ControllerError::MissingAssignment => {
                write!(f, "solver produced no endpoint assignment")
            }
            ControllerError::DeadlineExceeded { elapsed, deadline } => {
                write!(f, "solve took {elapsed:?}, over the {deadline:?} deadline")
            }
        }
    }
}

impl std::error::Error for ControllerError {}

/// Outcome of one controller interval.
#[derive(Debug, Clone)]
pub struct IntervalReport {
    /// The configuration version just published.
    pub version: u64,
    /// The allocation behind it.
    pub allocation: TeAllocation,
    /// How many source endpoints hold configuration entries at this
    /// version.
    pub configured_endpoints: usize,
    /// Endpoints whose path set changed this interval (deltas
    /// published).
    pub changed_endpoints: usize,
    /// Endpoints whose configuration was withdrawn this interval.
    pub removed_endpoints: usize,
    /// Endpoints untouched this interval (no bytes published).
    pub unchanged_endpoints: usize,
    /// Whether this version flushed full snapshots (cadence or failure).
    pub snapshot_flush: bool,
    /// Bytes written into the TE database for this version (deltas,
    /// changelogs, snapshots, version record).
    pub published_bytes: u64,
    /// Whether this interval re-published the last-good allocation
    /// (solve failure or deadline overrun) instead of a fresh solve.
    pub fallback: bool,
    /// Database writes that reached no replica this interval (the
    /// affected endpoints stay dirty and are caught up by the next
    /// snapshot flush).
    pub publish_errors: usize,
    /// Wall-clock time of solve + publish.
    pub total_time: Duration,
    /// What the incremental engine did this interval (warm vs cold,
    /// dirty-pair counts). `None` on fallback publishes — the engine's
    /// result was discarded, so its report would be misleading.
    pub incremental: Option<IncrementalReport>,
}

/// Outcome of a post-restart state rebuild
/// ([`Controller::recover_from_db`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether the published diff base was fully rebuilt from the
    /// database (`true`) or dropped for a cold restart with a forced
    /// snapshot flush (`false`).
    pub warm: bool,
    /// The version clock adopted from the partition's version record.
    pub version: u64,
    /// Endpoints whose path sets were reconstructed.
    pub recovered_endpoints: usize,
}

/// Outcome of a between-solve admission pass
/// ([`Controller::admit_demands`]).
#[derive(Debug, Clone)]
pub struct AdmissionReport {
    /// The configuration version the provisional grants published at.
    pub version: u64,
    /// Arrival demands granted a provisional tunnel from residual
    /// headroom.
    pub admitted: usize,
    /// Arrival demands that fit on no tunnel (they stay on ECMP until
    /// the next full solve).
    pub rejected: usize,
    /// Source endpoints whose configuration changed.
    pub changed_endpoints: usize,
    /// Bytes written into the TE database for this version.
    pub published_bytes: u64,
}

/// The MegaTE controller.
pub struct Controller {
    graph: Graph,
    tunnels: TunnelTable,
    catalog: EndpointCatalog,
    db: TeDatabase,
    config: ControllerConfig,
    version: u64,
    /// Last published per-source path sets — the diff base.
    last_paths: AllocationPaths,
    /// Endpoints changed since their last snapshot flush.
    dirty_snapshots: BTreeSet<EndpointId>,
    /// Which endpoints got deltas at which version, oldest first — the
    /// retention ring the GC walks. Bounded by `retention_versions`.
    delta_ring: VecDeque<(u64, Vec<EndpointId>)>,
    /// The last successfully solved allocation — the fallback publish
    /// re-announces it when a solve fails or overruns its deadline.
    last_good: Option<TeAllocation>,
    /// Set when the previous interval failed any publish: the next
    /// interval flushes snapshots for the dirty endpoints regardless of
    /// cadence, so agents stranded by a torn publish (changelog
    /// referencing a delta that reached no replica) heal as soon as
    /// writes succeed again instead of waiting out `snapshot_every`.
    heal_flush: bool,
    /// The persistent warm-started solve engine. Lives across
    /// intervals; invalidated whenever the published allocation
    /// diverges from the engine's view (fallback publishes).
    engine: IncrementalEngine,
    /// Last interval's published-path churn in ppm, taken from the
    /// publish diff itself (never from the `solver.diff_churn_ppm`
    /// gauge, which is output only and a no-op with metrics off): a
    /// hint that forces the *next* solve cold when the fleet-visible
    /// churn exceeded [`ControllerConfig::warm_churn_max_ppm`].
    churn_hint_ppm: i64,
}

impl Controller {
    /// A controller over a topology, its tunnels, the endpoint catalog
    /// and a TE database handle.
    pub fn new(
        graph: Graph,
        tunnels: TunnelTable,
        catalog: EndpointCatalog,
        db: TeDatabase,
        config: ControllerConfig,
    ) -> Self {
        assert!(
            config.snapshot_every >= 1 && config.snapshot_every <= config.retention_versions,
            "need 1 <= snapshot_every <= retention_versions for snapshot fallback"
        );
        // Registered up front so metric presence doesn't depend on a
        // failure having occurred.
        megate_obs::counter("controller.fallback_publishes");
        megate_obs::counter("controller.publish_errors");
        let engine = IncrementalEngine::new(IncrementalConfig {
            solver: config.solver.clone(),
            qos_sequential: config.qos_sequential,
            warm_churn_max_ppm: config.warm_churn_max_ppm,
            cold_every: config.cold_every,
        });
        Self {
            graph,
            tunnels,
            catalog,
            db,
            config,
            version: 0,
            last_paths: AllocationPaths::new(),
            dirty_snapshots: BTreeSet::new(),
            delta_ring: VecDeque::new(),
            last_good: None,
            heal_flush: false,
            engine,
            churn_hint_ppm: 0,
        }
    }

    /// The underlay/overlay address of an endpoint (1:1 with its id;
    /// supports 16M endpoints in 10.0.0.0/8).
    pub fn endpoint_ip(ep: EndpointId) -> [u8; 4] {
        let id = ep.0;
        assert!(id < (1 << 24), "endpoint id out of 10/8 addressing range");
        [10, (id >> 16) as u8, (id >> 8) as u8, id as u8]
    }

    /// Inverse of [`endpoint_ip`](Self::endpoint_ip): recovers the
    /// endpoint id from a 10/8 address (`None` for foreign addresses).
    pub fn endpoint_from_ip(ip: [u8; 4]) -> Option<EndpointId> {
        if ip[0] != 10 {
            return None;
        }
        Some(EndpointId(
            ((ip[1] as u64) << 16) | ((ip[2] as u64) << 8) | ip[3] as u64,
        ))
    }

    /// Builds the next interval's demand matrix from the endpoint
    /// agents' measured flow reports — the paper's bottom-up input
    /// (§5.1: agents report `(ins_id, volume)`; the backend aggregates
    /// per endpoint pair, and "the flow data observed during each TE
    /// period ... is regarded as their traffic demand", §6.1).
    ///
    /// `records` are `(flow tuple, bytes over the interval)`; flows to
    /// or from addresses outside the endpoint range, or between
    /// endpoints the catalog does not know, are skipped. QoS comes from
    /// `classify` (deployments read it from tenant metadata).
    pub fn demands_from_measurements(
        &self,
        records: &[(megate_packet::FiveTuple, u64)],
        interval: std::time::Duration,
        classify: impl Fn(&megate_packet::FiveTuple) -> megate_traffic::QosClass,
    ) -> DemandSet {
        let mut per_pair: BTreeMap<(EndpointId, EndpointId), (u64, megate_traffic::QosClass)> =
            BTreeMap::new();
        for (tuple, bytes) in records {
            let (Some(src), Some(dst)) = (
                Self::endpoint_from_ip(tuple.src_ip),
                Self::endpoint_from_ip(tuple.dst_ip),
            ) else {
                continue;
            };
            if src.index() >= self.catalog.len() || dst.index() >= self.catalog.len() {
                continue;
            }
            let e = per_pair.entry((src, dst)).or_insert((0, classify(tuple)));
            e.0 += bytes;
        }
        let secs = interval.as_secs_f64().max(1e-9);
        let mut demands = DemandSet::default();
        for ((src, dst), (bytes, qos)) in per_pair {
            let site_pair =
                megate_topo::SitePair::new(self.catalog.site_of(src), self.catalog.site_of(dst));
            if site_pair.src == site_pair.dst {
                continue; // intra-site traffic never enters the WAN
            }
            demands.push(
                site_pair,
                megate_traffic::EndpointDemand {
                    src,
                    dst,
                    demand_mbps: (bytes as f64 * 8.0) / 1_000_000.0 / secs,
                    qos,
                },
            );
        }
        demands
    }

    /// Currently published version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The controller partition this instance owns (0 = the
    /// single-controller default).
    pub fn partition(&self) -> u32 {
        self.config.partition
    }

    /// The endpoints currently holding published path configuration,
    /// with their per-destination path sets — the diff base. The
    /// cluster's quota negotiation and reconciliation passes read this
    /// to account border-link load from what agents actually install.
    pub fn published_paths(&self) -> &AllocationPaths {
        &self.last_paths
    }

    /// Mutable access to the interval configuration — drills and tests
    /// adjust deadlines or the warm/cold cadence mid-run.
    pub fn config_mut(&mut self) -> &mut ControllerConfig {
        &mut self.config
    }

    /// Whether the incremental engine currently holds warm state (a
    /// retained allocation and basis to re-solve from).
    pub fn has_warm_state(&self) -> bool {
        self.engine.has_warm_state()
    }

    /// The topology the controller plans over.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The tunnel table.
    pub fn tunnels(&self) -> &TunnelTable {
        &self.tunnels
    }

    /// Runs one TE interval: solve, diff, publish deltas.
    pub fn run_interval(&mut self, demands: &DemandSet) -> Result<IntervalReport, ControllerError> {
        let graph = self.graph.clone();
        self.solve_and_publish(&graph, demands, false)
    }

    /// Runs one TE interval against **overridden link capacities** —
    /// the partitioned control plane's quota mechanism: each controller
    /// solves its own demands against a graph whose border links carry
    /// only this partition's negotiated share, so the sum of all
    /// partitions' plans can never oversubscribe a physical link.
    /// `caps` must have one entry per link (Mbps); entries are clamped
    /// to a tiny positive floor because the graph rejects zero
    /// capacities.
    ///
    /// # Panics
    /// Panics when `caps.len()` differs from the graph's link count.
    pub fn run_interval_with_capacities(
        &mut self,
        demands: &DemandSet,
        caps: &[f64],
    ) -> Result<IntervalReport, ControllerError> {
        assert_eq!(
            caps.len(),
            self.graph.link_count(),
            "one capacity override per link"
        );
        let mut graph = self.graph.clone();
        for (i, &c) in caps.iter().enumerate() {
            graph.link_mut(megate_topo::LinkId(i as u32)).capacity_mbps = c.max(f64::MIN_POSITIVE);
        }
        self.solve_and_publish(&graph, demands, false)
    }

    /// Reacts to link failures: re-solve on the degraded topology and
    /// publish immediately (the paper's §6.3 fast-recompute path), with
    /// a forced full-snapshot flush so every agent — however stale —
    /// can converge in one fetch.
    pub fn handle_failure(
        &mut self,
        demands: &DemandSet,
        scenario: &FailureScenario,
    ) -> Result<IntervalReport, ControllerError> {
        let degraded = scenario.apply(&self.graph);
        self.solve_and_publish(&degraded, demands, true)
    }

    /// Rebuilds published state from the TE database after a restart.
    ///
    /// A restarted controller must not publish version 1 over a fleet
    /// that is already at version N, and ideally should not re-announce
    /// every path as "changed". This walks the database the same way a
    /// recovering agent does — snapshot, then the changelog's delta
    /// chain up to the published version — for every endpoint in
    /// `endpoints` (the partition's source endpoints), and adopts the
    /// result as the new diff base:
    ///
    /// * **warm**: every record was readable and decodable — the diff
    ///   base and version clock are fully rebuilt; the next interval
    ///   diffs against real published state and publishes only genuine
    ///   changes. The solve engine still starts cold (its basis died
    ///   with the process), and the retention ring starts empty, so
    ///   pre-crash deltas are never garbage-collected — they age out of
    ///   relevance but not out of the store (bounded by the pre-crash
    ///   retention window).
    /// * **cold** (`warm: false`): some record was unreadable, torn or
    ///   undecodable — the diff base is dropped, `heal_flush` is set so
    ///   the first post-restart publish flushes full snapshots, and the
    ///   fleet converges on the fresh solve in one fetch.
    ///
    /// `Err` means the partition's version record itself was
    /// unreachable: the controller cannot safely rejoin (it would
    /// restart its version clock under the fleet) — the caller keeps it
    /// down and retries next tick, exactly like a DB outage.
    pub fn recover_from_db(
        &mut self,
        endpoints: &[EndpointId],
    ) -> Result<RecoveryReport, ShardOutage> {
        let partition = self.config.partition;
        let target = match self.db.latest_partition_version_checked(partition)? {
            Some(v) => v,
            None => {
                // Nothing ever published: a fresh start *is* the
                // published state.
                self.version = 0;
                trace::record(trace::Stage::CtlRestart, 0, partition as u64, 1);
                return Ok(RecoveryReport {
                    warm: true,
                    version: 0,
                    recovered_endpoints: 0,
                });
            }
        };

        let recovered = self.rebuild_paths(endpoints, target);
        self.version = target;
        self.dirty_snapshots.clear();
        self.delta_ring.clear();
        self.last_good = None;
        self.engine.invalidate();
        self.churn_hint_ppm = 0;
        match recovered {
            Some(paths) => {
                let n = paths.len();
                self.last_paths = paths;
                self.heal_flush = false;
                trace::record(trace::Stage::CtlRestart, target, partition as u64, 1);
                Ok(RecoveryReport {
                    warm: true,
                    version: target,
                    recovered_endpoints: n,
                })
            }
            None => {
                self.last_paths = AllocationPaths::new();
                self.heal_flush = true;
                trace::record(trace::Stage::CtlRestart, target, partition as u64, 0);
                Ok(RecoveryReport {
                    warm: false,
                    version: target,
                    recovered_endpoints: 0,
                })
            }
        }
    }

    /// The snapshot → delta-chain replay behind
    /// [`recover_from_db`](Self::recover_from_db); `None` as soon as
    /// any record is unreachable or undecodable (→ cold recovery).
    fn rebuild_paths(&self, endpoints: &[EndpointId], target: u64) -> Option<AllocationPaths> {
        let mut out = AllocationPaths::new();
        for &ep in endpoints {
            // Snapshot first: the stamped base state.
            let (stamp, mut paths) =
                match self.db.fetch_checked(&TeKey::Snapshot { endpoint: ep.0 }) {
                    Err(_) => return None,
                    Ok(None) => (0u64, megate_solvers::EndpointPathSet::new()),
                    Ok(Some(bytes)) => {
                        if bytes.len() < 8 {
                            return None;
                        }
                        let stamp = u64::from_be_bytes(bytes[..8].try_into().unwrap());
                        let cfg = decode_paths(&bytes[8..])?;
                        let mut paths = megate_solvers::EndpointPathSet::new();
                        for (ip, hops) in cfg.paths {
                            paths.insert(Self::endpoint_from_ip(ip)?, hops);
                        }
                        (stamp, paths)
                    }
                };
            // Then the changelog's delta chain above the stamp.
            let log = match self.db.fetch_checked(&TeKey::Changelog { endpoint: ep.0 }) {
                Err(_) => return None,
                Ok(None) => Changelog::default(),
                Ok(Some(bytes)) => Changelog::decode(&bytes)?,
            };
            if stamp < log.complete_since {
                // Deltas between the snapshot and the watermark were
                // garbage-collected: the chain cannot be replayed.
                return None;
            }
            for &v in log.versions.iter().filter(|&&v| v > stamp && v <= target) {
                let raw = match self.db.fetch_checked(&TeKey::Delta {
                    endpoint: ep.0,
                    version: v,
                }) {
                    Ok(Some(r)) => r,
                    _ => return None,
                };
                let delta = decode_delta(&raw)?;
                for (ip, hops) in delta.changed {
                    paths.insert(Self::endpoint_from_ip(ip)?, hops);
                }
                for ip in delta.removed {
                    paths.remove(&Self::endpoint_from_ip(ip)?);
                }
            }
            if !paths.is_empty() {
                out.insert(ep, paths);
            }
        }
        Some(out)
    }

    /// Publishes a version that withdraws the given endpoints'
    /// configurations (their agents fall back to site-level/ECMP on the
    /// next pull) — the reconciliation pass's trim primitive when a
    /// border link is found oversubscribed. Endpoints without published
    /// state are skipped; returns the new version, or `None` when
    /// nothing was withdrawn (no version is burned).
    pub fn withdraw_endpoints(
        &mut self,
        endpoints: &[EndpointId],
    ) -> Result<Option<u64>, ControllerError> {
        let trace_t0 = trace::now_ns();
        let mut next = self.last_paths.clone();
        let mut withdrew = false;
        for ep in endpoints {
            withdrew |= next.remove(ep).is_some();
        }
        if !withdrew {
            return Ok(None);
        }
        let outcome = self.publish_paths(next, false, false, trace_t0)?;
        Ok(Some(outcome.version))
    }

    /// Silently forgets the given endpoints: they leave the diff base
    /// and the dirty set with **no withdrawal published** — ownership
    /// transfer during a partition split, where the new partition's
    /// controller adopts the endpoints' existing database records as
    /// its own diff base.
    pub fn release_endpoints(&mut self, endpoints: &[EndpointId]) {
        for ep in endpoints {
            self.last_paths.remove(ep);
            self.dirty_snapshots.remove(ep);
        }
    }

    /// The snapshot-codec form of one endpoint's path set, addresses
    /// resolved.
    fn to_config(paths: &megate_solvers::EndpointPathSet) -> EndpointConfig {
        EndpointConfig {
            paths: paths
                .iter()
                .map(|(dst, hops)| (Self::endpoint_ip(*dst), hops.clone()))
                .collect(),
        }
    }

    fn solve_and_publish(
        &mut self,
        graph: &Graph,
        demands: &DemandSet,
        force_snapshot: bool,
    ) -> Result<IntervalReport, ControllerError> {
        let started = std::time::Instant::now();
        let _interval_span = megate_obs::span("controller.interval");
        // The solve-to-install clock starts *here*: whatever version
        // this interval ends up publishing is stamped with the moment
        // its solve began (trace::stamp_version_at in publish_paths).
        let trace_t0 = trace::now_ns();
        trace::record(
            trace::Stage::SolveStart,
            self.version + 1,
            demands.demands().len() as u64,
            0,
        );
        let problem = TeProblem {
            graph,
            tunnels: &self.tunnels,
            demands,
        };
        // Warm-vs-cold: topology events (forced snapshots) and a
        // previous interval whose *published* churn blew past the
        // threshold (the diff's churn kept by `publish_paths`) both
        // force a full cold solve; otherwise the engine decides from
        // its own dirty set.
        let force_cold = force_snapshot || self.churn_hint_ppm > self.config.warm_churn_max_ppm;
        let solve_span = megate_obs::span("controller.solve");
        let solved = self.engine.solve(&problem, force_cold);
        let solve_elapsed = started.elapsed();
        drop(solve_span);
        trace::record(
            trace::Stage::SolveEnd,
            self.version + 1,
            demands.demands().len() as u64,
            solve_elapsed.as_nanos() as u64,
        );

        // Classify the fresh solve: a solver error, a missing endpoint
        // assignment or a deadline overrun all disqualify it. The
        // deadline is checked post-hoc (the solver is not preempted);
        // the point is bounding what the *fleet* acts on, not the CPU.
        let fresh = match solved {
            Err(e) => Err(ControllerError::Solve(e)),
            Ok((a, _)) if a.endpoint_assignment.is_none() => {
                Err(ControllerError::MissingAssignment)
            }
            Ok((a, rep)) => match self.config.solve_deadline {
                Some(deadline) if solve_elapsed > deadline => {
                    Err(ControllerError::DeadlineExceeded {
                        elapsed: solve_elapsed,
                        deadline,
                    })
                }
                _ => Ok((a, rep)),
            },
        };

        // Translate the assignment into per-source path sets and diff
        // against the previous interval (the megate-solvers diff step).
        // A disqualified solve with a last-good allocation becomes a
        // **fallback publish**: re-announce the known-good paths (empty
        // diff) with a forced snapshot flush so even badly stale agents
        // converge on state the controller trusts. Without a last-good
        // allocation the error propagates.
        let (allocation, next_paths, fallback, incremental) = match fresh {
            Ok((a, rep)) => {
                let assign = a
                    .endpoint_assignment
                    .as_ref()
                    .ok_or(ControllerError::MissingAssignment)?;
                let next_paths = endpoint_paths(demands, &self.tunnels, assign);
                (a, next_paths, false, Some(rep))
            }
            Err(err) => match self.last_good.clone() {
                Some(last) => {
                    // The published allocation diverges from whatever
                    // the engine retained; a stale basis or carried
                    // assignment must never warm-start against the
                    // wrong baseline.
                    self.engine.invalidate();
                    megate_obs::counter("controller.fallback_publishes").inc();
                    trace::record(trace::Stage::FallbackPublish, self.version + 1, 0, 0);
                    (last, self.last_paths.clone(), true, None)
                }
                None => {
                    self.engine.invalidate();
                    return Err(err);
                }
            },
        };

        let outcome = match self.publish_paths(next_paths, force_snapshot, fallback, trace_t0) {
            Ok(o) => o,
            Err(e) => {
                // Nothing was published (encode errors abort before any
                // write), so the engine's fresh state is unannounced —
                // discard it rather than warm-start from it later.
                self.engine.invalidate();
                return Err(e);
            }
        };

        // A cold solve (or an invalidated engine) absorbed whatever
        // churn the publish diff just observed — including the trivial
        // 100 % churn of a cold start — so it says nothing about
        // upcoming drift. Only churn published *by a warm interval*
        // argues for forcing the next solve cold.
        if incremental.as_ref().is_none_or(|r| r.cold) {
            self.churn_hint_ppm = 0;
        }

        if !fallback {
            self.last_good = Some(allocation.clone());
        }
        Ok(IntervalReport {
            version: outcome.version,
            configured_endpoints: outcome.configured,
            changed_endpoints: outcome.changed,
            removed_endpoints: outcome.removed,
            unchanged_endpoints: outcome.unchanged,
            snapshot_flush: outcome.snapshot_flush,
            published_bytes: outcome.published_bytes,
            fallback,
            publish_errors: outcome.publish_errors,
            allocation,
            total_time: started.elapsed(),
            incremental,
        })
    }

    /// Grants newly arrived flows provisional allocations **between**
    /// solves (no LP, no FastSSP): each arrival is first-fit onto the
    /// first of its pair's tunnels with enough residual headroom under
    /// the currently published allocation, and the grants go out as
    /// ordinary deltas at a bumped version. Rejected arrivals stay on
    /// ECMP until the next full solve; an interval whose demand matrix
    /// includes the arrivals re-solves them properly (the engine sees
    /// the shape change and goes cold).
    ///
    /// Errors with [`ControllerError::MissingAssignment`] when no
    /// allocation has been published yet (there is no headroom to
    /// grant from).
    pub fn admit_demands(
        &mut self,
        arrivals: &DemandSet,
    ) -> Result<AdmissionReport, ControllerError> {
        let Some(last) = &mut self.last_good else {
            return Err(ControllerError::MissingAssignment);
        };
        let _span = megate_obs::span("controller.admit");
        // Admission grants are "solved" the moment the pass starts, so
        // their version's propagation clock starts here.
        let trace_t0 = trace::now_ns();
        // Residual headroom under the published allocation.
        let mut loads = vec![0.0f64; self.graph.link_count()];
        for t in self.tunnels.all_tunnels() {
            let f = last.tunnel_flow_mbps[t.id.index()];
            if f > 0.0 {
                for &e in &t.links {
                    loads[e.index()] += f;
                }
            }
        }
        let caps: Vec<f64> = (0..self.graph.link_count())
            .map(|e| self.graph.link(megate_topo::LinkId(e as u32)).capacity_mbps)
            .collect();

        let mut next_paths = self.last_paths.clone();
        let mut admitted = 0usize;
        let mut rejected = 0usize;
        for pair in arrivals.pairs() {
            let tunnels = self.tunnels.tunnels_for(pair);
            for &i in arrivals.indices_for(pair) {
                let d = &arrivals.demands()[i];
                let fit = tunnels.iter().copied().find(|&t| {
                    self.tunnels
                        .tunnel(t)
                        .links
                        .iter()
                        .all(|&e| loads[e.index()] + d.demand_mbps <= caps[e.index()] + 1e-9)
                });
                let Some(t) = fit else {
                    rejected += 1;
                    continue;
                };
                let tun = self.tunnels.tunnel(t);
                for &e in &tun.links {
                    loads[e.index()] += d.demand_mbps;
                }
                // The provisional grant becomes part of the published
                // allocation, so later admissions (and fallback
                // publishes) account for it.
                last.tunnel_flow_mbps[t.index()] += d.demand_mbps;
                let hops: Vec<u32> = tun.sites.iter().skip(1).map(|s| s.0).collect();
                next_paths.entry(d.src).or_default().insert(d.dst, hops);
                admitted += 1;
            }
        }
        megate_obs::counter("controller.admitted_flows").add(admitted as u64);
        megate_obs::counter("controller.rejected_admissions").add(rejected as u64);

        let outcome = self.publish_paths(next_paths, false, false, trace_t0)?;
        Ok(AdmissionReport {
            version: outcome.version,
            admitted,
            rejected,
            changed_endpoints: outcome.changed,
            published_bytes: outcome.published_bytes,
        })
    }

    /// Diffs `next_paths` against the published state and commits the
    /// encode → publish → GC → version-bump tail of an interval (also
    /// used by the admission path). Encode errors abort before any
    /// database write. `trace_t0` is the [`trace::now_ns`] timestamp
    /// the decision behind this publish started at (solve start /
    /// admission start) — it becomes the published version's
    /// solve-to-install epoch via [`trace::stamp_version_at`].
    fn publish_paths(
        &mut self,
        next_paths: AllocationPaths,
        force_snapshot: bool,
        fallback: bool,
        trace_t0: u64,
    ) -> Result<PublishOutcome, ControllerError> {
        let diff_span = megate_obs::span("controller.diff");
        let diff = diff_endpoint_paths(&self.last_paths, &next_paths);
        // The fleet-visible churn steering the *next* interval's
        // warm/cold decision — the same value the diff publishes as
        // `solver.diff_churn_ppm`.
        self.churn_hint_ppm = (diff.churn_ratio() * 1e6) as i64;
        drop(diff_span);
        let version = self.version + 1;
        let empty = EndpointConfig::default();

        // Encode everything before touching the database, so an encode
        // failure (e.g. a >255-hop tunnel) publishes nothing at all.
        let encode_span = megate_obs::span("controller.encode");
        let mut deltas: Vec<(u64, Vec<u8>)> =
            Vec::with_capacity(diff.changed.len() + diff.removed.len());
        for ep in diff.changed.iter().chain(&diff.removed) {
            let prev = self
                .last_paths
                .get(ep)
                .map(Self::to_config)
                .unwrap_or_default();
            let next = next_paths.get(ep).map(Self::to_config).unwrap_or_default();
            deltas.push((ep.0, encode_delta(&diff_configs(&prev, &next))?));
        }
        let flush_snapshots = force_snapshot
            || fallback
            || self.heal_flush
            || version.is_multiple_of(self.config.snapshot_every);
        let mut snapshots: Vec<(u64, Vec<u8>)> = Vec::new();
        if flush_snapshots {
            // Catch up every endpoint that changed since its last
            // flush, including the ones changing right now.
            let dirty = self
                .dirty_snapshots
                .iter()
                .chain(diff.changed.iter())
                .chain(diff.removed.iter());
            for ep in dirty.collect::<BTreeSet<_>>() {
                let cfg = next_paths.get(ep).map(Self::to_config);
                let body = encode_paths(cfg.as_ref().unwrap_or(&empty))?;
                let mut value = Vec::with_capacity(8 + body.len());
                value.extend_from_slice(&version.to_be_bytes());
                value.extend_from_slice(&body);
                snapshots.push((ep.0, value));
            }
        }
        drop(encode_span);
        trace::record(
            trace::Stage::Encode,
            version,
            diff.changed.len() as u64,
            (deltas.len() + snapshots.len()) as u64,
        );

        // Garbage-collect deltas and changelog entries that fell out of
        // the retention window (the old `published_keys` list grew
        // without bound; the ring is capped by construction). None of
        // them is at `version` or newer, so collecting before this
        // version's writes leaves the same records as collecting after.
        let gc_span = megate_obs::span("controller.gc");
        let floor = version.saturating_sub(self.config.retention_versions);
        let mut expired: Vec<u64> = Vec::new();
        while self.delta_ring.front().is_some_and(|(v, _)| *v <= floor) {
            let Some((_, endpoints)) = self.delta_ring.pop_front() else {
                break;
            };
            expired.extend(endpoints.iter().map(|ep| ep.0));
        }
        let reclaimed = self.db.gc_before(floor, &expired) as u64;
        megate_obs::counter("controller.gc_reclaimed").add(reclaimed);
        drop(gc_span);

        // Commit as one batch: entries first, version record last (§3.2
        // ordering). The obs counters mirror `published_bytes` (deltas
        // and snapshots tallied separately — the paper's Figure 14
        // split); they never feed back into the report's accounting.
        // Each delta also appends its version to the endpoint's
        // changelog, amortized at 12 + 8 bytes.
        let publish_span = megate_obs::span("controller.publish");
        let delta_bytes: u64 = deltas.iter().map(|(_, b)| b.len() as u64 + 12 + 8).sum();
        let snapshot_bytes: u64 = snapshots.iter().map(|(_, v)| v.len() as u64).sum();
        let touched: Vec<EndpointId> = deltas.iter().map(|(ep, _)| EndpointId(*ep)).collect();
        let written = self
            .db
            .write_batch(self.config.partition, version, deltas, snapshots);
        // A write that reaches no replica is counted, the endpoint
        // stays dirty, and the next snapshot flush catches its agents
        // up.
        let publish_errors = written.failed_deltas.len() + written.failed_snapshots.len();
        if flush_snapshots {
            // This flush wrote every dirty snapshot; one that reached
            // no replica leaves its endpoint dirty for the next flush.
            self.dirty_snapshots.clear();
            self.dirty_snapshots
                .extend(written.failed_snapshots.into_iter().map(EndpointId));
        } else {
            self.dirty_snapshots.extend(touched.iter().copied());
        }
        if !touched.is_empty() {
            self.delta_ring.push_back((version, touched));
        }
        megate_obs::counter("controller.delta_bytes").add(delta_bytes);
        megate_obs::counter("controller.snapshot_bytes").add(snapshot_bytes);
        megate_obs::counter("controller.publish_errors").add(publish_errors as u64);
        // Any failed write this interval may have torn a delta from its
        // changelog entry; flush the dirty endpoints' snapshots next
        // interval (and keep flushing until the writes go through).
        self.heal_flush = publish_errors > 0;
        drop(publish_span);
        let published_bytes = delta_bytes + snapshot_bytes + 8;
        self.version = version;
        trace::record(
            trace::Stage::Publish,
            version,
            diff.changed.len() as u64,
            published_bytes,
        );
        // Stamp the version's solve-start epoch *after* the version
        // record is live: agents measure their install latency against
        // it, and a stamp for an unpublished version would be dead.
        trace::stamp_version_at(version, trace_t0);

        // Verify the catalog covers every configured endpoint (debug
        // builds): a config for an unknown endpoint is a planning bug.
        debug_assert!(next_paths.keys().all(|ep| ep.index() < self.catalog.len()));

        let outcome = PublishOutcome {
            version,
            configured: next_paths.len(),
            changed: diff.changed.len(),
            removed: diff.removed.len(),
            unchanged: diff.unchanged.len(),
            snapshot_flush: flush_snapshots,
            published_bytes,
            publish_errors,
        };
        self.last_paths = next_paths;
        Ok(outcome)
    }
}

/// What [`Controller::publish_paths`] committed: the bumped version and
/// the interval's publication accounting, scheme-agnostic so both the
/// solve path and the admission path can assemble their reports from
/// it.
struct PublishOutcome {
    version: u64,
    configured: usize,
    changed: usize,
    removed: usize,
    unchanged: usize,
    snapshot_flush: bool,
    published_bytes: u64,
    publish_errors: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{decode_delta, decode_paths};
    use megate_topo::{b4, WeibullEndpoints};
    use megate_traffic::TrafficConfig;

    fn fixture() -> (Controller, DemandSet) {
        fixture_with(ControllerConfig {
            qos_sequential: true,
            ..Default::default()
        })
    }

    fn fixture_with(config: ControllerConfig) -> (Controller, DemandSet) {
        let g = b4();
        let tunnels = TunnelTable::for_all_pairs(&g, 3);
        let catalog = EndpointCatalog::generate(&g, 240, WeibullEndpoints::with_scale(20.0), 7);
        let mut demands = DemandSet::generate(
            &g,
            &catalog,
            &TrafficConfig {
                endpoint_pairs: 150,
                site_pairs: 20,
                ..Default::default()
            },
        );
        demands.scale_to_load(&g, 0.5);
        let db = TeDatabase::new(2);
        let ctl = Controller::new(g, tunnels, catalog, db, config);
        (ctl, demands)
    }

    #[test]
    fn endpoint_addressing_is_injective() {
        let mut seen = std::collections::HashSet::new();
        for id in [0u64, 1, 255, 256, 65_535, 65_536, 1_000_000] {
            assert!(seen.insert(Controller::endpoint_ip(EndpointId(id))));
        }
    }

    #[test]
    fn run_interval_publishes_decodable_deltas() {
        let (mut ctl, demands) = fixture();
        let db = ctl.db.clone();
        let report = ctl.run_interval(&demands).unwrap();
        assert_eq!(report.version, 1);
        assert!(report.configured_endpoints > 0);
        // Cold start: everything is new, nothing unchanged.
        assert_eq!(report.changed_endpoints, report.configured_endpoints);
        assert_eq!(report.unchanged_endpoints, 0);
        assert_eq!(db.latest_version(), Some(1));

        // Every configured endpoint's delta must decode and every hop
        // path must terminate at the destination's site... spot check
        // the first configured endpoint.
        let assign = report.allocation.endpoint_assignment.as_ref().unwrap();
        let i = assign.iter().position(|c| c.is_some()).unwrap();
        let d = &demands.demands()[i];
        let log = db.changelog(d.src.0).expect("changelog present");
        assert_eq!(log.versions, vec![1]);
        let raw = db
            .fetch(&TeKey::Delta {
                endpoint: d.src.0,
                version: 1,
            })
            .expect("delta present");
        let delta = decode_delta(&raw).expect("decodable");
        assert!(delta.removed.is_empty(), "nothing to remove at v1");
        assert!(delta
            .changed
            .iter()
            .any(|(dst, _)| *dst == Controller::endpoint_ip(d.dst)));
    }

    #[test]
    fn steady_state_interval_publishes_no_deltas() {
        let (mut ctl, demands) = fixture();
        let db = ctl.db.clone();
        let r1 = ctl.run_interval(&demands).unwrap();
        assert!(r1.changed_endpoints > 0);
        let r2 = ctl.run_interval(&demands).unwrap();
        assert_eq!(r2.version, 2);
        assert_eq!(r2.changed_endpoints, 0, "same demands, same allocation");
        assert_eq!(r2.removed_endpoints, 0);
        assert_eq!(r2.unchanged_endpoints, r1.configured_endpoints);
        assert!(
            r2.published_bytes <= 16,
            "steady state publishes only the version record: {}",
            r2.published_bytes
        );
        assert_eq!(db.latest_version(), Some(2));
    }

    #[test]
    fn snapshot_cadence_flushes_then_gc_reclaims_old_deltas() {
        let (mut ctl, demands) = fixture_with(ControllerConfig {
            qos_sequential: true,
            snapshot_every: 2,
            retention_versions: 3,
            ..Default::default()
        });
        let db = ctl.db.clone();
        let r1 = ctl.run_interval(&demands).unwrap();
        assert!(!r1.snapshot_flush, "v1 is not on the cadence");
        let r2 = ctl.run_interval(&demands).unwrap();
        assert!(r2.snapshot_flush, "v2 flushes the dirty endpoints");

        // Pick a configured endpoint and verify its snapshot.
        let assign = r1.allocation.endpoint_assignment.as_ref().unwrap();
        let i = assign.iter().position(|c| c.is_some()).unwrap();
        let ep = demands.demands()[i].src;
        let snap = db
            .fetch(&TeKey::Snapshot { endpoint: ep.0 })
            .expect("snapshot");
        let stamp = u64::from_be_bytes(snap[..8].try_into().unwrap());
        assert_eq!(stamp, 2);
        let cfg = decode_paths(&snap[8..]).expect("snapshot decodes");
        assert!(!cfg.paths.is_empty());

        // v1 deltas survive until the retention floor passes them...
        assert!(db
            .fetch(&TeKey::Delta {
                endpoint: ep.0,
                version: 1
            })
            .is_some());
        for _ in 0..3 {
            ctl.run_interval(&demands).unwrap(); // v3..v5, no changes
        }
        assert_eq!(ctl.version(), 5);
        // The retention floor passed v1 (at v4, floor = 1): the delta
        // is gone and the changelog watermark rose to that floor.
        assert!(db
            .fetch(&TeKey::Delta {
                endpoint: ep.0,
                version: 1
            })
            .is_none());
        let log = db.changelog(ep.0).unwrap();
        assert!(log.versions.is_empty());
        assert_eq!(log.complete_since, 1);
    }

    #[test]
    fn oversized_hop_list_surfaces_as_controller_error() {
        // A pathological >255-hop path must turn into a typed error —
        // the `?` sites in `solve_and_publish` propagate exactly this —
        // never a panic, and never a partially published version.
        let bad = EndpointConfig {
            paths: vec![([10, 0, 0, 1], vec![0; 300])],
        };
        let err = encode_paths(&bad).unwrap_err();
        assert!(matches!(err, ConfigError::HopListTooLong { hops: 300, .. }));
        let ctl_err = ControllerError::from(err.clone());
        assert_eq!(ctl_err, ControllerError::Config(err));
        assert!(ctl_err.to_string().contains("config encoding failed"));

        // Same limit enforced on the delta codec.
        let delta = diff_configs(&EndpointConfig::default(), &bad);
        assert!(matches!(
            encode_delta(&delta),
            Err(ConfigError::HopListTooLong { .. })
        ));
    }

    #[test]
    fn delta_ring_and_dirty_set_stay_bounded() {
        let (mut ctl, demands) = fixture_with(ControllerConfig {
            qos_sequential: true,
            snapshot_every: 2,
            retention_versions: 4,
            ..Default::default()
        });
        for _ in 0..20 {
            ctl.run_interval(&demands).unwrap();
        }
        assert!(
            ctl.delta_ring.len() <= 4,
            "retention ring must stay within the window: {}",
            ctl.delta_ring.len()
        );
        assert!(
            ctl.dirty_snapshots.is_empty(),
            "cadence flushes clear the dirty set"
        );
    }

    #[test]
    fn failure_recompute_avoids_failed_links_and_flushes_snapshots() {
        let (mut ctl, demands) = fixture();
        ctl.run_interval(&demands).unwrap();
        let scenario = FailureScenario::sample_connected(ctl.graph(), 2, 5).expect("scenario");
        let report = ctl.handle_failure(&demands, &scenario).unwrap();
        assert!(report.snapshot_flush, "failure events force snapshots");
        // No allocated tunnel may cross a failed link.
        for t in ctl.tunnels().all_tunnels() {
            if report.allocation.tunnel_flow_mbps[t.id.index()] > 0.0 {
                for &l in &t.links {
                    assert!(!scenario.contains(l), "flow on failed link {l}");
                }
            }
        }
    }

    #[test]
    fn missed_deadline_without_last_good_is_an_error() {
        let (mut ctl, demands) = fixture_with(ControllerConfig {
            qos_sequential: true,
            solve_deadline: Some(Duration::ZERO), // every solve overruns
            ..Default::default()
        });
        let err = ctl.run_interval(&demands).unwrap_err();
        assert!(
            matches!(err, ControllerError::DeadlineExceeded { .. }),
            "got {err:?}"
        );
        assert_eq!(ctl.version(), 0, "nothing published");
    }

    #[test]
    fn missed_deadline_falls_back_to_last_good_allocation() {
        let (mut ctl, demands) = fixture();
        let db = ctl.db.clone();
        let r1 = ctl.run_interval(&demands).unwrap();
        assert!(!r1.fallback);

        // From now on every solve "overruns": the controller must keep
        // publishing the last-good allocation rather than going dark.
        ctl.config.solve_deadline = Some(Duration::ZERO);
        let before = megate_obs::counter("controller.fallback_publishes").get();
        let r2 = ctl.run_interval(&demands).unwrap();
        assert!(r2.fallback, "deadline overrun with last-good → fallback");
        assert_eq!(r2.version, 2, "fallback still advances the version");
        assert!(r2.snapshot_flush, "fallback forces a snapshot flush");
        assert_eq!(r2.changed_endpoints, 0, "re-announcing known paths");
        assert_eq!(db.latest_version(), Some(2));
        assert_eq!(
            megate_obs::counter("controller.fallback_publishes").get(),
            before + 1
        );
        // The fallback's allocation is the last good one.
        assert_eq!(
            r2.allocation.tunnel_flow_mbps,
            r1.allocation.tunnel_flow_mbps
        );
    }

    #[test]
    fn publish_errors_are_counted_and_endpoints_stay_dirty() {
        let (mut ctl, demands) = fixture();
        let db = ctl.db.clone();
        let r1 = ctl.run_interval(&demands).unwrap();
        assert_eq!(r1.publish_errors, 0);
        assert!(!ctl.dirty_snapshots.is_empty(), "v1 changes await a flush");

        // Total database outage during a forced snapshot flush: every
        // write is lost, but the controller records it and keeps the
        // endpoints dirty instead of believing the flush happened.
        for s in 0..db.shard_count() {
            db.set_shard_down(s, true);
        }
        let scenario = FailureScenario::sample_connected(ctl.graph(), 1, 3).expect("scenario");
        let r2 = ctl.handle_failure(&demands, &scenario).unwrap();
        assert!(r2.snapshot_flush);
        assert!(r2.publish_errors > 0, "lost writes must be observed");
        assert!(
            !ctl.dirty_snapshots.is_empty(),
            "failed snapshots stay dirty for the next flush"
        );
        for s in 0..db.shard_count() {
            db.set_shard_down(s, false);
        }
    }

    #[test]
    fn a_dark_shard_fails_exactly_its_endpoints_and_the_next_flush_heals_them() {
        let (mut ctl, demands) = fixture_with(ControllerConfig {
            snapshot_every: 1,
            ..Default::default()
        });
        // Three shards, two replicas each: with shards `dark` and its
        // successor down, every replica of the keys whose primary is
        // `dark` is unreachable, and every other key keeps one.
        let db = TeDatabase::with_replication(3, 2);
        ctl.db = db.clone();
        let dark = (db.shard_of(&TeKey::Version { partition: 0 }) + 1) % 3;
        db.set_shard_down(dark, true);
        db.set_shard_down((dark + 1) % 3, true);
        let on_dark = |key: TeKey| db.shard_of(&key) == dark;

        let r1 = ctl.run_interval(&demands).unwrap();
        assert!(r1.snapshot_flush);
        let endpoints: Vec<EndpointId> = ctl.published_paths().keys().copied().collect();
        assert_eq!(
            r1.changed_endpoints,
            endpoints.len(),
            "cold: every endpoint changed"
        );
        let lost_deltas = endpoints
            .iter()
            .filter(|ep| {
                on_dark(TeKey::Delta {
                    endpoint: ep.0,
                    version: 1,
                }) || on_dark(TeKey::Changelog { endpoint: ep.0 })
            })
            .count();
        let lost_snapshots: BTreeSet<EndpointId> = endpoints
            .iter()
            .copied()
            .filter(|ep| on_dark(TeKey::Snapshot { endpoint: ep.0 }))
            .collect();
        assert!(lost_deltas > 0 && !lost_snapshots.is_empty());
        assert!(
            lost_snapshots.len() < endpoints.len(),
            "other shards took writes"
        );
        assert_eq!(r1.publish_errors, lost_deltas + lost_snapshots.len());
        assert_eq!(
            ctl.dirty_snapshots, lost_snapshots,
            "exactly the endpoints whose snapshot was lost stay dirty"
        );
        assert!(ctl.heal_flush);

        db.set_shard_down(dark, false);
        db.set_shard_down((dark + 1) % 3, false);
        let r2 = ctl.run_interval(&demands).unwrap();
        assert_eq!(r2.publish_errors, 0);
        assert!(ctl.dirty_snapshots.is_empty());
        assert!(!ctl.heal_flush);
        for ep in &lost_snapshots {
            let value = db
                .fetch(&TeKey::Snapshot { endpoint: ep.0 })
                .expect("healed snapshot");
            assert_eq!(value[..8], r2.version.to_be_bytes(), "endpoint {ep:?}");
            assert!(decode_paths(&value[8..]).is_some());
        }
    }

    #[test]
    fn steady_state_intervals_warm_solve_with_zero_dirty_pairs() {
        let (mut ctl, demands) = fixture();
        let r1 = ctl.run_interval(&demands).unwrap();
        let inc1 = r1
            .incremental
            .clone()
            .expect("fresh solve reports engine activity");
        assert!(inc1.cold, "first interval has no warm state");
        let r2 = ctl.run_interval(&demands).unwrap();
        let inc2 = r2.incremental.clone().unwrap();
        assert!(!inc2.cold, "unchanged demands must warm-solve");
        assert_eq!(inc2.dirty_pairs, 0);
        assert!(inc2.carried_endpoints > 0);
        assert_eq!(
            r2.allocation.tunnel_flow_mbps, r1.allocation.tunnel_flow_mbps,
            "zero churn carries the allocation forward verbatim"
        );
    }

    #[test]
    fn fallback_discards_warm_state_so_next_interval_is_cold() {
        let (mut ctl, demands) = fixture();
        ctl.run_interval(&demands).unwrap();
        let warm = ctl.run_interval(&demands).unwrap();
        assert!(!warm.incremental.unwrap().cold, "steady state warm-solves");

        ctl.config.solve_deadline = Some(Duration::ZERO);
        let fb = ctl.run_interval(&demands).unwrap();
        assert!(fb.fallback);
        assert!(
            fb.incremental.is_none(),
            "fallback publishes the last-good allocation, not the engine's"
        );

        ctl.config.solve_deadline = None;
        let after = ctl.run_interval(&demands).unwrap();
        assert!(
            after.incremental.unwrap().cold,
            "the stale basis was discarded: the post-fallback solve is cold"
        );
    }

    #[test]
    fn admission_grants_provisional_paths_from_residual_headroom() {
        use megate_traffic::{EndpointDemand, QosClass};
        let (mut ctl, demands) = fixture();
        assert!(
            matches!(
                ctl.admit_demands(&demands),
                Err(ControllerError::MissingAssignment)
            ),
            "admission needs a published allocation to grant headroom from"
        );
        let r1 = ctl.run_interval(&demands).unwrap();

        // A new small flow between endpoints of an already-planned site
        // pair, from a source endpoint with no configuration yet.
        let d0 = &demands.demands()[0];
        let pair =
            megate_topo::SitePair::new(ctl.catalog.site_of(d0.src), ctl.catalog.site_of(d0.dst));
        let fresh_src = (0..ctl.catalog.len() as u64)
            .map(EndpointId)
            .find(|ep| ctl.catalog.site_of(*ep) == pair.src && !ctl.last_paths.contains_key(ep))
            .expect("an unconfigured endpoint on the source site");
        let mut arrivals = DemandSet::default();
        arrivals.push(
            pair,
            EndpointDemand {
                src: fresh_src,
                dst: d0.dst,
                demand_mbps: 0.01,
                qos: QosClass::Class2,
            },
        );
        // And one hopeless flow no link can hold: rejected, stays ECMP.
        arrivals.push(
            pair,
            EndpointDemand {
                src: fresh_src,
                dst: d0.dst,
                demand_mbps: 1e15,
                qos: QosClass::Class3,
            },
        );

        let rep = ctl.admit_demands(&arrivals).unwrap();
        assert_eq!(rep.admitted, 1);
        assert_eq!(rep.rejected, 1);
        assert_eq!(rep.version, r1.version + 1);
        assert!(rep.changed_endpoints >= 1, "the new source got a delta");
        assert!(rep.published_bytes > 8, "more than the version record");
        assert_eq!(ctl.db.latest_version(), Some(rep.version));
        assert!(
            ctl.last_paths.contains_key(&fresh_src),
            "the provisional grant is part of published state"
        );

        // The control loop keeps running over the admission.
        ctl.run_interval(&demands).unwrap();
    }

    #[test]
    fn partitioned_controller_publishes_its_own_version_clock() {
        let (mut ctl, demands) = fixture_with(ControllerConfig {
            qos_sequential: true,
            partition: 3,
            ..Default::default()
        });
        let db = ctl.db.clone();
        let r = ctl.run_interval(&demands).unwrap();
        assert_eq!(ctl.partition(), 3);
        assert_eq!(db.latest_partition_version_checked(3), Ok(Some(r.version)));
        assert_eq!(
            db.latest_version(),
            None,
            "partition 3 must not touch partition 0's clock"
        );
    }

    #[test]
    fn capacity_overrides_bound_the_solve() {
        let (mut ctl, demands) = fixture();
        // Starve every link: the plan must fit in (almost) nothing, so
        // total allocated tunnel flow collapses versus the full graph.
        let full = ctl.run_interval(&demands).unwrap();
        let full_flow: f64 = full.allocation.tunnel_flow_mbps.iter().sum();
        let caps = vec![1e-6; ctl.graph().link_count()];
        let starved = ctl.run_interval_with_capacities(&demands, &caps).unwrap();
        let starved_flow: f64 = starved.allocation.tunnel_flow_mbps.iter().sum();
        assert!(
            starved_flow < full_flow * 0.01,
            "starved caps must strangle the allocation: {starved_flow} vs {full_flow}"
        );
    }

    #[test]
    fn restart_recovers_warm_state_from_the_database() {
        let (mut ctl, demands) = fixture_with(ControllerConfig {
            qos_sequential: true,
            snapshot_every: 2, // get snapshots + deltas into the store
            ..Default::default()
        });
        let db = ctl.db.clone();
        for _ in 0..3 {
            ctl.run_interval(&demands).unwrap();
        }
        let published = ctl.last_paths.clone();
        let endpoints: Vec<EndpointId> = (0..ctl.catalog.len() as u64).map(EndpointId).collect();

        // "Restart": a brand-new controller over the same database.
        let (mut fresh, _) = fixture_with(ControllerConfig {
            qos_sequential: true,
            snapshot_every: 2,
            ..Default::default()
        });
        fresh.db = db;
        let rep = fresh.recover_from_db(&endpoints).unwrap();
        assert!(rep.warm, "healthy database → warm rebuild");
        assert_eq!(rep.version, 3);
        assert_eq!(fresh.version(), 3);
        assert_eq!(
            fresh.last_paths, published,
            "the rebuilt diff base matches what was published"
        );
        assert!(!fresh.has_warm_state(), "the solve engine restarts cold");

        // The next interval continues the version sequence and, with
        // unchanged demands, re-announces nothing.
        let r4 = fresh.run_interval(&demands).unwrap();
        assert_eq!(r4.version, 4);
        assert_eq!(r4.changed_endpoints, 0, "recovered base diffs clean");
    }

    #[test]
    fn restart_with_unreadable_records_goes_cold() {
        let (mut ctl, demands) = fixture();
        let db = ctl.db.clone();
        ctl.run_interval(&demands).unwrap();
        let endpoints: Vec<EndpointId> = (0..ctl.catalog.len() as u64).map(EndpointId).collect();

        // Corrupt one endpoint's snapshot record in place (shorter than
        // the 8-byte stamp): rebuild must refuse it and go cold.
        let victim = ctl.last_paths.keys().next().copied().unwrap();
        db.put(&TeKey::Snapshot { endpoint: victim.0 }, vec![1, 2, 3]);

        let (mut fresh, _) = fixture();
        fresh.db = db.clone();
        let rep = fresh.recover_from_db(&endpoints).unwrap();
        assert!(!rep.warm, "torn snapshot → cold restart");
        assert_eq!(rep.version, 1, "the version clock is still adopted");
        assert!(fresh.last_paths.is_empty());
        assert!(fresh.heal_flush, "first post-restart publish flushes");
        let r2 = fresh.run_interval(&demands).unwrap();
        assert_eq!(r2.version, 2);
        assert!(r2.snapshot_flush, "cold restart catches the fleet up");

        // And with the version record unreachable, recovery refuses
        // entirely — the controller must not rejoin blind.
        for s in 0..db.shard_count() {
            db.set_shard_down(s, true);
        }
        let (mut blind, _) = fixture();
        blind.db = db.clone();
        assert!(blind.recover_from_db(&endpoints).is_err());
        for s in 0..db.shard_count() {
            db.set_shard_down(s, false);
        }
    }

    #[test]
    fn withdraw_publishes_removals_and_release_is_silent() {
        let (mut ctl, demands) = fixture();
        let db = ctl.db.clone();
        let r1 = ctl.run_interval(&demands).unwrap();
        let victims: Vec<EndpointId> = ctl.last_paths.keys().take(2).copied().collect();

        let v = ctl.withdraw_endpoints(&victims).unwrap();
        assert_eq!(v, Some(r1.version + 1));
        for ep in &victims {
            assert!(!ctl.last_paths.contains_key(ep));
            // The withdrawal went out as a delta at the new version.
            assert!(db
                .fetch(&TeKey::Delta {
                    endpoint: ep.0,
                    version: r1.version + 1,
                })
                .is_some());
        }
        // Withdrawing endpoints with no state burns no version.
        assert_eq!(ctl.withdraw_endpoints(&victims).unwrap(), None);
        assert_eq!(ctl.version(), r1.version + 1);

        // Release: forgotten without any publication.
        let released: Vec<EndpointId> = ctl.last_paths.keys().take(2).copied().collect();
        let version_before = ctl.version();
        ctl.release_endpoints(&released);
        assert_eq!(ctl.version(), version_before, "release publishes nothing");
        for ep in &released {
            assert!(!ctl.last_paths.contains_key(ep));
        }
    }

    #[test]
    fn failure_recompute_is_fast() {
        let (mut ctl, demands) = fixture();
        ctl.run_interval(&demands).unwrap();
        let scenario = FailureScenario::sample_connected(ctl.graph(), 2, 9).unwrap();
        let report = ctl.handle_failure(&demands, &scenario).unwrap();
        // B4-scale recompute must be well under a second (§6.3).
        assert!(report.total_time.as_secs_f64() < 1.0);
    }
}
