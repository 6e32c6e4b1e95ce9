//! The control loop under test, wired from the real parts: the real
//! [`Controller`] publishing into a replicated [`TeDatabase`], the real
//! `megate-net` [`Server`] on loopback TCP, one async [`Agent`] per
//! source endpoint and one [`SimKernel`] + [`EndpointAgent`] per host.
//!
//! All load is closed-loop: at most [`MAX_IN_FLIGHT`] pulls are in
//! flight, and a runner starts an agent's pull only when its previous
//! agent's config is installed.

use crate::instance::Instance;
use crate::spans::{Recorder, SpanId};
use megate::config::EndpointConfig;
use megate::resilience::PullPolicy;
use megate::{Controller, ControllerConfig};
use megate_hoststack::kernel::Pid;
use megate_hoststack::{EndpointAgent, InstanceId, SimKernel};
use megate_net::agent::Agent;
use megate_net::server::{Server, ServerState};
use megate_net::{Endpoint, Executor, NetClient};
use megate_packet::{FiveTuple, Proto};
use megate_solvers::AllocationPaths;
use megate_tedb::TeDatabase;
use megate_topo::EndpointId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Instances (source endpoints) per simulated host.
pub const INSTANCES_PER_HOST: usize = 64;
/// Closed-loop bound on concurrent pulls.
pub const MAX_IN_FLIGHT: usize = 2048;
/// TE-DB layout: shards × replication, as the service figure uses.
pub const DB_SHARDS: usize = 8;
pub const DB_REPLICATION: usize = 2;
/// One agent in this many gets its own pull/install span when traced.
const SPAN_SAMPLE: usize = 256;

/// Executor workers = connection-pool size: `min(nproc, 4)`.
pub fn io_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// The controller configuration of every interval under test.
pub fn controller_config() -> ControllerConfig {
    ControllerConfig {
        qos_sequential: true,
        ..Default::default()
    }
}

struct Host {
    kernel: SimKernel,
    agent: Mutex<EndpointAgent>,
}

struct Fleet {
    /// Source endpoints, ascending; agent `i` serves `endpoints[i]` and
    /// lives on host `i / INSTANCES_PER_HOST`.
    endpoints: Vec<u64>,
    agents: Vec<Mutex<Option<Agent>>>,
    hosts: Vec<Host>,
}

/// What one fleet-wide pull round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub wall_s: f64,
    /// Per agent: pull start → config installed, ns.
    pub latency_ns: Vec<u64>,
    /// Per install: the `install_snapshot` call alone, ns (traced runs).
    pub install_ns: Vec<u64>,
    pub pulls: usize,
    pub refreshed: usize,
    pub via_snapshot: usize,
    pub retry_attempts: usize,
    pub degraded: usize,
    pub installs: usize,
    /// Sampled agents' pull start, pull end and install end (traced
    /// runs): worker threads cannot borrow the recorder, so the spans
    /// are recorded from these once the round is over.
    sampled: Vec<[Instant; 3]>,
}

impl Round {
    fn absorb(&mut self, part: Round) {
        self.latency_ns.extend(part.latency_ns);
        self.install_ns.extend(part.install_ns);
        self.refreshed += part.refreshed;
        self.via_snapshot += part.via_snapshot;
        self.retry_attempts += part.retry_attempts;
        self.degraded += part.degraded;
        self.installs += part.installs;
        self.sampled.extend(part.sampled);
    }
}

/// A fresh system: controller, database, server, client pool, fleet.
pub struct ControlPlane {
    pub controller: Controller,
    state: Arc<ServerState>,
    local: Endpoint,
    exec: Executor,
    client: Arc<NetClient>,
    fleet: Arc<Fleet>,
    /// Where in the fleet a round's runners start (from `--seed`).
    pull_offset: usize,
}

/// The five-tuple of demand `i` (the `MegaTeSystem` convention).
fn tuple_for_demand(src: EndpointId, dst: EndpointId, i: usize) -> FiveTuple {
    FiveTuple {
        src_ip: Controller::endpoint_ip(src),
        dst_ip: Controller::endpoint_ip(dst),
        proto: Proto::Tcp,
        src_port: 1024 + (i % 60_000) as u16,
        dst_port: 443,
    }
}

/// The snapshot-codec form of one endpoint's published path set.
pub fn published_config(paths: &AllocationPaths, endpoint: u64) -> EndpointConfig {
    EndpointConfig {
        paths: paths
            .get(&EndpointId(endpoint))
            .map(|set| {
                set.iter()
                    .map(|(dst, hops)| (Controller::endpoint_ip(*dst), hops.clone()))
                    .collect()
            })
            .unwrap_or_default(),
    }
}

impl ControlPlane {
    /// Builds and starts a fresh system over `inst` and brings every
    /// source endpoint's instance up on its host. Returns the system
    /// and the seconds the host bring-up alone took.
    pub fn start(inst: &Instance) -> (Self, f64) {
        let db = TeDatabase::with_replication(DB_SHARDS, DB_REPLICATION);
        let controller = Controller::new(
            inst.graph.clone(),
            inst.tunnels.clone(),
            inst.catalog.clone(),
            db.clone(),
            controller_config(),
        );
        let exec = Executor::new(io_threads());
        let state = ServerState::new(db);
        let server = Server::start(
            state.clone(),
            &Endpoint::Tcp("127.0.0.1:0".parse().expect("loopback address")),
            &exec,
        )
        .expect("bind the TE-DB service on loopback");
        let client = NetClient::new(server.local().clone(), io_threads(), exec.clone());

        let t = Instant::now();
        let mut endpoints: Vec<u64> = inst.demands.demands().iter().map(|d| d.src.0).collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        let hosts: Vec<Host> = (0..endpoints.len().div_ceil(INSTANCES_PER_HOST))
            .map(|_| {
                let kernel = SimKernel::new();
                let agent = Mutex::new(EndpointAgent::new(kernel.maps().clone()));
                Host { kernel, agent }
            })
            .collect();
        for (i, d) in inst.demands.demands().iter().enumerate() {
            let slot = endpoints
                .binary_search(&d.src.0)
                .expect("every demand source is a fleet endpoint");
            let kernel = &hosts[slot / INSTANCES_PER_HOST].kernel;
            let pid = Pid(1000 + i as u32);
            kernel
                .spawn_process(InstanceId(d.src.0), pid)
                .expect("env_map holds a host's processes");
            kernel
                .open_connection(pid, tuple_for_demand(d.src, d.dst, i))
                .expect("contk_map holds a host's connections");
        }
        let agents = endpoints
            .iter()
            .map(|&e| Mutex::new(Some(Agent::new(e, 0, PullPolicy::default()))))
            .collect();
        let bring_up_s = t.elapsed().as_secs_f64();

        (
            Self {
                controller,
                state,
                local: server.local().clone(),
                exec,
                client,
                fleet: Arc::new(Fleet {
                    endpoints,
                    agents,
                    hosts,
                }),
                pull_offset: 0,
            },
            bring_up_s,
        )
    }

    /// Rotates the order in which agents pull: rounds start at agent
    /// `seed mod fleet size` and wrap around.
    pub fn set_pull_offset(&mut self, seed: u64) {
        self.pull_offset = (seed % self.fleet.endpoints.len().max(1) as u64) as usize;
    }

    pub fn agents(&self) -> usize {
        self.fleet.endpoints.len()
    }

    pub fn hosts(&self) -> usize {
        self.fleet.hosts.len()
    }

    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    pub fn exec(&self) -> &Executor {
        &self.exec
    }

    pub fn client(&self) -> &Arc<NetClient> {
        &self.client
    }

    /// One sync period for the whole fleet: every agent pulls over the
    /// socket and its config is written into its host's `path_map`.
    /// Returns when the last install is done.
    pub fn pull_round(&self, rec: &Recorder, parent: SpanId, interval: u32) -> Round {
        let n = self.fleet.endpoints.len();
        let runners = n.min(MAX_IN_FLIGHT);
        let cursor = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel::<Round>();
        let traced = rec.enabled();
        let offset = self.pull_offset;

        let start = Instant::now();
        for _ in 0..runners {
            let fleet = self.fleet.clone();
            let client = self.client.clone();
            let cursor = cursor.clone();
            let tx = tx.clone();
            self.exec.spawn(async move {
                let mut out = Round::default();
                loop {
                    let claimed = cursor.fetch_add(1, Ordering::Relaxed);
                    if claimed >= fleet.endpoints.len() {
                        break;
                    }
                    let i = (claimed + offset) % fleet.endpoints.len();
                    let mut agent = fleet.agents[i]
                        .lock()
                        .expect("agent slot poisoned")
                        .take()
                        .expect("an agent is pulled by one runner at a time");
                    let t0 = Instant::now();
                    let report = agent.sync_period_pull(&client).await;
                    let t_pulled = Instant::now();
                    if report.advanced {
                        let instance = InstanceId(agent.endpoint);
                        let installs = agent.config().to_installs(instance);
                        let host = &fleet.hosts[i / INSTANCES_PER_HOST];
                        let t_install = traced.then(Instant::now);
                        host.agent
                            .lock()
                            .expect("host agent poisoned")
                            .install_snapshot(agent.version(), instance, &installs);
                        if let Some(t) = t_install {
                            out.install_ns.push(t.elapsed().as_nanos() as u64);
                        }
                        out.installs += 1;
                    }
                    let t_done = Instant::now();
                    out.latency_ns.push((t_done - t0).as_nanos() as u64);
                    if traced && i.is_multiple_of(SPAN_SAMPLE) {
                        out.sampled.push([t0, t_pulled, t_done]);
                    }
                    out.refreshed += usize::from(report.refreshed);
                    out.via_snapshot += usize::from(report.via_snapshot);
                    out.retry_attempts += report.attempts.saturating_sub(1) as usize;
                    out.degraded += usize::from(report.degraded);
                    *fleet.agents[i].lock().expect("agent slot poisoned") = Some(agent);
                }
                let _ = tx.send(out);
            });
        }
        drop(tx);

        let mut round = Round {
            pulls: n,
            latency_ns: Vec::with_capacity(n),
            ..Default::default()
        };
        for part in rx {
            round.absorb(part);
        }
        round.wall_s = start.elapsed().as_secs_f64();
        for (lane, [t0, t_pulled, t_done]) in
            std::mem::take(&mut round.sampled).into_iter().enumerate()
        {
            let lane = 1 + (lane % 64) as u32;
            rec.add("net.agent_pull", parent, interval, lane, t0, t_pulled);
            rec.add(
                "hoststack.install",
                parent,
                interval,
                lane,
                t_pulled,
                t_done,
            );
        }
        round
    }

    /// The in-run correctness gate for the fleet: every agent holds
    /// exactly the controller's published config for its endpoint at
    /// the published version, its host's `path_map` holds exactly that
    /// for its instance, and nobody is degraded. Returns the number of
    /// agents that violate any of these.
    pub fn verify(&self) -> usize {
        let published = self.controller.published_paths();
        let version = self.controller.version();
        let mut bad = 0usize;
        for (h, host) in self.fleet.hosts.iter().enumerate() {
            let mut installed: BTreeMap<u64, EndpointConfig> = BTreeMap::new();
            for ((instance, dst), hops) in host.kernel.maps().path_map.snapshot() {
                installed
                    .entry(instance.0)
                    .or_default()
                    .paths
                    .push((dst, hops));
            }
            for config in installed.values_mut() {
                config.paths.sort();
            }
            let lo = h * INSTANCES_PER_HOST;
            let hi = (lo + INSTANCES_PER_HOST).min(self.fleet.endpoints.len());
            for i in lo..hi {
                let endpoint = self.fleet.endpoints[i];
                let slot = self.fleet.agents[i].lock().expect("agent slot poisoned");
                let agent = slot.as_ref().expect("no pull is in flight during the gate");
                let want = published_config(published, endpoint);
                let on_host = installed.remove(&endpoint).unwrap_or_default();
                let ok = !agent.is_degraded()
                    && agent.version() == version
                    && *agent.config() == want
                    && on_host == want;
                bad += usize::from(!ok);
            }
            // Paths of an instance no agent on this host serves.
            bad += installed.len();
        }
        bad
    }

    /// Entries across every host's `path_map`.
    pub fn path_map_entries(&self) -> usize {
        self.fleet
            .hosts
            .iter()
            .map(|h| h.kernel.maps().path_map.len())
            .sum()
    }

    /// Stops the service: connections closed, accept loop ended. The
    /// accept task holds an executor handle and only looks at the
    /// shutdown flag when it wakes, so one last connection wakes it;
    /// the workers then wind down as the last handle drops.
    pub fn stop(self) {
        self.client.close();
        self.state.shutdown();
        if let Endpoint::Tcp(addr) = &self.local {
            let _ = std::net::TcpStream::connect(addr);
        }
    }
}
