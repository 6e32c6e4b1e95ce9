//! The endpoint agent as an async task: the socket driver of the §3.2
//! pull path.
//!
//! [`Agent`] holds one endpoint's installed state (version + path
//! config) and runs one pull per 10 s sync period through a shared
//! [`NetClient`]. It decides nothing itself: [`PullLadder`],
//! [`RetryBudget`](megate::resilience::RetryBudget) and
//! [`StalenessClock`] are the sans-IO code in [`megate::resilience`]
//! that the in-process harness drives too; this module turns the
//! ladder's reads into requests and lands its plan in an
//! [`EndpointConfig`]. What a real transport adds:
//!
//! * the budget is charged with **wall-clock time** — injected shard
//!   latency arrives as actual service delay, and transport stalls
//!   (slow-loris) burn budget exactly like slow shards;
//! * every attempt is capped by the budget's remaining time via one
//!   [`timeout`] around its version poll and ladder, so a stalled
//!   response can cost at most the rest of this period's budget, never
//!   block the agent across periods;
//! * each attempt polls the partition's version itself (the in-process
//!   harness polls once per partition for the whole fleet).
//!
//! [`pull_round`] drives a whole fleet through one sync period with the
//! §3.2 query spreading: agent `i` of `n` pulls at `i·spread/n`, and a
//! bounded set of runner tasks claims agents in order.

use crate::client::NetClient;
use crate::exec::Executor;
use crate::frame::{Request, Response};
use crate::reactor::{timeout, Sleep};
use megate::config::{ConfigDelta, EndpointConfig};
use megate::resilience::{
    InstallTarget, PullLadder, PullPolicy, PullRead, PullStep, StalenessClock,
};
use megate_obs::{Counter, Histogram, Lazy};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

static PULL_LATENCY_NS: Lazy<Histogram> = Lazy::histogram("net.pull_latency_ns");
static PULL_TIMEOUTS: Lazy<Counter> = Lazy::counter("net.pull_timeouts");

/// What one sync period's pull accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PullReport {
    /// The agent ends the period at (or past) the published version it
    /// observed — it caught up, was already fresh, or nothing has been
    /// published yet.
    pub refreshed: bool,
    /// The agent advanced its installed version this period.
    pub advanced: bool,
    /// Attempts spent this period, 1-based: 1 when the first try
    /// resolved the pull, up to `max_attempts`.
    pub attempts: u32,
    /// Wall-clock time from pull start to outcome.
    pub elapsed: Duration,
    /// The refresh went through the snapshot fallback.
    pub via_snapshot: bool,
    /// The agent is degraded (ECMP) after this period.
    pub degraded: bool,
}

/// One endpoint's agent: installed config state plus the pull policy
/// budgeting its retries.
pub struct Agent {
    /// This agent's endpoint id (the `TeKey` keyspace index).
    pub endpoint: u64,
    /// The controller partition whose version clock it polls.
    pub partition: u32,
    /// Retry/backoff/staleness policy.
    pub policy: PullPolicy,
    version: u64,
    config: EndpointConfig,
    staleness: StalenessClock,
    degraded: bool,
}

/// A catch-up plan lands in the agent's [`EndpointConfig`].
impl InstallTarget for Agent {
    fn install_base(&mut self, _stamp: u64, config: EndpointConfig) {
        self.config = config;
    }

    fn apply_delta(&mut self, _version: u64, delta: &ConfigDelta) {
        delta.apply(&mut self.config);
    }

    fn adopt(&mut self, version: u64) {
        self.version = version;
        if self.degraded {
            megate_obs::counter("net.agent_recoveries").inc();
            self.degraded = false;
        }
    }
}

impl Agent {
    /// A fresh agent with no installed configuration.
    pub fn new(endpoint: u64, partition: u32, policy: PullPolicy) -> Self {
        Self {
            endpoint,
            partition,
            policy,
            version: 0,
            config: EndpointConfig::default(),
            staleness: StalenessClock::default(),
            degraded: false,
        }
    }

    /// The installed config version (0 = never configured).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The installed path configuration.
    pub fn config(&self) -> &EndpointConfig {
        &self.config
    }

    /// Whether the agent has degraded to site-level/ECMP forwarding.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Consecutive sync periods without a successful refresh.
    pub fn periods_behind(&self) -> u64 {
        self.staleness.periods_behind()
    }

    /// Runs one sync period's pull: attempts (version poll, then the
    /// catch-up ladder when the published version is ahead) within the
    /// period's retry budget, then the staleness clock.
    pub async fn sync_period_pull(&mut self, client: &Arc<NetClient>) -> PullReport {
        let start = Instant::now();
        let deadline = start + Duration::from_nanos(self.policy.deadline_ns);
        let seed = self.policy.seed ^ self.endpoint.rotate_left(17);
        let mut budget = self.policy.budget(seed);
        let before = self.version;
        let (mut refreshed, mut via_snapshot) = (false, false);
        while let Some(delay) = budget.next_attempt() {
            if delay > 0 {
                Sleep::after(Duration::from_nanos(delay)).await;
            }
            // One deadline for the whole attempt. Dropping it mid-way
            // loses nothing: the ladder installs only once every read
            // of its plan is in.
            let remaining = deadline.saturating_duration_since(Instant::now());
            let (fresh, snapshot) = if remaining.is_zero() {
                (false, false)
            } else {
                timeout(remaining, self.attempt(client))
                    .await
                    .unwrap_or_else(|| {
                        PULL_TIMEOUTS.inc();
                        (false, false)
                    })
            };
            (refreshed, via_snapshot) = (fresh, via_snapshot | snapshot);
            if refreshed {
                break;
            }
            budget.charge_elapsed(start.elapsed().as_nanos() as u64);
        }
        let elapsed = start.elapsed();
        if refreshed {
            PULL_LATENCY_NS.record(elapsed.as_nanos() as u64);
        } else {
            megate_obs::counter("net.pull_stale_periods").inc();
        }
        if self.staleness.end_period(
            &self.policy,
            self.endpoint,
            self.version,
            refreshed,
            self.degraded,
        ) {
            // Flush to ECMP until a fresh config lands. The version
            // resets with the config (as the host agent's `degrade`
            // does) so recovery rebuilds from a snapshot rather than
            // replaying deltas onto the flushed state.
            self.degraded = true;
            self.config = EndpointConfig::default();
            self.version = 0;
            megate_obs::counter("net.agent_degraded").inc();
        }
        PullReport {
            refreshed,
            advanced: self.version > before,
            attempts: budget.attempts(),
            elapsed,
            via_snapshot,
            degraded: self.degraded,
        }
    }

    /// One attempt: version poll, then the catch-up ladder when the
    /// published version is ahead. Returns whether the agent now holds
    /// the version it observed, and whether it went via the snapshot.
    async fn attempt(&mut self, client: &Arc<NetClient>) -> (bool, bool) {
        let poll = Request::GetVersion {
            partition: self.partition,
        };
        let target = match read(client, poll).await {
            Some(Response::VersionIs { version }) => version.unwrap_or(0),
            _ => return (false, false),
        };
        if self.version >= target {
            return (true, false); // already fresh, or nothing published yet
        }
        let (mut ladder, mut step) = PullLadder::start(self.endpoint, self.version, target);
        while let PullStep::Read(key) = step {
            step = ladder.on_read(match read(client, key.into()).await {
                Some(Response::Record { value, .. }) => {
                    value.map_or(PullRead::Missing, PullRead::Value)
                }
                _ => PullRead::Failed,
            });
        }
        let mut via_snapshot = false;
        if let PullStep::Done(plan) = step {
            via_snapshot = plan.via_snapshot();
            plan.install(self.endpoint, self.degraded, self);
        }
        (self.version >= target, via_snapshot)
    }
}

/// One agent's pull in a [`pull_round`].
#[derive(Debug, Clone, Copy)]
pub struct FleetPull {
    /// What the pull accomplished.
    pub report: PullReport,
    /// From the agent's slot to the end of its pull, including any wait
    /// for a free runner — so a backed-up service cannot hide its queue.
    pub latency: Duration,
    /// From the start of the round to the end of this pull.
    pub done_at: Duration,
}

/// One sync period for a fleet: agent `i` of `n` pulls no earlier than
/// `i·spread/n` after the call (a zero `spread` is a burst), with at
/// most `runners` pulls in flight. Runner tasks claim agents in fleet
/// order from one shared cursor, so a slow pull delays only the agents
/// its runner has yet to claim. Returns every agent's pull, in fleet
/// order; `agents` keeps its order.
pub fn pull_round(
    exec: &Executor,
    client: &Arc<NetClient>,
    agents: &mut Vec<Agent>,
    spread: Duration,
    runners: usize,
) -> Vec<FleetPull> {
    let n = agents.len();
    let queue = Arc::new(Mutex::new(std::mem::take(agents).into_iter().enumerate()));
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    for _ in 0..runners.clamp(1, n.max(1)) {
        let (queue, client, tx) = (queue.clone(), client.clone(), tx.clone());
        exec.spawn(async move {
            loop {
                let next = queue.lock().expect("fleet queue poisoned").next();
                let Some((i, mut agent)) = next else { break };
                let due = start + spread * i as u32 / n as u32;
                Sleep::until(due).await;
                let report = agent.sync_period_pull(&client).await;
                let done = Instant::now();
                let pull = FleetPull {
                    report,
                    latency: done - due,
                    done_at: done - start,
                };
                if tx.send((i, agent, pull)).is_err() {
                    break;
                }
            }
        });
    }
    drop(tx);
    let mut back: Vec<Option<(Agent, FleetPull)>> = (0..n).map(|_| None).collect();
    for (i, agent, pull) in rx {
        back[i] = Some((agent, pull));
    }
    let pulls;
    (*agents, pulls) = back
        .into_iter()
        .map(|b| b.expect("every claimed agent comes back"))
        .unzip();
    pulls
}

/// One request. Every failure class — outage error, CRC failure,
/// connection break — is the same `None`.
async fn read(client: &Arc<NetClient>, req: Request) -> Option<Response> {
    match client.request(&req).await {
        Ok(Response::Error { .. }) | Err(_) => None,
        Ok(resp) => Some(resp),
    }
}
