//! The resilient pull path of §3.2, once, as sans-IO code.
//!
//! Every endpoint agent — the in-process hosts of
//! [`MegaTeSystem`](crate::system::MegaTeSystem) and the socket agents of
//! `megate-net` — catches up through the three pieces here; a transport
//! only performs the reads they ask for and applies the plan they hand
//! back:
//!
//! 1. [`PullLadder`]: changelog → deltas → snapshot-plus-replay,
//!    fetch-then-apply. It never adopts a version whose records were
//!    unreadable, nor trades a working configuration for one no newer.
//! 2. [`RetryBudget`]: attempts within one sync period wait a growing,
//!    deterministically jittered delay ([`BackoffPolicy`]) and stop at
//!    the attempt cap or the period's deadline. The in-process driver
//!    charges it virtual time (backoff plus injected shard latency),
//!    the socket driver wall-clock elapsed.
//! 3. [`StalenessClock`]: an agent that ends
//!    [`PullPolicy::stale_ttl_periods`] consecutive sync periods below
//!    the published version **degrades** to site-level/ECMP forwarding
//!    (flushing its SR paths) until a fresh configuration lands.
//!
//! Everything is integer arithmetic on a seeded splitmix64 stream: the
//! same seed replays the same schedule, which the chaos harness's
//! determinism guard depends on.

use crate::config::{decode_delta, decode_paths, ConfigDelta, EndpointConfig};
use megate_obs::trace::{self, Stage};
use megate_obs::{Histogram, Lazy};
use megate_tedb::{Changelog, TeKey};

/// Jittered exponential backoff. Delay for attempt `k` (0-based) is
/// uniform-ish in `[exp·(1 − jitter), exp]` where
/// `exp = min(base_ns · 2^k, cap_ns)` — "equal jitter" biased high so
/// the expected delay still doubles per attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First-attempt delay, ns.
    pub base_ns: u64,
    /// Upper bound on the exponential term, ns.
    pub cap_ns: u64,
    /// Jitter width as parts-per-million of the exponential term:
    /// 0 = none, 500_000 = delays in `[exp/2, exp]`.
    pub jitter_ppm: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self {
            base_ns: 1_000_000,    // 1 ms
            cap_ns: 1_000_000_000, // 1 s
            jitter_ppm: 500_000,   // up to 50% shaved off
        }
    }
}

impl BackoffPolicy {
    /// The un-jittered exponential term for `attempt` (0-based).
    pub fn exp_ns(&self, attempt: u32) -> u64 {
        self.base_ns
            .saturating_mul(1u64 << attempt.min(63))
            .min(self.cap_ns)
    }

    /// Deterministic jittered delay for `attempt`, keyed on `seed`.
    /// Always within `[exp·(1 − jitter_ppm/1e6), exp]`.
    pub fn delay_ns(&self, attempt: u32, seed: u64) -> u64 {
        let exp = self.exp_ns(attempt);
        let jitter_ppm = self.jitter_ppm.min(1_000_000) as u64;
        if jitter_ppm == 0 || exp == 0 {
            return exp;
        }
        let width = exp / 1_000_000 * jitter_ppm + (exp % 1_000_000) * jitter_ppm / 1_000_000;
        let shave = splitmix64(seed ^ ((attempt as u64) << 32)) % (width + 1);
        exp - shave
    }
}

/// The full per-agent pull policy: backoff between retries, a deadline
/// per sync period, and the staleness TTL that triggers graceful
/// degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PullPolicy {
    /// Backoff between retries within one sync period.
    pub backoff: BackoffPolicy,
    /// Retry time budget per sync period, ns: once backoff delays plus
    /// injected shard latency exceed this, the agent gives up until the
    /// next period.
    pub deadline_ns: u64,
    /// Hard cap on attempts per sync period (safety net under a
    /// zero-latency fault model where the deadline alone might admit
    /// many retries).
    pub max_attempts: u32,
    /// Consecutive sync periods an agent may stay stale before it
    /// degrades to site-level/ECMP paths. The TTL must cover at least
    /// one full outage round: with the default 3, a single-period
    /// outage never degrades anyone.
    pub stale_ttl_periods: u64,
    /// Seed of the jitter stream (combined with per-host identity by
    /// the system harness).
    pub seed: u64,
}

impl Default for PullPolicy {
    fn default() -> Self {
        Self {
            backoff: BackoffPolicy::default(),
            deadline_ns: 2_000_000_000, // 2 s of a 10 s sync period
            max_attempts: 6,
            stale_ttl_periods: 3,
            seed: 0x6d65_6761_7465, // "megate"
        }
    }
}

impl PullPolicy {
    /// A fresh retry budget for one sync period, its jitter stream
    /// keyed on `seed`.
    pub fn budget(&self, seed: u64) -> RetryBudget {
        RetryBudget {
            policy: *self,
            seed,
            attempts: 0,
            spent_ns: 0,
        }
    }
}

/// One sync period's retry budget: attempt cap, deadline, jittered
/// backoff. The driver decides what "time" is by what it charges.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    policy: PullPolicy,
    seed: u64,
    attempts: u32,
    spent_ns: u64,
}

impl RetryBudget {
    /// Admits the next attempt, or `None` once the attempt cap or the
    /// deadline is spent. `Some(delay)` is the backoff to wait before
    /// the attempt (0 before the first), already charged.
    pub fn next_attempt(&mut self) -> Option<u64> {
        if self.attempts >= self.policy.max_attempts {
            return None;
        }
        let mut delay = 0;
        if self.attempts > 0 {
            delay = self.policy.backoff.delay_ns(self.attempts - 1, self.seed);
            let remaining = self.remaining_ns();
            if remaining == 0 || delay > remaining {
                return None;
            }
        }
        self.attempts += 1;
        self.charge(delay);
        Some(delay)
    }

    /// Charges virtual time (injected shard latency) to the deadline.
    pub fn charge(&mut self, ns: u64) {
        self.spent_ns = self.spent_ns.saturating_add(ns);
    }

    /// Charges wall-clock time: the period has been running for
    /// `elapsed_ns`, whatever was charged before.
    pub fn charge_elapsed(&mut self, elapsed_ns: u64) {
        self.spent_ns = self.spent_ns.max(elapsed_ns);
    }

    /// What is left of the period's deadline, ns.
    pub fn remaining_ns(&self) -> u64 {
        self.policy.deadline_ns.saturating_sub(self.spent_ns)
    }

    /// Attempts admitted so far (1-based once the first has run).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Attempts admitted beyond the first.
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }
}

/// Per-agent staleness clock: consecutive sync periods ended below the
/// published version, and the single degrade-at-TTL rule.
#[derive(Debug, Clone, Copy, Default)]
pub struct StalenessClock {
    periods_behind: u64,
}

impl StalenessClock {
    /// Consecutive sync periods without a successful refresh.
    pub fn periods_behind(&self) -> u64 {
        self.periods_behind
    }

    /// Closes one sync period for `endpoint`, currently at `version`:
    /// a fresh one resets the clock (recording how long reconvergence
    /// took), a stale one ticks it. Returns `true` when the agent must
    /// degrade **now** — `stale_ttl_periods` consecutive stale periods,
    /// and not degraded yet.
    pub fn end_period(
        &mut self,
        policy: &PullPolicy,
        endpoint: u64,
        version: u64,
        fresh: bool,
        degraded: bool,
    ) -> bool {
        if fresh {
            if self.periods_behind > 0 {
                megate_obs::histogram("agent.reconverge_periods").record(self.periods_behind);
            }
            self.periods_behind = 0;
            return false;
        }
        self.periods_behind += 1;
        let degrade = !degraded && self.periods_behind >= policy.stale_ttl_periods;
        if degrade {
            trace::record(Stage::Degrade, version, endpoint, self.periods_behind);
        }
        degrade
    }
}

/// One read's outcome. Outage, detected corruption, transport error
/// and timeout are all [`Failed`](Self::Failed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PullRead {
    /// The record's raw bytes.
    Value(Vec<u8>),
    /// The key does not exist.
    Missing,
    /// The read did not produce a trustworthy answer.
    Failed,
}

/// What the ladder wants next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PullStep {
    /// Read this key and feed the outcome to [`PullLadder::on_read`].
    Read(TeKey),
    /// Catch-up resolved: apply the plan with [`CatchUp::install`].
    Done(CatchUp),
    /// Nothing newer than the installed state was readable: keep the
    /// working configuration and try again.
    Retry,
}

/// A finished catch-up plan, built entirely before anything is applied.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CatchUp {
    /// The `(stamp, config)` snapshot to rebuild from, when the delta
    /// history could not carry the agent forward.
    pub base: Option<(u64, EndpointConfig)>,
    /// Deltas to apply in order, each producing its version.
    pub deltas: Vec<(u64, ConfigDelta)>,
    /// The version the agent holds once the plan is applied (below the
    /// target when a snapshot replay stopped at an unreadable delta).
    pub achieved: u64,
}

/// Where a [`CatchUp`] lands: the host agent's `path_map` in-process,
/// the socket agent's [`EndpointConfig`].
pub trait InstallTarget {
    /// Replaces the whole configuration with the snapshot at `stamp`.
    fn install_base(&mut self, stamp: u64, config: EndpointConfig);
    /// Applies the delta that produces `version`, in place.
    fn apply_delta(&mut self, version: u64, delta: &ConfigDelta);
    /// Adopts `version` as installed and leaves degradation.
    fn adopt(&mut self, version: u64);
}

impl CatchUp {
    /// Whether the plan went through the snapshot fallback.
    pub fn via_snapshot(&self) -> bool {
        self.base.is_some()
    }

    /// Applies the plan — base, deltas in order, then the version — and
    /// closes the pull in the flight recorder: a [`Stage::PullDone`]
    /// event plus the solve-to-install latency, in
    /// `propagation.latency.degraded` when the agent entered the pull
    /// degraded (a recovery, whichever path carried the bytes), else
    /// `.snapshot` or `.delta` by the path taken. A version whose
    /// solve-start stamp aged out records a zero arg and no latency.
    pub fn install(self, endpoint: u64, was_degraded: bool, target: &mut impl InstallTarget) {
        let via_snapshot = self.via_snapshot();
        if let Some((stamp, config)) = self.base {
            target.install_base(stamp, config);
        }
        for (version, delta) in &self.deltas {
            target.apply_delta(*version, delta);
        }
        target.adopt(self.achieved);
        let latency = trace::version_age_ns(self.achieved);
        trace::record(
            Stage::PullDone,
            self.achieved,
            endpoint,
            latency.unwrap_or(0),
        );
        static DEGRADED: Lazy<Histogram> = Lazy::histogram("propagation.latency.degraded");
        static SNAPSHOT: Lazy<Histogram> = Lazy::histogram("propagation.latency.snapshot");
        static DELTA: Lazy<Histogram> = Lazy::histogram("propagation.latency.delta");
        let path = if was_degraded {
            &DEGRADED
        } else if via_snapshot {
            &SNAPSHOT
        } else {
            &DELTA
        };
        if let Some(ns) = latency {
            path.record(ns);
        }
    }
}

/// Which record the ladder is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    Changelog,
    /// Every change after `floor`: the incremental path, or (once the
    /// plan has a base) the replay on top of the snapshot.
    Deltas,
    Snapshot,
}

/// The §3.2 catch-up ladder for one agent and one attempt, as a
/// sans-IO state machine: [`start`](Self::start) names the first read,
/// then every read's outcome goes to [`on_read`](Self::on_read) until it
/// answers [`PullStep::Done`] or [`PullStep::Retry`].
#[derive(Debug, Clone)]
pub struct PullLadder {
    endpoint: u64,
    local: u64,
    target: u64,
    rung: Rung,
    /// The changelog's retained change versions.
    log: Vec<u64>,
    /// Index into `log` of the delta being read.
    cursor: usize,
    /// Only changes newer than this are wanted: `local` on the
    /// incremental path, the snapshot's stamp on a replay.
    floor: u64,
    plan: CatchUp,
}

impl PullLadder {
    /// A ladder taking `endpoint` from installed version `local` toward
    /// the published `target` (`local < target`; 0 = nothing installed),
    /// and its first step: read the endpoint's changelog.
    pub fn start(endpoint: u64, local: u64, target: u64) -> (Self, PullStep) {
        let ladder = Self {
            endpoint,
            local,
            target,
            rung: Rung::Changelog,
            log: Vec::new(),
            cursor: 0,
            floor: local,
            plan: CatchUp::default(),
        };
        (ladder, PullStep::Read(TeKey::Changelog { endpoint }))
    }

    /// Consumes the outcome of the read last asked for.
    pub fn on_read(&mut self, read: PullRead) -> PullStep {
        let endpoint = self.endpoint;
        match (self.rung, read) {
            // Never configured: adopt the version with no paths.
            (Rung::Changelog, PullRead::Missing) => self.finish(self.target),
            (Rung::Changelog, PullRead::Value(raw)) => {
                // Corrupt changelog: unreadable history, stay stale.
                let Some(log) = Changelog::decode(&raw) else {
                    return PullStep::Retry;
                };
                let retained = log.versions.len() as u64;
                trace::record(Stage::ChangelogPull, self.target, endpoint, retained);
                self.log = log.versions;
                // The log is complete after `complete_since`: an agent
                // at least that fresh catches up from deltas alone.
                if self.local >= log.complete_since {
                    self.rung = Rung::Deltas;
                    self.next_delta()
                } else {
                    self.snapshot()
                }
            }
            (Rung::Deltas, PullRead::Value(raw)) => {
                let version = self.log[self.cursor];
                trace::record(Stage::DeltaPull, version, endpoint, raw.len() as u64);
                match decode_delta(&raw) {
                    Some(delta) => {
                        self.plan.deltas.push((version, delta));
                        self.cursor += 1;
                        self.next_delta()
                    }
                    None => self.delta_unreadable(),
                }
            }
            // Missing (raced with GC), outage or corruption.
            (Rung::Deltas, _) => self.delta_unreadable(),
            // `u64 stamp | snapshot body`, then replay the retained
            // deltas newer than the stamp (the GC invariant
            // `snapshot_every <= retention_versions` leaves no gap).
            (Rung::Snapshot, PullRead::Value(raw)) => {
                let Some((stamp, body)) = raw.split_first_chunk::<8>() else {
                    return PullStep::Retry;
                };
                let stamp = u64::from_be_bytes(*stamp);
                let Some(config) = decode_paths(body) else {
                    return PullStep::Retry;
                };
                trace::record(Stage::SnapshotPull, stamp, endpoint, raw.len() as u64);
                self.plan.base = Some((stamp, config));
                (self.rung, self.cursor, self.floor) = (Rung::Deltas, 0, stamp);
                self.next_delta()
            }
            // Never adopt a version whose records were unreadable.
            (Rung::Changelog | Rung::Snapshot, _) => PullStep::Retry,
        }
    }

    /// Asks for the next retained change in `(floor, target]`, or
    /// finishes at the target when the chain is complete.
    fn next_delta(&mut self) -> PullStep {
        while let Some(&version) = self.log.get(self.cursor) {
            if version > self.floor && version <= self.target {
                return PullStep::Read(TeKey::Delta {
                    endpoint: self.endpoint,
                    version,
                });
            }
            self.cursor += 1;
        }
        self.finish(self.target)
    }

    fn snapshot(&mut self) -> PullStep {
        self.rung = Rung::Snapshot;
        self.plan.deltas.clear();
        PullStep::Read(TeKey::Snapshot {
            endpoint: self.endpoint,
        })
    }

    /// A delta that cannot be used: the incremental path falls back to
    /// the snapshot; a replay stops at the last version it reached.
    fn delta_unreadable(&mut self) -> PullStep {
        if self.plan.base.is_none() {
            return self.snapshot();
        }
        let reached = self.plan.deltas.last().map_or(self.floor, |(v, _)| *v);
        self.finish(reached)
    }

    fn finish(&mut self, achieved: u64) -> PullStep {
        if achieved <= self.local {
            // The reachable state is no newer than what is installed.
            return PullStep::Retry;
        }
        self.plan.achieved = achieved;
        PullStep::Done(std::mem::take(&mut self.plan))
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exponential_growth_up_to_cap() {
        let b = BackoffPolicy {
            base_ns: 100,
            cap_ns: 1000,
            jitter_ppm: 0,
        };
        assert_eq!(b.exp_ns(0), 100);
        assert_eq!(b.exp_ns(1), 200);
        assert_eq!(b.exp_ns(2), 400);
        assert_eq!(b.exp_ns(3), 800);
        assert_eq!(b.exp_ns(4), 1000, "capped");
        assert_eq!(b.exp_ns(63), 1000, "no overflow at large attempts");
    }

    #[test]
    fn zero_jitter_is_exact() {
        let b = BackoffPolicy {
            base_ns: 100,
            cap_ns: 1000,
            jitter_ppm: 0,
        };
        assert_eq!(b.delay_ns(2, 123), 400);
        assert_eq!(b.delay_ns(2, 999), 400, "seed-independent without jitter");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let b = BackoffPolicy::default();
        assert_eq!(b.delay_ns(3, 42), b.delay_ns(3, 42));
    }

    /// Drains a budget, charging `extra` after every attempt; returns
    /// the backoff delays it admitted.
    fn drain(mut budget: RetryBudget, extra: u64) -> Vec<u64> {
        let mut delays = Vec::new();
        while let Some(delay) = budget.next_attempt() {
            delays.push(delay);
            budget.charge(extra);
        }
        assert_eq!(budget.attempts() as usize, delays.len());
        delays
    }

    #[test]
    fn budget_fits_deadline_and_attempt_cap() {
        let p = PullPolicy {
            backoff: BackoffPolicy {
                base_ns: 100,
                cap_ns: 10_000,
                jitter_ppm: 0,
            },
            deadline_ns: 1_000,
            max_attempts: 10,
            ..PullPolicy::default()
        };
        // 100 + 200 + 400 = 700; adding 800 would exceed 1000.
        assert_eq!(drain(p.budget(0), 0), vec![0, 100, 200, 400]);
        // Injected latency burns the same deadline: 0+450, 100+450.
        assert_eq!(drain(p.budget(0), 450), vec![0, 100]);
        // Wall-clock charging overrides, never rewinds.
        let mut b = p.budget(0);
        assert_eq!(b.next_attempt(), Some(0));
        b.charge_elapsed(950);
        b.charge_elapsed(10);
        assert_eq!(b.remaining_ns(), 50);
        assert_eq!(b.next_attempt(), None, "a 100 ns backoff no longer fits");
    }

    #[test]
    fn one_ttl_rule_degrades_at_exactly_the_ttl() {
        let p = PullPolicy {
            stale_ttl_periods: 3,
            ..PullPolicy::default()
        };
        let mut clock = StalenessClock::default();
        assert!(!clock.end_period(&p, 1, 5, false, false));
        assert!(!clock.end_period(&p, 1, 5, false, false));
        assert!(
            clock.end_period(&p, 1, 5, false, false),
            "third stale period"
        );
        assert_eq!(clock.periods_behind(), 3);
        assert!(!clock.end_period(&p, 1, 0, false, true), "degrades once");
        assert!(!clock.end_period(&p, 1, 6, true, false));
        assert_eq!(clock.periods_behind(), 0, "a fresh period resets");
    }

    proptest! {
        /// Jittered delays always stay within [exp·(1−j), exp].
        #[test]
        fn jitter_respects_bounds(
            base in 1u64..1_000_000,
            cap_mul in 1u64..1000,
            jitter in 0u32..=1_000_000,
            attempt in 0u32..40,
            seed in any::<u64>(),
        ) {
            let b = BackoffPolicy { base_ns: base, cap_ns: base * cap_mul, jitter_ppm: jitter };
            let exp = b.exp_ns(attempt);
            let d = b.delay_ns(attempt, seed);
            prop_assert!(d <= exp, "delay {d} above exp {exp}");
            let floor = exp - (exp as u128 * jitter as u128 / 1_000_000) as u64;
            // The ppm split-multiply can undershoot the exact product by
            // at most 1.
            prop_assert!(d + 1 >= floor, "delay {d} below jitter floor {floor}");
        }

        /// Budgets never bust the deadline or the attempt cap, whatever
        /// latency is charged between attempts, and replay per seed.
        #[test]
        fn budgets_respect_deadline_and_determinism(
            base in 1u64..10_000,
            deadline in 1u64..10_000_000,
            max_attempts in 1u32..12,
            extra in 0u64..100_000,
            seed in any::<u64>(),
        ) {
            let p = PullPolicy {
                backoff: BackoffPolicy { base_ns: base, cap_ns: base * 64, jitter_ppm: 500_000 },
                deadline_ns: deadline,
                max_attempts,
                ..PullPolicy::default()
            };
            let delays = drain(p.budget(seed), extra);
            prop_assert!(!delays.is_empty() && delays.len() <= max_attempts as usize);
            prop_assert!(delays.iter().sum::<u64>() <= deadline);
            // Every retry was admitted with deadline left to spend.
            let spent_before_last = delays.iter().sum::<u64>() + extra * (delays.len() as u64 - 1);
            prop_assert!(delays.len() == 1 || spent_before_last <= deadline);
            prop_assert_eq!(drain(p.budget(seed), extra), delays);
        }
    }
}
