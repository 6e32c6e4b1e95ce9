//! The fleet pull round: every agent pulls no earlier than its slot,
//! the round spans the spread, the runner cap bounds the pulls in
//! flight, and a zero spread is a burst.
//!
//! Nothing is published, so each pull is one version poll; slow shards
//! make that poll take a known minimum time.

use megate::resilience::PullPolicy;
use megate_net::agent::{pull_round, Agent, FleetPull};
use megate_net::server::{Server, ServerState};
use megate_net::{Endpoint, Executor, NetClient};
use megate_tedb::TeDatabase;
use std::time::{Duration, Instant};

/// One round over a fresh `n`-agent fleet against a service whose
/// every read takes at least `read`; returns the pulls and the wall
/// time of the call.
fn round(read: Duration, n: u64, spread: Duration, runners: usize) -> (Vec<FleetPull>, Duration) {
    let db = TeDatabase::new(2);
    for shard in 0..2 {
        db.set_shard_slow(shard, read.as_nanos() as u64);
    }
    let exec = Executor::new(2);
    let state = ServerState::new(db);
    let server = Server::start(
        state.clone(),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        &exec,
    )
    .expect("bind");
    let client = NetClient::new(server.local().clone(), 2, exec.clone());
    let mut fleet: Vec<Agent> = (0..n)
        .map(|e| Agent::new(e, 0, PullPolicy::default()))
        .collect();
    let t = Instant::now();
    let pulls = pull_round(&exec, &client, &mut fleet, spread, runners);
    let wall = t.elapsed();
    client.close();
    state.shutdown();
    assert!(
        fleet.iter().map(|a| a.endpoint).eq(0..n),
        "fleet order kept"
    );
    assert!(pulls.iter().all(|p| p.report.refreshed), "a clean service");
    (pulls, wall)
}

/// When a pull began, relative to the round's start.
fn started_at(p: &FleetPull) -> Duration {
    p.done_at
        .checked_sub(p.report.elapsed)
        .expect("a pull ends after it starts")
}

#[test]
fn each_agent_pulls_at_its_slot_and_the_round_spans_the_spread() {
    let (n, spread) = (20u32, Duration::from_millis(400));
    // Fewer runners than agents, so slots are reached by claiming.
    let (pulls, wall) = round(Duration::ZERO, n.into(), spread, 4);
    for (i, p) in pulls.iter().enumerate() {
        let slot = spread * i as u32 / n;
        assert!(
            started_at(p) >= slot,
            "agent {i} pulled at {:?}, before its slot {slot:?}",
            started_at(p)
        );
        assert!(p.latency <= p.done_at, "latency counts from the slot");
    }
    assert!(wall >= spread * (n - 1) / n, "round of {wall:?}");
}

#[test]
fn the_runner_cap_bounds_pulls_in_flight() {
    let (read, n, runners) = (Duration::from_millis(20), 24u64, 3usize);
    let (pulls, wall) = round(read, n, Duration::ZERO, runners);
    // Sweep pull start/end events; an end sorts before a start at the
    // same instant (one runner's back-to-back pulls do not overlap).
    let mut events: Vec<(Duration, i32)> = pulls
        .iter()
        .flat_map(|p| [(started_at(p), 1), (p.done_at, -1)])
        .collect();
    events.sort();
    let peak = events
        .iter()
        .scan(0, |live, &(_, d)| {
            *live += d;
            Some(*live)
        })
        .max()
        .unwrap();
    assert!(peak <= runners as i32, "{peak} pulls in flight");
    // The cap really throttled: n pulls of >= `read` each, `runners` at
    // a time.
    assert!(
        wall >= read * (n as u32).div_ceil(runners as u32),
        "{wall:?}"
    );
}

#[test]
fn a_zero_spread_is_a_burst() {
    let period = Duration::from_secs(2);
    let (pulls, wall) = round(Duration::ZERO, 200, Duration::ZERO, 200);
    assert!(wall < period / 10, "a burst of 200 pulls took {wall:?}");
    assert!(
        pulls.iter().all(|p| p.latency == p.done_at),
        "every slot is 0"
    );
}
