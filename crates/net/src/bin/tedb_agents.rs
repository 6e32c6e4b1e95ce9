//! Attach a fleet of async endpoint agents to a running TE-DB server.
//!
//! ```text
//! tedb_agents [--connect tcp://127.0.0.1:7070] [--agents 1000]
//!             [--conns 32] [--period-secs 10] [--rounds 5]
//! ```
//!
//! Runs `--agents` agents over a pool of `--conns` multiplexed
//! connections. Each sync period every agent runs one pull, the pulls
//! spread over the part of the period that leaves each a full retry
//! budget (so the fleet doesn't stampede), then a round summary is
//! printed: refreshed/degraded counts and pull-latency quantiles over
//! every pull.

mod cli;

use cli::arg;
use megate::resilience::PullPolicy;
use megate_net::agent::{pull_round, Agent};
use megate_net::{Endpoint, Executor, NetClient};
use std::time::{Duration, Instant};

/// Pulls in flight at once.
const RUNNERS: usize = 2048;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let connect: Endpoint = arg(&args, "--connect", "tcp://127.0.0.1:7070".parse().unwrap());
    let agents: u64 = arg(&args, "--agents", 1000);
    let conns: usize = arg(&args, "--conns", 32);
    let period_secs: u64 = arg(&args, "--period-secs", 10);
    let rounds: u64 = arg(&args, "--rounds", 5);

    let exec = Executor::new(4);
    let client = NetClient::new(connect.clone(), conns, exec.clone());
    println!("agents: {agents} agents over {conns} conns to {connect}");

    let period = Duration::from_secs(period_secs);
    let policy = PullPolicy::default();
    let spread = period.saturating_sub(Duration::from_nanos(policy.deadline_ns));
    let mut fleet: Vec<Agent> = (0..agents).map(|i| Agent::new(i, 0, policy)).collect();
    for round in 1..=rounds {
        let started = Instant::now();
        let pulls = pull_round(&exec, &client, &mut fleet, spread, RUNNERS);
        let mut lat: Vec<Duration> = pulls.iter().map(|p| p.latency).collect();
        lat.sort_unstable();
        let q = |p: f64| lat.get(((lat.len().max(1) - 1) as f64 * p) as usize);
        let ms = |d: Option<&Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e3);
        println!(
            "round {round}: {}/{agents} refreshed, {} degraded, pull p50 {:.2} ms p99 {:.2} ms",
            pulls.iter().filter(|p| p.report.refreshed).count(),
            pulls.iter().filter(|p| p.report.degraded).count(),
            ms(q(0.50)),
            ms(q(0.99)),
        );
        if round < rounds {
            std::thread::sleep(period.saturating_sub(started.elapsed()));
        }
    }
}
