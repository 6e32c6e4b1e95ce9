//! The period deadline under a stalled service: one timer bounds the
//! whole attempt, fires on time, and is gone afterwards. Alone in its
//! file (and so in its process): it counts the reactor's timers.

use megate::resilience::PullPolicy;
use megate_net::agent::Agent;
use megate_net::publish::SimPublisher;
use megate_net::reactor::Reactor;
use megate_net::server::{Server, ServerState, TransportFaults};
use megate_net::{Endpoint, Executor, NetClient};
use megate_tedb::TeDatabase;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_millis(200);

#[test]
fn a_stalled_service_cannot_hold_a_pull_past_its_deadline() {
    let exec = Executor::new(2);
    let state = ServerState::new(TeDatabase::new(4));
    let server = Server::start(
        state.clone(),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        &exec,
    )
    .expect("bind");
    let client = NetClient::new(server.local().clone(), 1, exec.clone());
    let mut publisher = SimPublisher::new(4, 4, 0x5ca1e);
    let policy = PullPolicy {
        deadline_ns: DEADLINE.as_nanos() as u64,
        ..PullPolicy::default()
    };

    // A healthy pull finishes long before its deadline and takes its
    // deadline timer with it.
    publisher.publish_round(state.db(), 1_000_000);
    let c = client.clone();
    let (agent, report) = exec.block_on(async move {
        let mut agent = Agent::new(0, 0, policy);
        let report = agent.sync_period_pull(&c).await;
        (agent, report)
    });
    assert!(report.refreshed && report.advanced, "{report:?}");
    assert_eq!(
        Reactor::global().pending_timers(),
        0,
        "a finished pull leaves no timer behind"
    );

    // Every response now dribbles out slower than the whole budget.
    state.set_transport_faults(TransportFaults {
        stall_ppm: 1_000_000,
        stall_chunk_delay: Duration::from_millis(400),
        ..TransportFaults::default()
    });
    publisher.publish_round(state.db(), 1_000_000);
    let timeouts = megate_obs::counter("net.pull_timeouts");
    let timeouts_before = timeouts.get();
    let c = client.clone();
    let started = Instant::now();
    let (mut agent, report) = exec.block_on(async move {
        let mut agent = agent;
        let report = agent.sync_period_pull(&c).await;
        (agent, report)
    });
    let held = started.elapsed();
    assert!(!report.refreshed, "{report:?}");
    assert!(
        held <= DEADLINE + Duration::from_millis(50),
        "the pull returned after {held:?}, deadline {DEADLINE:?}"
    );
    assert!(held >= DEADLINE, "it used its budget: {held:?}");
    assert_eq!(
        timeouts.get() - timeouts_before,
        1,
        "one timed-out attempt, counted once"
    );

    // Hanging up ends the server's dribbling; once its chunk delay has
    // run out no timer is left anywhere.
    client.close();
    let drained = Instant::now();
    while Reactor::global().pending_timers() > 0 && drained.elapsed() < Duration::from_secs(3) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(Reactor::global().pending_timers(), 0);

    // The service heals; the same agent catches up.
    state.set_transport_faults(TransportFaults::default());
    let c = client.clone();
    let report = exec.block_on(async move { agent.sync_period_pull(&c).await });
    assert!(report.refreshed, "{report:?}");
    client.close();
    state.shutdown();
}
