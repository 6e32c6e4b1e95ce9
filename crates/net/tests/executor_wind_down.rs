//! A stopped service gives its threads back: five start/stop cycles of
//! a two-worker executor serving a TE-DB to a pooled client leave the
//! process with the threads it had before. Alone in its file (and so in
//! its process): it counts the process's threads.

use megate_net::frame::{Request, Response};
use megate_net::reactor::Reactor;
use megate_net::server::{Server, ServerState};
use megate_net::{Endpoint, Executor, NetClient};
use megate_tedb::TeDatabase;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .count()
}

/// One service lifetime: serve a request, then stop the way a control
/// plane does — close the client, flag the server down and wake its
/// accept loop with one last connection — and drop every handle.
fn start_serve_stop() {
    let exec = Executor::new(2);
    let state = ServerState::new(TeDatabase::new(2));
    let server = Server::start(
        state.clone(),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        &exec,
    )
    .expect("bind");
    let client = NetClient::new(server.local().clone(), 2, exec.clone());
    let c = client.clone();
    let reply = exec.block_on(async move { c.request(&Request::Ping).await });
    assert_eq!(reply, Ok(Response::Pong));
    client.close();
    state.shutdown();
    if let Endpoint::Tcp(addr) = server.local() {
        let _ = std::net::TcpStream::connect(addr);
    }
}

#[test]
fn stopped_executors_wind_their_workers_down() {
    // The reactor's dispatch thread lives as long as the process; start
    // it before taking the baseline.
    Reactor::global();
    let baseline = threads();
    for _ in 0..5 {
        start_serve_stop();
    }
    let started = Instant::now();
    while threads() > baseline && started.elapsed() < Duration::from_secs(1) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        threads(),
        baseline,
        "threads left after 5 stopped services (waited {:?})",
        started.elapsed()
    );
}
