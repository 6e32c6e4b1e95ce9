//! Serve the TE-DB over real sockets, with a real controller driving
//! the config clock.
//!
//! ```text
//! tedb_serve [--listen tcp://127.0.0.1:7070] [--uds /tmp/tedb.sock]
//!            [--metrics tcp://127.0.0.1:9100] [--endpoints 1000]
//!            [--period-secs 10] [--churn-ppm 20000] [--rounds 0]
//! ```
//!
//! Binds the wire-protocol server on `--listen` (and optionally a Unix
//! socket), the `/metrics` HTTP exporter on `--metrics`, then runs one
//! controller interval per `--period-secs` until `--rounds` intervals
//! are done (0 = run forever): B4 with `--endpoints` endpoints and as
//! many endpoint-pair demands, `--churn-ppm` of them perturbed between
//! intervals. Attach agents with `tedb_agents --connect
//! tcp://127.0.0.1:7070`; endpoint ids are `0..--endpoints`.

mod cli;

use cli::arg;
use megate::prelude::*;
use megate_net::{Endpoint, Executor, Server, ServerState};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let listen: Endpoint = arg(&args, "--listen", "tcp://127.0.0.1:7070".parse().unwrap());
    let metrics: Endpoint = arg(&args, "--metrics", "tcp://127.0.0.1:9100".parse().unwrap());
    let endpoints: usize = arg(&args, "--endpoints", 1000);
    let period_secs: u64 = arg(&args, "--period-secs", 10);
    let churn_ppm: u32 = arg(&args, "--churn-ppm", 20_000);
    let rounds: u64 = arg(&args, "--rounds", 0);
    let uds = args
        .iter()
        .position(|a| a == "--uds")
        .and_then(|i| args.get(i + 1))
        .map(|p| Endpoint::Unix(p.into()));

    let exec = Executor::new(4);
    let db = TeDatabase::with_replication(8, 2);
    let state = ServerState::new(db.clone());

    let server = Server::start(state.clone(), &listen, &exec).unwrap_or_else(|e| {
        eprintln!("bind {listen} failed: {e}");
        std::process::exit(1);
    });
    println!("tedb: serving on {}", server.local());
    if let Some(uds) = uds {
        let s = Server::start(state.clone(), &uds, &exec).unwrap_or_else(|e| {
            eprintln!("bind {uds} failed: {e}");
            std::process::exit(1);
        });
        println!("tedb: serving on {}", s.local());
    }
    let metrics_server =
        megate_net::http::MetricsServer::start(&metrics, &exec).unwrap_or_else(|e| {
            eprintln!("bind metrics {metrics} failed: {e}");
            std::process::exit(1);
        });
    println!("tedb: metrics on {} (GET /metrics)", metrics_server.local());

    let graph = TopologySpec::B4.build();
    let sites = graph.site_count();
    let catalog = EndpointCatalog::generate(
        &graph,
        endpoints,
        WeibullEndpoints::with_scale(endpoints as f64 / sites as f64),
        7,
    );
    let traffic = TrafficConfig {
        endpoint_pairs: endpoints,
        ..Default::default()
    };
    let mut demands = DemandSet::generate(&graph, &catalog, &traffic);
    demands.scale_to_load(&graph, 0.8);
    let tunnels = TunnelTable::for_all_pairs(&graph, 4);
    let mut controller = Controller::new(graph, tunnels, catalog, db, ControllerConfig::default());
    let mut round = 0u64;
    loop {
        round += 1;
        let report = controller.run_interval(&demands).unwrap_or_else(|e| {
            eprintln!("interval {round} failed: {e}");
            std::process::exit(1);
        });
        println!(
            "tedb: published v{} ({} endpoints changed, {} bytes; {} conns active, {} accepted, {} bytes out)",
            report.version,
            report.changed_endpoints,
            report.published_bytes,
            state.active_conns(),
            state.accepted_conns(),
            state.bytes_out(),
        );
        if rounds != 0 && round >= rounds {
            break;
        }
        demands.perturb(churn_ppm, round);
        std::thread::sleep(Duration::from_secs(period_secs));
    }
    state.shutdown();
}
