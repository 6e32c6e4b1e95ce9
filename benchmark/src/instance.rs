//! Instance generation, frozen inside the benchmark.
//!
//! The recipe is `megate-bench`'s `build_instance` (Weibull endpoint
//! catalog, `site_pairs = endpoints / 30` clamped, log-normal demands,
//! 4 tunnels per demand-bearing pair) with two differences. The load is
//! a **fixed `scale_to_load` constant per workload** instead of eight
//! FPTAS calibration probes, so `setup_s` measures set-up and the
//! workload cannot move when `crates/bench` is edited. And the whole
//! instance comes from the workload's own `instance_seed`, not from the
//! run's `--seed`: LP solve time is chaotic in its inputs (a ±0.5 %
//! jitter on the demands of one TWAN/15k instance moved the cold
//! simplex between 1.1 s and 2.3 s), so a run-seeded matrix would bury
//! any regression in the spread between seeds.

use megate_topo::{EndpointCatalog, Graph, SitePair, TopologySpec, TunnelTable, WeibullEndpoints};
use megate_traffic::{DemandSet, TrafficConfig};
use std::time::Instant;

/// One TE instance: topology, tunnels, endpoints and an interval of
/// endpoint-pair demands.
pub struct Instance {
    pub graph: Graph,
    pub tunnels: TunnelTable,
    pub catalog: EndpointCatalog,
    pub demands: DemandSet,
}

/// Seconds spent in each set-up step of one [`build`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    pub topo_build_s: f64,
    pub traffic_generate_s: f64,
    pub topo_tunnels_s: f64,
}

/// Tunnels laid out per demand-bearing site pair.
const TUNNELS_PER_PAIR: usize = 4;

/// Builds the instance of `spec` with `endpoints` endpoint-pair
/// demands from `seed`, scaled to the fixed `load`.
pub fn build(spec: TopologySpec, endpoints: usize, load: f64, seed: u64) -> (Instance, BuildTimes) {
    let mut times = BuildTimes::default();

    let t = Instant::now();
    let graph = spec.build();
    let n_sites = graph.site_count();
    let catalog = EndpointCatalog::generate(
        &graph,
        (endpoints * 2).max(n_sites),
        WeibullEndpoints::with_scale(endpoints as f64 / n_sites as f64),
        seed,
    );
    times.topo_build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let max_site_pairs = n_sites * (n_sites - 1);
    let site_pairs = (endpoints / 30).clamp(n_sites.min(10), max_site_pairs.min(3000));
    let mut demands = DemandSet::generate(
        &graph,
        &catalog,
        &TrafficConfig {
            endpoint_pairs: endpoints,
            site_pairs,
            sigma: 0.8,
            seed,
            ..Default::default()
        },
    );
    demands.scale_to_load(&graph, load);
    times.traffic_generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let pairs: Vec<SitePair> = demands.pairs().collect();
    let tunnels = TunnelTable::for_pairs(&graph, &pairs, TUNNELS_PER_PAIR);
    times.topo_tunnels_s = t.elapsed().as_secs_f64();

    (
        Instance {
            graph,
            tunnels,
            catalog,
            demands,
        },
        times,
    )
}
