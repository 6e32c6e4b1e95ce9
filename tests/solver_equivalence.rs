//! Flat-kernel equivalence suite (DESIGN.md §5e).
//!
//! The flat structure-of-arrays stage 3 (`max_endpoint_flow_all` over
//! `megate_ssp::SolverScratch`) replaced the allocating scalar path in
//! `MegaTeScheme::solve`; that scalar path lives on here, as
//! [`scalar_pair`]. The kernel's license to exist is *bitwise identity*:
//! for every site pair the selected endpoints must equal the scalar
//! reference path's exactly — same subsets, same tunnels — and the
//! result must not depend on the worker-thread count (work-stealing
//! changes who solves a pair, never what the pair's solution is).
//!
//! Seeded fixtures pin the production topologies; the property test
//! sweeps random instances through both paths.

use megate::prelude::*;
use megate_solvers::megate::MegaTeConfig;
use megate_ssp::{fast_ssp, FastSspConfig};
use megate_topo::TunnelId;
use proptest::prelude::*;

fn instance(
    graph: &Graph,
    endpoint_pairs: usize,
    site_pairs: usize,
    load: f64,
    seed: u64,
) -> (TunnelTable, DemandSet) {
    let tunnels = TunnelTable::for_all_pairs(graph, 4);
    let catalog = EndpointCatalog::generate(
        graph,
        endpoint_pairs * 2,
        WeibullEndpoints::with_scale(50.0),
        seed,
    );
    let mut demands = DemandSet::generate(
        graph,
        &catalog,
        &TrafficConfig {
            endpoint_pairs,
            site_pairs,
            sigma: 0.8,
            seed,
            ..Default::default()
        },
    );
    demands.scale_to_load(graph, load);
    (tunnels, demands)
}

/// The scalar reference: `MaxEndpointFlow` for one site pair — for each
/// tunnel in ascending-weight order, the subset of still-unassigned
/// endpoint demands filling `F_{k,t}`, via the allocating
/// [`megate_ssp::fast_ssp`]. Returns `(demand index, tunnel)` picks.
fn scalar_pair(
    scheme: &MegaTeScheme,
    problem: &TeProblem,
    pair: SitePair,
    site_flow: &[f64],
) -> Vec<(usize, TunnelId)> {
    let tunnels = problem.tunnels.tunnels_for(pair);
    assert_eq!(tunnels.len(), site_flow.len());
    let indices = problem.demands.indices_for(pair);
    let demands = problem.demands.demands();

    // Work in kbps integers: demands round to nearest, capacities
    // floor — so the integer solution can never overfill F_{k,t}.
    let kbps: Vec<u64> = indices
        .iter()
        .map(|&i| (demands[i].demand_mbps * 1000.0).round().max(1.0) as u64)
        .collect();
    // `unassigned` holds positions into `indices`/`kbps`. `order` is
    // the same set sorted (value desc, position asc) once; after each
    // tunnel both are filtered, which preserves the relative order.
    let mut unassigned: Vec<usize> = (0..indices.len()).collect();
    let mut order: Vec<usize> = (0..indices.len()).collect();
    order.sort_by(|&a, &b| kbps[b].cmp(&kbps[a]).then(a.cmp(&b)));
    let mut remaining_kbps: u64 = kbps.iter().sum();
    let mut picks = Vec::new();
    let cfg = FastSspConfig {
        epsilon_prime: scheme.config.fastssp_epsilon,
    };
    for (t_idx, &t) in tunnels.iter().enumerate() {
        if unassigned.is_empty() {
            break;
        }
        let capacity_kbps = (site_flow[t_idx] * 1000.0).floor() as u64;
        if capacity_kbps == 0 {
            continue;
        }

        // Fast path 1: the tunnel carries everything still
        // unassigned — selecting all is trivially optimal.
        if remaining_kbps <= capacity_kbps {
            for &u in &unassigned {
                picks.push((indices[u], t));
            }
            unassigned.clear();
            break;
        }

        // Fast path 2: greedy over descending sizes. A greedy fill
        // that lands exactly on the capacity is provably optimal
        // for the subset-sum, so FastSSP can be skipped.
        let mut acc = 0u64;
        let mut exact = vec![false; indices.len()];
        for &u in &order {
            if acc + kbps[u] <= capacity_kbps {
                acc += kbps[u];
                exact[u] = true;
                if acc == capacity_kbps {
                    break;
                }
            }
        }
        if acc == capacity_kbps {
            for &u in &unassigned {
                if exact[u] {
                    picks.push((indices[u], t));
                    remaining_kbps -= kbps[u];
                }
            }
            unassigned.retain(|&u| !exact[u]);
            order.retain(|&u| !exact[u]);
            continue;
        }

        let items: Vec<u64> = unassigned.iter().map(|&u| kbps[u]).collect();
        let sol = fast_ssp(&items, capacity_kbps, cfg);
        let mut taken = vec![false; indices.len()];
        for &sel in &sol.solution.selected {
            taken[unassigned[sel]] = true;
            picks.push((indices[unassigned[sel]], t));
            remaining_kbps -= kbps[unassigned[sel]];
        }
        unassigned.retain(|&u| !taken[u]);
        order.retain(|&u| !taken[u]);
    }
    picks
}

/// Stage 3 via the scalar reference path ([`scalar_pair`] pair by
/// pair, serial).
fn scalar_stage3(
    scheme: &MegaTeScheme,
    p: &TeProblem,
    pairs: &[SitePair],
    site_flows: &[Vec<f64>],
) -> Vec<Option<TunnelId>> {
    let mut assignment = vec![None; p.demands.len()];
    for (k, &pair) in pairs.iter().enumerate() {
        for (i, t) in scalar_pair(scheme, p, pair, &site_flows[k]) {
            assignment[i] = Some(t);
        }
    }
    assignment
}

/// Stage 3 via the flat work-stealing kernel at a given thread count.
fn flat_stage3(
    p: &TeProblem,
    pairs: &[SitePair],
    site_flows: &[Vec<f64>],
    threads: usize,
) -> Vec<Option<TunnelId>> {
    let scheme = MegaTeScheme::new(MegaTeConfig {
        threads,
        ..Default::default()
    });
    let mut assignment = vec![None; p.demands.len()];
    let stats = scheme.max_endpoint_flow_all(p, pairs, site_flows, &mut assignment);
    assert_eq!(stats.pairs, pairs.len());
    assignment
}

/// Both paths, all thread counts, one instance.
fn assert_equivalent(graph: &Graph, tunnels: &TunnelTable, demands: &DemandSet) {
    let p = TeProblem {
        graph,
        tunnels,
        demands,
    };
    let scheme = MegaTeScheme::default();
    let (pairs, site_flows) = scheme.max_site_flow(&p).expect("stage 1+2");
    let reference = scalar_stage3(&scheme, &p, &pairs, &site_flows);
    for threads in [1usize, 2, 4, 8] {
        let flat = flat_stage3(&p, &pairs, &site_flows, threads);
        assert_eq!(
            reference, flat,
            "flat kernel diverged from scalar reference at {threads} threads"
        );
    }
}

#[test]
fn b4_fixture_flat_matches_scalar_across_threads() {
    let graph = megate_topo::b4();
    for (load, seed) in [(0.5, 11), (1.0, 7), (2.5, 42)] {
        let (tunnels, demands) = instance(&graph, 800, 25, load, seed);
        assert_equivalent(&graph, &tunnels, &demands);
    }
}

#[test]
fn deltacom_fixture_flat_matches_scalar_across_threads() {
    let graph = megate_topo::deltacom();
    let (tunnels, demands) = instance(&graph, 2000, 400, 1.2, 5);
    assert_equivalent(&graph, &tunnels, &demands);
}

#[test]
fn full_solve_is_thread_count_invariant() {
    // End-to-end `solve` (stage 1+2+3 + repair), not just stage 3:
    // every thread count must produce the identical allocation.
    let graph = megate_topo::b4();
    let (tunnels, demands) = instance(&graph, 600, 20, 1.5, 23);
    let p = TeProblem {
        graph: &graph,
        tunnels: &tunnels,
        demands: &demands,
    };
    let reference = MegaTeScheme::new(MegaTeConfig {
        threads: 1,
        ..Default::default()
    })
    .solve(&p)
    .unwrap();
    for threads in [2usize, 4, 8] {
        let alloc = MegaTeScheme::new(MegaTeConfig {
            threads,
            ..Default::default()
        })
        .solve(&p)
        .unwrap();
        assert_eq!(
            reference.endpoint_assignment, alloc.endpoint_assignment,
            "solve() diverged at {threads} threads"
        );
        assert_eq!(reference.tunnel_flow_mbps, alloc.tunnel_flow_mbps);
    }
    let stage = reference
        .endpoint_stage
        .expect("MegaTE records stage-3 stats");
    assert_eq!(stage.threads, 1);
    assert!(stage.pairs > 0);
    assert!(stage.total_busy >= stage.max_worker_busy);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random instances: the flat kernel's stage-3 assignment equals
    /// the scalar reference's, at every thread count.
    #[test]
    fn random_instances_flat_matches_scalar(
        endpoint_pairs in 50usize..400,
        site_pairs in 5usize..30,
        load in 0.3f64..3.0,
        seed in 0u64..1000,
    ) {
        let graph = megate_topo::b4();
        let (tunnels, demands) = instance(&graph, endpoint_pairs, site_pairs, load, seed);
        let p = TeProblem { graph: &graph, tunnels: &tunnels, demands: &demands };
        let scheme = MegaTeScheme::default();
        let (pairs, site_flows) = scheme.max_site_flow(&p).expect("stage 1+2");
        let reference = scalar_stage3(&scheme, &p, &pairs, &site_flows);
        for threads in [1usize, 4] {
            let flat = flat_stage3(&p, &pairs, &site_flows, threads);
            prop_assert_eq!(&reference, &flat, "diverged at {} threads", threads);
        }
    }
}
