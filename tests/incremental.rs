//! Incremental re-optimization suite (DESIGN.md §5f).
//!
//! The warm-started [`IncrementalEngine`] replaces stateless full
//! solves in the control loop. Its license to exist is that it is
//! indistinguishable from the stateless pipeline where that matters:
//!
//! * **100 % dirty** — a warm solve where every pair changed is
//!   bitwise-identical to [`MegaTeScheme::solve`] (and the
//!   QoS-sequential path to [`solve_per_qos`]);
//! * **churn = 0** — an unchanged instance returns the previous
//!   allocation verbatim, so the control-plane diff is empty;
//! * **safety** — any interleaving of warm and cold solves under
//!   demand and capacity churn keeps every link within capacity (the
//!   property test sweeps random interleavings).

use megate::prelude::*;
use megate_solvers::{endpoint_paths, IncrementalConfig, IncrementalEngine};
use proptest::prelude::*;

fn instance(
    endpoint_pairs: usize,
    site_pairs: usize,
    load: f64,
    seed: u64,
) -> (Graph, TunnelTable, DemandSet) {
    let graph = megate_topo::b4();
    let tunnels = TunnelTable::for_all_pairs(&graph, 3);
    let catalog = EndpointCatalog::generate(
        &graph,
        endpoint_pairs * 2,
        WeibullEndpoints::with_scale(40.0),
        seed,
    );
    let mut demands = DemandSet::generate(
        &graph,
        &catalog,
        &TrafficConfig {
            endpoint_pairs,
            site_pairs,
            sigma: 0.8,
            seed,
            ..Default::default()
        },
    );
    demands.scale_to_load(&graph, load);
    (graph, tunnels, demands)
}

/// An engine that never forces cold solves: cadence off, churn
/// threshold at 100 % — every post-seed solve takes the warm path.
fn always_warm(qos_sequential: bool) -> IncrementalEngine {
    IncrementalEngine::new(IncrementalConfig {
        qos_sequential,
        warm_churn_max_ppm: 1_000_000,
        cold_every: 0,
        ..Default::default()
    })
}

/// Multiplies every demand of `pair` by `factor`.
fn perturb_pair(demands: &mut DemandSet, pair: SitePair, factor: f64) {
    let idxs: Vec<usize> = demands.indices_for(pair).to_vec();
    for i in idxs {
        let d = demands.demands()[i].demand_mbps;
        demands.set_demand_mbps(i, d * factor);
    }
}

#[test]
fn full_dirty_warm_solve_is_bitwise_identical_to_cold() {
    let (graph, tunnels, mut demands) = instance(500, 18, 0.9, 41);
    let mut eng = always_warm(false);
    let p = TeProblem {
        graph: &graph,
        tunnels: &tunnels,
        demands: &demands,
    };
    let (_, seed_report) = eng.solve(&p, false).unwrap();
    assert!(seed_report.cold);

    demands.scale(1.02); // every demand changes bitwise → every pair dirty
    let p = TeProblem {
        graph: &graph,
        tunnels: &tunnels,
        demands: &demands,
    };
    let (warm, report) = eng.solve(&p, false).unwrap();
    assert!(
        !report.cold,
        "churn threshold of 100% must still warm-solve"
    );
    assert_eq!(report.dirty_pairs, report.total_pairs);

    let cold = MegaTeScheme::default().solve(&p).unwrap();
    assert_eq!(warm.tunnel_flow_mbps, cold.tunnel_flow_mbps);
    assert_eq!(warm.endpoint_assignment, cold.endpoint_assignment);
}

#[test]
fn full_dirty_qos_warm_solve_matches_solve_per_qos() {
    let (graph, tunnels, mut demands) = instance(500, 18, 1.1, 43);
    let mut eng = always_warm(true);
    let p = TeProblem {
        graph: &graph,
        tunnels: &tunnels,
        demands: &demands,
    };
    let (_, seed_report) = eng.solve(&p, false).unwrap();
    assert!(seed_report.cold);

    demands.scale(0.98);
    let p = TeProblem {
        graph: &graph,
        tunnels: &tunnels,
        demands: &demands,
    };
    let (warm, report) = eng.solve(&p, false).unwrap();
    assert!(!report.cold);

    let cold = solve_per_qos(&MegaTeScheme::default(), &p).unwrap();
    assert_eq!(warm.scheme, cold.scheme);
    assert_eq!(warm.tunnel_flow_mbps, cold.tunnel_flow_mbps);
    assert_eq!(warm.endpoint_assignment, cold.endpoint_assignment);
    assert_eq!(report.dirty_pairs, report.total_pairs);
}

#[test]
fn single_class_demands_solve_the_same_with_and_without_the_class_loop() {
    // With every demand in Class1 the three-class list has one
    // non-empty entry, whose sub-problem is the whole instance on the
    // full graph: the sequential and single-pass engines must agree
    // bitwise — cold, at 100 % dirty, and after one pair moves.
    let graph = megate_topo::b4();
    let tunnels = TunnelTable::for_all_pairs(&graph, 3);
    let catalog = EndpointCatalog::generate(&graph, 1000, WeibullEndpoints::with_scale(40.0), 61);
    let mut demands = DemandSet::generate(
        &graph,
        &catalog,
        &TrafficConfig {
            endpoint_pairs: 500,
            site_pairs: 18,
            sigma: 0.8,
            seed: 61,
            qos_mix: [1.0, 0.0, 0.0],
            ..Default::default()
        },
    );
    demands.scale_to_load(&graph, 1.1);
    assert!(demands.demands().iter().all(|d| d.qos == QosClass::Class1));

    let mut sequential = always_warm(true);
    let mut single = always_warm(false);
    let mut assert_same = |step: &str, demands: &DemandSet, expect_cold: bool| {
        let p = TeProblem {
            graph: &graph,
            tunnels: &tunnels,
            demands,
        };
        let (a, ra) = sequential.solve(&p, false).unwrap();
        let (b, rb) = single.solve(&p, false).unwrap();
        assert_eq!((ra.cold, rb.cold), (expect_cold, expect_cold), "{step}");
        assert_eq!(ra.dirty_pairs, rb.dirty_pairs, "{step}");
        assert_eq!(ra.total_pairs, rb.total_pairs, "{step}");
        assert_eq!(a.endpoint_assignment, b.endpoint_assignment, "{step}");
        assert_eq!(a.tunnel_flow_mbps, b.tunnel_flow_mbps, "{step}");
    };
    assert_same("cold", &demands, true);
    demands.scale(1.02);
    assert_same("100% dirty", &demands, false);
    let pair = demands.pairs().next().unwrap();
    perturb_pair(&mut demands, pair, 1.3);
    assert_same("one pair", &demands, false);
}

#[test]
fn zero_churn_warm_solve_publishes_an_empty_diff() {
    let (graph, tunnels, demands) = instance(400, 16, 0.8, 47);
    let p = TeProblem {
        graph: &graph,
        tunnels: &tunnels,
        demands: &demands,
    };
    let mut eng = always_warm(false);
    let (first, _) = eng.solve(&p, false).unwrap();
    let (second, report) = eng.solve(&p, false).unwrap();
    assert!(!report.cold);
    assert_eq!(report.dirty_pairs, 0);

    // The allocation is carried verbatim, so the per-endpoint path diff
    // — what the controller would publish — is empty.
    let prev = endpoint_paths(
        &demands,
        &tunnels,
        first.endpoint_assignment.as_ref().unwrap(),
    );
    let next = endpoint_paths(
        &demands,
        &tunnels,
        second.endpoint_assignment.as_ref().unwrap(),
    );
    let diff = diff_endpoint_paths(&prev, &next);
    assert!(diff.changed.is_empty(), "zero churn must publish nothing");
    assert!(diff.removed.is_empty());
    assert_eq!(diff.unchanged.len(), prev.len());
}

#[test]
fn capacity_shrink_is_respected_by_the_warm_path() {
    let (graph, tunnels, demands) = instance(500, 18, 1.3, 53);
    let p = TeProblem {
        graph: &graph,
        tunnels: &tunnels,
        demands: &demands,
    };
    let mut eng = always_warm(false);
    eng.solve(&p, false).unwrap();

    // Halve a handful of links; pairs traversing them must re-solve
    // against the smaller capacity, everyone else carries forward.
    let mut shrunk = graph.clone();
    for e in [0u32, 3, 7] {
        shrunk.link_mut(megate_topo::LinkId(e)).capacity_mbps *= 0.5;
    }
    let p2 = TeProblem {
        graph: &shrunk,
        tunnels: &tunnels,
        demands: &demands,
    };
    let (alloc, report) = eng.solve(&p2, false).unwrap();
    assert!(!report.cold);
    assert!(report.dirty_pairs >= 1);
    assert!(
        report.dirty_pairs < report.total_pairs,
        "a 3-link shrink must not dirty the whole B4 pair set"
    );
    assert!(
        alloc.check_feasible(&p2, 1e-6),
        "halved links must not be overfilled"
    );
}

#[test]
fn warm_solves_recover_after_forced_cold_interleaving() {
    let (graph, tunnels, mut demands) = instance(400, 16, 0.8, 59);
    let mut eng = always_warm(false);
    let p = TeProblem {
        graph: &graph,
        tunnels: &tunnels,
        demands: &demands,
    };
    eng.solve(&p, false).unwrap();

    let pair = demands.pairs().next().unwrap();
    for round in 0..4 {
        perturb_pair(
            &mut demands,
            pair,
            if round % 2 == 0 { 1.2 } else { 1.0 / 1.2 },
        );
        let p = TeProblem {
            graph: &graph,
            tunnels: &tunnels,
            demands: &demands,
        };
        let force_cold = round == 1;
        let (alloc, report) = eng.solve(&p, force_cold).unwrap();
        assert_eq!(report.cold, force_cold, "round {round}");
        assert!(alloc.check_feasible(&p, 1e-6), "round {round}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random interleavings of warm and cold solves under demand and
    /// capacity churn: every interval's allocation stays within link
    /// capacity, and the warm/cold decision matches the report.
    #[test]
    fn interleaved_warm_cold_solves_stay_feasible(
        endpoint_pairs in 150usize..400,
        site_pairs in 8usize..24,
        load in 0.4f64..1.6,
        seed in 0u64..1000,
        qos_flag in 0u8..2,
    ) {
        let (graph, tunnels, mut demands) = instance(endpoint_pairs, site_pairs, load, seed);
        let mut eng = always_warm(qos_flag == 1);
        let pairs: Vec<SitePair> = demands.pairs().collect();

        let p = TeProblem { graph: &graph, tunnels: &tunnels, demands: &demands };
        let (seed_alloc, seed_report) = eng.solve(&p, false).unwrap();
        prop_assert!(seed_report.cold);
        prop_assert!(seed_alloc.check_feasible(&p, 1e-5));

        for round in 0..5usize {
            // Perturb a seed-dependent slice of the pairs, shrink or
            // restore a link every other round, and force a cold solve
            // on round 2 to interleave the paths.
            let n_dirty = (seed as usize + round) % pairs.len().max(1);
            let factor = if round % 2 == 0 { 1.15 } else { 1.0 / 1.15 };
            for &pair in pairs.iter().take(n_dirty) {
                perturb_pair(&mut demands, pair, factor);
            }
            let mut g = graph.clone();
            if round % 2 == 1 {
                let link = megate_topo::LinkId((seed % g.link_count() as u64) as u32);
                g.link_mut(link).capacity_mbps *= 0.7;
            }
            let p = TeProblem { graph: &g, tunnels: &tunnels, demands: &demands };
            let force_cold = round == 2;
            let (alloc, report) = eng.solve(&p, force_cold).unwrap();
            prop_assert!(
                alloc.check_feasible(&p, 1e-5),
                "round {} (cold={}) violated capacity", round, report.cold
            );
            if force_cold {
                prop_assert!(report.cold);
            }
            prop_assert!(report.dirty_pairs <= report.total_pairs);
        }
    }
}
