//! QoS-sequential allocation (§4.1).
//!
//! "We determine bandwidth allocation rate by invoking MaxAllFlow
//! separately for QoS classes in priority order. Once a higher QoS
//! class is allocated, the remaining capacity of link e is updated by
//! `c_e ← c_e − Σ d f L(t,e)`, which is then used for the lower QoS
//! class."
//!
//! `solve_classes` is that loop, once: it walks a class list on the
//! residual graph, hands each class's sub-problem to the caller's
//! solve, and merges the allocations back into one whole-interval
//! allocation with original demand indexing. [`solve_per_qos`] drives it
//! with any stateless [`TeScheme`]; the incremental engine drives it
//! with its retained per-class cores.

use crate::types::{EndpointStageStats, SolveError, TeAllocation, TeProblem, TeScheme};
use megate_topo::LinkId;
use megate_traffic::{DemandSet, QosClass};
use std::borrow::Cow;
use std::time::Instant;

/// One pass of the class loop: a demand subset and where each of its
/// demands sits in the interval's whole set.
pub(crate) struct ClassDemands<'a> {
    /// The class, or `None` for the single pass over all demands.
    qos: Option<QosClass>,
    /// The pass's demands.
    pub(crate) demands: Cow<'a, DemandSet>,
    /// Index in `demands` → index in the whole set (`None`: the same).
    back_map: Option<Vec<usize>>,
}

/// The class list of one interval: the three classes in priority order,
/// or — when not `sequential` — one pass over all demands.
pub(crate) fn class_demands(demands: &DemandSet, sequential: bool) -> Vec<ClassDemands<'_>> {
    if !sequential {
        return vec![ClassDemands {
            qos: None,
            demands: Cow::Borrowed(demands),
            back_map: None,
        }];
    }
    QosClass::IN_PRIORITY_ORDER
        .into_iter()
        .map(|qos| {
            let (class, back_map) = demands.filter_qos_with_map(qos);
            ClassDemands {
                qos: Some(qos),
                demands: Cow::Owned(class),
                back_map: Some(back_map),
            }
        })
        .collect()
}

/// Solves `classes` in order, each on the capacity the earlier ones
/// left (`c_e ← c_e − Σ d f L(t,e)`), with `solve_class(position,
/// sub_problem)`; classes without demands are skipped. The merged
/// allocation carries endpoint assignments unless a class that ran had
/// none.
pub(crate) fn solve_classes(
    scheme: String,
    problem: &TeProblem,
    classes: &[ClassDemands],
    mut solve_class: impl FnMut(usize, &TeProblem) -> Result<TeAllocation, SolveError>,
) -> Result<TeAllocation, SolveError> {
    let start = Instant::now();
    let mut residual = problem.graph.clone();
    let mut tunnel_flow_mbps = vec![0.0; problem.tunnels.tunnel_count()];
    let mut merged_assignment = Some(vec![None; problem.demands.len()]);
    let mut endpoint_stage: Option<EndpointStageStats> = None;

    for (ci, class) in classes.iter().enumerate() {
        if class.demands.is_empty() {
            continue;
        }
        // Per-class allocation time (span names must be static).
        let _span = class.qos.map(|qos| {
            megate_obs::span(match qos {
                QosClass::Class1 => "solver.qos.class1",
                QosClass::Class2 => "solver.qos.class2",
                QosClass::Class3 => "solver.qos.class3",
            })
        });
        let sub = TeProblem {
            graph: &residual,
            tunnels: problem.tunnels,
            demands: &class.demands,
        };
        let alloc = solve_class(ci, &sub)?;

        // Merge flows and (when present) per-demand assignments.
        for (t, f) in alloc.tunnel_flow_mbps.iter().enumerate() {
            tunnel_flow_mbps[t] += f;
        }
        match (&mut merged_assignment, &alloc.endpoint_assignment) {
            (Some(merged), Some(assign)) => {
                for (sub_i, &choice) in assign.iter().enumerate() {
                    let i = class.back_map.as_ref().map_or(sub_i, |m| m[sub_i]);
                    merged[i] = choice;
                }
            }
            _ => merged_assignment = None,
        }
        // The interval's stage-3 profile is the sum over classes (each
        // class runs MaxEndpointFlow once on its sub-problem).
        if let Some(s) = &alloc.endpoint_stage {
            endpoint_stage
                .get_or_insert_with(EndpointStageStats::default)
                .merge(s);
        }

        // Subtract this class's load from the residual capacities.
        let loads = alloc.link_loads(&sub);
        for (e, load) in loads.into_iter().enumerate() {
            if load > 0.0 {
                let link = residual.link_mut(LinkId(e as u32));
                link.capacity_mbps = (link.capacity_mbps - load).max(f64::MIN_POSITIVE);
            }
        }
    }

    Ok(TeAllocation {
        scheme,
        tunnel_flow_mbps,
        endpoint_assignment: merged_assignment,
        solve_time: start.elapsed(),
        endpoint_stage,
    })
}

/// Solves the instance class by class on residual capacity.
pub fn solve_per_qos<S: TeScheme>(
    scheme: &S,
    problem: &TeProblem,
) -> Result<TeAllocation, SolveError> {
    let classes = class_demands(problem.demands, true);
    solve_classes(
        format!("{}+QoS", scheme.name()),
        problem,
        &classes,
        |_, sub| scheme.solve(sub),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{IncrementalConfig, IncrementalEngine};
    use crate::megate::MegaTeScheme;
    use crate::teal::TealScheme;
    use megate_topo::{b4, EndpointCatalog, TunnelTable, WeibullEndpoints};
    use megate_traffic::{DemandSet, TrafficConfig};

    fn fixture(load: f64) -> (megate_topo::Graph, TunnelTable, DemandSet) {
        let g = b4();
        let tunnels = TunnelTable::for_all_pairs(&g, 3);
        let cat = EndpointCatalog::generate(&g, 400, WeibullEndpoints::with_scale(30.0), 3);
        let mut demands = DemandSet::generate(
            &g,
            &cat,
            &TrafficConfig {
                endpoint_pairs: 600,
                site_pairs: 20,
                sigma: 0.8,
                seed: 13,
                ..Default::default()
            },
        );
        demands.scale_to_load(&g, load);
        (g, tunnels, demands)
    }

    #[test]
    fn merged_allocation_feasible_on_original_graph() {
        let (g, tunnels, demands) = fixture(1.5);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let alloc = solve_per_qos(&MegaTeScheme::default(), &p).unwrap();
        assert!(alloc.check_feasible(&p, 1e-6));
        assert!(alloc.endpoint_assignment.is_some());
    }

    #[test]
    fn class1_gets_priority_under_overload() {
        let (g, tunnels, demands) = fixture(3.0);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let alloc = solve_per_qos(&MegaTeScheme::default(), &p).unwrap();
        let demand_of = |q| {
            demands
                .demands()
                .iter()
                .filter(|d| d.qos == q)
                .map(|d| d.demand_mbps)
                .sum::<f64>()
        };
        let sat1 = alloc.satisfied_mbps_for_qos(&p, QosClass::Class1).unwrap();
        let sat3 = alloc.satisfied_mbps_for_qos(&p, QosClass::Class3).unwrap();
        let r1 = sat1 / demand_of(QosClass::Class1);
        let r3 = sat3 / demand_of(QosClass::Class3);
        assert!(
            r1 > r3,
            "class 1 must be better served under overload: {r1} vs {r3}"
        );
        assert!(r1 > 0.9, "class 1 nearly fully served: {r1}");
    }

    #[test]
    fn class1_latency_beats_class3_with_megate() {
        let (g, tunnels, demands) = fixture(2.0);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let alloc = solve_per_qos(&MegaTeScheme::default(), &p).unwrap();
        // Normalized (per-pair) latency, as in Figure 11 — class 1
        // allocates first and lands on the shortest tunnels.
        let l1 = alloc.mean_normalized_latency(&p, Some(QosClass::Class1));
        let l3 = alloc.mean_normalized_latency(&p, Some(QosClass::Class3));
        assert!(l1 <= l3 + 1e-9, "QoS1 normalized latency {l1} vs QoS3 {l3}");
    }

    #[test]
    fn fractional_scheme_merges_without_assignment() {
        let (g, tunnels, demands) = fixture(1.0);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let alloc = solve_per_qos(&TealScheme::default(), &p).unwrap();
        assert!(alloc.endpoint_assignment.is_none());
        assert!(alloc.check_feasible(&p, 1e-6));
        assert!(alloc.satisfied_mbps() > 0.0);
    }

    #[test]
    fn empty_demands_keep_the_assignment_on_every_path() {
        // The controller maps a missing assignment to an error, so an
        // interval without demands must still answer `Some([])` — from
        // the stateless scheme, the class loop and the engine alike.
        let g = b4();
        let tunnels = TunnelTable::for_all_pairs(&g, 2);
        let demands = DemandSet::default();
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let scheme = MegaTeScheme::default();
        let direct = scheme.solve(&p).unwrap();
        let per_qos = solve_per_qos(&scheme, &p).unwrap();
        assert_eq!(direct.endpoint_assignment, Some(vec![]));
        assert_eq!(per_qos.endpoint_assignment, Some(vec![]));
        assert_eq!(per_qos.satisfied_mbps(), 0.0);
        for qos_sequential in [false, true] {
            let mut engine = IncrementalEngine::new(IncrementalConfig {
                qos_sequential,
                ..Default::default()
            });
            let (alloc, _) = engine.solve(&p, false).unwrap();
            assert_eq!(alloc.endpoint_assignment, Some(vec![]));
        }
    }

    #[test]
    fn qos_split_total_close_to_single_shot() {
        let (g, tunnels, demands) = fixture(1.0);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let single = MegaTeScheme::default().solve(&p).unwrap();
        let per_qos = solve_per_qos(&MegaTeScheme::default(), &p).unwrap();
        // Sequential allocation sacrifices little total throughput.
        assert!(
            per_qos.satisfied_mbps() > single.satisfied_mbps() * 0.9,
            "per-qos {} vs single {}",
            per_qos.satisfied_mbps(),
            single.satisfied_mbps()
        );
    }
}
