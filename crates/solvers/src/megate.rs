//! MegaTE's two-stage optimization (Algorithm 1, §4.2).
//!
//! 1. **SiteMerge** — aggregate endpoint demands per site pair:
//!    `D_k = Σ_i d_k^i`;
//! 2. **MaxSiteFlow** — the site-level MCF LP (Equation 2), solved
//!    exactly (simplex) when small, or with the Garg–Könemann FPTAS at
//!    scale;
//! 3. **MaxEndpointFlow** — per site pair, tunnels in ascending-weight
//!    order, select the endpoint subset for each tunnel's allocation
//!    `F_{k,t}`. Site pairs are independent and run in parallel (the
//!    paper's "parallelizable" note on line 11):
//!    [`MegaTeScheme::max_endpoint_flow_all`] runs the flat
//!    [`megate_ssp::SolverScratch`] kernel with work-stealing across
//!    workers. `tests/solver_equivalence.rs` pins it to an allocating
//!    per-pair scalar reference built on [`megate_ssp::fast_ssp`].
//!
//! The result is the binary assignment `f_{k,t}^i` of Equation 1:
//! every endpoint flow rides exactly one tunnel or is rejected.

use crate::types::{flows_from_assignment, SolveError, TeAllocation, TeProblem, TeScheme};
use megate_lp::{Commodity, McfProblem, PathSpec};
use megate_ssp::FastSspConfig;
use megate_topo::{SitePair, TunnelId};
use std::time::Instant;

/// How the first-stage LP is solved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LpMode {
    /// Pick exact vs FPTAS from the instance size (default). The
    /// decision compares [`McfProblem::size_estimate_with_basis`] —
    /// which is purely structural, counting any retained warm-start
    /// state but no demand/capacity *values* — against
    /// [`MegaTeConfig::auto_exact_entry_cap`]. The incremental engine
    /// ([`crate::incremental::IncrementalEngine`]) resolves this once
    /// per instance shape and latches the choice, so a warm re-solve
    /// can never flip exact↔FPTAS mid-stream.
    Auto,
    /// Always the exact sparse revised simplex (memory-walled).
    Exact,
    /// Always the multiplicative-weights FPTAS with the given ε.
    Fptas(f64),
}

/// [`LpMode`] with `Auto` resolved to a concrete solver — what the
/// incremental engine latches per instance shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ResolvedLpMode {
    /// Exact sparse revised simplex.
    Exact,
    /// FPTAS at this ε.
    Fptas(f64),
}

/// Tuning knobs for the MegaTE scheme.
#[derive(Debug, Clone)]
pub struct MegaTeConfig {
    /// FastSSP's `ε′` (Appendix A.2; "close to 0").
    pub fastssp_epsilon: f64,
    /// First-stage LP strategy.
    pub lp_mode: LpMode,
    /// ε of the FPTAS when `Auto` escalates to it.
    pub auto_fptas_eps: f64,
    /// `Auto` uses the exact simplex while the revised solver's
    /// working set ([`McfProblem::size_estimate`]) stays under this
    /// many entries.
    pub auto_exact_entry_cap: usize,
    /// Worker threads for the parallel `MaxEndpointFlow` stage.
    pub threads: usize,
    /// The objective's `ε` preferring shorter paths (Equation 1).
    pub epsilon_weight: f64,
    /// Final repair pass: first-fit still-unassigned flows onto tunnels
    /// with *actual* residual link capacity. Algorithm 1 confines each
    /// pair to its LP allocation `F_{k,t}`; when `|I_k|` is small the
    /// fractional split can strand capacity that an indivisible flow
    /// could still use. The repair only ever adds feasible assignments.
    pub residual_repair: bool,
}

impl Default for MegaTeConfig {
    fn default() -> Self {
        Self {
            fastssp_epsilon: 0.1,
            lp_mode: LpMode::Auto,
            auto_fptas_eps: 0.05,
            auto_exact_entry_cap: 4_000_000,
            threads: num_threads(),
            epsilon_weight: 1e-4,
            residual_repair: true,
        }
    }
}

fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// The MegaTE two-stage scheme.
#[derive(Debug, Clone, Default)]
pub struct MegaTeScheme {
    /// Configuration.
    pub config: MegaTeConfig,
}

impl MegaTeScheme {
    /// A scheme with explicit configuration.
    pub fn new(config: MegaTeConfig) -> Self {
        Self { config }
    }

    /// Stage 1+2: returns `(pairs, F)` where `F[k][t]` is the site-level
    /// bandwidth allocation of pair `k` on its `t`-th tunnel (ascending
    /// weight) — `MaxSiteFlow`'s output.
    pub fn max_site_flow(
        &self,
        problem: &TeProblem,
    ) -> Result<(Vec<SitePair>, Vec<Vec<f64>>), SolveError> {
        let pairs_demand = crate::types::aggregated_pairs(problem);
        if pairs_demand.is_empty() {
            return Ok((Vec::new(), Vec::new()));
        }
        let mcf = self.build_mcf(problem, &pairs_demand);
        let mode = self.resolve_mode(&mcf, None);
        let solution = self.solve_mcf(&mcf, mode)?;
        let pairs: Vec<SitePair> = pairs_demand.iter().map(|&(p, _)| p).collect();
        Ok((pairs, solution.flows))
    }

    /// Builds the stage-1 MCF from aggregated pair demands: one
    /// commodity per pair in `pairs_demand` order, one path per tunnel
    /// (ascending weight), full-graph link capacities.
    pub(crate) fn build_mcf(
        &self,
        problem: &TeProblem,
        pairs_demand: &[(SitePair, f64)],
    ) -> McfProblem {
        let commodities: Vec<Commodity> = pairs_demand
            .iter()
            .map(|&(pair, demand)| Commodity {
                demand,
                paths: problem
                    .tunnels
                    .tunnels_for(pair)
                    .iter()
                    .map(|&t| {
                        let tun = problem.tunnels.tunnel(t);
                        PathSpec {
                            links: tun.links.iter().map(|l| l.index()).collect(),
                            weight: tun.weight,
                        }
                    })
                    .collect(),
            })
            .collect();
        McfProblem {
            link_capacity: problem.link_capacities(),
            commodities,
            epsilon_weight: self.config.epsilon_weight,
        }
    }

    /// Resolves [`LpMode`] for this instance; `Auto` sizes the revised
    /// solver's working set including any retained warm-start state
    /// (both structural, so the decision is value-independent).
    pub(crate) fn resolve_mode(
        &self,
        mcf: &McfProblem,
        warm: Option<&megate_lp::LpBasis>,
    ) -> ResolvedLpMode {
        match self.config.lp_mode {
            LpMode::Exact => ResolvedLpMode::Exact,
            LpMode::Fptas(eps) => ResolvedLpMode::Fptas(eps),
            LpMode::Auto => {
                if mcf.size_estimate_with_basis(warm) <= self.config.auto_exact_entry_cap {
                    ResolvedLpMode::Exact
                } else {
                    ResolvedLpMode::Fptas(self.config.auto_fptas_eps)
                }
            }
        }
    }

    /// Solves the MCF with an already-resolved mode.
    pub(crate) fn solve_mcf(
        &self,
        mcf: &McfProblem,
        mode: ResolvedLpMode,
    ) -> Result<megate_lp::McfSolution, SolveError> {
        match mode {
            ResolvedLpMode::Exact => mcf.solve_exact().map_err(|e| SolveError::Lp(e.to_string())),
            ResolvedLpMode::Fptas(eps) => Ok(mcf.solve_fptas(eps)),
        }
    }

    /// Stage 3, `MaxEndpointFlow`, over the given site pairs. Runs the
    /// flat [`megate_ssp::SolverScratch`] kernel (zero steady-state allocation,
    /// one sort per pair) across `threads` workers with work-stealing
    /// over the site pairs, writing tunnel choices into `assignment`.
    ///
    /// Scheduling: the pairs are split into `threads` contiguous
    /// ranges, each with an atomic cursor. A worker drains its own
    /// range first, then claims from the fullest remaining victim —
    /// so one elephant pair cannot strand the other workers behind a
    /// fixed round-robin shard. The merged result is nonetheless
    /// **deterministic and bitwise-identical to the serial path**:
    /// site pairs touch disjoint demand indices, every pair is claimed
    /// exactly once (the cursor `fetch_add` is the claim), and each
    /// pair's selection depends only on its own demands and `F_k` —
    /// never on which worker ran it or in what order (DESIGN.md §5e).
    pub fn max_endpoint_flow_all(
        &self,
        problem: &TeProblem,
        pairs: &[SitePair],
        site_flows: &[Vec<f64>],
        assignment: &mut [Option<TunnelId>],
    ) -> crate::types::EndpointStageStats {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let wall_start = Instant::now();
        megate_ssp::flat::register_metrics();
        let threads = self.config.threads.max(1).min(pairs.len().max(1));
        let mut stats = crate::types::EndpointStageStats {
            threads,
            pairs: pairs.len(),
            ..Default::default()
        };
        if pairs.is_empty() {
            return stats;
        }

        // Contiguous ranges with one claim cursor each. `ends[w]` is
        // exclusive; range w covers pairs[starts[w]..ends[w]].
        let per = pairs.len().div_ceil(threads);
        let ranges: Vec<(usize, usize)> = (0..threads)
            .map(|w| (w * per, ((w + 1) * per).min(pairs.len())))
            .collect();
        let cursors: Vec<AtomicUsize> = ranges.iter().map(|&(s, _)| AtomicUsize::new(s)).collect();

        let cfg = FastSspConfig {
            epsilon_prime: self.config.fastssp_epsilon,
        };
        let pair_endpoints = megate_obs::histogram("solver.pair_endpoints");
        let demands = problem.demands.demands();

        // One worker's loop: claim pairs (own range, then steal), solve
        // each with the flat kernel, return (picks, busy_ns, stolen).
        let run_worker = |w: usize| {
            let busy_start = megate_obs::thread_cpu_ns();
            let mut scratch = megate_ssp::take_scratch();
            let mut picks: Vec<(usize, TunnelId)> = Vec::new();
            let mut stolen = 0usize;
            let mut victim = w;
            loop {
                let k = cursors[victim].fetch_add(1, Ordering::Relaxed);
                if k >= ranges[victim].1 {
                    // Range drained; pick the victim with the most
                    // unclaimed pairs left (own range first pass).
                    let next = (0..threads)
                        .filter(|&v| v != victim)
                        .max_by_key(|&v| {
                            ranges[v]
                                .1
                                .saturating_sub(cursors[v].load(Ordering::Relaxed))
                        })
                        .filter(|&v| cursors[v].load(Ordering::Relaxed) < ranges[v].1);
                    match next {
                        Some(v) => {
                            victim = v;
                            continue;
                        }
                        None => break,
                    }
                }
                if victim != w {
                    stolen += 1;
                }
                let pair = pairs[k];
                let tunnels = problem.tunnels.tunnels_for(pair);
                let indices = problem.demands.indices_for(pair);
                pair_endpoints.record(indices.len() as u64);
                scratch.begin_pair_with(indices.len(), |p| {
                    (demands[indices[p]].demand_mbps * 1000.0).round().max(1.0) as u64
                });
                for (t_idx, &t) in tunnels.iter().enumerate() {
                    if scratch.is_done() {
                        break;
                    }
                    let capacity_kbps = (site_flows[k][t_idx] * 1000.0).floor() as u64;
                    if capacity_kbps == 0 {
                        continue;
                    }
                    for &u in scratch.select_for_tunnel(capacity_kbps, cfg) {
                        picks.push((indices[u as usize], t));
                    }
                }
            }
            megate_ssp::recycle_scratch(scratch);
            (picks, megate_obs::thread_cpu_ns() - busy_start, stolen)
        };

        // (tunnel picks, busy ns, pairs stolen) per worker.
        type WorkerResult = (Vec<(usize, TunnelId)>, u64, usize);
        let results: Vec<WorkerResult> = if threads == 1 {
            vec![run_worker(0)]
        } else {
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|w| scope.spawn(move |_| run_worker(w)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker"))
                    .collect()
            })
            .expect("scope")
        };

        let mut total_stolen = 0usize;
        for (picks, busy_ns, stolen) in results {
            for (i, t) in picks {
                debug_assert!(assignment[i].is_none(), "demand assigned twice");
                assignment[i] = Some(t);
            }
            let busy = std::time::Duration::from_nanos(busy_ns);
            stats.total_busy += busy;
            stats.max_worker_busy = stats.max_worker_busy.max(busy);
            total_stolen += stolen;
        }
        stats.pairs_stolen = total_stolen;
        megate_obs::counter("solver.pairs_stolen").add(total_stolen as u64);
        stats.wall = wall_start.elapsed();
        stats
    }
}

impl TeScheme for MegaTeScheme {
    fn name(&self) -> &'static str {
        "MegaTE"
    }

    fn solve(&self, problem: &TeProblem) -> Result<TeAllocation, SolveError> {
        let start = Instant::now();
        let (pairs, site_flows) = {
            let _span = megate_obs::span("solver.max_site_flow");
            self.max_site_flow(problem)?
        };

        // Worker threads have their own span stacks, so ssp.* spans
        // opened inside max_endpoint_flow surface as flat paths; this
        // span still times the whole stage from the coordinator.
        let endpoint_span = megate_obs::span("solver.max_endpoint_flow");
        let mut assignment: Vec<Option<TunnelId>> = vec![None; problem.demands.len()];
        let stage = self.max_endpoint_flow_all(problem, &pairs, &site_flows, &mut assignment);
        drop(endpoint_span);

        if self.config.residual_repair {
            let _span = megate_obs::span("solver.repair");
            self.repair_with_residuals(problem, &mut assignment);
        }

        let tunnel_flow_mbps = flows_from_assignment(problem, &assignment);
        Ok(TeAllocation {
            scheme: self.name().to_string(),
            tunnel_flow_mbps,
            endpoint_assignment: Some(assignment),
            solve_time: start.elapsed(),
            endpoint_stage: Some(stage),
        })
    }
}

impl MegaTeScheme {
    /// First-fits still-unassigned demands (largest first) onto their
    /// pair's tunnels (shortest first) wherever every traversed link
    /// still has headroom. Strictly feasibility-preserving.
    pub(crate) fn repair_with_residuals(
        &self,
        problem: &TeProblem,
        assignment: &mut [Option<TunnelId>],
    ) {
        let mut loads = vec![0.0f64; problem.graph.link_count()];
        let demands = problem.demands.demands();
        for (i, choice) in assignment.iter().enumerate() {
            if let Some(t) = choice {
                let d = demands[i].demand_mbps;
                for &e in &problem.tunnels.tunnel(*t).links {
                    loads[e.index()] += d;
                }
            }
        }
        // Demand index -> site pair, precomputed once.
        let mut pair_of: Vec<Option<SitePair>> = vec![None; demands.len()];
        for pair in problem.demands.pairs() {
            for &i in problem.demands.indices_for(pair) {
                pair_of[i] = Some(pair);
            }
        }
        let candidates: Vec<(usize, SitePair)> = (0..assignment.len())
            .filter(|&i| assignment[i].is_none() && demands[i].demand_mbps > 0.0)
            .filter_map(|i| pair_of[i].map(|p| (i, p)))
            .collect();
        self.repair_candidates(problem, assignment, candidates, &mut loads);
    }

    /// The repair core behind [`repair_with_residuals`]: first-fits the
    /// given `(endpoint index, site pair)` candidates — largest demand
    /// first; `candidates` must be in ascending index order so ties
    /// break like the full pass — onto their pair's tunnels wherever
    /// `loads` leaves headroom, updating `loads` in place. The warm
    /// path calls this directly with only the dirty pairs' endpoints.
    ///
    /// [`repair_with_residuals`]: Self::repair_with_residuals
    pub(crate) fn repair_candidates(
        &self,
        problem: &TeProblem,
        assignment: &mut [Option<TunnelId>],
        mut candidates: Vec<(usize, SitePair)>,
        loads: &mut [f64],
    ) {
        let caps = problem.link_capacities();
        let demands = problem.demands.demands();
        candidates
            .sort_by(|&(a, _), &(b, _)| demands[b].demand_mbps.total_cmp(&demands[a].demand_mbps));
        for &(i, pair) in &candidates {
            let d = demands[i].demand_mbps;
            for &t in problem.tunnels.tunnels_for(pair) {
                let tun = problem.tunnels.tunnel(t);
                let fits = tun
                    .links
                    .iter()
                    .all(|&e| loads[e.index()] + d <= caps[e.index()] + 1e-9);
                if fits {
                    for &e in &tun.links {
                        loads[e.index()] += d;
                    }
                    assignment[i] = Some(t);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megate_topo::{b4, EndpointCatalog, TunnelTable, WeibullEndpoints};
    use megate_traffic::{DemandSet, TrafficConfig};

    fn fixture(pairs: usize, load: f64) -> (megate_topo::Graph, TunnelTable, DemandSet) {
        let g = b4();
        let tunnels = TunnelTable::for_all_pairs(&g, 4);
        let cat = EndpointCatalog::generate(&g, 600, WeibullEndpoints::with_scale(50.0), 3);
        let mut demands = DemandSet::generate(
            &g,
            &cat,
            &TrafficConfig {
                endpoint_pairs: pairs,
                site_pairs: 20,
                sigma: 0.8,
                seed: 2,
                ..Default::default()
            },
        );
        demands.scale_to_load(&g, load);
        (g, tunnels, demands)
    }

    #[test]
    fn solves_underloaded_instance_nearly_fully() {
        let (g, tunnels, demands) = fixture(300, 0.3);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let alloc = MegaTeScheme::default().solve(&p).unwrap();
        assert!(alloc.check_feasible(&p, 1e-6));
        let ratio = alloc.satisfied_ratio(&p);
        assert!(ratio > 0.95, "satisfied {ratio}");
    }

    #[test]
    fn respects_capacity_under_overload() {
        let (g, tunnels, demands) = fixture(300, 3.0);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let alloc = MegaTeScheme::default().solve(&p).unwrap();
        assert!(alloc.check_feasible(&p, 1e-6));
        let ratio = alloc.satisfied_ratio(&p);
        assert!(ratio < 1.0, "overloaded instance cannot be fully satisfied");
        assert!(
            ratio > 0.1,
            "should still carry meaningful traffic: {ratio}"
        );
        assert!(alloc.max_link_utilization(&p) <= 1.0 + 1e-6);
    }

    #[test]
    fn every_flow_rides_one_tunnel_of_its_pair() {
        let (g, tunnels, demands) = fixture(200, 1.0);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let alloc = MegaTeScheme::default().solve(&p).unwrap();
        let assign = alloc.endpoint_assignment.as_ref().unwrap();
        for pair in demands.pairs() {
            let ts = tunnels.tunnels_for(pair);
            for &i in demands.indices_for(pair) {
                if let Some(t) = assign[i] {
                    assert!(ts.contains(&t));
                }
            }
        }
    }

    #[test]
    fn parallel_and_serial_agree() {
        let (g, tunnels, demands) = fixture(250, 0.8);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let serial = MegaTeScheme::new(MegaTeConfig {
            threads: 1,
            ..Default::default()
        })
        .solve(&p)
        .unwrap();
        let parallel = MegaTeScheme::new(MegaTeConfig {
            threads: 8,
            ..Default::default()
        })
        .solve(&p)
        .unwrap();
        assert_eq!(serial.endpoint_assignment, parallel.endpoint_assignment);
    }

    #[test]
    fn exact_and_fptas_modes_land_close() {
        let (g, tunnels, demands) = fixture(200, 1.2);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let exact = MegaTeScheme::new(MegaTeConfig {
            lp_mode: LpMode::Exact,
            ..Default::default()
        })
        .solve(&p)
        .unwrap();
        let fptas = MegaTeScheme::new(MegaTeConfig {
            lp_mode: LpMode::Fptas(0.05),
            ..Default::default()
        })
        .solve(&p)
        .unwrap();
        assert!(fptas.check_feasible(&p, 1e-6));
        let re = exact.satisfied_ratio(&p);
        let rf = fptas.satisfied_ratio(&p);
        assert!(rf > re - 0.25, "exact {re} fptas {rf}");
    }

    #[test]
    fn prefers_short_tunnels() {
        let (g, tunnels, demands) = fixture(200, 0.3);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let alloc = MegaTeScheme::default().solve(&p).unwrap();
        let assign = alloc.endpoint_assignment.as_ref().unwrap();
        // Under light load most flows should ride their pair's shortest
        // tunnel (the objective's -eps*w term).
        let mut on_shortest = 0usize;
        let mut total = 0usize;
        for pair in demands.pairs() {
            let ts = tunnels.tunnels_for(pair);
            for &i in demands.indices_for(pair) {
                if let Some(t) = assign[i] {
                    total += 1;
                    if t == ts[0] {
                        on_shortest += 1;
                    }
                }
            }
        }
        assert!(total > 0);
        assert!(
            on_shortest as f64 / total as f64 > 0.8,
            "{on_shortest}/{total} on shortest"
        );
    }

    #[test]
    fn auto_solves_exactly_past_old_dense_tableau_cap() {
        // Regression for the Auto sizing heuristic. This Deltacom
        // instance's *dense* tableau exceeds the 4M-entry cap, so the
        // old heuristic fell back to the FPTAS; the revised working-set
        // estimate (m² + nnz) is far smaller, so Auto now solves it
        // exactly. Bitwise-equal flows against LpMode::Exact prove the
        // exact path was taken (the FPTAS never reproduces simplex
        // output exactly).
        let g = megate_topo::deltacom();
        let tunnels = TunnelTable::for_all_pairs(&g, 4);
        let cat = EndpointCatalog::generate(&g, 2600, WeibullEndpoints::with_scale(50.0), 5);
        let mut demands = DemandSet::generate(
            &g,
            &cat,
            &TrafficConfig {
                endpoint_pairs: 2600,
                site_pairs: 1300,
                sigma: 0.8,
                seed: 5,
                ..Default::default()
            },
        );
        demands.scale_to_load(&g, 0.9);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };

        let pairs = crate::types::aggregated_pairs(&p);
        let n_vars: usize = pairs
            .iter()
            .map(|&(pair, _)| tunnels.tunnels_for(pair).len())
            .sum();
        let n_rows = pairs.len() + p.link_capacities().len();
        let dense_tableau = (n_rows + 1) * (n_vars + n_rows + 1);
        let cap = MegaTeConfig::default().auto_exact_entry_cap;
        assert!(
            dense_tableau > cap,
            "instance must exceed the old dense estimate: {dense_tableau} vs {cap}"
        );

        let auto = MegaTeScheme::default();
        let exact = MegaTeScheme::new(MegaTeConfig {
            lp_mode: LpMode::Exact,
            ..Default::default()
        });
        let (_, f_auto) = auto.max_site_flow(&p).unwrap();
        let (_, f_exact) = exact.max_site_flow(&p).unwrap();
        assert_eq!(f_auto, f_exact, "Auto must have taken the exact path");
    }

    #[test]
    fn empty_demands_yield_zero_allocation() {
        let g = b4();
        let tunnels = TunnelTable::for_all_pairs(&g, 2);
        let demands = DemandSet::default();
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let alloc = MegaTeScheme::default().solve(&p).unwrap();
        assert_eq!(alloc.satisfied_mbps(), 0.0);
        assert!(alloc.check_feasible(&p, 1e-9));
    }
}
