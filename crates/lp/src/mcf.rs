//! Path-formulation multicommodity flow (MCF) — the shape of MegaTE's
//! first-stage `MaxSiteFlow` LP (Equation 2):
//!
//! ```text
//! max  Σ_{k,t} F_{k,t} − ε Σ_{k,t} w_t F_{k,t}
//! s.t. Σ_t F_{k,t} ≤ D_k                 (demand caps)
//!      Σ_{k,t} F_{k,t} L(t,e) ≤ c_e      (link capacities)
//!      F ≥ 0
//! ```
//!
//! Two solvers:
//!
//! * [`McfProblem::solve_exact`] — builds the LP and runs the sparse
//!   revised simplex; exact but memory-bounded (mirrors Gurobi's role
//!   at small and medium scale).
//! * [`McfProblem::solve_fptas`] — Fleischer's round-robin variant of
//!   the Garg–Könemann multiplicative-weights algorithm, `(1−O(ε))`-
//!   optimal in near-linear time. Demand caps are folded in as one
//!   virtual edge per commodity. Used at hyper-scale.
//!
//! The FPTAS prices commodity-locally: it keeps the instance as a flat
//! path → links CSR plus one dual length per edge, and when the
//! round-robin reaches a commodity it sums that commodity's own tunnel
//! lengths from the edge lengths, routes, and updates only the routed
//! tunnel's edges. A step costs own tunnels × hops reads (≈ 4 × 7 on
//! TWAN) however many other tunnels share the touched links; no global
//! per-path state exists to keep current, so there is nothing to fan
//! out, nothing to drift, and the solve is one serial loop. Each solve
//! also certifies its own optimality gap from the LP dual bound
//! `min D(l)/α(l)` over the lengths it passed through.

use crate::revised::LpBasis;
use crate::simplex::{LinearProgram, LpError, LpStatus};

/// Result of [`McfProblem::solve_exact_warm`]: the MCF solution plus
/// the final simplex basis for retention across intervals.
#[derive(Debug, Clone)]
pub struct McfWarmSolve {
    /// The exact MCF solution (identical contract to
    /// [`McfProblem::solve_exact`]).
    pub solution: McfSolution,
    /// The final basis to retain for the next same-shaped solve.
    pub basis: LpBasis,
    /// Whether the supplied basis was actually re-entered from.
    pub warm_used: bool,
}

/// One pre-established path (tunnel) of a commodity.
#[derive(Debug, Clone)]
pub struct PathSpec {
    /// Link indices this path traverses (defines `L(t, e)`).
    pub links: Vec<usize>,
    /// Tunnel weight `w_t` (latency; higher = worse).
    pub weight: f64,
}

/// One commodity: a site pair `k` with aggregated demand `D_k` and its
/// tunnel set `T_k`.
#[derive(Debug, Clone)]
pub struct Commodity {
    /// Aggregated demand `D_k` (Mbps).
    pub demand: f64,
    /// Pre-established paths, expected sorted by ascending weight.
    pub paths: Vec<PathSpec>,
}

/// A path-formulation MCF instance.
#[derive(Debug, Clone)]
pub struct McfProblem {
    /// Capacity `c_e` per link (Mbps).
    pub link_capacity: Vec<f64>,
    /// All commodities.
    pub commodities: Vec<Commodity>,
    /// The objective's `ε` preferring shorter paths. The paper uses "a
    /// small constant"; it must satisfy `ε·max(w_t) < 1` so carrying
    /// traffic always beats dropping it.
    pub epsilon_weight: f64,
}

/// What one FPTAS solve cost and how good it provably is. Crate-private:
/// the `lp.fptas_*` metrics are fed from it, and tests read it directly
/// so concurrent solves on the process-global registry cannot disturb
/// them.
#[derive(Debug, Clone, Copy, Default)]
struct FptasStats {
    /// Phases (`alpha *= 1+eps` rounds).
    phases: u64,
    /// Routing steps: one tunnel shipped its bottleneck amount.
    steps: u64,
    /// Tunnel dual-length evaluations, dual-bound samples included.
    path_evals: u64,
    /// `1e6·(1 − total_flow/bound)` against the best sampled LP dual
    /// bound: a certificate, not an estimate from ε.
    gap_ppm: i64,
}

/// How many phase starts (evenly spaced) the dual bound is sampled at;
/// each sample costs about one phase's pricing pass, so 32 of a few thousand
/// phases stays under 1 % of the solve (measured ≈ 0.5 % on TWAN).
const BOUND_SAMPLES: f64 = 32.0;

/// A solved MCF.
#[derive(Debug, Clone)]
pub struct McfSolution {
    /// `flows[k][t]` = `F_{k,t}` in Mbps.
    pub flows: Vec<Vec<f64>>,
    /// `Σ F_{k,t}` — total satisfied demand.
    pub total_flow: f64,
    /// Objective value including the `−ε Σ w F` term.
    pub objective: f64,
    /// Congestion price per link: the dual of the link's capacity
    /// constraint. Exact solves report true shadow prices; the FPTAS
    /// reports its (normalized) multiplicative-weight lengths, which
    /// converge to the duals — either way, a positive price marks a
    /// binding bottleneck. Empty only for degenerate instances.
    pub link_prices: Vec<f64>,
}

impl McfSolution {
    /// Satisfied-demand ratio against the instance's total demand.
    pub fn satisfied_ratio(&self, problem: &McfProblem) -> f64 {
        let total: f64 = problem.commodities.iter().map(|c| c.demand).sum();
        if total <= 0.0 {
            return 1.0;
        }
        self.total_flow / total
    }

    /// Per-link load under this solution.
    pub fn link_loads(&self, problem: &McfProblem) -> Vec<f64> {
        let mut load = vec![0.0; problem.link_capacity.len()];
        for (k, commodity) in problem.commodities.iter().enumerate() {
            for (t, path) in commodity.paths.iter().enumerate() {
                let f = self.flows[k][t];
                for &e in &path.links {
                    load[e] += f;
                }
            }
        }
        load
    }
}

impl McfProblem {
    /// Total demand over all commodities.
    pub fn total_demand(&self) -> f64 {
        self.commodities.iter().map(|c| c.demand).sum()
    }

    /// Validates a solution: non-negative flows, demand caps, and link
    /// capacities all hold within `tol` (relative).
    pub fn check_feasible(&self, sol: &McfSolution, tol: f64) -> bool {
        if sol.flows.len() != self.commodities.len() {
            return false;
        }
        for (k, c) in self.commodities.iter().enumerate() {
            if sol.flows[k].len() != c.paths.len() {
                return false;
            }
            let sum: f64 = sol.flows[k].iter().sum();
            if sol.flows[k].iter().any(|&f| f < -1e-9) {
                return false;
            }
            if sum > c.demand * (1.0 + tol) + 1e-9 {
                return false;
            }
        }
        let loads = sol.link_loads(self);
        loads
            .iter()
            .zip(&self.link_capacity)
            .all(|(&l, &c)| l <= c * (1.0 + tol) + 1e-9)
    }

    /// Builds the path-form LP: one variable per `(commodity, path)` in
    /// order, demand-cap rows for non-empty commodities, then capacity
    /// rows for used links. Returns the LP, the variable layout, and
    /// the link→row mapping for dual extraction.
    #[allow(clippy::type_complexity)]
    fn build_lp(&self) -> (LinearProgram, Vec<(usize, usize)>, Vec<Option<usize>>) {
        // Variable layout: one variable per (commodity, path), in order.
        let mut var_of: Vec<(usize, usize)> = Vec::new();
        let mut objective = Vec::new();
        for (k, c) in self.commodities.iter().enumerate() {
            for (t, p) in c.paths.iter().enumerate() {
                var_of.push((k, t));
                objective.push(1.0 - self.epsilon_weight * p.weight);
            }
        }
        let mut lp = LinearProgram::maximize(objective);

        // Demand caps.
        let mut next_var = 0usize;
        for c in &self.commodities {
            let entries: Vec<(usize, f64)> =
                (0..c.paths.len()).map(|t| (next_var + t, 1.0)).collect();
            if !entries.is_empty() {
                lp.add_le(entries, c.demand.max(0.0));
            }
            next_var += c.paths.len();
        }
        // Link capacities.
        let mut per_link: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.link_capacity.len()];
        for (v, &(k, t)) in var_of.iter().enumerate() {
            for &e in &self.commodities[k].paths[t].links {
                per_link[e].push((v, 1.0));
            }
        }
        let mut link_row: Vec<Option<usize>> = vec![None; self.link_capacity.len()];
        for (e, entries) in per_link.into_iter().enumerate() {
            if !entries.is_empty() {
                link_row[e] = Some(lp.rows.len());
                lp.add_le(entries, self.link_capacity[e].max(0.0));
            }
        }
        (lp, var_of, link_row)
    }

    fn unpack_lp_solution(
        &self,
        s: &crate::simplex::LpSolution,
        var_of: &[(usize, usize)],
        link_row: &[Option<usize>],
    ) -> McfSolution {
        debug_assert_eq!(s.status, LpStatus::Optimal, "MCF LPs are bounded");
        let mut flows: Vec<Vec<f64>> = self
            .commodities
            .iter()
            .map(|c| vec![0.0; c.paths.len()])
            .collect();
        for (v, &(k, t)) in var_of.iter().enumerate() {
            flows[k][t] = s.x[v];
        }
        let total_flow = s.x.iter().sum();
        let link_prices = link_row
            .iter()
            .map(|r| r.map_or(0.0, |row| s.duals[row]))
            .collect();
        McfSolution {
            flows,
            total_flow,
            objective: s.objective,
            link_prices,
        }
    }

    /// Exact solve via the sparse revised simplex. Fails with
    /// [`LpError::TooLarge`] when the basis inverse would not fit — the
    /// same out-of-memory wall the paper reports for LP-all at scale.
    pub fn solve_exact(&self) -> Result<McfSolution, LpError> {
        let _span = megate_obs::span("lp.exact");
        let (lp, var_of, link_row) = self.build_lp();
        let s = lp.solve()?;
        Ok(self.unpack_lp_solution(&s, &var_of, &link_row))
    }

    /// [`solve_exact`](McfProblem::solve_exact) with optional simplex
    /// warm-start from the [`LpBasis`] retained by a previous solve of
    /// a same-shaped instance (same commodities/paths/links; only
    /// demands and capacities changed). Falls back to a cold start —
    /// never to an error — when the basis does not fit, and always
    /// returns the final basis for the caller to retain.
    pub fn solve_exact_warm(&self, warm: Option<&LpBasis>) -> Result<McfWarmSolve, LpError> {
        let _span = megate_obs::span("lp.exact");
        let (lp, var_of, link_row) = self.build_lp();
        let w = lp.solve_warm(warm)?;
        let solution = self.unpack_lp_solution(&w.solution, &var_of, &link_row);
        Ok(McfWarmSolve {
            solution,
            basis: w.basis,
            warm_used: w.warm_used,
        })
    }

    /// Estimated working-set entries of [`solve_exact`]: `2m² + nnz`
    /// for the revised simplex's basis inverse, its refactorization
    /// scratch, and the sparse constraint columns, counting only rows
    /// the LP would actually materialize (non-empty demand caps and
    /// used links).
    ///
    /// The solver layer's `LpMode::Auto` compares this against its
    /// entry cap to decide exact-vs-FPTAS without building the LP.
    ///
    /// [`solve_exact`]: McfProblem::solve_exact
    pub fn size_estimate(&self) -> usize {
        let mut used_link = vec![false; self.link_capacity.len()];
        let mut rows = 0usize;
        let mut nnz = 0usize;
        for c in &self.commodities {
            if !c.paths.is_empty() {
                rows += 1; // demand cap row
                nnz += c.paths.len();
            }
            for p in &c.paths {
                nnz += p.links.len();
                for &e in &p.links {
                    used_link[e] = true;
                }
            }
        }
        rows += used_link.iter().filter(|&&u| u).count();
        rows.saturating_mul(rows)
            .saturating_mul(2)
            .saturating_add(nnz)
    }

    /// [`size_estimate`](McfProblem::size_estimate) plus the footprint
    /// of warm-start state retained across solves (the basis index per
    /// row). Both terms are purely structural — independent of demand
    /// and capacity *values* — so for a fixed instance shape this
    /// estimate is identical on every re-solve. The solver layer's
    /// `LpMode::Auto` relies on that: it sizes the instance once per
    /// shape and latches the exact-vs-FPTAS choice, so a warm re-solve
    /// can never flip modes mid-stream.
    pub fn size_estimate_with_basis(&self, warm: Option<&LpBasis>) -> usize {
        self.size_estimate()
            .saturating_add(warm.map_or(0, |b| b.len()))
    }

    /// `(1−O(ε))`-optimal solve via Fleischer's round-robin variant of
    /// Garg–Könemann. `eps` in (0, 0.5]; smaller = slower, closer to
    /// optimal. Among near-shortest (by dual length) paths the lowest
    /// `w_t` is preferred, realizing the objective's short-path bias.
    ///
    /// One serial loop; publishes the solve's work counts
    /// (`lp.fptas_phases`, `lp.fptas_steps`, `lp.fptas_path_evals`) and
    /// its certified optimality gap (`lp.fptas_gap_ppm`) once, at the
    /// end.
    pub fn solve_fptas(&self, eps: f64) -> McfSolution {
        let _span = megate_obs::span("lp.fptas");
        let (sol, stats) = self.fptas(eps);
        megate_obs::counter("lp.fptas_phases").add(stats.phases);
        megate_obs::counter("lp.fptas_steps").add(stats.steps);
        megate_obs::counter("lp.fptas_path_evals").add(stats.path_evals);
        megate_obs::gauge("lp.fptas_gap_ppm").set(stats.gap_ppm);
        sol
    }

    /// [`solve_fptas`](McfProblem::solve_fptas); `threads` is ignored.
    /// The FPTAS prices each commodity from its own tunnels as it is
    /// visited, which left nothing worth fanning out: the solve is one
    /// serial loop. Kept only because out-of-workspace callers bind to
    /// this signature.
    pub fn solve_fptas_with(&self, eps: f64, _threads: usize) -> McfSolution {
        self.solve_fptas(eps)
    }

    /// The FPTAS kernel: the solution plus what it cost and how far
    /// from optimal it can be.
    fn fptas(&self, eps: f64) -> (McfSolution, FptasStats) {
        assert!(eps > 0.0 && eps <= 0.5, "eps must be in (0, 0.5]");
        let n_links = self.link_capacity.len();
        let n_comm = self.commodities.len();
        let mut stats = FptasStats::default();
        let mut flows: Vec<Vec<f64>> = self
            .commodities
            .iter()
            .map(|c| vec![0.0; c.paths.len()])
            .collect();
        if n_comm == 0 {
            let sol = McfSolution {
                flows,
                total_flow: 0.0,
                objective: 0.0,
                link_prices: vec![0.0; n_links],
            };
            return (sol, stats);
        }

        // ---- Flat CSR incidence -------------------------------------
        // Paths are numbered globally (`pid`), contiguous per
        // commodity: pid = comm_ptr[k] + t.
        let mut comm_ptr = Vec::with_capacity(n_comm + 1);
        comm_ptr.push(0usize);
        // path -> links (CSR), tunnel weight, and the static amount each
        // routing step ships: min(D_k, bottleneck cap). Neither demands
        // nor capacities change during the FPTAS, so the bottleneck is
        // a per-path constant.
        let mut ppt = vec![0usize];
        let mut plinks: Vec<u32> = Vec::new();
        let mut weight: Vec<f64> = Vec::new();
        let mut route_amount: Vec<f64> = Vec::new();
        for c in &self.commodities {
            for p in &c.paths {
                let mut amt = c.demand;
                for &e in &p.links {
                    plinks.push(e as u32);
                    amt = amt.min(self.link_capacity[e]);
                }
                ppt.push(plinks.len());
                weight.push(p.weight);
                route_amount.push(amt);
            }
            comm_ptr.push(weight.len());
        }
        let n_paths = weight.len();

        // ---- Multiplicative-weight state ----------------------------
        // Edge universe: real links then one virtual demand-edge per
        // commodity (capacity D_k). Zero-capacity edges are infinitely
        // long, so no path over them is ever routed.
        let m = n_links + n_comm;
        let delta = (1.0 + eps) * ((1.0 + eps) * m as f64).powf(-1.0 / eps);
        let cap: Vec<f64> = (self.link_capacity.iter().copied())
            .chain(self.commodities.iter().map(|c| c.demand))
            .collect();
        let mut length: Vec<f64> = cap
            .iter()
            .map(|&c| if c > 0.0 { delta / c } else { f64::INFINITY })
            .collect();

        // Commodity-local pricing: the exact dual length of each of
        // k's own tunnels (virtual edge included), straight from
        // `length`. A visit costs tunnels × hops reads and nothing
        // outside k is touched.
        let price = |k: usize, length: &[f64], own: &mut Vec<f64>| {
            own.clear();
            own.extend((comm_ptr[k]..comm_ptr[k + 1]).map(|pid| {
                plinks[ppt[pid]..ppt[pid + 1]]
                    .iter()
                    .fold(length[n_links + k], |l, &e| l + length[e as usize])
            }));
        };
        // Shortest tunnel by dual length; prefer lower w_t within
        // (1+eps) of the minimum.
        let select = |own: &[f64], w: &[f64]| -> Option<usize> {
            let mut best_t = None;
            let mut best_len = f64::INFINITY;
            for (t, &l) in own.iter().enumerate() {
                if l < best_len {
                    best_len = l;
                    best_t = Some(t);
                }
            }
            let mut t = best_t?;
            for (c, &l) in own.iter().enumerate() {
                if l <= best_len * (1.0 + eps) && w[c] < w[t] {
                    t = c;
                }
            }
            Some(t)
        };
        // LP dual bound at lengths `l`: scaling `l` by 1/α(l), α the
        // shortest tunnel anywhere, makes it dual-feasible, so no flow
        // exceeds D(l)/α(l), D(l) = Σ_e cap_e·l_e.
        let dual_bound = |length: &[f64], own: &mut Vec<f64>| -> f64 {
            let d: f64 = (0..m)
                .filter(|&e| cap[e] > 0.0)
                .map(|e| cap[e] * length[e])
                .sum();
            let mut a = f64::INFINITY;
            for k in 0..n_comm {
                price(k, length, own);
                a = own.iter().fold(a, |a, &l| a.min(l));
            }
            if a.is_finite() {
                d / a
            } else {
                0.0 // nothing is routable
            }
        };

        // Raw flows overshoot by log_{1+eps}(1/delta) — also the number
        // of phases, which spaces the dual-bound samples.
        let scale = ((1.0 / delta).ln() / (1.0 + eps).ln()).max(1.0);
        let sample_every = (scale / BOUND_SAMPLES).ceil() as u64;
        let mut bound = f64::INFINITY;
        let mut own: Vec<f64> = Vec::new();
        let mut alpha = delta; // lower bound on the global min path length
        while alpha < 1.0 {
            if stats.phases % sample_every == 0 {
                bound = bound.min(dual_bound(&length, &mut own));
                stats.path_evals += n_paths as u64;
            }
            stats.phases += 1;
            for k in 0..n_comm {
                let demand = cap[n_links + k];
                if demand <= 0.0 {
                    continue;
                }
                let base = comm_ptr[k];
                loop {
                    price(k, &length, &mut own);
                    stats.path_evals += own.len() as u64;
                    let Some(t) = select(&own, &weight[base..]) else {
                        break;
                    };
                    let l = own[t];
                    if !(l < 1.0 && l < alpha * (1.0 + eps)) {
                        break;
                    }
                    // A finite length means every capacity on the
                    // tunnel, and the demand, is positive.
                    let pid = base + t;
                    let f = route_amount[pid];
                    debug_assert!(f > 0.0);
                    flows[k][t] += f;
                    stats.steps += 1;
                    // Multiplicative length updates on the routed
                    // tunnel's edges only.
                    length[n_links + k] *= 1.0 + eps * f / demand;
                    for &e in &plinks[ppt[pid]..ppt[pid + 1]] {
                        length[e as usize] *= 1.0 + eps * f / cap[e as usize];
                    }
                }
            }
            alpha *= 1.0 + eps;
        }
        bound = bound.min(dual_bound(&length, &mut own));
        stats.path_evals += n_paths as u64;

        for f in flows.iter_mut().flat_map(|v| v.iter_mut()) {
            *f /= scale;
        }
        // The multiplicative-weight lengths approximate the duals after
        // normalization by the same scale as the flows.
        let link_prices: Vec<f64> = length[..n_links]
            .iter()
            .map(|&l| if l.is_finite() { l / scale } else { 0.0 })
            .collect();
        let mut sol = McfSolution {
            flows,
            total_flow: 0.0,
            objective: 0.0,
            link_prices,
        };
        // Numerical safety: clamp any residual overshoot on links and
        // demands (the theory guarantees feasibility; floating point can
        // leave ppm-level overage).
        let loads = sol.link_loads(self);
        let mut worst: f64 = 1.0;
        for (e, &load) in loads.iter().enumerate() {
            if self.link_capacity[e] > 0.0 {
                worst = worst.max(load / self.link_capacity[e]);
            }
        }
        for (k, c) in self.commodities.iter().enumerate() {
            let s: f64 = sol.flows[k].iter().sum();
            if c.demand > 0.0 {
                worst = worst.max(s / c.demand);
            }
        }
        if worst > 1.0 {
            for f in sol.flows.iter_mut().flat_map(|v| v.iter_mut()) {
                *f /= worst;
            }
        }

        sol.total_flow = sol.flows.iter().flat_map(|v| v.iter()).sum();
        sol.objective = self
            .commodities
            .iter()
            .enumerate()
            .map(|(k, c)| {
                c.paths
                    .iter()
                    .enumerate()
                    .map(|(t, p)| sol.flows[k][t] * (1.0 - self.epsilon_weight * p.weight))
                    .sum::<f64>()
            })
            .sum();
        debug_assert!(
            sol.total_flow <= bound * (1.0 + 1e-9),
            "flow {} above its dual bound {bound}",
            sol.total_flow
        );
        if bound > 0.0 {
            stats.gap_ppm = (1e6 * (1.0 - sol.total_flow / bound)) as i64;
        }
        (sol, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn one_link_instance(demand: f64, cap: f64) -> McfProblem {
        McfProblem {
            link_capacity: vec![cap],
            commodities: vec![Commodity {
                demand,
                paths: vec![PathSpec {
                    links: vec![0],
                    weight: 1.0,
                }],
            }],
            epsilon_weight: 1e-4,
        }
    }

    #[test]
    fn single_path_caps_at_bottleneck() {
        let p = one_link_instance(100.0, 40.0);
        let s = p.solve_exact().unwrap();
        assert!((s.total_flow - 40.0).abs() < 1e-6);
        let f = p.solve_fptas(0.05);
        assert!(f.total_flow >= 40.0 * 0.85, "fptas {}", f.total_flow);
        assert!(p.check_feasible(&f, 1e-6));
    }

    #[test]
    fn single_path_caps_at_demand() {
        let p = one_link_instance(30.0, 100.0);
        let s = p.solve_exact().unwrap();
        assert!((s.total_flow - 30.0).abs() < 1e-6);
    }

    #[test]
    fn warm_exact_solve_matches_cold_under_value_churn() {
        // Same instance shape, changed demand and capacity values: the
        // warm re-solve must engage the retained basis and agree with a
        // cold solve to full precision; the structural size estimate
        // must not move, so a latched Auto decision cannot flip.
        let p0 = one_link_instance(100.0, 40.0);
        let first = p0.solve_exact_warm(None).unwrap();
        assert!(!first.warm_used);
        let mut p1 = p0.clone();
        p1.commodities[0].demand = 70.0;
        p1.link_capacity[0] = 55.0;
        assert_eq!(
            p1.size_estimate_with_basis(Some(&first.basis)),
            p0.size_estimate() + first.basis.len()
        );
        assert_eq!(p1.size_estimate(), p0.size_estimate());
        let warm = p1.solve_exact_warm(Some(&first.basis)).unwrap();
        let cold = p1.solve_exact().unwrap();
        assert_eq!(
            warm.solution.flows, cold.flows,
            "warm must match cold bitwise here"
        );
        assert!((warm.solution.total_flow - 55.0).abs() < 1e-6);
        assert!(p1.check_feasible(&warm.solution, 1e-9));
    }

    #[test]
    fn two_commodities_share_a_link_fairly_by_objective() {
        // Both want 60 over a 100-capacity link; optimum carries 100.
        let p = McfProblem {
            link_capacity: vec![100.0],
            commodities: vec![
                Commodity {
                    demand: 60.0,
                    paths: vec![PathSpec {
                        links: vec![0],
                        weight: 1.0,
                    }],
                },
                Commodity {
                    demand: 60.0,
                    paths: vec![PathSpec {
                        links: vec![0],
                        weight: 1.0,
                    }],
                },
            ],
            epsilon_weight: 1e-4,
        };
        let s = p.solve_exact().unwrap();
        assert!((s.total_flow - 100.0).abs() < 1e-6);
        assert!(p.check_feasible(&s, 1e-9));
    }

    #[test]
    fn short_path_preferred_when_capacity_allows() {
        // Two disjoint paths, both feasible: the cheap one must carry
        // the flow because of the -eps*w term.
        let p = McfProblem {
            link_capacity: vec![100.0, 100.0],
            commodities: vec![Commodity {
                demand: 50.0,
                paths: vec![
                    PathSpec {
                        links: vec![0],
                        weight: 1.0,
                    },
                    PathSpec {
                        links: vec![1],
                        weight: 10.0,
                    },
                ],
            }],
            epsilon_weight: 1e-3,
        };
        let s = p.solve_exact().unwrap();
        assert!((s.flows[0][0] - 50.0).abs() < 1e-6, "flows {:?}", s.flows);
        assert!(s.flows[0][1].abs() < 1e-6);

        let f = p.solve_fptas(0.05);
        assert!(f.flows[0][0] > f.flows[0][1], "fptas flows {:?}", f.flows);
    }

    #[test]
    fn overflow_spills_to_long_path() {
        let p = McfProblem {
            link_capacity: vec![30.0, 100.0],
            commodities: vec![Commodity {
                demand: 50.0,
                paths: vec![
                    PathSpec {
                        links: vec![0],
                        weight: 1.0,
                    },
                    PathSpec {
                        links: vec![1],
                        weight: 10.0,
                    },
                ],
            }],
            epsilon_weight: 1e-3,
        };
        let s = p.solve_exact().unwrap();
        assert!((s.total_flow - 50.0).abs() < 1e-6);
        assert!((s.flows[0][0] - 30.0).abs() < 1e-6);
        assert!((s.flows[0][1] - 20.0).abs() < 1e-6);
    }

    #[test]
    fn exact_link_prices_mark_bottlenecks() {
        // One 40-cap link carrying 100 of demand: binding, priced ~1
        // (one more unit of capacity = one more unit of flow).
        let p = one_link_instance(100.0, 40.0);
        let s = p.solve_exact().unwrap();
        assert!(
            (s.link_prices[0] - (1.0 - p.epsilon_weight)).abs() < 1e-6,
            "price {:?}",
            s.link_prices
        );
        // Demand-limited instance: the link is slack, price 0.
        let p = one_link_instance(30.0, 100.0);
        let s = p.solve_exact().unwrap();
        assert!(s.link_prices[0].abs() < 1e-9);
    }

    #[test]
    fn fptas_prices_highlight_the_same_bottleneck() {
        let p = McfProblem {
            link_capacity: vec![40.0, 10_000.0],
            commodities: vec![Commodity {
                demand: 100.0,
                paths: vec![PathSpec {
                    links: vec![0, 1],
                    weight: 1.0,
                }],
            }],
            epsilon_weight: 1e-4,
        };
        let s = p.solve_fptas(0.1);
        assert!(
            s.link_prices[0] > 10.0 * s.link_prices[1],
            "bottleneck must be priced far above the slack link: {:?}",
            s.link_prices
        );
    }

    #[test]
    fn empty_instance_is_trivial() {
        let p = McfProblem {
            link_capacity: vec![],
            commodities: vec![],
            epsilon_weight: 0.0,
        };
        let s = p.solve_exact().unwrap();
        assert_eq!(s.total_flow, 0.0);
        let f = p.solve_fptas(0.1);
        assert_eq!(f.total_flow, 0.0);
    }

    #[test]
    fn zero_demand_commodity_gets_nothing() {
        let p = one_link_instance(0.0, 50.0);
        let s = p.solve_exact().unwrap();
        assert_eq!(s.total_flow, 0.0);
        let f = p.solve_fptas(0.1);
        assert!(f.total_flow.abs() < 1e-9);
    }

    /// Random small instance generator shared by the property tests.
    fn random_instance(seed: u64) -> McfProblem {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n_links = rng.gen_range(2..6);
        let link_capacity: Vec<f64> = (0..n_links).map(|_| rng.gen_range(10.0..100.0)).collect();
        let n_comm = rng.gen_range(1..5);
        let commodities = (0..n_comm)
            .map(|_| {
                let n_paths = rng.gen_range(1..4);
                let paths = (0..n_paths)
                    .map(|i| {
                        let len = rng.gen_range(1..=n_links);
                        let mut links: Vec<usize> = (0..n_links).collect();
                        // Random subset of distinct links as a "path".
                        for j in (1..links.len()).rev() {
                            links.swap(j, rng.gen_range(0..=j));
                        }
                        links.truncate(len);
                        PathSpec {
                            links,
                            weight: 1.0 + i as f64,
                        }
                    })
                    .collect();
                Commodity {
                    demand: rng.gen_range(5.0..80.0),
                    paths,
                }
            })
            .collect();
        McfProblem {
            link_capacity,
            commodities,
            epsilon_weight: 1e-4,
        }
    }

    /// `random_instance(seed)` with one of the degenerate shapes the
    /// kernel must shrug off folded in (`seed % 6`; 5 leaves it alone).
    fn degenerate_instance(seed: u64) -> McfProblem {
        let mut p = random_instance(seed);
        match seed % 6 {
            0 => p.link_capacity[0] = 0.0,
            1 => p.commodities[0].demand = 0.0,
            2 => {
                // A tunnel crossing its first link twice.
                let links = &mut p.commodities[0].paths[0].links;
                links.push(links[0]);
            }
            3 => p.commodities[0].paths.clear(),
            4 => {
                // Every commodity through one link.
                for path in p.commodities.iter_mut().flat_map(|c| &mut c.paths) {
                    path.links = vec![0];
                }
            }
            _ => {}
        }
        p
    }

    /// Seeded path-form MCF shaped like the benchmark's site LPs: four
    /// tunnels per commodity, each over 2–5 links drawn from a pool every
    /// commodity shares, with capacities tight enough that links bind.
    fn site_lp_instance(seed: u64, n_comm: usize, n_links: usize) -> McfProblem {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        McfProblem {
            link_capacity: (0..n_links).map(|_| rng.gen_range(100.0..1500.0)).collect(),
            commodities: (0..n_comm)
                .map(|_| Commodity {
                    demand: rng.gen_range(5.0..120.0),
                    paths: (0..4)
                        .map(|t| PathSpec {
                            links: (0..rng.gen_range(2..=5))
                                .map(|_| rng.gen_range(0..n_links))
                                .collect(),
                            weight: 1.0 + t as f64,
                        })
                        .collect(),
                })
                .collect(),
            epsilon_weight: 1e-4,
        }
    }

    /// FNV-1a over the bits of a solve's `x`, duals and objective, with
    /// −0.0 folded into +0.0: skipping an `x − f·(±0)` may flip the sign
    /// of a zero and nothing else.
    fn solve_fingerprint(s: &crate::simplex::LpSolution) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &v in s.x.iter().chain(&s.duals).chain([&s.objective]) {
            let bits = if v == 0.0 { 0 } else { v.to_bits() };
            for byte in bits.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Pins the exact solver's pivot path: pivot counts and the bits of
    /// `x`, the duals and the objective, cold and re-entered warm after a
    /// ±10 % demand perturbation, on the LP `solve_exact` builds. Any
    /// dropped or reordered floating-point operation on a nonzero moves
    /// a hash. The expected values are those of the dense Gauss–Jordan
    /// and eta kernels (every column, every row), which the zero-skipping
    /// kernels must reproduce.
    #[test]
    fn exact_pivot_path_is_pinned() {
        use rand::{Rng, SeedableRng};
        let mut instances: Vec<McfProblem> = (0..12).map(degenerate_instance).collect();
        instances.push(site_lp_instance(1, 120, 160));
        instances.push(site_lp_instance(2, 180, 140));
        instances.push(site_lp_instance(3, 320, 220));
        let mut got = Vec::new();
        for (i, p) in instances.iter().enumerate() {
            let (lp, _, _) = p.build_lp();
            let cold = lp.solve_warm(None).unwrap();
            got.push((
                lp.rows.len(),
                cold.solution.pivots,
                solve_fingerprint(&cold.solution),
            ));
            // Every demand moved by up to ±10 % (the restart point tends
            // to go infeasible and falls back cold), then 2 % of demands
            // raised by 10 % (the restart mostly holds and re-enters).
            let mut rng = rand::rngs::StdRng::seed_from_u64(i as u64);
            for sparse in [false, true] {
                let mut q = p.clone();
                for c in &mut q.commodities {
                    if !sparse {
                        c.demand *= rng.gen_range(0.9..1.1);
                    } else if rng.gen_bool(0.02) {
                        c.demand *= 1.1;
                    }
                }
                let (lp_q, _, _) = q.build_lp();
                let warm = lp_q.solve_warm(Some(&cold.basis)).unwrap();
                got.push((
                    usize::from(warm.warm_used),
                    warm.solution.pivots,
                    solve_fingerprint(&warm.solution),
                ));
            }
        }
        // Per instance: (rows, cold pivots, cold hash), then
        // (warm re-entered, pivots, hash) for each perturbation.
        let expected: Vec<(usize, usize, u64)> = vec![
            (8, 2, 10556470682611104935),
            (1, 0, 10556470682611104935),
            (1, 0, 10556470682611104935),
            (9, 9, 3374520015513950742),
            (0, 9, 12855929462007698554),
            (1, 0, 3374520015513950742),
            (5, 1, 9420825784169481744),
            (1, 0, 9420825784169481744),
            (1, 0, 9420825784169481744),
            (5, 2, 22195168603159482),
            (1, 0, 2575413859563247656),
            (1, 0, 22195168603159482),
            (2, 1, 13365243727194568891),
            (1, 0, 13365243727194568891),
            (1, 0, 13365243727194568891),
            (7, 5, 11615777252503270038),
            (1, 0, 5992428993624821450),
            (1, 0, 11615777252503270038),
            (7, 5, 18194608000679750326),
            (1, 0, 18194608000679750326),
            (1, 0, 18194608000679750326),
            (6, 3, 938432899008760402),
            (1, 0, 938432899008760402),
            (1, 0, 938432899008760402),
            (5, 2, 13295093641133726581),
            (1, 0, 9397194536202999562),
            (1, 0, 13295093641133726581),
            (8, 4, 4156739714718297784),
            (1, 0, 17235507232721284800),
            (1, 0, 4156739714718297784),
            (4, 2, 3109820713009782639),
            (1, 0, 8311693738076701952),
            (1, 0, 3109820713009782639),
            (4, 2, 7420905905356549539),
            (1, 0, 3130244396859351703),
            (1, 0, 7420905905356549539),
            (280, 135, 10804980670259690192),
            (0, 130, 2231207114386233873),
            (1, 0, 10423205339984196968),
            (320, 240, 488843394495387894),
            (0, 259, 8642283228494835022),
            (1, 0, 7450721182751227652),
            (540, 1497, 13307529735210489939),
            (0, 1411, 7095829835694343867),
            (0, 1512, 3316923766311181921),
        ];
        assert_eq!(got, expected);
    }

    /// Work-count gate, no wall clock: on a site LP of at least 900 rows
    /// the Gauss–Jordan eliminations, cold and on a warm restart's
    /// non-slack basis, perform at most a quarter of the multiply-adds a
    /// dense elimination spends (`2m` per eliminated row, one per column
    /// of `[B | B⁻¹]`).
    #[test]
    fn refactorization_work_skips_zeros_on_a_site_lp() {
        let p = site_lp_instance(4, 520, 420);
        let (lp, _, _) = p.build_lp();
        let m = lp.rows.len() as u64;
        assert!(m >= 900, "{m} rows");
        let (cold, stats) = crate::revised::solve_with_stats(&lp, None).unwrap();
        let (warm, warm_stats) = crate::revised::solve_with_stats(&lp, Some(&cold.basis)).unwrap();
        assert!(warm.warm_used);
        assert_eq!(stats.pivots, cold.solution.pivots as u64);
        assert_eq!((warm_stats.pivots, warm_stats.refactorizations), (0, 1));
        assert!(
            stats.refactorizations >= 2 && stats.eta_madds > 0,
            "{stats:?}"
        );
        for s in [stats, warm_stats] {
            let dense = s.refactor_rows * 2 * m;
            assert!(
                s.refactor_madds * 4 <= dense,
                "{} of {dense} dense multiply-adds ({:.4}): {s:?}",
                s.refactor_madds,
                s.refactor_madds as f64 / dense as f64
            );
        }
    }

    fn assert_same_solution(a: &McfSolution, b: &McfSolution) {
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.link_prices, b.link_prices);
        assert_eq!(a.total_flow.to_bits(), b.total_flow.to_bits());
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    }

    #[test]
    fn fptas_within_certified_gap_of_exact_on_random_and_degenerate() {
        let eps = 0.05;
        for seed in 0..240u64 {
            let p = degenerate_instance(seed);
            let exact = p.solve_exact().unwrap();
            assert!(p.check_feasible(&exact, 1e-7), "seed {seed}");
            let (approx, stats) = p.fptas(eps);
            assert!(p.check_feasible(&approx, 1e-7), "seed {seed}");
            // Garg–Könemann guarantee is (1-eps)^3-ish; allow slack.
            assert!(
                approx.total_flow >= exact.total_flow * (1.0 - 3.5 * eps) - 1e-6
                    && approx.total_flow <= exact.total_flow + 1e-6,
                "seed {seed}: approx {} vs exact {}",
                approx.total_flow,
                exact.total_flow
            );
            // The certificate brackets the same optimum from above.
            assert!(
                (0..=(3.5 * eps * 1e6) as i64).contains(&stats.gap_ppm),
                "seed {seed}: gap {} ppm",
                stats.gap_ppm
            );
            assert_same_solution(&p.solve_fptas_with(eps, 7), &approx);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn exact_never_exceeds_demand_or_capacity(seed in 0u64..2000) {
            let p = random_instance(seed);
            let s = p.solve_exact().unwrap();
            prop_assert!(p.check_feasible(&s, 1e-7));
            prop_assert!(s.satisfied_ratio(&p) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn size_estimate_counts_materialized_rows_and_nnz() {
        // 2 commodities with paths (2 demand rows), links {0,1} used
        // (2 link rows), link 2 untouched: m = 4. nnz = 3 path vars in
        // demand rows + 4 link memberships. Estimate = 2m² + nnz.
        let p = McfProblem {
            link_capacity: vec![10.0, 10.0, 10.0],
            commodities: vec![
                Commodity {
                    demand: 5.0,
                    paths: vec![
                        PathSpec {
                            links: vec![0],
                            weight: 1.0,
                        },
                        PathSpec {
                            links: vec![0, 1],
                            weight: 2.0,
                        },
                    ],
                },
                Commodity {
                    demand: 5.0,
                    paths: vec![PathSpec {
                        links: vec![1],
                        weight: 1.0,
                    }],
                },
            ],
            epsilon_weight: 1e-4,
        };
        assert_eq!(p.size_estimate(), 2 * 4 * 4 + 3 + 4);
        // Empty instance: no rows, no entries.
        let empty = McfProblem {
            link_capacity: vec![],
            commodities: vec![],
            epsilon_weight: 0.0,
        };
        assert_eq!(empty.size_estimate(), 0);
    }

    #[test]
    fn thread_argument_is_ignored_on_wide_and_shared_instances() {
        // Wide: thousands of paths over few links.
        let n_links = 64usize;
        let wide = McfProblem {
            link_capacity: (0..n_links).map(|e| 50.0 + (e % 7) as f64 * 10.0).collect(),
            commodities: (0..2048)
                .map(|k| Commodity {
                    demand: 5.0 + (k % 11) as f64,
                    paths: (0..3)
                        .map(|t| PathSpec {
                            links: vec![(k * 3 + t) % n_links, (k * 5 + t * 2) % n_links],
                            weight: 1.0 + t as f64,
                        })
                        .collect(),
                })
                .collect(),
            epsilon_weight: 1e-4,
        };
        // Dense sharing: every commodity crosses the same two links, so
        // each routing step moves every other commodity's prices.
        let shared = McfProblem {
            link_capacity: vec![50.0, 80.0, 120.0],
            commodities: (0..12)
                .map(|k| Commodity {
                    demand: 10.0 + k as f64,
                    paths: vec![
                        PathSpec {
                            links: vec![0, 1],
                            weight: 1.0,
                        },
                        PathSpec {
                            links: vec![2],
                            weight: 2.0 + k as f64 * 0.1,
                        },
                    ],
                })
                .collect(),
            epsilon_weight: 1e-4,
        };
        for (p, eps) in [(wide, 0.3), (shared, 0.05)] {
            let a = p.solve_fptas(eps);
            assert_same_solution(&p.solve_fptas_with(eps, 7), &a);
            assert!(p.check_feasible(&a, 1e-7));
            assert!(a.total_flow > 0.0);
        }
    }

    #[test]
    fn fptas_work_is_bounded_by_own_tunnels_not_link_fanout() {
        // TWAN-shaped: 1200 commodities x 4 tunnels of 6-8 links over
        // 600 links, so a link is crossed by ~56 tunnels. Pricing a
        // commodity from its own tunnels costs 4 evaluations per visit
        // and per step; pushing each length update to every tunnel on
        // the touched links would cost hundreds per step.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let (n_links, n_comm, per_comm) = (600usize, 1200usize, 4usize);
        let p = McfProblem {
            link_capacity: (0..n_links).map(|_| rng.gen_range(200.0..2000.0)).collect(),
            commodities: (0..n_comm)
                .map(|_| Commodity {
                    demand: rng.gen_range(5.0..120.0),
                    paths: (0..per_comm)
                        .map(|t| PathSpec {
                            links: (0..rng.gen_range(6..=8))
                                .map(|_| rng.gen_range(0..n_links))
                                .collect(),
                            weight: 1.0 + t as f64,
                        })
                        .collect(),
                })
                .collect(),
            epsilon_weight: 1e-4,
        };
        let (sol, stats) = p.fptas(0.05);
        assert!(p.check_feasible(&sol, 1e-7));
        assert!(stats.steps > n_comm as u64, "steps {}", stats.steps);
        let visits = stats.phases * n_comm as u64;
        assert!(
            stats.path_evals <= 4 * per_comm as u64 * (stats.steps + visits),
            "{stats:?}"
        );
        assert!((0..=175_000).contains(&stats.gap_ppm), "{stats:?}");
    }
}
