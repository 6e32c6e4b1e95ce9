//! Incremental re-optimization: a persistent, warm-started,
//! dirty-set-driven solve engine (DESIGN.md §5f).
//!
//! The stateless [`MegaTeScheme::solve`] re-derives the entire
//! allocation every interval even when almost nothing changed — the
//! control loop then publishes a tiny diff of a full solve. The
//! [`IncrementalEngine`] keeps solver state alive across intervals and
//! solves *the diff*, through **one pipeline** (`Core::resolve`):
//!
//! * a [`DirtySet`] keyed by site pair marks which pairs' inputs
//!   actually changed — a pair is dirty when any of its endpoint
//!   demand values moved, or when the capacity of any link traversed
//!   by any of its tunnels changed;
//! * **clean pairs carry their endpoint allocations forward verbatim**
//!   (the final post-repair picks from the previous interval, whose
//!   loads provably still fit: clean pairs only traverse links whose
//!   capacity is unchanged, and their loads are a subset of the
//!   previous feasible loads);
//! * dirty pairs re-solve on the **residual** capacity left by the
//!   carried allocations: a dirty-subset `MaxSiteFlow` LP —
//!   warm-started from the retained simplex basis when the dirty set
//!   has the same shape as last interval — then FastSSP stage 3 via
//!   the pooled [`megate_ssp::SolverScratch`] kernel, then a repair
//!   pass restricted to the dirty pairs' endpoints against the merged
//!   link loads (every per-interval cost is `O(dirty)` plus a few flat
//!   `O(endpoints)` scans — no full re-aggregation, no global repair);
//! * the exact-vs-FPTAS choice of [`LpMode::Auto`] is resolved at a
//!   state's first LP and **latched**, so a re-solve of a small dirty
//!   subset can never flip modes mid-stream.
//!
//! A **cold solve is that same pipeline** entered with nothing
//! retained and every pair dirty: a fresh state carries no picks, so
//! the residual is the full capacity, the dirty-subset LP is the whole
//! instance, and the dirty-only repair and flow refresh cover every
//! endpoint. There is no second copy of the recipe to drift: the
//! stateless [`MegaTeScheme::solve`] is the only other statement of
//! it, and the tests pin the engine to it bitwise.
//!
//! The engine runs the pipeline once per entry of a class list — all
//! demands in one pass, or the three QoS classes in priority order on
//! the residual graph (§4.1, [`crate::qos`]'s class loop), each class
//! with its own retained state.
//!
//! Equivalence properties pinned by `tests/incremental.rs`:
//!
//! * **churn = 0** → the engine returns the previous allocation
//!   verbatim (zero allocation diff, near-zero work);
//! * **cold, and 100 % dirty on retained state** → bitwise-identical
//!   to [`MegaTeScheme::solve`] (full pair set, full capacities, no
//!   basis reuse);
//! * allocations never violate link capacity (the carried loads are
//!   feasible by construction, the dirty LP is capped by the residual,
//!   and the repair pass is feasibility-preserving) — debug builds
//!   assert it where the pipeline hands its allocation out.
//!
//! Drift bound: residual-freeze is an approximation — a warm interval
//! optimizes dirty pairs against frozen clean allocations, so repeated
//! warm solves can drift from the full optimum. The caller bounds the
//! drift with a forced periodic cold solve
//! ([`IncrementalConfig::cold_every`]) and by falling back to cold
//! whenever churn exceeds [`IncrementalConfig::warm_churn_max_ppm`].
//!
//! [`LpMode::Auto`]: crate::megate::LpMode::Auto

use crate::megate::{MegaTeScheme, ResolvedLpMode};
use crate::qos::{class_demands, solve_classes, ClassDemands};
use crate::types::{
    aggregated_pairs, EndpointStageStats, SolveError, TeAllocation, TeProblem, TeScheme,
};
use megate_lp::LpBasis;
use megate_topo::{SitePair, TunnelId, TunnelTable};
use megate_traffic::DemandSet;
use std::collections::BTreeSet;
use std::time::Instant;

/// Knobs for the incremental engine.
#[derive(Debug, Clone)]
pub struct IncrementalConfig {
    /// The underlying two-stage solver configuration.
    pub solver: crate::megate::MegaTeConfig,
    /// Solve QoS classes sequentially on residual capacity (§4.1),
    /// with warm-start state retained **per class**.
    pub qos_sequential: bool,
    /// Warm solves are only attempted while the dirty-pair churn stays
    /// at or below this many parts-per-million of the pair set; above
    /// it a full cold solve is cheaper and exact. `1_000_000` permits
    /// warm solves even at 100 % dirty (useful for equivalence tests —
    /// a solve on retained state is bitwise-identical to cold there).
    pub warm_churn_max_ppm: i64,
    /// Force a cold solve every this many solves to bound the drift of
    /// repeated residual-freeze warm intervals. `0` disables the
    /// forced cadence (drift is then bounded only by churn).
    pub cold_every: u64,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        Self {
            solver: crate::megate::MegaTeConfig::default(),
            qos_sequential: false,
            warm_churn_max_ppm: 250_000,
            cold_every: 32,
        }
    }
}

/// The set of site pairs whose inputs changed since the retained
/// solve — the unit of re-work for a warm interval.
#[derive(Debug, Clone, Default)]
pub struct DirtySet {
    dirty: BTreeSet<SitePair>,
    total: usize,
}

impl DirtySet {
    /// An empty dirty set over a pair universe of `total` pairs.
    pub fn new(total: usize) -> Self {
        Self {
            dirty: BTreeSet::new(),
            total,
        }
    }

    /// A fully dirty set (every pair re-solves).
    pub fn all(pairs: &[SitePair]) -> Self {
        Self {
            dirty: pairs.iter().copied().collect(),
            total: pairs.len(),
        }
    }

    /// Marks a pair dirty (idempotent).
    pub fn mark(&mut self, pair: SitePair) {
        self.dirty.insert(pair);
    }

    /// Whether this pair must re-solve.
    pub fn contains(&self, pair: SitePair) -> bool {
        self.dirty.contains(&pair)
    }

    /// Number of dirty pairs.
    pub fn len(&self) -> usize {
        self.dirty.len()
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Size of the pair universe.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// What one engine solve reports alongside the allocation.
#[derive(Debug, Clone, Default)]
pub struct IncrementalReport {
    /// Whether this interval was solved cold: nothing retained, every
    /// pair dirty.
    pub cold: bool,
    /// Dirty pairs re-solved this interval (= total pairs when cold).
    pub dirty_pairs: usize,
    /// Size of the pair universe across classes.
    pub total_pairs: usize,
    /// Endpoint allocations carried forward verbatim from the retained
    /// state (0 when cold).
    pub carried_endpoints: usize,
}

/// Retained per-class solver state: everything an interval needs to
/// carry clean pairs forward and re-solve dirty ones.
struct CoreState {
    /// The demand set this state's *shape* was established for
    /// (structure compared to detect shape change). Values inside it
    /// go stale across warm solves — current values live in
    /// `demand_values`, updated with a cheap memcpy instead of
    /// re-cloning the whole set every interval.
    demands: DemandSet,
    /// Current per-demand values (parallel to `demands.demands()`),
    /// compared bitwise against incoming demands to build the dirty
    /// set.
    demand_values: Vec<f64>,
    /// Link capacities this state was solved against.
    caps: Vec<f64>,
    /// LP pair universe, in commodity order (sorted by `SitePair`).
    pairs: Vec<SitePair>,
    /// Final (post-repair) assignment of the last interval — what
    /// clean pairs carry forward verbatim.
    assignment: Vec<Option<TunnelId>>,
    /// Final dense tunnel flows of the last interval.
    tunnel_flows: Vec<f64>,
    /// Link index → positions in `pairs` of every pair with a tunnel
    /// traversing that link (the capacity-delta dirty rule).
    pairs_on_link: Vec<Vec<u32>>,
    /// The latched `Auto` resolution, taken at this state's first LP —
    /// the full instance, because a fresh state enters all-dirty.
    mode: Option<ResolvedLpMode>,
    /// Retained simplex basis of the last dirty-subset LP, keyed by the
    /// dirty pair list it was solved for. Never used when the dirty
    /// set covers every pair (keeps 100 %-dirty bitwise-cold).
    basis: Option<(Vec<SitePair>, LpBasis)>,
}

impl CoreState {
    /// The state a cold solve enters the pipeline with: the instance's
    /// pair universe and link index, and nothing solved yet — nobody
    /// is assigned, no tunnel carries flow, no mode or basis retained.
    fn fresh(problem: &TeProblem, caps: Vec<f64>) -> Self {
        let pairs: Vec<SitePair> = aggregated_pairs(problem)
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        let mut pairs_on_link: Vec<Vec<u32>> = vec![Vec::new(); caps.len()];
        for (k, &pair) in pairs.iter().enumerate() {
            for &t in problem.tunnels.tunnels_for(pair) {
                for &e in &problem.tunnels.tunnel(t).links {
                    pairs_on_link[e.index()].push(k as u32);
                }
            }
        }
        for v in &mut pairs_on_link {
            // Pushes per pair are grouped (pairs visited in ascending
            // k), so consecutive dedup removes all duplicates.
            v.dedup();
        }
        let demands = problem.demands.clone();
        Self {
            demand_values: demands.demands().iter().map(|d| d.demand_mbps).collect(),
            assignment: vec![None; demands.len()],
            demands,
            caps,
            pairs,
            tunnel_flows: vec![0.0; problem.tunnels.tunnel_count()],
            pairs_on_link,
            mode: None,
            basis: None,
        }
    }

    /// Whether this state covers an instance of identical *shape*:
    /// same link count, same pair sequence, same per-pair demand
    /// indices, same endpoints and QoS classes. Demand values and
    /// capacities may differ (that is churn, not shape change).
    fn shape_matches(&self, demands: &DemandSet, n_links: usize) -> bool {
        if self.caps.len() != n_links || self.demands.len() != demands.len() {
            return false;
        }
        if !self.demands.pairs().eq(demands.pairs()) {
            return false;
        }
        for pair in demands.pairs() {
            if self.demands.indices_for(pair) != demands.indices_for(pair) {
                return false;
            }
        }
        self.demands
            .demands()
            .iter()
            .zip(demands.demands())
            .all(|(a, b)| a.src == b.src && a.dst == b.dst && a.qos == b.qos)
    }

    /// Computes the dirty set of a same-shaped instance: pairs whose
    /// demand values changed, plus pairs whose tunnel set traverses a
    /// link whose capacity changed. Callers must have checked
    /// [`shape_matches`](Self::shape_matches) first.
    ///
    /// Returns `None` when value churn moved a pair in or out of the
    /// LP commodity universe (its aggregate demand crossed zero, in
    /// either direction): the retained state is then misaligned and
    /// the instance must re-solve cold. Only changed pairs need the
    /// check — an unchanged pair's aggregate cannot move.
    fn dirty_set(
        &self,
        demands: &DemandSet,
        tunnels: &TunnelTable,
        caps: &[f64],
    ) -> Option<DirtySet> {
        let mut ds = DirtySet::new(self.pairs.len());
        let new = demands.demands();
        for pair in demands.pairs() {
            let idxs = demands.indices_for(pair);
            let changed = idxs
                .iter()
                .any(|&i| self.demand_values[i] != new[i].demand_mbps);
            if !changed {
                continue;
            }
            let in_universe = self.pairs.binary_search(&pair).is_ok();
            // Mirror `aggregated_pairs`: a pair is a commodity iff its
            // aggregate demand is positive and it has tunnels.
            let should_be = idxs.iter().map(|&i| new[i].demand_mbps).sum::<f64>() > 0.0
                && !tunnels.tunnels_for(pair).is_empty();
            if should_be != in_universe {
                return None;
            }
            if in_universe {
                ds.mark(pair);
            }
        }
        for (e, (&new_cap, &old_cap)) in caps.iter().zip(&self.caps).enumerate() {
            if new_cap != old_cap {
                for &k in &self.pairs_on_link[e] {
                    ds.mark(self.pairs[k as usize]);
                }
            }
        }
        Some(ds)
    }
}

/// One warm-startable solve core (one per entry of the class list).
#[derive(Default)]
struct Core {
    state: Option<CoreState>,
}

impl Core {
    /// Solves one class's sub-problem: through the retained state when
    /// there is one and the pair universe held, else — a cold solve —
    /// through a fresh state with every pair dirty. Either way the
    /// same pipeline runs. The state is put back only on success, so a
    /// failed solve leaves nothing half-updated to warm-start from.
    fn solve(
        &mut self,
        scheme: &MegaTeScheme,
        problem: &TeProblem,
    ) -> Result<(TeAllocation, IncrementalReport), SolveError> {
        let start = Instant::now();
        let caps = problem.link_capacities();
        let retained = self.state.take().and_then(|st| {
            let dirty = st.dirty_set(problem.demands, problem.tunnels, &caps)?;
            Some((st, dirty))
        });
        let (mut st, dirty) = match retained {
            Some(warm) => warm,
            None => {
                let st = CoreState::fresh(problem, caps.clone());
                let dirty = DirtySet::all(&st.pairs);
                (st, dirty)
            }
        };

        // Churn-zero fast path: nothing dirty and capacities bitwise
        // unchanged — the previous allocation is still exactly right.
        let (stage, carried) = if dirty.is_empty() && caps == st.caps {
            (None, st.assignment.iter().filter(|a| a.is_some()).count())
        } else {
            let (stage, carried) = Self::resolve(&mut st, scheme, problem, &dirty, caps)?;
            (Some(stage), carried)
        };

        let alloc = TeAllocation {
            scheme: scheme.name().to_string(),
            tunnel_flow_mbps: st.tunnel_flows.clone(),
            endpoint_assignment: Some(st.assignment.clone()),
            solve_time: start.elapsed(),
            endpoint_stage: stage,
        };
        debug_assert!(
            alloc.check_feasible(problem, 1e-5),
            "the pipeline handed out an infeasible allocation"
        );
        self.state = Some(st);
        let report = IncrementalReport {
            cold: false, // the engine's call, not a class's
            dirty_pairs: dirty.len(),
            total_pairs: dirty.total(),
            carried_endpoints: carried,
        };
        Ok((alloc, report))
    }

    /// The pipeline: carry clean pairs' final picks forward, re-solve
    /// dirty pairs on the residual capacity, then repair only the dirty
    /// pairs' endpoints against the merged link loads — leaving the new
    /// assignment, tunnel flows, demand values and capacities in `st`.
    /// Returns the stage-3 profile and how many picks were carried.
    fn resolve(
        st: &mut CoreState,
        scheme: &MegaTeScheme,
        problem: &TeProblem,
        dirty: &DirtySet,
        caps: Vec<f64>,
    ) -> Result<(EndpointStageStats, usize), SolveError> {
        let demands = problem.demands;
        debug_assert!(
            aggregated_pairs(problem)
                .iter()
                .map(|&(p, _)| p)
                .eq(st.pairs.iter().copied()),
            "shape-matched instance must aggregate to the same pair universe"
        );
        let npairs = st.pairs.len();
        let dirty_pairs: Vec<SitePair> = st
            .pairs
            .iter()
            .copied()
            .filter(|&pair| dirty.contains(pair))
            .collect();

        // Mark the dirty pairs' endpoints (endpoint index → pair);
        // every other endpoint carries last interval's final pick.
        let new = demands.demands();
        let mut dirty_ep: Vec<Option<SitePair>> = vec![None; demands.len()];
        for &pair in &dirty_pairs {
            for &i in demands.indices_for(pair) {
                dirty_ep[i] = Some(pair);
            }
        }

        // Carry clean pairs' post-repair picks forward verbatim and
        // account their link loads. Clean pairs only traverse links
        // with unchanged capacity (the capacity-delta dirty rule), and
        // their loads are a subset of last interval's feasible loads,
        // so the residual below is non-negative by construction.
        let assignment = &mut st.assignment;
        let mut carried = 0usize;
        let mut clean_loads = vec![0.0f64; caps.len()];
        for (i, choice) in assignment.iter_mut().enumerate() {
            if dirty_ep[i].is_some() {
                *choice = None;
            } else if let Some(t) = *choice {
                carried += 1;
                let d = new[i].demand_mbps;
                for &e in &problem.tunnels.tunnel(t).links {
                    clean_loads[e.index()] += d;
                }
            }
        }
        let residual: Vec<f64> = caps
            .iter()
            .zip(&clean_loads)
            .map(|(&c, &l)| (c - l).max(0.0))
            .collect();

        // Dirty-subset MaxSiteFlow on the residual, with the latched
        // mode. The retained simplex basis re-enters only when the
        // dirty set is a *proper* subset with the same pair list as
        // last interval — at 100 % dirty the LP is the full instance
        // and must stay bitwise-identical to the stateless solve.
        let site_flows = if dirty_pairs.is_empty() {
            Vec::new()
        } else {
            let _span = megate_obs::span("solver.max_site_flow");
            // Aggregate only the dirty pairs (same per-pair index order
            // as `aggregated_pairs`, so the sums — and therefore the
            // 100 %-dirty LP — are bitwise-identical to the stateless
            // path's).
            let dirty_demand: Vec<(SitePair, f64)> = dirty_pairs
                .iter()
                .map(|&pair| {
                    let total: f64 = demands
                        .indices_for(pair)
                        .iter()
                        .map(|&i| new[i].demand_mbps)
                        .sum();
                    (pair, total)
                })
                .collect();
            let mut mcf = scheme.build_mcf(problem, &dirty_demand);
            let mode = *st
                .mode
                .get_or_insert_with(|| scheme.resolve_mode(&mcf, None));
            mcf.link_capacity = residual;
            match mode {
                ResolvedLpMode::Exact => {
                    let proper_subset = dirty_pairs.len() < npairs;
                    let warm_basis = st
                        .basis
                        .as_ref()
                        .filter(|(key, _)| proper_subset && *key == dirty_pairs)
                        .map(|(_, b)| b);
                    let w = mcf
                        .solve_exact_warm(warm_basis)
                        .map_err(|e| SolveError::Lp(e.to_string()))?;
                    st.basis = proper_subset.then(|| (dirty_pairs.clone(), w.basis));
                    w.solution.flows
                }
                ResolvedLpMode::Fptas(eps) => mcf.solve_fptas(eps).flows,
            }
        };

        // FastSSP stage 3 for the dirty pairs only, writing into the
        // assignment alongside the carried picks.
        let endpoint_span = megate_obs::span("solver.max_endpoint_flow");
        let stage = scheme.max_endpoint_flow_all(problem, &dirty_pairs, &site_flows, assignment);
        drop(endpoint_span);

        // Repair only the dirty pairs' endpoints. The merged loads are
        // the carried clean loads plus the dirty stage-3 loads; the
        // dirty contributions (and the candidate list) accumulate in
        // endpoint index order, so at 100 % dirty — where the clean
        // loads are exactly zero — this reproduces the stateless global
        // repair pass bitwise. Clean unassigned endpoints are not
        // retried: their repair chances are re-derived at the next
        // cold solve (part of the residual-freeze drift bound).
        if scheme.config.residual_repair {
            let _span = megate_obs::span("solver.repair");
            let mut loads = clean_loads;
            let mut candidates: Vec<(usize, SitePair)> = Vec::new();
            for (i, mark) in dirty_ep.iter().enumerate() {
                let Some(pair) = *mark else { continue };
                match assignment[i] {
                    Some(t) => {
                        let d = new[i].demand_mbps;
                        for &e in &problem.tunnels.tunnel(t).links {
                            loads[e.index()] += d;
                        }
                    }
                    None if new[i].demand_mbps > 0.0 => candidates.push((i, pair)),
                    None => {}
                }
            }
            scheme.repair_candidates(problem, assignment, candidates, &mut loads);
        }

        // Refresh only the dirty pairs' tunnel flows. A tunnel belongs
        // to exactly one site pair, and clean endpoints kept both their
        // picks and demand values, so clean tunnels' sums are bitwise
        // unchanged from last interval; dirty tunnels re-accumulate in
        // endpoint index order — the same order `flows_from_assignment`
        // uses, keeping the 100 %-dirty case bitwise-cold.
        for &pair in &dirty_pairs {
            for &t in problem.tunnels.tunnels_for(pair) {
                st.tunnel_flows[t.index()] = 0.0;
            }
        }
        for (i, mark) in dirty_ep.iter().enumerate() {
            if mark.is_some() {
                if let Some(t) = assignment[i] {
                    st.tunnel_flows[t.index()] += new[i].demand_mbps;
                }
            }
        }

        for (v, d) in st.demand_values.iter_mut().zip(new) {
            *v = d.demand_mbps;
        }
        st.caps = caps;
        Ok((stage, carried))
    }
}

/// A persistent solve engine that lives across controller intervals
/// and decides warm-vs-cold per solve. See the module docs for the
/// pipeline's semantics and equivalence guarantees.
pub struct IncrementalEngine {
    scheme: MegaTeScheme,
    config: IncrementalConfig,
    /// One core per entry of the interval's class list: one for the
    /// single pass, one per QoS class when sequential (basis and
    /// carried state retained per class).
    cores: Vec<Core>,
    warm_solves_since_cold: u64,
}

impl IncrementalEngine {
    /// Builds an engine; registers the `solver.warm_solves`,
    /// `solver.cold_solves` and `solver.dirty_pairs` counters up front
    /// so they are present in snapshots even before any solve.
    pub fn new(config: IncrementalConfig) -> Self {
        megate_obs::counter("solver.warm_solves");
        megate_obs::counter("solver.cold_solves");
        megate_obs::counter("solver.dirty_pairs");
        Self {
            scheme: MegaTeScheme::new(config.solver.clone()),
            config,
            cores: Vec::new(),
            warm_solves_since_cold: 0,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &IncrementalConfig {
        &self.config
    }

    /// Whether any retained warm state exists.
    pub fn has_warm_state(&self) -> bool {
        self.cores.iter().any(|c| c.state.is_some())
    }

    /// Discards all retained state (bases, carried allocations); the
    /// next solve is cold. Callers invoke this whenever the published
    /// allocation diverged from the engine's view — e.g. after the
    /// controller published a deadline-fallback allocation — so a
    /// stale basis can never warm-start against the wrong baseline.
    pub fn invalidate(&mut self) {
        for core in &mut self.cores {
            core.state = None;
        }
        self.warm_solves_since_cold = 0;
    }

    /// Solves the interval, deciding warm-vs-cold from the retained
    /// state, the dirty-set churn, and the forced-cold cadence.
    /// `force_cold` overrides the decision (topology events, external
    /// churn signals such as the controller's published-path churn).
    pub fn solve(
        &mut self,
        problem: &TeProblem,
        force_cold: bool,
    ) -> Result<(TeAllocation, IncrementalReport), SolveError> {
        let start = Instant::now();
        let classes = class_demands(problem.demands, self.config.qos_sequential);
        self.cores.resize_with(classes.len(), Core::default);
        let cadence_cold = self.config.cold_every != 0
            && self.warm_solves_since_cold + 1 >= self.config.cold_every;
        let cold = force_cold
            || cadence_cold
            || self
                .upfront_churn_ppm(problem, &classes)
                .is_none_or(|ppm| ppm > self.config.warm_churn_max_ppm);
        if cold {
            // Nothing retained: every class that runs builds a fresh
            // state, and a class that lost its demands keeps none.
            self.invalidate();
        }

        let mut report = IncrementalReport {
            cold,
            ..Default::default()
        };
        let scheme = &self.scheme;
        let cores = &mut self.cores;
        let name = if self.config.qos_sequential {
            format!("{}+QoS", scheme.name())
        } else {
            scheme.name().to_string()
        };
        let mut alloc = solve_classes(name, problem, &classes, |ci, sub| {
            let (alloc, class) = cores[ci].solve(scheme, sub)?;
            report.dirty_pairs += class.dirty_pairs;
            report.total_pairs += class.total_pairs;
            report.carried_endpoints += class.carried_endpoints;
            Ok(alloc)
        })?;
        alloc.solve_time = start.elapsed();

        if cold {
            megate_obs::counter("solver.cold_solves").inc();
        } else {
            self.warm_solves_since_cold += 1;
            megate_obs::counter("solver.warm_solves").inc();
            megate_obs::counter("solver.dirty_pairs").add(report.dirty_pairs as u64);
        }
        Ok((alloc, report))
    }

    /// Pre-solve churn estimate across the cores, each against its
    /// retained capacities; the first class additionally sees the
    /// current graph capacities (lower classes run on residuals that
    /// are only known mid-pass, where each core computes its dirty set
    /// for real). `None` means a warm solve is not possible (no state,
    /// instance shape changed, or the pair universe moved).
    fn upfront_churn_ppm(&self, problem: &TeProblem, classes: &[ClassDemands]) -> Option<i64> {
        let n_links = problem.graph.link_count();
        let caps = problem.link_capacities();
        let (mut dirty, mut total) = (0usize, 0usize);
        for (ci, (class, core)) in classes.iter().zip(&self.cores).enumerate() {
            let Some(st) = &core.state else {
                if class.demands.is_empty() {
                    continue;
                }
                return None;
            };
            if class.demands.is_empty() || !st.shape_matches(&class.demands, n_links) {
                return None;
            }
            let class_caps = if ci == 0 { &caps } else { &st.caps };
            let ds = st.dirty_set(&class.demands, problem.tunnels, class_caps)?;
            dirty += ds.len();
            total += ds.total();
        }
        if total == 0 {
            return Some(0);
        }
        Some(((dirty as f64 / total as f64) * 1e6) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::solve_per_qos;
    use megate_topo::{b4, EndpointCatalog, TunnelTable, WeibullEndpoints};
    use megate_traffic::TrafficConfig;

    fn fixture(load: f64) -> (megate_topo::Graph, TunnelTable, DemandSet) {
        let g = b4();
        let tunnels = TunnelTable::for_all_pairs(&g, 3);
        let cat = EndpointCatalog::generate(&g, 300, WeibullEndpoints::with_scale(30.0), 3);
        let mut demands = DemandSet::generate(
            &g,
            &cat,
            &TrafficConfig {
                endpoint_pairs: 400,
                site_pairs: 16,
                sigma: 0.8,
                seed: 23,
                ..Default::default()
            },
        );
        demands.scale_to_load(&g, load);
        (g, tunnels, demands)
    }

    fn engine(qos_sequential: bool) -> IncrementalEngine {
        IncrementalEngine::new(IncrementalConfig {
            qos_sequential,
            cold_every: 0,
            ..Default::default()
        })
    }

    #[test]
    fn cold_solve_is_bitwise_identical_to_stateless_scheme() {
        let (g, tunnels, demands) = fixture(0.8);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let stateless = MegaTeScheme::default().solve(&p).unwrap();
        let mut eng = engine(false);
        let (alloc, report) = eng.solve(&p, false).unwrap();
        assert!(report.cold, "first solve must be cold");
        assert_eq!(report.dirty_pairs, report.total_pairs);
        assert_eq!(alloc.scheme, stateless.scheme);
        assert_eq!(alloc.tunnel_flow_mbps, stateless.tunnel_flow_mbps);
        assert_eq!(alloc.endpoint_assignment, stateless.endpoint_assignment);
    }

    #[test]
    fn cold_qos_solve_is_bitwise_identical_to_solve_per_qos() {
        let (g, tunnels, demands) = fixture(1.2);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let stateless = solve_per_qos(&MegaTeScheme::default(), &p).unwrap();
        let mut eng = engine(true);
        let (alloc, report) = eng.solve(&p, false).unwrap();
        assert!(report.cold);
        assert_eq!(alloc.scheme, stateless.scheme);
        assert_eq!(alloc.tunnel_flow_mbps, stateless.tunnel_flow_mbps);
        assert_eq!(alloc.endpoint_assignment, stateless.endpoint_assignment);
    }

    #[test]
    fn zero_churn_returns_previous_allocation_verbatim() {
        let (g, tunnels, demands) = fixture(0.8);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let mut eng = engine(false);
        let (first, _) = eng.solve(&p, false).unwrap();
        let (second, report) = eng.solve(&p, false).unwrap();
        assert!(!report.cold, "unchanged instance must warm-solve");
        assert_eq!(report.dirty_pairs, 0);
        assert!(report.carried_endpoints > 0);
        assert_eq!(second.tunnel_flow_mbps, first.tunnel_flow_mbps);
        assert_eq!(second.endpoint_assignment, first.endpoint_assignment);
        assert!(
            second.endpoint_stage.is_none(),
            "no stage-3 work on zero churn"
        );
    }

    #[test]
    fn warm_solve_after_demand_churn_is_partial_and_feasible() {
        let (g, tunnels, mut demands) = fixture(0.8);
        {
            let p = TeProblem {
                graph: &g,
                tunnels: &tunnels,
                demands: &demands,
            };
            let mut eng = engine(false);
            eng.solve(&p, false).unwrap();
            // Perturb one pair's demands: only that pair goes dirty.
            let pair = demands.pairs().next().unwrap();
            let idxs: Vec<usize> = demands.indices_for(pair).to_vec();
            for i in idxs {
                let d = demands.demands()[i].demand_mbps;
                demands.set_demand_mbps(i, d * 1.3);
            }
            let p = TeProblem {
                graph: &g,
                tunnels: &tunnels,
                demands: &demands,
            };
            let (alloc, report) = eng.solve(&p, false).unwrap();
            assert!(!report.cold, "tiny churn must warm-solve");
            assert!(report.dirty_pairs >= 1);
            assert!(
                report.dirty_pairs < report.total_pairs,
                "only the perturbed pair re-solves: {} of {}",
                report.dirty_pairs,
                report.total_pairs
            );
            assert!(report.carried_endpoints > 0);
            assert!(alloc.check_feasible(&p, 1e-6));
        }
    }

    #[test]
    fn capacity_churn_dirties_only_pairs_on_the_link() {
        let (g, tunnels, demands) = fixture(0.8);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let mut eng = engine(false);
        eng.solve(&p, false).unwrap();
        let mut shrunk = g.clone();
        let link = megate_topo::LinkId(0);
        shrunk.link_mut(link).capacity_mbps *= 0.7;
        let p2 = TeProblem {
            graph: &shrunk,
            tunnels: &tunnels,
            demands: &demands,
        };
        let (alloc, report) = eng.solve(&p2, false).unwrap();
        assert!(!report.cold);
        assert!(report.dirty_pairs >= 1, "someone traverses link 0");
        assert!(
            alloc.check_feasible(&p2, 1e-6),
            "shrunk capacity must be respected"
        );
    }

    #[test]
    fn cold_cadence_forces_periodic_full_solves() {
        let (g, tunnels, demands) = fixture(0.8);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let mut eng = IncrementalEngine::new(IncrementalConfig {
            cold_every: 3,
            ..Default::default()
        });
        let mut colds = 0;
        for _ in 0..7 {
            let (_, report) = eng.solve(&p, false).unwrap();
            if report.cold {
                colds += 1;
            }
        }
        // Solve 1 is cold (no state); thereafter every third solve.
        assert_eq!(colds, 3, "cold cadence of 3 over 7 solves");
    }

    #[test]
    fn invalidate_discards_warm_state() {
        let (g, tunnels, demands) = fixture(0.8);
        let p = TeProblem {
            graph: &g,
            tunnels: &tunnels,
            demands: &demands,
        };
        let mut eng = engine(false);
        eng.solve(&p, false).unwrap();
        assert!(eng.has_warm_state());
        eng.invalidate();
        assert!(!eng.has_warm_state());
        let (_, report) = eng.solve(&p, false).unwrap();
        assert!(report.cold, "post-invalidate solve must be cold");
    }
}
