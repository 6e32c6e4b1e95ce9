//! Primal simplex for `max c·x  s.t.  A x ≤ b,  x ≥ 0,  b ≥ 0`.
//!
//! All of MegaTE's LPs (Equation 2 and the LP-all baseline) are in this
//! form, which admits the all-slack starting basis — no phase-1 needed.
//! [`LinearProgram::solve`] runs the sparse revised simplex in
//! [`crate::revised`] (memory `O(nnz + m²)`); the dense tableau solver
//! below remains as [`LinearProgram::solve_dense`], the reference
//! implementation the revised core is property-tested against. Dantzig
//! pricing with an automatic switch to Bland's rule guards against
//! cycling on degenerate instances. Instances too large even for the
//! revised working set should use the FPTAS in [`crate::mcf`] instead
//! (that mirrors the paper, where exact LP at endpoint granularity runs
//! out of memory — §6.2).

/// Numerical tolerance for pivoting and feasibility checks.
const EPS: f64 = 1e-9;

/// A sparse constraint row `Σ coeff_j · x_j ≤ rhs`.
#[derive(Debug, Clone, Default)]
pub struct SparseRow {
    /// `(variable index, coefficient)` pairs; indices must be unique.
    pub entries: Vec<(usize, f64)>,
    /// Right-hand side (must be ≥ 0).
    pub rhs: f64,
}

/// A linear program `max c·x  s.t.  rows,  x ≥ 0`.
///
/// ```
/// use megate_lp::LinearProgram;
///
/// // max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18
/// let mut lp = LinearProgram::maximize(vec![3.0, 5.0]);
/// lp.add_le(vec![(0, 1.0)], 4.0);
/// lp.add_le(vec![(1, 2.0)], 12.0);
/// lp.add_le(vec![(0, 3.0), (1, 2.0)], 18.0);
/// let s = lp.solve().unwrap();
/// assert!((s.objective - 36.0).abs() < 1e-9);
/// assert!((s.duals[2] - 1.0).abs() < 1e-9); // shadow price of row 3
/// ```
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    /// Objective coefficients, one per variable.
    pub objective: Vec<f64>,
    /// `≤` constraint rows.
    pub rows: Vec<SparseRow>,
}

impl LinearProgram {
    /// A program over `n_vars` variables with the given maximization
    /// objective.
    pub fn maximize(objective: Vec<f64>) -> Self {
        Self {
            objective,
            rows: Vec::new(),
        }
    }

    /// Number of structural variables.
    pub fn n_vars(&self) -> usize {
        self.objective.len()
    }

    /// Adds `Σ coeff·x ≤ rhs`. Entries with out-of-range indices panic.
    pub fn add_le(&mut self, entries: Vec<(usize, f64)>, rhs: f64) {
        assert!(rhs >= 0.0, "simplex requires rhs >= 0 (got {rhs})");
        for &(j, _) in &entries {
            assert!(j < self.n_vars(), "variable index {j} out of range");
        }
        self.rows.push(SparseRow { entries, rhs });
    }

    /// Estimated dense tableau size in f64 entries — what
    /// [`solve_dense`](Self::solve_dense) would allocate.
    pub fn tableau_entries(&self) -> usize {
        let m = self.rows.len();
        let n = self.n_vars();
        m.saturating_mul(n + m + 1)
    }

    /// Estimated working-set size of the revised solver in f64
    /// entries: the dense `m × m` basis inverse, the equally sized
    /// Gauss–Jordan scratch matrix kept from the first refactorization
    /// on, and the sparse constraint columns — `2m² + nnz`. Callers use
    /// this to decide exact-vs-FPTAS, and [`solve`](Self::solve)
    /// enforces [`TABLEAU_ENTRY_CAP`] on it.
    pub fn revised_entries(&self) -> usize {
        let m = self.rows.len();
        let nnz: usize = self.rows.iter().map(|r| r.entries.len()).sum();
        m.saturating_mul(m).saturating_mul(2).saturating_add(nnz)
    }

    /// Solves the LP with the sparse revised simplex (see
    /// [`crate::revised`]). See [`LpError`] for failure modes.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        let entries = self.revised_entries();
        if entries > TABLEAU_ENTRY_CAP {
            return Err(LpError::TooLarge {
                entries,
                cap: TABLEAU_ENTRY_CAP,
            });
        }
        crate::revised::solve_revised(self)
    }

    /// Solves like [`solve`](Self::solve) but may re-enter phase 2 from
    /// a retained [`LpBasis`](crate::revised::LpBasis) of a previous
    /// same-shaped solve, and always returns the final basis for
    /// retention. Falls back to a cold start (never errors) when the
    /// warm basis does not fit; see
    /// [`solve_revised_warm`](crate::revised::solve_revised_warm).
    pub fn solve_warm(
        &self,
        warm: Option<&crate::revised::LpBasis>,
    ) -> Result<crate::revised::WarmLpSolve, LpError> {
        let entries = self.revised_entries();
        if entries > TABLEAU_ENTRY_CAP {
            return Err(LpError::TooLarge {
                entries,
                cap: TABLEAU_ENTRY_CAP,
            });
        }
        crate::revised::solve_revised_warm(self, warm)
    }

    /// Solves the LP with the dense tableau simplex — kept as the
    /// reference implementation and for benchmarking against
    /// [`solve`](Self::solve).
    pub fn solve_dense(&self) -> Result<LpSolution, LpError> {
        solve_dense(self)
    }

    /// Checks a point for primal feasibility within tolerance.
    pub fn is_feasible(&self, x: &[f64]) -> bool {
        if x.len() != self.n_vars() || x.iter().any(|&v| v < -EPS) {
            return false;
        }
        self.rows.iter().all(|row| {
            let lhs: f64 = row.entries.iter().map(|&(j, c)| c * x[j]).sum();
            lhs <= row.rhs + EPS * (1.0 + row.rhs.abs())
        })
    }

    /// Objective value at a point.
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }
}

/// Solver outcome status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Optimal solution found.
    Optimal,
    /// Objective can grow without bound.
    Unbounded,
}

/// A solved LP.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Status (only `Optimal` carries a meaningful point).
    pub status: LpStatus,
    /// Optimal assignment of the structural variables.
    pub x: Vec<f64>,
    /// Objective value `c·x`.
    pub objective: f64,
    /// Simplex pivot count (diagnostics for the run-time figures).
    pub pivots: usize,
    /// Dual value (shadow price) per constraint row: how much the
    /// objective would gain per unit of extra right-hand side. For the
    /// MCF LPs these are the *link congestion prices* — a link with a
    /// positive dual is a binding bottleneck.
    pub duals: Vec<f64>,
}

/// Solver failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The solver's working set would exceed the memory cap. This is
    /// the behaviour the paper reports for LP-all at hyper-scale
    /// ("out-of-memory issues"); callers surface it as such.
    TooLarge {
        /// Entries the tableau would need.
        entries: usize,
        /// The configured cap.
        cap: usize,
    },
    /// Pivot limit exceeded (numerical trouble).
    IterationLimit,
    /// A refactorization met a basis with no usable pivot: its columns
    /// are (numerically) linearly dependent.
    SingularBasis,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::TooLarge { entries, cap } => {
                write!(
                    f,
                    "LP working set needs {entries} entries (cap {cap}): out of memory"
                )
            }
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            LpError::SingularBasis => write!(f, "simplex basis is numerically singular"),
        }
    }
}

impl std::error::Error for LpError {}

/// Hard cap on solver working-set entries (~1.6 GB of f64). Mirrors
/// the OOM wall the paper reports for exact LP at endpoint granularity.
pub const TABLEAU_ENTRY_CAP: usize = 200_000_000;

fn solve_dense(lp: &LinearProgram) -> Result<LpSolution, LpError> {
    let m = lp.rows.len();
    let n = lp.n_vars();
    let entries = lp.tableau_entries();
    if entries > TABLEAU_ENTRY_CAP {
        return Err(LpError::TooLarge {
            entries,
            cap: TABLEAU_ENTRY_CAP,
        });
    }
    if n == 0 {
        return Ok(LpSolution {
            status: LpStatus::Optimal,
            x: vec![],
            objective: 0.0,
            pivots: 0,
            duals: vec![0.0; m],
        });
    }

    let width = n + m + 1; // structural + slack + rhs
                           // Tableau rows 0..m are constraints; row m is the objective row with
                           // reduced costs (stored negated-for-min convention avoided: we keep
                           // `z_j - c_j` so optimality is "all entries >= 0").
    let mut t = vec![0.0f64; (m + 1) * width];
    let idx = |r: usize, c: usize| r * width + c;

    for (i, row) in lp.rows.iter().enumerate() {
        for &(j, coeff) in &row.entries {
            t[idx(i, j)] += coeff;
        }
        t[idx(i, n + i)] = 1.0; // slack
        t[idx(i, width - 1)] = row.rhs;
    }
    for j in 0..n {
        t[idx(m, j)] = -lp.objective[j]; // z_j - c_j with all-slack basis
    }

    let mut basis: Vec<usize> = (n..n + m).collect();
    let mut pivots = 0usize;
    // Generous pivot budget; switch to Bland after the first half to
    // break any cycling.
    let limit = 50_000 + 40 * (m + n);
    let bland_after = limit / 2;

    loop {
        // Entering variable.
        let mut enter: Option<usize> = None;
        if pivots < bland_after {
            let mut best = -EPS;
            for j in 0..n + m {
                let rc = t[idx(m, j)];
                if rc < best {
                    best = rc;
                    enter = Some(j);
                }
            }
        } else {
            enter = (0..n + m).find(|&j| t[idx(m, j)] < -EPS);
        }
        let enter = match enter {
            Some(j) => j,
            None => break, // optimal
        };

        // Ratio test (Bland-compatible: smallest ratio, ties by basis idx).
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            let a = t[idx(i, enter)];
            if a > EPS {
                let ratio = t[idx(i, width - 1)] / a;
                if ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS && leave.is_none_or(|l| basis[i] < basis[l]))
                {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let leave = match leave {
            Some(i) => i,
            None => {
                return Ok(LpSolution {
                    status: LpStatus::Unbounded,
                    x: vec![0.0; n],
                    objective: f64::INFINITY,
                    pivots,
                    duals: vec![0.0; m],
                })
            }
        };

        // Pivot on (leave, enter).
        let piv = t[idx(leave, enter)];
        for c in 0..width {
            t[idx(leave, c)] /= piv;
        }
        for r in 0..=m {
            if r == leave {
                continue;
            }
            let factor = t[idx(r, enter)];
            if factor.abs() > EPS {
                for c in 0..width {
                    t[idx(r, c)] -= factor * t[idx(leave, c)];
                }
            }
        }
        basis[leave] = enter;
        pivots += 1;
        if pivots >= limit {
            return Err(LpError::IterationLimit);
        }
    }

    let mut x = vec![0.0f64; n];
    for (i, &b) in basis.iter().enumerate() {
        if b < n {
            x[b] = t[idx(i, width - 1)].max(0.0);
        }
    }
    let objective = lp.objective_at(&x);
    // Duals: the reduced cost of constraint i's slack column in the
    // optimal objective row equals y_i (complementary slackness).
    let duals: Vec<f64> = (0..m).map(|i| t[idx(m, n + i)].max(0.0)).collect();
    Ok(LpSolution {
        status: LpStatus::Optimal,
        x,
        objective,
        pivots,
        duals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_two_variable_lp() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> (2, 6), z=36.
        let mut lp = LinearProgram::maximize(vec![3.0, 5.0]);
        lp.add_le(vec![(0, 1.0)], 4.0);
        lp.add_le(vec![(1, 2.0)], 12.0);
        lp.add_le(vec![(0, 3.0), (1, 2.0)], 18.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
    }

    #[test]
    fn unconstrained_positive_objective_is_unbounded() {
        let lp = LinearProgram::maximize(vec![1.0]);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic Beale-style degeneracy trigger.
        let mut lp = LinearProgram::maximize(vec![0.75, -150.0, 0.02, -6.0]);
        lp.add_le(vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)], 0.0);
        lp.add_le(vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)], 0.0);
        lp.add_le(vec![(2, 1.0)], 1.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 0.05);
    }

    #[test]
    fn zero_objective_returns_zero_point() {
        let mut lp = LinearProgram::maximize(vec![0.0, 0.0]);
        lp.add_le(vec![(0, 1.0), (1, 1.0)], 5.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn duplicate_entry_indices_accumulate() {
        // x + x <= 4 means 2x <= 4.
        let mut lp = LinearProgram::maximize(vec![1.0]);
        lp.add_le(vec![(0, 1.0), (0, 1.0)], 4.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn too_large_reports_oom() {
        let n = 20_000;
        let mut lp = LinearProgram::maximize(vec![1.0; n]);
        for _ in 0..n {
            lp.add_le(vec![(0, 1.0)], 1.0);
        }
        match lp.solve() {
            Err(LpError::TooLarge { .. }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "rhs >= 0")]
    fn negative_rhs_rejected() {
        let mut lp = LinearProgram::maximize(vec![1.0]);
        lp.add_le(vec![(0, 1.0)], -1.0);
    }

    #[test]
    fn knapsack_relaxation_picks_best_density() {
        // max 10a + 6b s.t. a <= 1, b <= 1, 5a + 4b <= 7 -> a=1, b=0.5.
        let mut lp = LinearProgram::maximize(vec![10.0, 6.0]);
        lp.add_le(vec![(0, 1.0)], 1.0);
        lp.add_le(vec![(1, 1.0)], 1.0);
        lp.add_le(vec![(0, 5.0), (1, 4.0)], 7.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 13.0);
    }

    #[test]
    fn duals_price_binding_constraints() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
        // Known duals: y1 = 0 (slack), y2 = 3/2, y3 = 1.
        let mut lp = LinearProgram::maximize(vec![3.0, 5.0]);
        lp.add_le(vec![(0, 1.0)], 4.0);
        lp.add_le(vec![(1, 2.0)], 12.0);
        lp.add_le(vec![(0, 3.0), (1, 2.0)], 18.0);
        let s = lp.solve().unwrap();
        assert!((s.duals[0] - 0.0).abs() < 1e-9, "{:?}", s.duals);
        assert!((s.duals[1] - 1.5).abs() < 1e-9, "{:?}", s.duals);
        assert!((s.duals[2] - 1.0).abs() < 1e-9, "{:?}", s.duals);
        // Strong duality: y·b == c·x at the optimum.
        let yb: f64 = s.duals[0] * 4.0 + s.duals[1] * 12.0 + s.duals[2] * 18.0;
        assert!((yb - s.objective).abs() < 1e-9);
    }

    /// Brute-force LP oracle: for 2-variable LPs, scan a fine grid.
    fn grid_oracle(lp: &LinearProgram, hi: f64) -> f64 {
        let steps = 400;
        let mut best = 0.0f64;
        for i in 0..=steps {
            for j in 0..=steps {
                let x = [hi * i as f64 / steps as f64, hi * j as f64 / steps as f64];
                if lp.is_feasible(&x) {
                    best = best.max(lp.objective_at(&x));
                }
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_2d_lps_match_grid_oracle(
            c0 in 0.0f64..10.0, c1 in 0.0f64..10.0,
            a in 0.5f64..4.0, b in 0.5f64..4.0, r in 1.0f64..20.0,
            ub0 in 1.0f64..10.0, ub1 in 1.0f64..10.0,
        ) {
            let mut lp = LinearProgram::maximize(vec![c0, c1]);
            lp.add_le(vec![(0, a), (1, b)], r);
            lp.add_le(vec![(0, 1.0)], ub0);
            lp.add_le(vec![(1, 1.0)], ub1);
            let s = lp.solve().unwrap();
            prop_assert_eq!(s.status, LpStatus::Optimal);
            prop_assert!(lp.is_feasible(&s.x));
            let oracle = grid_oracle(&lp, ub0.max(ub1));
            // Simplex must match the grid oracle up to grid resolution.
            prop_assert!(s.objective >= oracle - 0.35,
                "simplex {} < grid {}", s.objective, oracle);
        }

        #[test]
        fn strong_duality_holds(
            c0 in 0.0f64..10.0, c1 in 0.0f64..10.0,
            a in 0.5f64..4.0, b in 0.5f64..4.0, r in 1.0f64..20.0,
        ) {
            let mut lp = LinearProgram::maximize(vec![c0, c1]);
            lp.add_le(vec![(0, a), (1, b)], r);
            lp.add_le(vec![(0, 1.0)], 7.0);
            lp.add_le(vec![(1, 1.0)], 9.0);
            let s = lp.solve().unwrap();
            prop_assert_eq!(s.status, LpStatus::Optimal);
            let yb: f64 = s.duals[0] * r + s.duals[1] * 7.0 + s.duals[2] * 9.0;
            prop_assert!((yb - s.objective).abs() < 1e-6 * (1.0 + s.objective.abs()),
                "strong duality: y*b {} vs c*x {}", yb, s.objective);
            prop_assert!(s.duals.iter().all(|&y| y >= -1e-9), "dual feasibility");
        }

        #[test]
        fn solutions_always_feasible(
            n in 1usize..6,
            seed in 0u64..1000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..5.0)).collect();
            let mut lp = LinearProgram::maximize(obj);
            for _ in 0..n + 2 {
                let mut entries: Vec<(usize, f64)> = Vec::new();
                for j in 0..n {
                    if rng.gen_bool(0.7) {
                        entries.push((j, rng.gen_range(0.1..3.0)));
                    }
                }
                if !entries.is_empty() {
                    lp.add_le(entries, rng.gen_range(0.5..20.0));
                }
            }
            // Cap each variable so the LP is bounded.
            for j in 0..n {
                lp.add_le(vec![(j, 1.0)], 50.0);
            }
            let s = lp.solve().unwrap();
            prop_assert_eq!(s.status, LpStatus::Optimal);
            prop_assert!(lp.is_feasible(&s.x));
        }
    }
}
