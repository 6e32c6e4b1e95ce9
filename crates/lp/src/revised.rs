//! Sparse revised primal simplex for `max c·x  s.t.  A x ≤ b, x ≥ 0`,
//! `b ≥ 0` — the same LP family as [`crate::simplex`], without the
//! dense tableau.
//!
//! The dense solver materializes an `m × (n + m + 1)` tableau and
//! rewrites all of it on every pivot; at MegaTE's site-LP shapes (a
//! demand row per commodity plus a link row per fiber, a path variable
//! per tunnel) that wall is what forced instances past a few thousand
//! commodities onto the FPTAS. The revised method keeps:
//!
//! * the constraint matrix as immutable sparse CSC columns (slack
//!   columns stay implicit — they are unit vectors);
//! * an explicit basis inverse `B⁻¹` (dense `m × m`, column-major so
//!   both FTRAN and BTRAN walk contiguous memory), updated in place by
//!   the product-form (eta) rank-1 update on each pivot and rebuilt
//!   from the basis by Gauss–Jordan every `REFACTOR_EVERY` pivots to
//!   bound numerical drift;
//! * the full reduced-cost vector, updated incrementally per pivot in
//!   `O(m + nnz(A))` from row `p` of `B⁻¹` instead of re-priced from
//!   scratch, and recomputed exactly at every refactorization and
//!   before declaring optimality.
//!
//! Memory is `O(nnz(A) + m²)` (twice `m²` once a refactorization has
//! allocated its Gauss–Jordan copy of `B`, which the solve then keeps)
//! versus the tableau's `O(m·(n+m))`.
//!
//! Both dense kernels skip exact zeros. A pivot's eta update touches
//! only the rows where the FTRAN column `w` is nonzero, so a pivot costs
//! `O(m + nnz(ρ)·nnz(w) + Σ_{ρ_i ≠ 0} nnz(A_i))` multiply-adds and scans
//! (`ρ` = row `p` of `B⁻¹`) versus the tableau's `O(m·(n+m))`. A
//! refactorization's step `k` updates only the columns where row `k` of
//! `[B | B⁻¹]` is nonzero, so it costs `O(m²)` scans plus
//! `Σ_k |{r : f_r ≠ 0}|·nnz(row k)` multiply-adds versus the dense
//! `Σ_k |{r : f_r ≠ 0}|·2m` (`f` = column `k` of `B`) — 4–11 % of the
//! dense count on a 940-row site LP. The invariant that makes this free:
//! every skipped operation is `x − f·(±0)`, which can change at most the
//! sign of a zero, and nothing here branches on the sign of a zero (the
//! tests are `!= 0.0`, `< 0.0`, `> PIVOT_TOL`, `.abs()`) or divides by a
//! value that can be zero — so the pivot sequence, `x` and the duals are
//! those of the dense kernels bit for bit, up to the sign of zeros.
//!
//! Pricing is Dantzig's rule with the same switch to Bland's rule as the
//! dense solver to break cycling on degenerate instances.

use crate::simplex::{LinearProgram, LpError, LpSolution, LpStatus};

/// A retained simplex basis — the warm-start state carried between
/// solves of same-shaped instances.
///
/// Holds the basic-variable index per row of the final basis. Re-entry
/// does not replay the eta file: the inverse is rebuilt from these
/// indices by one Gauss–Jordan refactorization (the standard basis-file
/// restart), which is both cheaper than storing `B⁻¹` and numerically
/// fresh. A retained basis is only valid for an instance with the same
/// `(rows, vars)` shape; [`solve_revised_warm`] silently falls back to
/// a cold all-slack start on shape mismatch, a singular basis, or a
/// primal-infeasible restart point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LpBasis {
    basis: Vec<usize>,
    m: usize,
    n: usize,
}

impl LpBasis {
    /// Number of retained basic-variable indices (= constraint rows).
    pub fn len(&self) -> usize {
        self.basis.len()
    }

    /// True for the empty (zero-row) basis.
    pub fn is_empty(&self) -> bool {
        self.basis.is_empty()
    }

    /// The `(rows, vars)` shape this basis was factored for.
    pub fn shape(&self) -> (usize, usize) {
        (self.m, self.n)
    }
}

/// Result of a warm-capable solve: the solution, the final basis for
/// retention, and whether the supplied basis was actually used.
#[derive(Debug, Clone)]
pub struct WarmLpSolve {
    /// The optimal (or unbounded) solution, identical in contract to
    /// [`solve_revised`].
    pub solution: LpSolution,
    /// The final basis, to retain for the next same-shaped solve.
    pub basis: LpBasis,
    /// Whether phase 2 re-entered from the supplied basis (false when
    /// none was given or the fallback path ran cold).
    pub warm_used: bool,
}

/// Numerical tolerance for pricing and feasibility (matches the dense
/// solver so the two report identical statuses on marginal instances).
const EPS: f64 = 1e-9;
/// Smallest acceptable pivot element magnitude; rows whose ratio ties
/// within `EPS` are broken toward larger pivots for stability.
const PIVOT_TOL: f64 = 1e-8;
/// Pivots between Gauss–Jordan rebuilds of the basis inverse.
const REFACTOR_EVERY: usize = 512;

/// Immutable CSC view of the structural columns of `A`.
struct SparseCols {
    ptr: Vec<usize>,
    rows: Vec<u32>,
    vals: Vec<f64>,
}

impl SparseCols {
    fn build(lp: &LinearProgram) -> Self {
        let n = lp.n_vars();
        // Count entries per column (duplicate indices within a row are
        // kept — they accumulate in every dot product, matching the
        // dense solver's `+=` tableau fill).
        let mut counts = vec![0usize; n + 1];
        for row in &lp.rows {
            for &(j, _) in &row.entries {
                counts[j + 1] += 1;
            }
        }
        for j in 0..n {
            counts[j + 1] += counts[j];
        }
        let nnz = counts[n];
        let mut rows = vec![0u32; nnz];
        let mut vals = vec![0.0f64; nnz];
        let mut cursor = counts.clone();
        for (i, row) in lp.rows.iter().enumerate() {
            for &(j, a) in &row.entries {
                let k = cursor[j];
                rows[k] = i as u32;
                vals[k] = a;
                cursor[j] += 1;
            }
        }
        SparseCols {
            ptr: counts,
            rows,
            vals,
        }
    }

    fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.rows[self.ptr[j]..self.ptr[j + 1]]
            .iter()
            .zip(&self.vals[self.ptr[j]..self.ptr[j + 1]])
            .map(|(&r, &v)| (r as usize, v))
    }
}

/// What one exact solve cost, in units that do not depend on the
/// machine. Crate-private like the FPTAS's `FptasStats`: tests read it
/// directly so concurrent solves on the process-global registry cannot
/// disturb them, and no registry metric is fed from it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SimplexStats {
    /// Basis changes (the `lp.pivots` count).
    pub(crate) pivots: u64,
    /// Gauss–Jordan rebuilds of `B⁻¹`, a warm restart's included.
    pub(crate) refactorizations: u64,
    /// Multiply-adds the Gauss–Jordan eliminations performed.
    pub(crate) refactor_madds: u64,
    /// Row eliminations (pivot `k`, row `r` with `f_r ≠ 0`): a dense
    /// elimination spends `2m` multiply-adds on each, one per column of
    /// `[B | B⁻¹]`, so `2m ·` this is what skipping zeros saves against.
    pub(crate) refactor_rows: u64,
    /// Multiply-adds the eta updates of `B⁻¹` performed.
    pub(crate) eta_madds: u64,
}

/// Solver state: basis bookkeeping plus the maintained inverse.
struct Revised<'a> {
    lp: &'a LinearProgram,
    cols: SparseCols,
    m: usize,
    n: usize,
    /// Column-major `m × m` basis inverse: entry `(r, c)` at `c*m + r`.
    binv: Vec<f64>,
    /// Basic variable per row position.
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// Current basic solution values (`B⁻¹ b`).
    xb: Vec<f64>,
    /// Reduced costs `c_j − y·A_j` for all `n + m` variables.
    d: Vec<f64>,
    b: Vec<f64>,
    /// Gauss–Jordan's working copy of `B` (column-major like `binv`),
    /// kept between refactorizations instead of reallocated.
    bmat: Vec<f64>,
    /// Scratch for the kernels' nonzero patterns: the rows a
    /// Gauss–Jordan step eliminates, with their factors; where row `k`
    /// of `B` and of `B⁻¹` is nonzero; where `w` is nonzero.
    elim_rows: Vec<(usize, f64)>,
    nz_b: Vec<usize>,
    nz_inv: Vec<usize>,
    nz_w: Vec<usize>,
    /// Row `p` of `B⁻¹` before a pivot.
    rho: Vec<f64>,
    stats: SimplexStats,
}

impl<'a> Revised<'a> {
    /// The all-slack start.
    fn new(lp: &'a LinearProgram) -> Self {
        let m = lp.rows.len();
        let n = lp.n_vars();
        let mut st = Revised {
            lp,
            cols: SparseCols::build(lp),
            m,
            n,
            binv: vec![0.0f64; m * m],
            basis: vec![0; m],
            in_basis: vec![false; n + m],
            xb: vec![0.0f64; m],
            d: vec![0.0f64; n + m],
            b: lp.rows.iter().map(|r| r.rhs).collect(),
            bmat: Vec::new(),
            elim_rows: Vec::new(),
            nz_b: Vec::new(),
            nz_inv: Vec::new(),
            nz_w: Vec::new(),
            rho: vec![0.0f64; m],
            stats: SimplexStats::default(),
        };
        st.reset_to_slack();
        st
    }

    /// All-slack start: B = I, so B⁻¹ = I, x_B = b, y = 0, d = c.
    fn reset_to_slack(&mut self) {
        let (m, n) = (self.m, self.n);
        self.binv.fill(0.0);
        for i in 0..m {
            self.binv[i * m + i] = 1.0;
        }
        for (i, vb) in self.basis.iter_mut().enumerate() {
            *vb = n + i;
        }
        self.in_basis[..n].fill(false);
        self.in_basis[n..].fill(true);
        self.xb.copy_from_slice(&self.b);
        self.d[..n].copy_from_slice(&self.lp.objective);
        self.d[n..].fill(0.0);
    }

    /// Warm restart: rebuilds the solver state from a retained basis.
    /// Returns false, with the all-slack start restored, when the basis
    /// does not fit this instance's shape, is not a valid row
    /// permutation of variable indices, refactorizes as singular, or
    /// lands primal-infeasible under the new right-hand side.
    fn load_basis(&mut self, warm: &LpBasis) -> bool {
        let (m, n) = (self.m, self.n);
        if warm.m != m || warm.n != n || warm.basis.len() != m {
            return false;
        }
        self.in_basis.fill(false);
        for &vb in &warm.basis {
            if vb >= n + m || self.in_basis[vb] {
                self.reset_to_slack();
                return false;
            }
            self.in_basis[vb] = true;
        }
        self.basis.copy_from_slice(&warm.basis);
        // Refactorization rebuilds B⁻¹, x_B and exact reduced costs; a
        // singular retained basis is the designated fallback trigger.
        // The retained basis may also be primal-infeasible for the new
        // b (dual simplex would repair it; we fall back to cold instead).
        if self.refactorize().is_err() || self.xb.iter().any(|&x| x < 0.0) {
            self.reset_to_slack();
            return false;
        }
        true
    }

    /// `w = B⁻¹ A_j` (FTRAN) — accumulates scaled columns of `B⁻¹`.
    fn ftran(&self, j: usize, w: &mut [f64]) {
        w.fill(0.0);
        if j < self.n {
            for (i, a) in self.cols.col(j) {
                let col = &self.binv[i * self.m..(i + 1) * self.m];
                for (wr, &br) in w.iter_mut().zip(col) {
                    *wr += a * br;
                }
            }
        } else {
            w.copy_from_slice(&self.binv[(j - self.n) * self.m..(j - self.n + 1) * self.m]);
        }
    }

    /// Recomputes every reduced cost from an exact BTRAN:
    /// `y = c_B B⁻¹`, then `d_j = c_j − y·A_j`.
    fn refresh_reduced_costs(&mut self) {
        let m = self.m;
        let mut y = vec![0.0f64; m];
        for (i, yi) in y.iter_mut().enumerate() {
            let col = &self.binv[i * m..(i + 1) * m];
            let mut acc = 0.0;
            for (r, &br) in col.iter().enumerate() {
                if br != 0.0 {
                    let vb = self.basis[r];
                    if vb < self.n {
                        acc += self.lp.objective[vb] * br;
                    }
                }
            }
            *yi = acc;
        }
        for j in 0..self.n {
            let dot: f64 = self.cols.col(j).map(|(i, a)| a * y[i]).sum();
            self.d[j] = self.lp.objective[j] - dot;
        }
        for (i, yi) in y.iter().enumerate().take(m) {
            self.d[self.n + i] = -yi;
        }
        for &vb in &self.basis {
            self.d[vb] = 0.0;
        }
    }

    /// Rebuilds `B⁻¹` from the basis columns by Gauss–Jordan with
    /// partial pivoting, then restores `x_B = B⁻¹ b` and the exact
    /// reduced costs. Bounds the drift of the product-form updates.
    ///
    /// Pivot `k` subtracts `f_r ·` row `k` of `[B | B⁻¹]` from each row
    /// `r` with `f_r ≠ 0`, but only in the columns where row `k` is
    /// nonzero: every skipped operation is `x − f·(±0)`, which can change
    /// at most the sign of a zero, and each element takes one update per
    /// `k`, so walking columns outer (contiguous) and rows inner gives
    /// the dense elimination's bits.
    fn refactorize(&mut self) -> Result<(), LpError> {
        let m = self.m;
        self.stats.refactorizations += 1;
        // Dense working copy of B, column-major like binv.
        let bmat = &mut self.bmat;
        bmat.clear();
        bmat.resize(m * m, 0.0);
        for (pos, &vb) in self.basis.iter().enumerate() {
            if vb < self.n {
                for (i, a) in self.cols.col(vb) {
                    bmat[pos * m + i] += a;
                }
            } else {
                bmat[pos * m + (vb - self.n)] = 1.0;
            }
        }
        let inv = &mut self.binv;
        inv.fill(0.0);
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for k in 0..m {
            // Partial pivot: largest |entry| in column k at rows >= k.
            let (mut prow, mut pval) = (k, bmat[k * m + k].abs());
            for r in k + 1..m {
                let v = bmat[k * m + r].abs();
                if v > pval {
                    prow = r;
                    pval = v;
                }
            }
            if pval < PIVOT_TOL * PIVOT_TOL {
                return Err(LpError::SingularBasis);
            }
            if prow != k {
                for c in 0..m {
                    bmat.swap(c * m + k, c * m + prow);
                    inv.swap(c * m + k, c * m + prow);
                }
            }
            // Scale row k and note where it is nonzero.
            let piv = bmat[k * m + k];
            self.nz_b.clear();
            self.nz_inv.clear();
            for c in 0..m {
                if bmat[c * m + k] != 0.0 {
                    bmat[c * m + k] /= piv;
                    self.nz_b.push(c);
                }
                if inv[c * m + k] != 0.0 {
                    inv[c * m + k] /= piv;
                    self.nz_inv.push(c);
                }
            }
            self.elim_rows.clear();
            self.elim_rows.extend(
                bmat[k * m..(k + 1) * m]
                    .iter()
                    .enumerate()
                    .filter(|&(r, &f)| r != k && f != 0.0)
                    .map(|(r, &f)| (r, f)),
            );
            self.stats.refactor_rows += self.elim_rows.len() as u64;
            self.stats.refactor_madds += eliminate(bmat, m, k, &self.nz_b, &self.elim_rows)
                + eliminate(inv, m, k, &self.nz_inv, &self.elim_rows);
        }
        // x_B = B⁻¹ b.
        self.xb.fill(0.0);
        for (i, &bi) in self.b.iter().enumerate() {
            if bi != 0.0 {
                let col = &inv[i * m..(i + 1) * m];
                for (x, &v) in self.xb.iter_mut().zip(col) {
                    *x += bi * v;
                }
            }
        }
        for x in &mut self.xb {
            if *x < 0.0 && *x > -1e-7 {
                *x = 0.0;
            }
        }
        self.refresh_reduced_costs();
        Ok(())
    }

    /// Product-form (eta) update after pivoting variable `enter` into
    /// row `p` with FTRAN column `w`: updates `B⁻¹`, `x_B`, and the
    /// reduced costs in `O(m + nnz(ρ)·nnz(w) + Σ_{ρ_i ≠ 0} nnz(A_i))`.
    fn pivot(&mut self, enter: usize, p: usize, w: &[f64]) {
        let m = self.m;
        let wp = w[p];
        // x_B update.
        let step = self.xb[p] / wp;
        for (r, x) in self.xb.iter_mut().enumerate() {
            if r != p {
                *x -= w[r] * step;
                if *x < 0.0 && *x > -1e-9 {
                    *x = 0.0;
                }
            }
        }
        self.xb[p] = step;
        // Reduced-cost update from row p of the *new* B⁻¹. Row p of the
        // old inverse is rho; new row p is rho / wp, and
        // d'_j = d_j − (d_enter / wp) · (rho · A_j).
        let theta = self.d[enter] / wp;
        for (c, rc) in self.rho.iter_mut().enumerate() {
            *rc = self.binv[c * m + p];
        }
        if theta != 0.0 {
            // Distribute row-wise over the nonzeros of rho instead of
            // gathering column-wise over all of A: rho is row p of
            // B⁻¹ and stays sparse for most of the solve, and the row
            // entries walk contiguous memory.
            for (i, &ri) in self.rho.iter().enumerate() {
                if ri != 0.0 {
                    let tri = theta * ri;
                    for &(j, a) in &self.lp.rows[i].entries {
                        self.d[j] -= tri * a;
                    }
                    self.d[self.n + i] -= tri;
                }
            }
            // Basic variables keep d = 0 by definition; the distributed
            // updates touched them, so force them back.
            for &vb in &self.basis {
                self.d[vb] = 0.0;
            }
        }
        // Eta update of B⁻¹: new_col_c[p] = rho[c]/wp, and
        // new_col_c[r] -= w[r] * new_col_c[p] for r != p — only over
        // the rows where w is nonzero (the rest would subtract ±0).
        self.nz_w.clear();
        self.nz_w.extend((0..m).filter(|&r| r != p && w[r] != 0.0));
        let mut madds = 0u64;
        for (c, rc) in self.rho.iter().enumerate() {
            let t = rc / wp;
            let col = &mut self.binv[c * m..(c + 1) * m];
            if t != 0.0 {
                for &r in &self.nz_w {
                    col[r] -= w[r] * t;
                    madds += 1;
                }
                col[p] = t;
            } else {
                col[p] = 0.0;
            }
        }
        self.stats.eta_madds += madds;
        // Basis bookkeeping; the leaving variable's reduced cost comes
        // out of the same update formula with alpha = 1.
        let leave = self.basis[p];
        self.in_basis[leave] = false;
        self.d[leave] = -theta;
        self.basis[p] = enter;
        self.in_basis[enter] = true;
        self.d[enter] = 0.0;
    }

    fn solution(&self, pivots: usize) -> LpSolution {
        let mut x = vec![0.0f64; self.n];
        for (r, &vb) in self.basis.iter().enumerate() {
            if vb < self.n {
                x[vb] = self.xb[r].max(0.0);
            }
        }
        let objective = self.lp.objective_at(&x);
        // Slack j = n+i has reduced cost −y_i, so the duals fall out of
        // the final pricing vector (clamped like the dense solver).
        let duals: Vec<f64> = (0..self.m)
            .map(|i| (-self.d[self.n + i]).max(0.0))
            .collect();
        LpSolution {
            status: LpStatus::Optimal,
            x,
            objective,
            pivots,
            duals,
        }
    }

    fn unbounded(&self, pivots: usize) -> LpSolution {
        LpSolution {
            status: LpStatus::Unbounded,
            x: vec![0.0; self.n],
            objective: f64::INFINITY,
            pivots,
            duals: vec![0.0; self.m],
        }
    }
}

/// Subtracts `f ·` row `k` from row `r` of column-major `mat`, for every
/// `(r, f)` of `rows` and every column in `cols`; returns the
/// multiply-adds performed.
fn eliminate(mat: &mut [f64], m: usize, k: usize, cols: &[usize], rows: &[(usize, f64)]) -> u64 {
    let mut madds = 0u64;
    for &c in cols {
        let col = &mut mat[c * m..(c + 1) * m];
        let v = col[k];
        for &(r, f) in rows {
            col[r] -= f * v;
            madds += 1;
        }
    }
    madds
}

/// Solves with the sparse revised simplex. Same contract as the dense
/// [`crate::simplex::LinearProgram::solve_dense`]: `Optimal` with
/// primal/dual values, `Unbounded`, or an [`LpError`].
pub fn solve_revised(lp: &LinearProgram) -> Result<LpSolution, LpError> {
    solve_revised_warm(lp, None).map(|w| w.solution)
}

/// [`solve_revised`] with optional warm-start from a retained
/// [`LpBasis`] of a previous same-shaped solve.
///
/// When `warm` fits (same shape, refactorizes cleanly, primal-feasible
/// under the new right-hand side), phase 2 re-enters from it and
/// steady-state re-solves typically price out in a handful of pivots.
/// Otherwise — and on any numerical failure along the warm path — the
/// solve silently falls back to the cold all-slack start, so the
/// result contract is exactly that of [`solve_revised`]. The returned
/// basis is always the final one, ready to retain for the next solve.
pub fn solve_revised_warm(
    lp: &LinearProgram,
    warm: Option<&LpBasis>,
) -> Result<WarmLpSolve, LpError> {
    solve_with_stats(lp, warm).map(|(w, _)| w)
}

/// [`solve_revised_warm`] plus what the solve cost, its failed warm
/// attempt included.
pub(crate) fn solve_with_stats(
    lp: &LinearProgram,
    warm: Option<&LpBasis>,
) -> Result<(WarmLpSolve, SimplexStats), LpError> {
    let m = lp.rows.len();
    let n = lp.n_vars();
    if n == 0 {
        let solve = WarmLpSolve {
            solution: LpSolution {
                status: LpStatus::Optimal,
                x: vec![],
                objective: 0.0,
                pivots: 0,
                duals: vec![0.0; m],
            },
            basis: LpBasis {
                basis: (0..m).collect(),
                m,
                n,
            },
            warm_used: false,
        };
        return Ok((solve, SimplexStats::default()));
    }
    let _span = megate_obs::span("lp.solve");
    let mut st = Revised::new(lp);
    let mut warm_used = warm.is_some_and(|wb| st.load_basis(wb));
    if warm_used {
        megate_obs::counter("lp.warm_starts").inc();
    }
    // A warm restart just refactorized, so its prices are exact.
    let solution = match run_simplex(&mut st, warm_used) {
        Ok(s) => s,
        Err(_) if warm_used => {
            // Numerical trouble on the warm path: retry cold before
            // reporting failure, so a stale basis can never make a
            // previously solvable instance unsolvable.
            warm_used = false;
            st.reset_to_slack();
            run_simplex(&mut st, false)?
        }
        Err(e) => return Err(e),
    };
    let solve = WarmLpSolve {
        solution,
        basis: LpBasis {
            basis: st.basis.clone(),
            m,
            n,
        },
        warm_used,
    };
    Ok((solve, st.stats))
}

/// The shared phase-2 pivot loop. `start_verified` marks the entry
/// state's reduced costs as exactly priced (true right after a warm
/// restart's refactorization).
fn run_simplex(st: &mut Revised, start_verified: bool) -> Result<LpSolution, LpError> {
    let m = st.m;
    let n = st.n;
    // Metric handles are resolved once per solve; per-pivot cost is a
    // single relaxed add behind the obs enabled() branch.
    let pivot_ctr = megate_obs::counter("lp.pivots");
    let refactor_ctr = megate_obs::counter("lp.refactorizations");
    let mut w = vec![0.0f64; m];
    let mut pivots = 0usize;
    let limit = 50_000 + 40 * (m + n);
    let bland_after = limit / 2;
    let mut bland = false;
    // Set when the incremental reduced costs said "optimal" and we just
    // re-verified them exactly — terminates the refresh loop.
    let mut verified = start_verified;

    loop {
        // Entering variable: Dantzig (most positive reduced cost), or
        // Bland (lowest index) once the pivot budget is half spent.
        let mut enter: Option<usize> = None;
        if !bland {
            let mut best = EPS;
            for (j, &dj) in st.d.iter().enumerate() {
                if !st.in_basis[j] && dj > best {
                    best = dj;
                    enter = Some(j);
                }
            }
        } else {
            enter = (0..n + m).find(|&j| !st.in_basis[j] && st.d[j] > EPS);
        }
        let enter = match enter {
            Some(j) => j,
            None => {
                if verified {
                    break;
                }
                // The incremental prices may have drifted: rebuild and
                // re-price exactly before declaring optimality.
                st.refactorize()?;
                refactor_ctr.inc();
                verified = true;
                continue;
            }
        };

        st.ftran(enter, &mut w);

        // Ratio test. Ties within EPS break toward the larger pivot
        // element (stability) under Dantzig, toward the smallest basis
        // index (anti-cycling) under Bland.
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for (r, &wr) in w.iter().enumerate() {
            if wr > PIVOT_TOL {
                let ratio = st.xb[r] / wr;
                let better = match leave {
                    None => true,
                    Some(l) => {
                        ratio < best_ratio - EPS
                            || (ratio < best_ratio + EPS
                                && if bland {
                                    st.basis[r] < st.basis[l]
                                } else {
                                    wr > w[l]
                                })
                    }
                };
                if better {
                    best_ratio = ratio;
                    leave = Some(r);
                }
            }
        }
        let p = match leave {
            Some(p) => p,
            None => {
                // Nothing blocks the entering column; but verify with a
                // fresh factorization before reporting unbounded, since
                // an eta-drifted column can look all-nonpositive.
                if verified {
                    return Ok(st.unbounded(pivots));
                }
                st.refactorize()?;
                refactor_ctr.inc();
                verified = true;
                continue;
            }
        };

        st.pivot(enter, p, &w);
        pivots += 1;
        st.stats.pivots += 1;
        pivot_ctr.inc();
        verified = false;
        if pivots >= limit {
            return Err(LpError::IterationLimit);
        }
        if !bland && pivots >= bland_after {
            bland = true;
            st.refactorize()?;
            refactor_ctr.inc();
            verified = true;
        } else if pivots.is_multiple_of(REFACTOR_EVERY) {
            st.refactorize()?;
            refactor_ctr.inc();
            verified = true;
        }
    }

    Ok(st.solution(pivots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::LinearProgram;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_two_variable_lp() {
        let mut lp = LinearProgram::maximize(vec![3.0, 5.0]);
        lp.add_le(vec![(0, 1.0)], 4.0);
        lp.add_le(vec![(1, 2.0)], 12.0);
        lp.add_le(vec![(0, 3.0), (1, 2.0)], 18.0);
        let s = solve_revised(&lp).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
        assert_close(s.duals[0], 0.0);
        assert_close(s.duals[1], 1.5);
        assert_close(s.duals[2], 1.0);
    }

    #[test]
    fn unconstrained_positive_objective_is_unbounded() {
        let lp = LinearProgram::maximize(vec![1.0]);
        let s = solve_revised(&lp).unwrap();
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn degenerate_lp_terminates() {
        let mut lp = LinearProgram::maximize(vec![0.75, -150.0, 0.02, -6.0]);
        lp.add_le(vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)], 0.0);
        lp.add_le(vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)], 0.0);
        lp.add_le(vec![(2, 1.0)], 1.0);
        let s = solve_revised(&lp).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 0.05);
    }

    #[test]
    fn duplicate_entry_indices_accumulate() {
        let mut lp = LinearProgram::maximize(vec![1.0]);
        lp.add_le(vec![(0, 1.0), (0, 1.0)], 4.0);
        let s = solve_revised(&lp).unwrap();
        assert_close(s.objective, 2.0);
    }

    /// Random sparse LPs where the dense tableau solver is the oracle:
    /// objective values and duals must agree to 1e-6.
    fn random_lp(n: usize, m_extra: usize, seed: u64) -> LinearProgram {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..5.0)).collect();
        let mut lp = LinearProgram::maximize(obj);
        for _ in 0..m_extra {
            let mut entries: Vec<(usize, f64)> = Vec::new();
            for j in 0..n {
                if rng.gen_bool(0.4) {
                    entries.push((j, rng.gen_range(0.1..3.0)));
                }
            }
            if !entries.is_empty() {
                lp.add_le(entries, rng.gen_range(0.5..20.0));
            }
        }
        for j in 0..n {
            lp.add_le(vec![(j, 1.0)], rng.gen_range(1.0..40.0));
        }
        lp
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn matches_dense_objective_and_duals(
            n in 1usize..10,
            m_extra in 0usize..8,
            seed in 0u64..10_000,
        ) {
            let lp = random_lp(n, m_extra, seed);
            let rev = solve_revised(&lp).unwrap();
            let dense = lp.solve_dense().unwrap();
            proptest::prop_assert_eq!(rev.status, dense.status);
            let scale = 1.0 + dense.objective.abs();
            proptest::prop_assert!(
                (rev.objective - dense.objective).abs() < 1e-6 * scale,
                "objective: revised {} vs dense {}", rev.objective, dense.objective
            );
            proptest::prop_assert!(lp.is_feasible(&rev.x));
            // Optimal bases may differ, but strong duality pins y·b.
            let yb_rev: f64 = rev.duals.iter().zip(&lp.rows).map(|(y, r)| y * r.rhs).sum();
            proptest::prop_assert!(
                (yb_rev - dense.objective).abs() < 1e-6 * scale,
                "dual objective: revised y·b {} vs primal {}", yb_rev, dense.objective
            );
            proptest::prop_assert!(rev.duals.iter().all(|&y| y >= -1e-9));
        }
    }

    #[test]
    fn warm_restart_matches_cold_on_perturbed_rhs() {
        // Solve once, perturb every right-hand side, re-solve warm: the
        // objective must match a cold solve to full precision and the
        // warm path must actually engage (same shape, feasible basis).
        let lp0 = random_lp(8, 6, 42);
        let first = solve_revised_warm(&lp0, None).unwrap();
        assert!(!first.warm_used);
        let mut lp1 = lp0.clone();
        for (i, row) in lp1.rows.iter_mut().enumerate() {
            row.rhs *= 1.0 + 0.05 * ((i % 3) as f64);
        }
        let warm = solve_revised_warm(&lp1, Some(&first.basis)).unwrap();
        let cold = solve_revised(&lp1).unwrap();
        assert_eq!(warm.solution.status, cold.status);
        let scale = 1.0 + cold.objective.abs();
        assert!(
            (warm.solution.objective - cold.objective).abs() < 1e-6 * scale,
            "warm {} vs cold {}",
            warm.solution.objective,
            cold.objective
        );
        assert!(lp1.is_feasible(&warm.solution.x));
        // Unchanged instance: the retained basis is optimal as-is, so
        // the warm re-solve prices out with zero pivots.
        let again = solve_revised_warm(&lp0, Some(&first.basis)).unwrap();
        assert!(again.warm_used);
        assert_eq!(again.solution.pivots, 0);
        assert!((again.solution.objective - first.solution.objective).abs() < 1e-9 * scale);
    }

    #[test]
    fn warm_restart_falls_back_on_shape_mismatch() {
        let lp0 = random_lp(6, 4, 7);
        let first = solve_revised_warm(&lp0, None).unwrap();
        // A different shape: the basis must be rejected, not misapplied.
        let lp1 = random_lp(7, 4, 7);
        let warm = solve_revised_warm(&lp1, Some(&first.basis)).unwrap();
        assert!(!warm.warm_used, "mismatched shape must fall back cold");
        let cold = solve_revised(&lp1).unwrap();
        assert!((warm.solution.objective - cold.objective).abs() < 1e-9);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn warm_restart_is_exact_under_random_churn(
            n in 2usize..8,
            m_extra in 1usize..6,
            seed in 0u64..10_000,
        ) {
            use rand::{Rng, SeedableRng};
            let lp0 = random_lp(n, m_extra, seed);
            let mut prev = solve_revised_warm(&lp0, None).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xbeef);
            // A short churn sequence re-using each solve's final basis.
            for _ in 0..3 {
                let mut lp = lp0.clone();
                for row in &mut lp.rows {
                    row.rhs *= rng.gen_range(0.5..1.5);
                }
                let warm = solve_revised_warm(&lp, Some(&prev.basis)).unwrap();
                let cold = solve_revised(&lp).unwrap();
                let scale = 1.0 + cold.objective.abs();
                proptest::prop_assert_eq!(warm.solution.status, cold.status);
                proptest::prop_assert!(
                    (warm.solution.objective - cold.objective).abs() < 1e-6 * scale,
                    "warm {} vs cold {}", warm.solution.objective, cold.objective
                );
                proptest::prop_assert!(lp.is_feasible(&warm.solution.x));
                prev = warm;
            }
        }
    }

    #[test]
    fn basis_with_two_identical_columns_is_singular() {
        // Variables 0 and 1 share one column, so a basis holding both
        // has no pivot for its second position.
        let mut lp = LinearProgram::maximize(vec![1.0, 2.0]);
        lp.add_le(vec![(0, 1.0), (1, 1.0)], 4.0);
        lp.add_le(vec![(0, 2.0), (1, 2.0)], 6.0);
        let singular = LpBasis {
            basis: vec![0, 1],
            m: 2,
            n: 2,
        };
        let mut st = Revised::new(&lp);
        st.basis.copy_from_slice(&singular.basis);
        assert_eq!(st.refactorize(), Err(LpError::SingularBasis));
        assert_eq!(
            LpError::SingularBasis.to_string(),
            "simplex basis is numerically singular"
        );
        // Handed in as a warm basis, it falls back to the cold start.
        let warm = solve_revised_warm(&lp, Some(&singular)).unwrap();
        assert!(!warm.warm_used);
        let cold = solve_revised(&lp).unwrap();
        assert_eq!(warm.solution.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(warm.solution.pivots, cold.pivots);
    }

    #[test]
    fn forces_refactorization_on_long_runs() {
        // A chain LP needing well over REFACTOR_EVERY would be slow to
        // build here; instead check refactorize() directly preserves
        // the state mid-solve via a moderately pivot-heavy instance.
        let n = 60;
        let mut lp = LinearProgram::maximize((1..=n).map(|i| i as f64).collect());
        for i in 0..n {
            let mut entries = vec![(i, 1.0)];
            if i > 0 {
                entries.push((i - 1, 0.5));
            }
            lp.add_le(entries, 1.0 + (i % 7) as f64);
        }
        let s = solve_revised(&lp).unwrap();
        let dense = lp.solve_dense().unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - dense.objective).abs() < 1e-6 * (1.0 + dense.objective.abs()));
    }
}
