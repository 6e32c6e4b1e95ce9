//! Linear-programming substrate for MegaTE's first-stage `MaxSiteFlow`.
//!
//! The paper solves its site-level LP (Equation 2) with Gurobi. Rust has
//! no comparable off-the-shelf solver, so this crate provides the two
//! pieces the evaluation needs (see DESIGN.md "Substitutions"):
//!
//! * [`simplex`] + [`revised`] — an exact primal simplex for
//!   `max c·x  s.t.  A x ≤ b, x ≥ 0` with `b ≥ 0` (every MegaTE LP has
//!   this form: demand caps and link capacities are all `≤` rows with
//!   non-negative right-hand sides). `solve()` runs the sparse revised
//!   method (`O(nnz + m²)` memory); the dense tableau solver remains as
//!   `solve_dense()`, the reference oracle the revised core is
//!   property-tested against. Used at small/medium scale and as the
//!   oracle for the approximate solver.
//! * [`mcf`] — a path-formulation multicommodity-flow model with two
//!   solvers: `solve_exact` (builds the LP, runs simplex) and
//!   `solve_fptas` (Fleischer's round-robin variant of the
//!   Garg–Könemann multiplicative-weights FPTAS, `(1−ε)`-optimal and
//!   near-linear-time), which is what hyper-scale runs use.
//!
//! The crate is deliberately independent of the topology crate so it can
//! be reused as a general substrate; the solvers layer converts tunnel
//! tables into [`mcf::McfProblem`]s.

pub mod mcf;
pub mod revised;
pub mod simplex;

pub use mcf::{Commodity, McfProblem, McfSolution, McfWarmSolve, PathSpec};
pub use revised::{solve_revised_warm, LpBasis, WarmLpSolve};
pub use simplex::{LinearProgram, LpError, LpSolution, LpStatus, SparseRow};
