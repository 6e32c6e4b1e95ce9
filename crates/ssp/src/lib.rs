//! Subset-sum substrate for MegaTE's second-stage `MaxEndpointFlow`.
//!
//! For each site pair `k` and tunnel `t` (taken in ascending-weight
//! order), MegaTE must pick a subset of endpoint demands whose total is
//! as close as possible to — without exceeding — the first-stage
//! allocation `F_{k,t}` (§4.2). That is a subset-sum problem (SSP), a
//! special case of 0/1 knapsack, hence NP-hard (Appendix A.1).
//!
//! This crate implements:
//!
//! * [`exact::dp_subset_sum`] — the classic pseudo-polynomial dynamic
//!   program (Bellman 1957), used as the oracle in tests and inside
//!   FastSSP's step 3;
//! * [`greedy::first_fit_descending`] / [`greedy::first_fit_ascending`] —
//!   sorted greedy packers (FastSSP step 4);
//! * [`fastssp::fast_ssp`] — the paper's four-step approximation:
//!   **cluster** small demands into super-demands `≥ M = ε′F/3`,
//!   **normalize** by `δ = ε′M/3` (ceil items / floor capacity so the
//!   solution stays feasible), **DP-solve** the tiny normalized instance,
//!   then **greedy-pack** the residual flows; error bound
//!   `β ≤ min(residual)/F` (Appendix A.2).
//!
//! Demands are integers (the solvers layer uses kbps), so `u64`
//! throughout.
//!
//! For the production stage-3 path, [`flat`] packages the same
//! algorithms as a structure-of-arrays kernel over a reusable
//! [`flat::SolverScratch`] arena — zero steady-state allocation,
//! demands sorted once per pair, and bitwise-identical selections to
//! the allocating functions here (DESIGN.md §5e).

#![warn(missing_docs)]

pub mod exact;
pub mod fastssp;
pub mod flat;
pub mod greedy;

pub use exact::{dp_subset_sum, dp_subset_sum_with, DpScratch};
pub use fastssp::{fast_ssp, FastSspConfig, FastSspSolution};
pub use flat::{recycle_scratch, take_scratch, SolverScratch};
pub use greedy::{first_fit_ascending, first_fit_descending};

/// A solution to a subset-sum instance: indices of the selected items
/// and their total, guaranteed `total <= capacity`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SspSolution {
    /// Indices (into the input slice) of selected items, ascending.
    pub selected: Vec<usize>,
    /// Sum of the selected items.
    pub total: u64,
}

impl SspSolution {
    /// The empty selection.
    pub fn empty() -> Self {
        Self {
            selected: Vec::new(),
            total: 0,
        }
    }

    /// Verifies internal consistency against the originating instance.
    pub fn validate(&self, items: &[u64], capacity: u64) -> bool {
        let mut sum: u64 = 0;
        let mut prev: Option<usize> = None;
        for &i in &self.selected {
            if i >= items.len() {
                return false;
            }
            if let Some(p) = prev {
                if i <= p {
                    return false; // must be strictly ascending (no dupes)
                }
            }
            prev = Some(i);
            sum = match sum.checked_add(items[i]) {
                Some(s) => s,
                None => return false,
            };
        }
        sum == self.total && sum <= capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_consistent_solution() {
        let items = [3, 5, 7];
        let sol = SspSolution {
            selected: vec![0, 2],
            total: 10,
        };
        assert!(sol.validate(&items, 10));
        assert!(!sol.validate(&items, 9)); // exceeds capacity
    }

    #[test]
    fn validate_rejects_bad_indices_and_dupes() {
        let items = [3, 5];
        assert!(!SspSolution {
            selected: vec![5],
            total: 0
        }
        .validate(&items, 100));
        assert!(!SspSolution {
            selected: vec![1, 1],
            total: 10
        }
        .validate(&items, 100));
        assert!(!SspSolution {
            selected: vec![1, 0],
            total: 8
        }
        .validate(&items, 100));
    }

    #[test]
    fn validate_rejects_wrong_total() {
        let items = [3, 5];
        assert!(!SspSolution {
            selected: vec![0],
            total: 5
        }
        .validate(&items, 100));
    }
}
