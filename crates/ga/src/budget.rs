//! Search-space accounting.
//!
//! The paper's headline metric is the number of candidate programs searched
//! before a solution is found, expressed as a percentage of a hard cap
//! (3,000,000 candidates in the paper). Every synthesizer in this
//! reproduction — NetSyn, the GA ablations, the portfolio and all baselines
//! — draws from a [`SearchBudget`] so the metric is comparable across
//! methods.
//!
//! A budget is a plain counter with exactly one owner, so every admission
//! decision is made in a fixed order and trajectories are reproducible bit
//! for bit. Searches that run parts of their work concurrently — the
//! `K > 1` island driver and the portfolio race — never share a counter
//! across threads: they [`split`](SearchBudget::split_remaining) the
//! remainder into per-task slices, run each task against its own slice, and
//! charge the slices' draws back to the owner in index order.

use serde::{Deserialize, Serialize};

/// A counter of candidate programs evaluated against a hard cap.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchBudget {
    max_candidates: usize,
    evaluated: usize,
}

impl SearchBudget {
    /// Creates a budget allowing up to `max_candidates` candidate programs.
    #[must_use]
    pub fn new(max_candidates: usize) -> Self {
        SearchBudget {
            max_candidates,
            evaluated: 0,
        }
    }

    /// The paper's cap of 3,000,000 candidate programs.
    #[must_use]
    pub fn paper_default() -> Self {
        SearchBudget::new(3_000_000)
    }

    /// The configured cap.
    #[must_use]
    pub fn max_candidates(&self) -> usize {
        self.max_candidates
    }

    /// Number of candidates evaluated so far.
    #[must_use]
    pub fn evaluated(&self) -> usize {
        self.evaluated
    }

    /// Remaining candidates before the cap is hit.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.max_candidates.saturating_sub(self.evaluated)
    }

    /// Whether the cap has been reached.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.evaluated >= self.max_candidates
    }

    /// Fraction of the cap used so far, in `[0, 1]`.
    #[must_use]
    pub fn fraction_used(&self) -> f64 {
        if self.max_candidates == 0 {
            return 1.0;
        }
        (self.evaluated as f64 / self.max_candidates as f64).min(1.0)
    }

    /// Records the evaluation of one candidate. Returns `false` (and does not
    /// count the candidate) if the budget is already exhausted.
    pub fn try_consume(&mut self) -> bool {
        if self.is_exhausted() {
            return false;
        }
        self.evaluated += 1;
        true
    }

    /// Records the evaluation of `n` candidates, saturating at the cap.
    /// Returns how many were actually admitted.
    pub fn try_consume_many(&mut self, n: usize) -> usize {
        let admitted = n.min(self.remaining());
        self.evaluated += admitted;
        admitted
    }

    /// Partitions the remaining candidates into `parts` fresh budgets:
    /// `remaining / parts` each, the first `remaining % parts` taking one
    /// extra. The slices sum to exactly [`SearchBudget::remaining`], so
    /// charging back whatever they admit can never overrun this budget's
    /// cap. This budget itself is not charged.
    #[must_use]
    pub fn split_remaining(&self, parts: usize) -> Vec<SearchBudget> {
        let remaining = self.remaining();
        (0..parts)
            .map(|i| SearchBudget::new(remaining / parts + usize::from(i < remaining % parts)))
            .collect()
    }
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_cap() {
        let budget = SearchBudget::paper_default();
        assert_eq!(budget.max_candidates(), 3_000_000);
        assert_eq!(budget.evaluated(), 0);
        assert!(!budget.is_exhausted());
    }

    #[test]
    fn consume_until_exhausted() {
        let mut budget = SearchBudget::new(3);
        assert!(budget.try_consume());
        assert!(budget.try_consume());
        assert!(budget.try_consume());
        assert!(!budget.try_consume());
        assert!(budget.is_exhausted());
        assert_eq!(budget.evaluated(), 3);
        assert_eq!(budget.remaining(), 0);
        assert_eq!(budget.fraction_used(), 1.0);
    }

    #[test]
    fn consume_many_saturates() {
        let mut budget = SearchBudget::new(10);
        assert_eq!(budget.try_consume_many(4), 4);
        assert_eq!(budget.try_consume_many(100), 6);
        assert!(budget.is_exhausted());
        assert_eq!(budget.try_consume_many(5), 0);
    }

    #[test]
    fn fraction_used_is_monotone() {
        let mut budget = SearchBudget::new(4);
        let mut last = 0.0;
        for _ in 0..4 {
            budget.try_consume();
            let f = budget.fraction_used();
            assert!(f >= last);
            last = f;
        }
        assert_eq!(last, 1.0);
    }

    #[test]
    fn zero_cap_budget_is_immediately_exhausted() {
        let mut budget = SearchBudget::new(0);
        assert!(budget.is_exhausted());
        assert!(!budget.try_consume());
        assert_eq!(budget.fraction_used(), 1.0);
    }

    #[test]
    fn split_remaining_partitions_the_remainder_lowest_index_first() {
        let mut budget = SearchBudget::new(12);
        budget.try_consume_many(2);
        let slices: Vec<usize> = budget
            .split_remaining(3)
            .iter()
            .map(SearchBudget::max_candidates)
            .collect();
        assert_eq!(slices, vec![4, 3, 3]);
        assert_eq!(budget.evaluated(), 2, "splitting charges nothing");
        assert!(budget.split_remaining(0).is_empty());
        let dry: Vec<usize> = SearchBudget::new(2)
            .split_remaining(3)
            .iter()
            .map(SearchBudget::max_candidates)
            .collect();
        assert_eq!(dry, vec![1, 1, 0]);
    }
}
