//! Priority-aware fairness (the paper's first future-work direction).
//!
//! The conclusion of the paper proposes introducing "additional descriptive
//! models of fairness, e.g., priority-aware fairness" into SC task
//! assignment, referencing the priority-awareness model of De Jong et al.
//! \[26\]. This module implements that extension: each worker carries a
//! positive *priority* (entitlement weight) — seniority, contractual tier,
//! vehicle capacity — and fairness is judged on **normalised payoffs**
//! `q_i = P_i / ρ_i`: a worker with twice the priority is entitled to twice
//! the payoff before any inequity is perceived.
//!
//! With all priorities equal to 1 every definition below reduces exactly to
//! the paper's unweighted counterpart, which the tests pin down.

use crate::fairness::payoff_difference;
use crate::iau::{IauEvaluator, IauParams, RivalSet};

/// Divides each payoff by its worker's priority.
///
/// # Panics
///
/// Panics if the slices differ in length or any priority is not strictly
/// positive.
#[must_use]
pub fn normalized_payoffs(payoffs: &[f64], priorities: &[f64]) -> Vec<f64> {
    assert_eq!(
        payoffs.len(),
        priorities.len(),
        "payoffs and priorities must be parallel"
    );
    payoffs
        .iter()
        .zip(priorities)
        .map(|(&p, &rho)| {
            assert!(
                rho.is_finite() && rho > 0.0,
                "priorities must be positive, got {rho}"
            );
            p / rho
        })
        .collect()
}

/// Priority-aware payoff difference: Equation 2 computed on normalised
/// payoffs. Zero iff every worker's payoff is exactly proportional to its
/// priority.
#[must_use]
pub fn priority_payoff_difference(payoffs: &[f64], priorities: &[f64]) -> f64 {
    payoff_difference(&normalized_payoffs(payoffs, priorities))
}

/// Priority-aware Inequity Aversion based Utility: Equation 5 evaluated in
/// normalised-payoff space. `own`/`own_priority` describe the deciding
/// worker; `others` are `(payoff, priority)` pairs of the rival workers.
#[must_use]
pub fn priority_iau(own: f64, own_priority: f64, others: &[(f64, f64)], params: IauParams) -> f64 {
    assert!(
        own_priority.is_finite() && own_priority > 0.0,
        "priorities must be positive, got {own_priority}"
    );
    let rival_q: Vec<f64> = others
        .iter()
        .map(|&(p, rho)| {
            assert!(rho.is_finite() && rho > 0.0, "priorities must be positive");
            p / rho
        })
        .collect();
    crate::iau::iau(own / own_priority, &rival_q, params)
}

/// Incremental priority-aware IAU evaluator: fixes the rivals' normalised
/// payoffs once, then evaluates candidates for one worker in `O(log n)`
/// each (the priority-aware analogue of [`IauEvaluator`]).
#[derive(Debug, Clone)]
pub struct PriorityIauEvaluator {
    inner: IauEvaluator,
    own_priority: f64,
}

impl PriorityIauEvaluator {
    /// Builds an evaluator for a worker with priority `own_priority`
    /// against rival `(payoff, priority)` pairs.
    ///
    /// # Panics
    ///
    /// Panics on non-positive priorities.
    #[must_use]
    pub fn new(own_priority: f64, others: &[(f64, f64)], params: IauParams) -> Self {
        assert!(
            own_priority.is_finite() && own_priority > 0.0,
            "priorities must be positive, got {own_priority}"
        );
        let rival_q: Vec<f64> = others
            .iter()
            .map(|&(p, rho)| {
                assert!(rho.is_finite() && rho > 0.0, "priorities must be positive");
                p / rho
            })
            .collect();
        Self {
            inner: IauEvaluator::new(&rival_q, params),
            own_priority,
        }
    }

    /// Evaluates the priority-aware IAU of a candidate raw payoff.
    #[must_use]
    pub fn eval(&self, own_payoff: f64) -> f64 {
        self.inner.eval(own_payoff / self.own_priority)
    }
}

/// Incremental priority-aware rival engine: a [`RivalSet`] living in
/// normalised-payoff space `q = P / ρ`.
///
/// The priority-aware analogue of [`RivalSet`] for best-response loops:
/// insertions and removals take the worker's raw `(payoff, priority)` pair
/// and store `payoff / priority`; [`PriorityRivalSet::eval`] evaluates the
/// priority-aware IAU of a candidate raw payoff.
///
/// Fairness statistics ([`PriorityRivalSet::payoff_difference`],
/// [`PriorityRivalSet::potential`]) are computed on normalised payoffs,
/// matching [`priority_payoff_difference`]. Like [`RivalSet`], every read
/// depends only on the stored multiset of normalised payoffs, whatever
/// sequence of inserts and removes built it.
#[derive(Debug, Clone)]
pub struct PriorityRivalSet {
    inner: RivalSet,
}

impl PriorityRivalSet {
    /// Builds an empty engine.
    #[must_use]
    pub fn new(params: IauParams) -> Self {
        Self {
            inner: RivalSet::new(params),
        }
    }

    /// Number of workers currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no workers are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Normalises a `(payoff, priority)` pair.
    ///
    /// # Panics
    ///
    /// Panics on non-positive priorities.
    fn q(payoff: f64, priority: f64) -> f64 {
        assert!(
            priority.is_finite() && priority > 0.0,
            "priorities must be positive, got {priority}"
        );
        payoff / priority
    }

    /// Adds a worker's normalised payoff. `O(log n)`.
    pub fn insert(&mut self, payoff: f64, priority: f64) {
        self.inner.insert(Self::q(payoff, priority));
    }

    /// Removes a worker's normalised payoff. `O(log n)`.
    pub fn remove(&mut self, payoff: f64, priority: f64) {
        self.inner.remove(Self::q(payoff, priority));
    }

    /// Priority-aware IAU of a candidate raw payoff for a worker with the
    /// given priority, against the stored rivals (the focal worker must
    /// have been removed first). `O(log n)`.
    #[must_use]
    pub fn eval(&self, own_payoff: f64, own_priority: f64) -> f64 {
        self.inner.eval(Self::q(own_payoff, own_priority))
    }

    /// Priority-aware payoff difference over the stored workers: Equation 2
    /// on normalised payoffs, matching [`priority_payoff_difference`].
    #[must_use]
    pub fn payoff_difference(&self) -> f64 {
        self.inner.payoff_difference()
    }

    /// Potential of the priority-normalised game (`Φ` on `q` values).
    #[must_use]
    pub fn potential(&self) -> f64 {
        self.inner.potential()
    }

    /// Mean normalised payoff.
    #[must_use]
    pub fn average(&self) -> f64 {
        self.inner.average()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iau::iau;

    #[test]
    fn unit_priorities_reduce_to_unweighted_definitions() {
        let payoffs = [1.0, 4.0, 2.5];
        let ones = [1.0, 1.0, 1.0];
        assert_eq!(
            priority_payoff_difference(&payoffs, &ones),
            payoff_difference(&payoffs)
        );
        let params = IauParams::default();
        let others = [(4.0, 1.0), (2.5, 1.0)];
        assert!(
            (priority_iau(1.0, 1.0, &others, params) - iau(1.0, &[4.0, 2.5], params)).abs() < 1e-12
        );
    }

    #[test]
    fn proportional_payoffs_are_perfectly_priority_fair() {
        let priorities = [1.0, 2.0, 4.0];
        let payoffs = [3.0, 6.0, 12.0];
        assert_eq!(priority_payoff_difference(&payoffs, &priorities), 0.0);
        // …while the unweighted metric sees them as very unfair.
        assert!(payoff_difference(&payoffs) > 0.0);
    }

    #[test]
    fn equal_payoffs_are_priority_unfair_under_skewed_priorities() {
        let priorities = [1.0, 3.0];
        let payoffs = [2.0, 2.0];
        assert!(priority_payoff_difference(&payoffs, &priorities) > 0.0);
    }

    #[test]
    fn evaluator_matches_direct_formula() {
        let params = IauParams {
            alpha: 0.7,
            beta: 0.4,
        };
        let others = [(3.0, 1.5), (8.0, 4.0), (1.0, 0.5)];
        let eval = PriorityIauEvaluator::new(2.0, &others, params);
        for own in [0.0, 1.0, 4.0, 7.5, 20.0] {
            let direct = priority_iau(own, 2.0, &others, params);
            assert!((eval.eval(own) - direct).abs() < 1e-10, "own={own}");
        }
    }

    #[test]
    fn high_priority_workers_tolerate_higher_payoffs() {
        // With the same raw payoff and rivals, a higher-priority worker
        // perceives less advantageous inequity (lower guilt penalty).
        let params = IauParams::default();
        let others = [(2.0, 1.0), (2.0, 1.0)];
        let low = priority_iau(6.0, 1.0, &others, params);
        // Normalised utilities live on different scales, so compare the
        // *penalty* relative to the normalised payoff.
        let low_penalty = 6.0 / 1.0 - low;
        let high = priority_iau(6.0, 3.0, &others, params);
        let high_penalty = 6.0 / 3.0 - high;
        assert!(high_penalty < low_penalty);
    }

    #[test]
    fn priority_rival_set_matches_direct_formulas() {
        let params = IauParams {
            alpha: 0.7,
            beta: 0.4,
        };
        // Workers: (payoff, priority). Focal worker has priority 2.0.
        let others = [(3.0, 1.5), (8.0, 4.0), (1.0, 0.5)];
        let own_candidates = [0.0, 1.0, 4.0, 7.5, 20.0];
        let mut set = PriorityRivalSet::new(params);
        for &(p, rho) in &others {
            set.insert(p, rho);
        }
        for own in own_candidates {
            let direct = priority_iau(own, 2.0, &others, params);
            assert!((set.eval(own, 2.0) - direct).abs() < 1e-10, "own={own}");
        }
        // Fairness on normalised payoffs matches the batch definition once
        // the focal worker joins.
        set.insert(4.0, 2.0);
        let payoffs = [3.0, 8.0, 1.0, 4.0];
        let priorities = [1.5, 4.0, 0.5, 2.0];
        let want = priority_payoff_difference(&payoffs, &priorities);
        assert!((set.payoff_difference() - want).abs() < 1e-10);
        // Remove/insert cycles keep the statistics consistent.
        set.remove(8.0, 4.0);
        set.insert(8.0, 4.0);
        assert!((set.payoff_difference() - want).abs() < 1e-10);
        assert_eq!(set.len(), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn priority_rival_set_rejects_bad_priority() {
        let mut set = PriorityRivalSet::new(IauParams::default());
        set.insert(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_priority() {
        let _ = normalized_payoffs(&[1.0], &[0.0]);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn rejects_length_mismatch() {
        let _ = normalized_payoffs(&[1.0, 2.0], &[1.0]);
    }
}
