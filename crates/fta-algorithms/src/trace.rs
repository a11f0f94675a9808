//! Convergence traces of the iterative game-theoretic algorithms.
//!
//! The paper's Figure 12 plots per-iteration behaviour of FGT and IEGT to
//! demonstrate convergence; [`ConvergenceTrace`] records exactly the series
//! needed to regenerate that figure, and is also what the convergence tests
//! assert on.

use crate::stats::BestResponseStats;
use fta_core::fairness::{average_payoff, payoff_difference};

/// Metrics of one best-response / replicator round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// Round number, starting at 1 (round 0 is the random initialisation).
    pub round: usize,
    /// Number of workers that changed strategy this round.
    pub moves: usize,
    /// Payoff difference `P_dif` after the round.
    pub payoff_difference: f64,
    /// Average worker payoff after the round.
    pub average_payoff: f64,
    /// The algorithm's potential after the round: the sum of IAU values for
    /// FGT (Lemma 2's exact potential), the sum of payoffs for IEGT.
    pub potential: f64,
}

/// The full per-round history of one algorithm run on one center.
///
/// Per-round entries are `O(1)` summaries ([`RoundStats`]); the production
/// loops feed them via [`ConvergenceTrace::record_summary`] from metrics
/// their rival structure already maintains, so tracing adds no per-round
/// `O(n log n)` scan. Full per-round payoff vectors are **opt-in** through
/// [`ConvergenceTrace::with_snapshots`] (they cost `O(n)` memory per round
/// and are only needed to regenerate distribution-style plots).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConvergenceTrace {
    /// One entry per round, including the initialisation round 0.
    pub rounds: Vec<RoundStats>,
    /// Whether the run reached its fixed point (no moves / replicator rest
    /// point) rather than the round cap.
    pub converged: bool,
    /// Whether the run was cut short by a [`fta_core::CancelToken`]
    /// (wall-clock budget or external cancellation) before reaching either
    /// its fixed point or its round cap. Mutually exclusive with
    /// `converged` for a single run; a merged trace can carry both when
    /// different centers ended differently.
    pub cancelled: bool,
    /// Counters of the best-response work performed by the run(s) behind
    /// this trace (summed across restarts and merged centers).
    pub stats: BestResponseStats,
    /// Full payoff vectors per recorded round; empty unless the trace was
    /// created via [`ConvergenceTrace::with_snapshots`].
    pub snapshots: Vec<Vec<f64>>,
    /// Whether [`ConvergenceTrace::snapshot`] captures.
    capture_snapshots: bool,
}

impl ConvergenceTrace {
    /// Creates a trace that additionally captures the full payoff vector of
    /// every recorded round in [`ConvergenceTrace::snapshots`].
    #[must_use]
    pub fn with_snapshots() -> Self {
        Self {
            capture_snapshots: true,
            ..Self::default()
        }
    }

    /// Whether this trace captures full payoff snapshots.
    #[must_use]
    pub fn captures_snapshots(&self) -> bool {
        self.capture_snapshots
    }

    /// Stores a copy of `payoffs` if snapshot capture is enabled; a no-op
    /// (and allocation-free) otherwise.
    pub fn snapshot(&mut self, payoffs: &[f64]) {
        if self.capture_snapshots {
            self.snapshots.push(payoffs.to_vec());
        }
    }

    /// Records a round from a payoff vector and a potential value,
    /// computing the summary metrics in `O(n log n)` (and capturing a
    /// snapshot when enabled). The production loops avoid this cost via
    /// [`ConvergenceTrace::record_summary`].
    pub fn record(&mut self, round: usize, moves: usize, payoffs: &[f64], potential: f64) {
        self.snapshot(payoffs);
        self.record_summary(
            round,
            moves,
            payoff_difference(payoffs),
            average_payoff(payoffs),
            potential,
        );
    }

    /// Records a round from precomputed summary metrics in `O(1)`. Callers
    /// owning incrementally-maintained statistics (e.g.
    /// [`fta_core::iau::RivalSet`]) use this to keep tracing off the hot
    /// path; pair with [`ConvergenceTrace::snapshot`] when payoff vectors
    /// are wanted too.
    pub fn record_summary(
        &mut self,
        round: usize,
        moves: usize,
        payoff_difference: f64,
        average_payoff: f64,
        potential: f64,
    ) {
        self.rounds.push(RoundStats {
            round,
            moves,
            payoff_difference,
            average_payoff,
            potential,
        });
    }

    /// Number of rounds recorded (including round 0).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether no rounds were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The last recorded round, if any.
    #[must_use]
    pub fn last(&self) -> Option<&RoundStats> {
        self.rounds.last()
    }

    /// Merges another center's trace into this one round-by-round, summing
    /// moves and averaging metrics; used when reporting a whole-instance
    /// convergence curve from per-center runs. Work counters are summed;
    /// payoff snapshots stay per-center (this trace keeps its own).
    pub fn merge_parallel(&mut self, other: &ConvergenceTrace) {
        self.stats.merge(&other.stats);
        let n = self.rounds.len().max(other.rounds.len());
        let take = |t: &ConvergenceTrace, i: usize| -> Option<RoundStats> {
            t.rounds
                .get(i)
                .copied()
                .or_else(|| t.rounds.last().copied())
        };
        let mut merged = Vec::with_capacity(n);
        for i in 0..n {
            match (take(self, i), take(other, i)) {
                (Some(a), Some(b)) => merged.push(RoundStats {
                    round: i,
                    moves: a.moves + b.moves,
                    payoff_difference: f64::midpoint(a.payoff_difference, b.payoff_difference),
                    average_payoff: f64::midpoint(a.average_payoff, b.average_payoff),
                    potential: a.potential + b.potential,
                }),
                (Some(a), None) => merged.push(RoundStats { round: i, ..a }),
                (None, Some(b)) => merged.push(RoundStats { round: i, ..b }),
                (None, None) => unreachable!("i < n implies at least one side has rounds"),
            }
        }
        self.rounds = merged;
        self.converged = self.converged && other.converged;
        self.cancelled = self.cancelled || other.cancelled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_computes_metrics() {
        let mut t = ConvergenceTrace::default();
        t.record(0, 0, &[1.0, 3.0], 4.0);
        t.record(1, 2, &[2.0, 2.0], 4.5);
        assert_eq!(t.len(), 2);
        assert!((t.rounds[0].payoff_difference - 2.0).abs() < 1e-12);
        assert_eq!(t.rounds[1].payoff_difference, 0.0);
        assert_eq!(t.last().unwrap().moves, 2);
    }

    #[test]
    fn merge_pads_shorter_trace_with_final_state() {
        let mut a = ConvergenceTrace::default();
        a.record(0, 1, &[1.0], 1.0);
        a.record(1, 0, &[2.0], 2.0);
        a.converged = true;
        let mut b = ConvergenceTrace::default();
        b.record(0, 3, &[4.0], 4.0);
        b.converged = true;
        a.merge_parallel(&b);
        assert_eq!(a.rounds.len(), 2);
        assert_eq!(a.rounds[0].moves, 4);
        // Round 1: b padded with its last state (moves replayed as-is).
        assert_eq!(a.rounds[1].moves, 3);
        assert!((a.rounds[1].potential - 6.0).abs() < 1e-12);
        assert!(a.converged);
    }

    #[test]
    fn merge_propagates_non_convergence() {
        let mut a = ConvergenceTrace {
            converged: true,
            ..Default::default()
        };
        a.record(0, 0, &[1.0], 1.0);
        let mut b = ConvergenceTrace::default();
        b.record(0, 0, &[1.0], 1.0);
        b.converged = false;
        a.merge_parallel(&b);
        assert!(!a.converged);
    }

    #[test]
    fn empty_trace_reports_empty() {
        let t = ConvergenceTrace::default();
        assert!(t.is_empty());
        assert!(t.last().is_none());
    }

    #[test]
    fn snapshots_are_opt_in() {
        let mut off = ConvergenceTrace::default();
        off.record(0, 0, &[1.0, 2.0], 3.0);
        assert!(!off.captures_snapshots());
        assert!(off.snapshots.is_empty());

        let mut on = ConvergenceTrace::with_snapshots();
        on.record(0, 0, &[1.0, 2.0], 3.0);
        on.snapshot(&[2.0, 2.0]);
        assert_eq!(on.snapshots, vec![vec![1.0, 2.0], vec![2.0, 2.0]]);
    }

    #[test]
    fn record_summary_matches_record() {
        let payoffs = [1.0, 3.0, 5.0];
        let mut a = ConvergenceTrace::default();
        a.record(1, 2, &payoffs, 7.0);
        let mut b = ConvergenceTrace::default();
        b.record_summary(
            1,
            2,
            fta_core::fairness::payoff_difference(&payoffs),
            fta_core::fairness::average_payoff(&payoffs),
            7.0,
        );
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn merge_sums_work_counters() {
        let mut a = ConvergenceTrace::default();
        a.record(0, 0, &[1.0], 1.0);
        a.stats.rounds = 2;
        a.stats.evaluator_builds = 1;
        let mut b = ConvergenceTrace::default();
        b.record(0, 0, &[1.0], 1.0);
        b.stats.rounds = 3;
        b.stats.evaluator_updates = 10;
        a.merge_parallel(&b);
        assert_eq!(a.stats.rounds, 5);
        assert_eq!(a.stats.evaluator_builds, 1);
        assert_eq!(a.stats.evaluator_updates, 10);
    }
}
