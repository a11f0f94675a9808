//! Longitudinal outcomes of a simulated day.

use fta_core::fairness::FairnessReport;
use fta_core::{CenterId, WorkerId};

/// Per-worker running totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerLedger {
    /// Total reward earned so far.
    pub earnings: f64,
    /// Hours spent travelling (busy).
    pub busy_hours: f64,
    /// Number of delivery routes completed.
    pub routes: usize,
    /// Number of tasks delivered.
    pub tasks_delivered: usize,
}

/// End-of-horizon metrics of one simulation run.
///
/// Task accounting is conserved even under fault injection:
/// `tasks_completed + tasks_expired + tasks_pending + tasks_cancelled +
/// tasks_abandoned == tasks_arrived`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DayMetrics {
    /// One ledger per worker, indexed by [`WorkerId`].
    pub ledgers: Vec<WorkerLedger>,
    /// Tasks that arrived during the horizon.
    pub tasks_arrived: usize,
    /// Tasks delivered before their deadline.
    pub tasks_completed: usize,
    /// Tasks that expired unassigned.
    pub tasks_expired: usize,
    /// Tasks still pending when the horizon ended.
    pub tasks_pending: usize,
    /// Tasks cancelled by their requester (fault injection).
    pub tasks_cancelled: usize,
    /// Tasks dropped after exhausting their requeue retry budget
    /// (fault injection).
    pub tasks_abandoned: usize,
    /// Task-requeue events: each time a failed route returned a task to
    /// the pending pool for another attempt.
    pub reassignments: usize,
    /// Routes whose assigned worker never started them (fault injection).
    pub worker_no_shows: usize,
    /// Routes abandoned partway by their worker (fault injection).
    pub route_dropouts: usize,
    /// Assignment rounds whose solve degraded down the ladder (budgeted
    /// runs only; see `fta_algorithms::DegradationReport`).
    pub degraded_rounds: usize,
    /// Centers skipped in at least one round this run solved (the solve
    /// panicked twice there, so it assigned nothing), ascending. A day
    /// resumed from a journal counts only the rounds solved after the
    /// resume.
    pub skipped_centers: Vec<CenterId>,
    /// Number of assignment rounds executed.
    pub rounds: usize,
    /// Simulated horizon, hours.
    pub horizon: f64,
}

impl DayMetrics {
    /// Fraction of arrived tasks delivered on time.
    #[must_use]
    pub fn completion_rate(&self) -> f64 {
        if self.tasks_arrived == 0 {
            return 1.0;
        }
        self.tasks_completed as f64 / self.tasks_arrived as f64
    }

    /// Tasks lost to faults: cancelled by requesters plus abandoned after
    /// exhausting their retry budget.
    #[must_use]
    pub fn tasks_lost_to_faults(&self) -> usize {
        self.tasks_cancelled + self.tasks_abandoned
    }

    /// Whether the task accounting identity holds (`completed + expired +
    /// pending + cancelled + abandoned == arrived`). Always true for
    /// engine-produced metrics; useful as a test invariant.
    #[must_use]
    pub fn is_conserved(&self) -> bool {
        self.tasks_completed
            + self.tasks_expired
            + self.tasks_pending
            + self.tasks_cancelled
            + self.tasks_abandoned
            == self.tasks_arrived
    }

    /// Per-worker earnings, in worker-id order.
    #[must_use]
    pub fn earnings(&self) -> Vec<f64> {
        self.ledgers.iter().map(|l| l.earnings).collect()
    }

    /// Fairness of the day's cumulative earnings — the longitudinal
    /// counterpart of the paper's per-assignment payoff difference.
    #[must_use]
    pub fn earnings_fairness(&self) -> FairnessReport {
        FairnessReport::from_payoffs(&self.earnings())
    }

    /// Mean fraction of the horizon each worker spent travelling.
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        if self.ledgers.is_empty() || self.horizon <= 0.0 {
            return 0.0;
        }
        self.ledgers
            .iter()
            .map(|l| l.busy_hours / self.horizon)
            .sum::<f64>()
            / self.ledgers.len() as f64
    }

    /// The busiest worker by earnings, if any earned anything.
    #[must_use]
    pub fn top_earner(&self) -> Option<(WorkerId, f64)> {
        self.ledgers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.earnings > 0.0)
            .max_by(|a, b| a.1.earnings.total_cmp(&b.1.earnings))
            .map(|(i, l)| (WorkerId::from_index(i), l.earnings))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(earnings: &[f64]) -> DayMetrics {
        DayMetrics {
            ledgers: earnings
                .iter()
                .map(|&e| WorkerLedger {
                    earnings: e,
                    busy_hours: 2.0,
                    routes: 1,
                    tasks_delivered: 2,
                })
                .collect(),
            tasks_arrived: 10,
            tasks_completed: 6,
            tasks_expired: 3,
            tasks_pending: 1,
            rounds: 4,
            horizon: 8.0,
            ..DayMetrics::default()
        }
    }

    #[test]
    fn completion_rate_is_completed_over_arrived() {
        let m = metrics(&[1.0, 2.0]);
        assert!((m.completion_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_day_is_vacuously_complete() {
        let m = DayMetrics::default();
        assert_eq!(m.completion_rate(), 1.0);
        assert_eq!(m.mean_utilization(), 0.0);
        assert!(m.top_earner().is_none());
    }

    #[test]
    fn earnings_fairness_uses_the_standard_metrics() {
        let m = metrics(&[2.0, 2.0, 2.0]);
        assert_eq!(m.earnings_fairness().payoff_difference, 0.0);
        let m = metrics(&[0.0, 4.0]);
        assert!(m.earnings_fairness().payoff_difference > 0.0);
    }

    #[test]
    fn utilization_is_busy_over_horizon() {
        let m = metrics(&[1.0, 1.0]);
        assert!((m.mean_utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn conservation_accounts_for_fault_losses() {
        let mut m = metrics(&[1.0]);
        assert!(m.is_conserved());
        m.tasks_cancelled = 1;
        assert!(!m.is_conserved());
        m.tasks_arrived += 1;
        assert!(m.is_conserved());
        m.tasks_abandoned = 2;
        m.tasks_arrived += 2;
        assert!(m.is_conserved());
        assert_eq!(m.tasks_lost_to_faults(), 3);
    }

    #[test]
    fn top_earner_is_nan_robust() {
        let m = metrics(&[1.0, f64::NAN, 3.0]);
        // total_cmp orders NaN above every finite value; the point is that
        // this must not panic even on poisoned ledgers.
        assert!(m.top_earner().is_some());
    }

    #[test]
    fn top_earner_picks_the_maximum() {
        let m = metrics(&[1.0, 5.0, 3.0]);
        let (w, e) = m.top_earner().unwrap();
        assert_eq!(w, WorkerId(1));
        assert_eq!(e, 5.0);
    }
}
