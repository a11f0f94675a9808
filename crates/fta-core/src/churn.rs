//! Round-over-round churn description for incremental re-solves.
//!
//! A production assignment round rarely differs from the previous one by
//! more than a handful of task arrivals and worker check-ins. [`ChurnSet`]
//! is the contract between a round loop (the sim engine, a dispatcher)
//! and an incremental solver: it carries the *identity* information the
//! solver cannot reconstruct from two instances alone — a stable key per
//! worker (instances renumber [`WorkerId`](crate::WorkerId)s densely every
//! round) and how much wall-clock time passed since the cached solve (all
//! relative task expiries shrank by that much) — plus per-center churn
//! diagnostics.
//!
//! The diagnostics are advisory: an incremental solver must detect dirty
//! delivery points by comparing cached against fresh per-point aggregates
//! bit for bit, because floating-point expiries re-derived from a new
//! round instant are almost never bitwise equal to `old − age`. The counts
//! here feed telemetry and let a round loop skip the incremental path
//! entirely when churn is too heavy to pay off.

/// Per-center churn counts between two consecutive rounds (diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CenterChurn {
    /// Tasks newly visible to this center's snapshot (arrivals, retries
    /// whose backoff expired).
    pub added_tasks: u32,
    /// Tasks that left the snapshot (delivered, expired, cancelled,
    /// abandoned, or backoff-hidden).
    pub removed_tasks: u32,
    /// Workers that joined the center's idle pool.
    pub arrived_workers: u32,
    /// Workers that left the idle pool (dispatched, still busy).
    pub departed_workers: u32,
}

impl CenterChurn {
    /// Whether this center saw no churn at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.added_tasks == 0
            && self.removed_tasks == 0
            && self.arrived_workers == 0
            && self.departed_workers == 0
    }
}

/// What changed between the previously solved round and the current one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnSet {
    /// Wall-clock time elapsed since the cached solve, in instance time
    /// units. Every surviving task's relative expiry shrank by this much;
    /// `0.0` means the rounds share an instant (pure add/remove churn).
    pub age: f64,
    /// One stable key per worker of the *current* instance, parallel to
    /// `instance.workers`. Keys identify the same physical worker across
    /// rounds (the sim uses scenario indices); they are what lets a warm
    /// start map cached equilibrium strategies onto freshly renumbered
    /// [`WorkerId`](crate::WorkerId)s.
    pub worker_keys: Vec<u64>,
    /// Per-center diagnostics, indexed by [`CenterId`](crate::CenterId)
    /// index. May be empty when the producer does not track them.
    pub per_center: Vec<CenterChurn>,
}

impl ChurnSet {
    /// A churn set declaring "nothing changed" for an instance of
    /// `n_workers` workers keyed by their own indices — what a caller
    /// without stable worker identities hands the incremental solver.
    #[must_use]
    pub fn empty(n_workers: usize) -> Self {
        Self {
            age: 0.0,
            worker_keys: (0..n_workers as u64).collect(),
            per_center: Vec::new(),
        }
    }

    /// Whether the set declares zero churn (no aging, no per-center
    /// activity). Worker keys are identity, not churn, so they do not
    /// participate.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.age == 0.0 && self.per_center.iter().all(CenterChurn::is_empty)
    }

    /// Total tasks added across centers.
    #[must_use]
    pub fn tasks_added(&self) -> u64 {
        self.per_center
            .iter()
            .map(|c| u64::from(c.added_tasks))
            .sum()
    }

    /// Total tasks removed across centers.
    #[must_use]
    pub fn tasks_removed(&self) -> u64 {
        self.per_center
            .iter()
            .map(|c| u64::from(c.removed_tasks))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_churn_is_identity_keyed_and_empty() {
        let c = ChurnSet::empty(4);
        assert_eq!(c.worker_keys, vec![0, 1, 2, 3]);
        assert!(c.is_empty());
        assert_eq!(c.tasks_added(), 0);
        assert_eq!(c.tasks_removed(), 0);
    }

    #[test]
    fn aging_or_center_activity_makes_churn_nonempty() {
        let mut c = ChurnSet::empty(2);
        c.age = 0.25;
        assert!(!c.is_empty());
        let mut c = ChurnSet::empty(2);
        c.per_center.push(CenterChurn {
            added_tasks: 1,
            ..CenterChurn::default()
        });
        assert!(!c.is_empty());
        assert_eq!(c.tasks_added(), 1);
    }
}
