//! Instrumentation counters of the iterative game-theoretic algorithms.
//!
//! [`BestResponseStats`] is the equilibrium-loop counterpart of
//! `fta_vdps::GenerationStats`: cheap integer counters incremented on the
//! hot path that make the cost model of FGT/PFGT/IEGT observable — how many
//! candidate utilities were evaluated, how often workers actually switched,
//! and how much work the utility evaluator itself did (full rebuilds vs
//! incremental point updates). The counters are what the `rivalset` bench
//! and the engine-equivalence tests assert on, and they surface through
//! [`crate::SolveOutcome`], the experiment report, and the CLI.

/// Counters of one or more best-response / replicator runs.
///
/// All counters are cumulative: merging traces (restarts, parallel centers)
/// sums them. Each counter has one meaning, the same for every engine — the
/// exhaustive ones, the monotone fast paths and IEGT — and counts work
/// that was done, not work some other scan would have done. The engines
/// build one [`fta_core::iau::RivalSet`] per run and maintain it with
/// `O(log n)` point updates; the rebuild oracle in the tests constructs a
/// fresh sorted evaluator for every worker in every round instead
/// (`evaluator_builds ≈ n · rounds`, no updates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BestResponseStats {
    /// Best-response / evolution rounds executed (round 0 excluded).
    pub rounds: u64,
    /// Candidate utilities the switch rule is defined over (current
    /// strategy, null, and every available VDPS each count once), whether
    /// or not the engine computes them: the monotone fast path counts two
    /// per turn, the current utility and the candidate's, but evaluates
    /// them only when the candidate differs from the current selection.
    pub candidate_evaluations: u64,
    /// Strategy switches actually performed.
    pub switches: u64,
    /// Switches that adopted the null strategy.
    pub null_adoptions: u64,
    /// Full evaluator constructions (sort + prefix-sum over all rivals, or
    /// one rival structure per run).
    pub evaluator_builds: u64,
    /// Rival-structure updates made: one per payoff removed from or
    /// inserted into a rival set. The exhaustive engines make two per
    /// turn; the fast paths two per candidate turn (plus PFGT's raw-payoff
    /// pair per switch); IEGT two per switch.
    pub evaluator_updates: u64,
    /// Valid strategy rows a deliberation's pass walked. An exhaustive
    /// turn walks the worker's whole valid list; a fast-path or IEGT pass
    /// walks the rows of the valid prefixes (one per row length) that
    /// passed the reach test, and reads no other row.
    pub candidates_scanned: u64,
    /// Deliberations on which the reach test skipped at least one
    /// non-empty prefix: rows proven closed without being read. Always
    /// zero for the exhaustive engines.
    pub early_exits: u64,
    /// Rounds executed under the monotone fast-path loop. Stays zero when
    /// the IAU parameters make the fast path unsound (`β ≥ 1` or `α < 0`)
    /// and the run fell back to exhaustive evaluation.
    pub fastpath_rounds: u64,
}

impl BestResponseStats {
    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &Self) {
        self.rounds += other.rounds;
        self.candidate_evaluations += other.candidate_evaluations;
        self.switches += other.switches;
        self.null_adoptions += other.null_adoptions;
        self.evaluator_builds += other.evaluator_builds;
        self.evaluator_updates += other.evaluator_updates;
        self.candidates_scanned += other.candidates_scanned;
        self.early_exits += other.early_exits;
        self.fastpath_rounds += other.fastpath_rounds;
    }

    /// Whether no work was recorded (e.g. a baseline algorithm ran).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_counter() {
        let mut a = BestResponseStats {
            rounds: 1,
            candidate_evaluations: 10,
            switches: 3,
            null_adoptions: 1,
            evaluator_builds: 2,
            evaluator_updates: 8,
            candidates_scanned: 20,
            early_exits: 5,
            fastpath_rounds: 1,
        };
        let b = BestResponseStats {
            rounds: 2,
            candidate_evaluations: 5,
            switches: 1,
            null_adoptions: 0,
            evaluator_builds: 1,
            evaluator_updates: 4,
            candidates_scanned: 10,
            early_exits: 2,
            fastpath_rounds: 2,
        };
        a.merge(&b);
        assert_eq!(
            a,
            BestResponseStats {
                rounds: 3,
                candidate_evaluations: 15,
                switches: 4,
                null_adoptions: 1,
                evaluator_builds: 3,
                evaluator_updates: 12,
                candidates_scanned: 30,
                early_exits: 7,
                fastpath_rounds: 3,
            }
        );
    }

    #[test]
    fn default_is_empty() {
        assert!(BestResponseStats::default().is_empty());
        let s = BestResponseStats {
            rounds: 1,
            ..Default::default()
        };
        assert!(!s.is_empty());
    }
}
