//! Bridges [`SolveOutcome`] into the versioned solve ledger
//! ([`fta_obs::ledger`]).
//!
//! The solver layer knows *why* each center ended up where it did (rung,
//! budget axis, resolve path, work counters); the ledger is the durable
//! record of that attribution plus the fairness outcome. This module is
//! the one place the two vocabularies meet: the CLI's `--ledger-out` and
//! the sim engine's per-round ledger both go through [`solve_record`] /
//! [`center_records`], so a ledger line means the same thing no matter
//! which entry point produced it.

use crate::solver::SolveOutcome;
use fta_core::{FairnessReport, Instance, WorkerId};
use fta_obs::ledger::{CenterRecord, FairnessRecord, SolveRecord};

/// Per-center ledger records for one solve, in center order. Thin
/// field-by-field mapping of
/// [`CenterSolveSummary`](crate::solver::CenterSolveSummary) into the
/// serializable ledger vocabulary.
#[must_use]
pub fn center_records(outcome: &SolveOutcome) -> Vec<CenterRecord> {
    outcome
        .centers
        .iter()
        .map(|c| CenterRecord {
            center: u64::from(c.center.0),
            rung: c.rung.name().to_string(),
            budget_axis: c.budget_axis.map(str::to_string),
            resolve: c.resolve_path.to_string(),
            br_rounds: c.br_rounds,
            br_evaluations: c.br_evaluations,
            br_switches: c.br_switches,
            vdps_count: c.vdps_count,
            vdps_states: c.vdps_states,
            vdps_truncations: c.vdps_truncations,
            vdps_nanos: c.vdps_nanos,
            assign_nanos: c.assign_nanos,
            events: c.events.clone(),
        })
        .collect()
}

/// The fairness block of a ledger record: metrics over the full worker
/// population of `instance`, with the raw payoff vector as the income
/// distribution (a one-shot solve has no accumulated earnings, so payoff
/// *is* income).
#[must_use]
pub fn fairness_record(instance: &Instance, outcome: &SolveOutcome) -> FairnessRecord {
    let workers: Vec<WorkerId> = (0..instance.workers.len())
        .map(WorkerId::from_index)
        .collect();
    let payoffs = outcome.assignment.payoffs(instance, &workers);
    fairness_from_incomes(&payoffs)
}

/// A [`FairnessRecord`] over an arbitrary income distribution (the sim
/// engine passes cumulative per-worker earnings here; the one-shot path
/// passes the payoff vector).
#[must_use]
pub fn fairness_from_incomes(incomes: &[f64]) -> FairnessRecord {
    let report = FairnessReport::from_payoffs(incomes);
    FairnessRecord {
        payoff_difference: report.payoff_difference,
        average_payoff: report.average_payoff,
        gini: report.gini,
        incomes: incomes.to_vec(),
    }
}

/// A complete one-shot ledger record for `outcome`: per-center causal
/// attribution plus the fairness block. `round` and `sim_hours` are
/// `None` — the sim engine fills those in itself.
#[must_use]
pub fn solve_record(
    instance: &Instance,
    outcome: &SolveOutcome,
    algo: &str,
    engine: &str,
) -> SolveRecord {
    SolveRecord {
        round: None,
        sim_hours: None,
        algo: algo.to_string(),
        engine: engine.to_string(),
        degraded: outcome.is_degraded(),
        budget_exhausted: outcome.degradation.budget_exhausted(),
        centers: center_records(outcome),
        fairness: fairness_record(instance, outcome),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve, Algorithm, SolveConfig};
    use fta_core::fig1;

    #[test]
    fn solve_record_attributes_every_center_and_round_trips() {
        let instance = fig1::instance();
        let outcome = solve(&instance, &SolveConfig::new(Algorithm::Gta));
        let record = solve_record(&instance, &outcome, "GTA", "flat");
        assert_eq!(record.centers.len(), instance.centers.len());
        assert!(!record.degraded);
        assert!(!record.budget_exhausted);
        assert_eq!(record.fairness.incomes.len(), instance.workers.len());
        for center in &record.centers {
            assert_eq!(center.rung, "full");
            assert_eq!(center.resolve, "cold");
            assert!(center.budget_axis.is_none());
            assert!(center.events.is_empty());
        }
        // The record survives the ledger's own serialization.
        let ledger = fta_obs::ledger::Ledger {
            label: "test".to_string(),
            created_unix_ms: 0,
            records: vec![record],
        };
        let parsed =
            fta_obs::ledger::parse(&fta_obs::ledger::to_jsonl(&ledger)).expect("ledger parses");
        assert_eq!(parsed.records[0].centers.len(), instance.centers.len());
        assert_eq!(parsed.records[0].algo, "GTA");
    }

    #[test]
    fn degraded_solve_attributes_the_budget_axis() {
        let instance = fig1::instance();
        let config =
            SolveConfig::new(Algorithm::Gta).with_budget(fta_core::SolveBudget::wall_ms(0));
        let outcome = solve(&instance, &config);
        let record = solve_record(&instance, &outcome, "GTA", "flat");
        assert!(record.degraded);
        assert!(record.budget_exhausted);
        let degraded: Vec<_> = record.centers.iter().filter(|c| c.rung != "full").collect();
        assert!(!degraded.is_empty(), "0 ms budget degraded nothing");
        for center in &degraded {
            assert_eq!(center.budget_axis.as_deref(), Some("wall_ms"));
            assert!(!center.events.is_empty());
        }
    }
}
