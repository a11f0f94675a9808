//! Figure 12 — convergence of the game-theoretic approaches.
//!
//! Runs FGT and IEGT once on the default SYN instance and reports the
//! per-iteration payoff difference, average payoff, and number of strategy
//! changes, demonstrating convergence to the (Nash / improved evolutionary)
//! equilibrium.

use crate::experiments::common::MAX_LEN_CAP;
use crate::measure::measure;
use crate::params::{Dataset, RunnerOptions};
use crate::report::{FigureData, Panel};
use fta_algorithms::{Algorithm, FgtConfig, IegtConfig};
use fta_vdps::VdpsConfig;

/// Runs the convergence experiment (first seed only — the paper's Figure 12
/// shows single representative runs).
#[must_use]
pub fn run(opts: &RunnerOptions) -> FigureData {
    let instance = fta_data::generate_syn(&opts.syn_base(), *opts.seeds.first().unwrap_or(&42));
    let vdps = VdpsConfig::pruned(opts.default_epsilon(Dataset::Syn), MAX_LEN_CAP);

    let mut fig = FigureData::new("fig12", "Convergence of FGT and IEGT (SYN)", "iteration");
    fig.panels = vec![
        Panel::new("payoff difference"),
        Panel::new("average payoff"),
        Panel::new("strategy changes"),
        Panel::new(WORK_PANEL),
    ];

    let runs = [
        ("FGT", Algorithm::Fgt(FgtConfig::default())),
        ("IEGT", Algorithm::Iegt(IegtConfig::default())),
    ];
    for (label, algorithm) in runs {
        let result = measure(&instance, label, algorithm, vdps, opts.parallel);
        for round in &result.trace.rounds {
            let x = round.round as f64;
            fig.panels[0].push_point(label, x, round.payoff_difference);
            fig.panels[1].push_point(label, x, round.average_payoff);
            fig.panels[2].push_point(label, x, round.moves as f64);
        }
        // Whole-run best-response work counters: one row per counter
        // (x = counter index, in the order named by the panel metric).
        let s = &result.br_stats;
        let counters = [
            s.rounds,
            s.candidate_evaluations,
            s.switches,
            s.null_adoptions,
            s.evaluator_builds,
            s.evaluator_updates,
            s.candidates_scanned,
            s.early_exits,
            s.fastpath_rounds,
        ];
        for (i, &value) in counters.iter().enumerate() {
            fig.panels[3].push_point(label, i as f64, value as f64);
        }
    }
    fig
}

/// Metric name of the best-response work panel; the x coordinate indexes
/// the counters in the order listed here.
pub const WORK_PANEL: &str = "best-response work [0=rounds, 1=cand evals, 2=switches, \
     3=null adoptions, 4=eval builds, 5=eval updates, 6=cand scanned, 7=early exits, \
     8=fastpath rounds]";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_algorithms_produce_convergence_curves() {
        let fig = run(&RunnerOptions::fast_test());
        assert_eq!(fig.id, "fig12");
        for label in ["FGT", "IEGT"] {
            let s = fig.panels[0].series_of(label).unwrap();
            assert!(s.points.len() >= 2, "{label} trace too short");
        }
    }

    #[test]
    fn traces_end_with_zero_moves() {
        // Convergence means the final round changed nothing.
        let fig = run(&RunnerOptions::fast_test());
        let moves = fig.panel_of("strategy changes").unwrap();
        for s in &moves.series {
            let last = s.points.last().unwrap().1;
            assert_eq!(last, 0.0, "{} did not settle", s.label);
        }
    }

    #[test]
    fn work_panel_reports_counters_for_both_algorithms() {
        let fig = run(&RunnerOptions::fast_test());
        let work = fig.panel_of(WORK_PANEL).unwrap();
        for label in ["FGT", "IEGT"] {
            let s = work.series_of(label).unwrap();
            assert_eq!(s.points.len(), 9, "{label} missing counters");
            // rounds (x=0) and candidates scanned (x=6) must be > 0. (The
            // IEGT fast path evolves without evaluating IAU utilities, so
            // candidate evaluations may legitimately be zero for it.)
            assert!(s.points[0].1 > 0.0, "{label} reported zero rounds");
            assert!(s.points[6].1 > 0.0, "{label} reported zero scans");
            // Both default configurations are fast-path eligible: every
            // recorded round ran under the monotone loop.
            assert_eq!(s.points[8].1, s.points[0].1, "{label} left the fast path");
        }
    }

    #[test]
    fn average_payoff_grows_during_the_game() {
        // Both games start from a random single-dp assignment; strategy
        // adaptation should raise the population's average payoff (for
        // IEGT every accepted move is a strict payoff improvement; for FGT
        // utility-improving moves overwhelmingly raise payoffs too).
        let fig = run(&RunnerOptions::fast_test());
        let avg = fig.panel_of("average payoff").unwrap();
        for s in &avg.series {
            let first = s.points.first().unwrap().1;
            let last = s.points.last().unwrap().1;
            assert!(
                last >= first * 0.9 - 1e-9,
                "{}: average payoff collapsed ({first} → {last})",
                s.label
            );
        }
    }
}
