//! Human-readable rendering of a [`SolveOutcome`].
//!
//! [`SolveReport`] replaces the hand-rolled stats `writeln!` chains that
//! used to live in the CLI: every consumer (the `fta solve` command, the
//! bench binaries, tests) renders the same lines from the same place, so
//! the format only has to be kept parseable once.
//!
//! The line formats are load-bearing: the CLI's tests split the generation
//! line on `" sets from "` and `", dp "` to read the work counters, so
//! those separators must not change.

use crate::solver::SolveOutcome;
use std::fmt;

/// Pretty-printer over a [`SolveOutcome`].
///
/// Construct with [`SolveReport::new`], optionally attach a header label
/// and the best-response engine, then `Display` it:
///
/// ```
/// use fta_algorithms::{solve, Algorithm, SolveConfig, SolveReport};
/// use fta_data::{generate_syn, SynConfig};
///
/// let inst = generate_syn(&SynConfig::bench_scale(), 7);
/// let outcome = solve(&inst, &SolveConfig::new(Algorithm::Gta));
/// let text = SolveReport::new(&outcome)
///     .label("GTA on syn")
///     .to_string();
/// assert!(text.contains("vdps generation: "));
/// ```
#[derive(Debug, Clone)]
pub struct SolveReport<'a> {
    outcome: &'a SolveOutcome,
    label: Option<&'a str>,
    br_engine: Option<(&'a str, bool)>,
}

impl<'a> SolveReport<'a> {
    /// Wraps an outcome for rendering.
    #[must_use]
    pub fn new(outcome: &'a SolveOutcome) -> Self {
        Self {
            outcome,
            label: None,
            br_engine: None,
        }
    }

    /// Adds a header line (`"<label> (<vdps> VDPS + <assign> assignment):"`).
    #[must_use]
    pub fn label(mut self, label: &'a str) -> Self {
        self.label = Some(label);
        self
    }

    /// Names the best-response engine and whether the configured IAU
    /// weights make the monotone fast path sound ([`crate::fastpath_sound`]).
    /// Rendered on the best-response work line, so baselines that never
    /// enter an equilibrium loop stay silent.
    #[must_use]
    pub fn br_engine(mut self, engine: &'a str, fastpath_eligible: bool) -> Self {
        self.br_engine = Some((engine, fastpath_eligible));
        self
    }
}

const fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

impl fmt::Display for SolveReport<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.outcome;
        if let Some(label) = self.label {
            writeln!(
                f,
                "{label} ({:.1?} VDPS + {:.1?} assignment):",
                o.vdps_time, o.assign_time
            )?;
        }
        if o.gen_stats.vdps_count > 0 {
            let g = &o.gen_stats;
            writeln!(
                f,
                "vdps generation: {} sets from {} states, {} extensions ({} distance-pruned, {} deadline-pruned), dp {:.1} ms + routes {:.1} ms (merge {:.1} ms), {} chunks, {} steals, {} merge collisions",
                g.vdps_count,
                g.states,
                g.extensions_tried,
                g.pruned_by_distance,
                g.pruned_by_deadline,
                ms(g.dp_nanos),
                ms(g.route_nanos),
                ms(g.merge_nanos),
                g.chunks,
                g.steals,
                g.merge_collisions,
            )?;
        }
        if !o.br_stats.is_empty() {
            let s = &o.br_stats;
            if let Some((engine, eligible)) = self.br_engine {
                writeln!(
                    f,
                    "best-response engine: {engine} (fast path {})",
                    if eligible {
                        "eligible"
                    } else {
                        "ineligible: exhaustive fallback"
                    },
                )?;
            }
            writeln!(
                f,
                "best-response work: {} rounds, {} candidate evals, {} switches ({} to null), {} evaluator builds, {} incremental updates, {} slots scanned, {} early exits, {} fast-path rounds",
                s.rounds,
                s.candidate_evaluations,
                s.switches,
                s.null_adoptions,
                s.evaluator_builds,
                s.evaluator_updates,
                s.candidates_scanned,
                s.early_exits,
                s.fastpath_rounds,
            )?;
        }
        if let Some(last) = o.trace.last() {
            writeln!(
                f,
                "convergence: {} recorded rounds, converged={}, final P_dif {:.4}, final avg payoff {:.4}",
                o.trace.len(),
                o.trace.converged,
                last.payoff_difference,
                last.average_payoff,
            )?;
        }
        if !o.degradation.is_empty() {
            writeln!(
                f,
                "degradation: {} events over {} centers — {}",
                o.degradation.events.len(),
                o.degradation.degraded_centers().len(),
                o.degradation,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve, Algorithm, SolveConfig};
    use crate::FgtConfig;
    use fta_data::{generate_syn, SynConfig};

    fn outcome(algorithm: Algorithm) -> SolveOutcome {
        let inst = generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers: 8,
                n_tasks: 80,
                n_delivery_points: 14,
                extent: 2.0,
                ..SynConfig::bench_scale()
            },
            9,
        );
        solve(&inst, &SolveConfig::new(algorithm))
    }

    #[test]
    fn renders_generation_and_label() {
        let o = outcome(Algorithm::Gta);
        let text = SolveReport::new(&o).label("GTA on test").to_string();
        assert!(text.starts_with("GTA on test ("));
        assert!(text.contains("vdps generation: "));
        assert!(text.contains(" sets from "));
        assert!(text.contains(", dp "));
        // Baselines have no best-response loop and no trace.
        assert!(!text.contains("best-response work:"));
        assert!(!text.contains("convergence:"));
    }

    #[test]
    fn game_algorithms_report_br_work_and_convergence() {
        let o = outcome(Algorithm::Fgt(FgtConfig::default()));
        let text = SolveReport::new(&o).to_string();
        assert!(text.contains("best-response work:"));
        assert!(text.contains("evaluator builds"));
        assert!(text.contains("slots scanned"));
        assert!(text.contains("fast-path rounds"));
        assert!(text.contains("convergence:"));
        assert!(text.contains("converged=true"));
        // Engine echo is opt-in.
        assert!(!text.contains("best-response engine:"));
    }

    #[test]
    fn br_engine_echo_reports_name_and_eligibility() {
        let o = outcome(Algorithm::Fgt(FgtConfig::default()));
        let text = SolveReport::new(&o).br_engine("fastpath", true).to_string();
        assert!(text.contains("best-response engine: fastpath (fast path eligible)"));
        let text = SolveReport::new(&o)
            .br_engine("incremental", false)
            .to_string();
        assert!(text.contains(
            "best-response engine: incremental (fast path ineligible: exhaustive fallback)"
        ));
        // Baselines stay silent even with an engine attached.
        let o = outcome(Algorithm::Gta);
        let text = SolveReport::new(&o).br_engine("fastpath", true).to_string();
        assert!(!text.contains("best-response engine:"));
    }
}
