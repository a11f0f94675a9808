//! Exact (exponential-time) solvers for small instances.
//!
//! The FTA problem is NP-hard (Lemma 1), so these brute-force solvers exist
//! purely to (a) certify the heuristics' quality on small instances in
//! tests and benches and (b) make the intractability concrete: they
//! enumerate every joint strategy, which explodes immediately beyond a
//! handful of workers.

use crate::context::GameContext;
use fta_core::fairness::{average_payoff, payoff_difference};
use fta_core::Assignment;

/// What the exhaustive search optimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactObjective {
    /// The FTA objective: lexicographically minimise the payoff difference,
    /// then maximise the average payoff (Section III).
    ///
    /// Taken literally, the lexicographic objective is degenerate: the
    /// all-null assignment has payoff difference 0. The paper implicitly
    /// assumes workers are actually served, so this objective searches only
    /// *addition-maximal* assignments — no worker on the null strategy
    /// could still take an available VDPS. Every algorithm in this crate
    /// produces addition-maximal assignments (for FGT this holds whenever
    /// `β ≤ 1`, which includes the paper's `β = 0.5`: utility is then
    /// non-decreasing in the worker's own payoff).
    MinPayoffDifference,
    /// MPTA's objective: maximise the total (equivalently average) payoff.
    /// The optimum is automatically addition-maximal.
    MaxTotalPayoff,
}

/// Exhaustively searches all joint strategies (each worker: `null` or any
/// of its valid, conflict-free VDPSs) and returns the best assignment with
/// its `(payoff_difference, average_payoff)` score.
///
/// # Panics
///
/// Panics if the joint strategy space exceeds ~10⁷ leaves; use only on
/// tiny instances.
#[must_use]
pub fn exact_search(
    ctx: &mut GameContext<'_>,
    objective: ExactObjective,
) -> (Assignment, f64, f64) {
    let n = ctx.n_workers();
    let mut bound: f64 = 1.0;
    for local in 0..n {
        bound *= (ctx.space().strategy_count(local) + 1) as f64;
        assert!(
            bound <= 1e7,
            "joint strategy space too large for exhaustive search"
        );
    }

    struct Best {
        assignment: Assignment,
        diff: f64,
        avg: f64,
    }
    let mut best: Option<Best> = None;

    // Branch-and-bound bound for the max-total objective: the most a
    // suffix of workers could still add, ignoring conflicts. suffix_max[i]
    // = Σ_{j ≥ i} max payoff of worker j.
    let suffix_max: Vec<f64> = {
        let mut suffix = vec![0.0; n + 1];
        for local in (0..n).rev() {
            let own_max = ctx
                .space()
                .strategies(local)
                .map(|(_, p)| p)
                .fold(0.0_f64, f64::max);
            suffix[local] = suffix[local + 1] + own_max;
        }
        suffix
    };

    fn better(objective: ExactObjective, diff: f64, avg: f64, b: &Best) -> bool {
        match objective {
            ExactObjective::MinPayoffDifference => {
                diff < b.diff - 1e-12 || ((diff - b.diff).abs() <= 1e-12 && avg > b.avg + 1e-12)
            }
            ExactObjective::MaxTotalPayoff => avg > b.avg + 1e-12,
        }
    }

    fn dfs(
        ctx: &mut GameContext<'_>,
        local: usize,
        objective: ExactObjective,
        suffix_max: &[f64],
        best: &mut Option<Best>,
    ) {
        let n = ctx.n_workers();
        if local == n {
            // The min-diff objective only admits addition-maximal
            // assignments (see the objective's docs).
            if objective == ExactObjective::MinPayoffDifference {
                let addition_maximal = (0..n).all(|w| {
                    ctx.selection(w).is_some() || ctx.available_strategies(w).next().is_none()
                });
                if !addition_maximal {
                    return;
                }
            }
            let diff = payoff_difference(ctx.payoffs());
            let avg = average_payoff(ctx.payoffs());
            let improves = best
                .as_ref()
                .is_none_or(|b| better(objective, diff, avg, b));
            if improves {
                *best = Some(Best {
                    assignment: ctx.to_assignment(),
                    diff,
                    avg,
                });
            }
            return;
        }
        // Branch and bound (max-total objective only): even taking every
        // remaining worker's best conflict-free payoff cannot beat the
        // incumbent — prune the whole subtree.
        if objective == ExactObjective::MaxTotalPayoff {
            if let Some(b) = best.as_ref() {
                let incumbent_total = b.avg * n as f64;
                let optimistic = ctx.total_payoff() + suffix_max[local];
                if optimistic <= incumbent_total + 1e-12 {
                    return;
                }
            }
        }
        // Null branch.
        ctx.set_strategy(local, None);
        dfs(ctx, local + 1, objective, suffix_max, best);
        // Every conflict-free strategy.
        let options: Vec<u32> = ctx.available_strategies(local).map(|(i, _)| i).collect();
        for idx in options {
            ctx.set_strategy(local, Some(idx));
            dfs(ctx, local + 1, objective, suffix_max, best);
        }
        ctx.set_strategy(local, None);
    }

    dfs(ctx, 0, objective, &suffix_max, &mut best);
    let b = best.expect("a maximal assignment always exists and is enumerated");
    (b.assignment, b.diff, b.avg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgt::{fgt, FgtConfig};
    use crate::gta::gta;
    use crate::iegt::{iegt, IegtConfig};
    use crate::mpta::{mpta, MptaConfig};
    use fta_core::Instance;
    use fta_data::{generate_syn, SynConfig};
    use fta_vdps::{StrategySpace, VdpsConfig};

    fn tiny_instance(seed: u64) -> Instance {
        generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers: 3,
                n_tasks: 25,
                n_delivery_points: 5,
                extent: 1.5,
                ..SynConfig::bench_scale()
            },
            seed,
        )
    }

    fn space(inst: &Instance) -> StrategySpace {
        let views = inst.center_views();
        StrategySpace::build(inst, &views[0], &VdpsConfig::unpruned(3))
    }

    #[test]
    fn exact_min_diff_dominates_all_heuristics() {
        for seed in 0..5 {
            let inst = tiny_instance(seed);
            let s = space(&inst);
            let ws = s.view.workers.clone();
            let mut ctx = GameContext::new(&s);
            let (opt, opt_diff, _) = exact_search(&mut ctx, ExactObjective::MinPayoffDifference);
            assert!(opt.validate(&inst).is_ok());

            for diff in [
                {
                    let mut c = GameContext::new(&s);
                    gta(&mut c);
                    c.to_assignment().fairness(&inst, &ws).payoff_difference
                },
                {
                    let mut c = GameContext::new(&s);
                    fgt(&mut c, &FgtConfig::default());
                    c.to_assignment().fairness(&inst, &ws).payoff_difference
                },
                {
                    let mut c = GameContext::new(&s);
                    iegt(&mut c, &IegtConfig::default());
                    c.to_assignment().fairness(&inst, &ws).payoff_difference
                },
            ] {
                assert!(
                    opt_diff <= diff + 1e-9,
                    "seed {seed}: exact diff {opt_diff} beaten by heuristic {diff}"
                );
            }
        }
    }

    #[test]
    fn exact_max_total_dominates_mpta() {
        for seed in 0..5 {
            let inst = tiny_instance(10 + seed);
            let s = space(&inst);
            let ws = s.view.workers.clone();
            let mut ctx = GameContext::new(&s);
            let (_, _, opt_avg) = exact_search(&mut ctx, ExactObjective::MaxTotalPayoff);

            let mut c = GameContext::new(&s);
            mpta(&mut c, &MptaConfig::default());
            let heur_avg = c.to_assignment().fairness(&inst, &ws).average_payoff;
            assert!(
                opt_avg >= heur_avg - 1e-9,
                "seed {seed}: exact avg {opt_avg} beaten by MPTA {heur_avg}"
            );
        }
    }

    #[test]
    fn exact_on_figure_1_finds_the_papers_fair_assignment() {
        // The introduction's fair assignment {(w1,{dp1,dp2}),
        // (w2,{dp3,dp4,dp5})} has payoff difference 0.26; the optimum can
        // only match or beat it, and must keep a comparable average.
        let inst = fta_core::fig1::instance();
        let views = inst.center_views();
        let s = StrategySpace::build(&inst, &views[0], &VdpsConfig::unpruned(3));
        let mut ctx = GameContext::new(&s);
        let (assignment, diff, avg) = exact_search(&mut ctx, ExactObjective::MinPayoffDifference);
        assert!(assignment.validate(&inst).is_ok());
        assert!(
            diff <= 0.26 + 1e-9,
            "exact optimum diff {diff} worse than the paper's fair assignment"
        );
        // The literal lexicographic objective trades average for equality
        // aggressively (here both workers end near-equal around 1.6), which
        // is exactly why the paper's heuristics — which keep utility in the
        // loop — are the interesting solutions.
        assert!(avg > 1.0, "fair optimum collapsed, got {avg}");
        // And the max-total optimum is exactly the greedy outcome (2.80 +
        // 2.09) / 2 ≈ 2.44 from the introduction.
        let mut ctx = GameContext::new(&s);
        let (_, _, max_avg) = exact_search(&mut ctx, ExactObjective::MaxTotalPayoff);
        assert!(
            (max_avg - 2.44).abs() < 5e-2,
            "max-total average {max_avg} differs from the paper's greedy outcome"
        );
    }

    #[test]
    fn all_null_is_found_when_nothing_is_feasible() {
        let inst = generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers: 3,
                n_tasks: 20,
                n_delivery_points: 5,
                expiry: 0.0001,
                extent: 5.0,
                ..SynConfig::bench_scale()
            },
            3,
        );
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        let (a, diff, avg) = exact_search(&mut ctx, ExactObjective::MinPayoffDifference);
        assert_eq!(a.assigned_workers(), 0);
        assert_eq!(diff, 0.0);
        assert_eq!(avg, 0.0);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn refuses_oversized_instances() {
        let inst = generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers: 30,
                n_tasks: 400,
                n_delivery_points: 30,
                extent: 1.5,
                ..SynConfig::bench_scale()
            },
            4,
        );
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        let _ = exact_search(&mut ctx, ExactObjective::MinPayoffDifference);
    }
}
