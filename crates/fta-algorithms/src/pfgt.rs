//! PFGT — Priority-aware Fairness Game-Theoretic assignment (extension).
//!
//! The paper's conclusion proposes priority-aware fairness as a follow-up
//! descriptive model. PFGT is FGT with the utility swapped for the
//! priority-aware IAU of [`fta_core::priority`]: each worker carries an
//! entitlement weight ρ, inequity is perceived on normalised payoffs
//! `P/ρ`, and the equilibrium-selection objective becomes the
//! priority-aware payoff difference. With all priorities equal to 1 PFGT
//! coincides with FGT (tested below).

use crate::context::GameContext;
use crate::fgt::{best_of_restarts, play, FgtConfig, Rivals, Search};
use crate::trace::ConvergenceTrace;
use fta_core::iau::{IauParams, RivalSet};
use fta_core::priority::{priority_payoff_difference, PriorityRivalSet};
use fta_core::{CancelToken, WorkerId};

/// How worker priorities are derived. A plain function pointer keeps the
/// solver's `Algorithm` enum `Copy` while allowing arbitrary priority
/// schemes.
///
/// Equality on the `ByWorker` variant compares function pointers, which is
/// only used to detect "same configuration" in tests — two distinct
/// functions comparing equal after identical-code merging would be
/// harmless there.
#[allow(unpredictable_function_pointer_comparisons)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrioritySpec {
    /// Every worker has priority 1 (PFGT ≡ FGT).
    Uniform,
    /// Priorities computed from the worker id.
    ByWorker(fn(WorkerId) -> f64),
}

impl PrioritySpec {
    /// The priority of `worker`.
    ///
    /// # Panics
    ///
    /// Panics if a `ByWorker` function returns a non-positive or non-finite
    /// value.
    #[must_use]
    pub fn of(&self, worker: WorkerId) -> f64 {
        match self {
            Self::Uniform => 1.0,
            Self::ByWorker(f) => {
                let rho = f(worker);
                assert!(
                    rho.is_finite() && rho > 0.0,
                    "priority of {worker} must be positive, got {rho}"
                );
                rho
            }
        }
    }
}

/// Configuration of a PFGT run: the FGT knobs plus the priority scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfgtConfig {
    /// Best-response parameters (IAU weights, rounds, seed, restarts).
    pub base: FgtConfig,
    /// Worker priority scheme.
    pub priorities: PrioritySpec,
}

impl Default for PfgtConfig {
    fn default() -> Self {
        Self {
            base: FgtConfig::default(),
            priorities: PrioritySpec::Uniform,
        }
    }
}

/// Runs PFGT on a fresh context; the equilibrium best under the
/// priority-aware FTA objective across restarts is kept.
pub fn pfgt<'a>(ctx: &mut GameContext<'a>, config: &PfgtConfig) -> ConvergenceTrace {
    pfgt_bounded(ctx, config, None)
}

/// [`pfgt`] under cooperative cancellation: checks `cancel` once per
/// best-response round and between restarts, stopping early (with the
/// trace marked [`ConvergenceTrace::cancelled`]) when it trips.
/// `cancel = None` is bit-identical to [`pfgt`].
pub fn pfgt_bounded<'a>(
    ctx: &mut GameContext<'a>,
    config: &PfgtConfig,
    cancel: Option<&CancelToken>,
) -> ConvergenceTrace {
    pfgt_searching(ctx, config, Search::for_weights(config.base.iau), cancel)
}

/// [`pfgt_bounded`] with the candidate search given rather than chosen
/// from the weights (the tests force either).
fn pfgt_searching<'a>(
    ctx: &mut GameContext<'a>,
    config: &PfgtConfig,
    search: Search,
    cancel: Option<&CancelToken>,
) -> ConvergenceTrace {
    let priorities = priorities_of(ctx, config);
    let rivals = |payoffs: &[f64]| PriorityRivals::new(payoffs, &priorities, config.base.iau);
    best_of_restarts(
        ctx,
        &config.base,
        cancel,
        |payoffs| priority_payoff_difference(payoffs, &priorities),
        |trial, seed| play(trial, &config.base, search, Some(seed), cancel, rivals),
    )
}

/// [`pfgt_bounded`] warm-started from a cached strategy profile: the
/// profile is replayed onto `ctx` (invalid entries dropped) and a single
/// priority-aware best-response run continues from there — no random
/// initialisation, no restarts. See [`crate::fgt::fgt_warm_bounded`].
pub fn pfgt_warm_bounded(
    ctx: &mut GameContext<'_>,
    config: &PfgtConfig,
    profile: &[Option<u32>],
    cancel: Option<&CancelToken>,
) -> (ConvergenceTrace, crate::warm::WarmStart) {
    let priorities = priorities_of(ctx, config);
    let warm = crate::warm::warm_init(ctx, profile);
    let rivals = |payoffs: &[f64]| PriorityRivals::new(payoffs, &priorities, config.base.iau);
    let search = Search::for_weights(config.base.iau);
    let trace = play(ctx, &config.base, search, None, cancel, rivals);
    (trace, warm)
}

/// Every worker's priority, in local order.
fn priorities_of(ctx: &GameContext<'_>, config: &PfgtConfig) -> Vec<f64> {
    (0..ctx.n_workers())
        .map(|local| config.priorities.of(ctx.space().worker_id(local)))
        .collect()
}

/// PFGT's rivals: a [`PriorityRivalSet`] in normalised-payoff space drives
/// the utilities and the potential; a raw [`RivalSet`] feeds the trace's
/// unweighted `P_dif` and average, and changes only when a payoff does.
/// The priority IAU perceives inequity on `q = p/ρ` with `ρ > 0`, a
/// strictly increasing map, so the monotone search's soundness argument
/// ([`crate::fgt::fastpath_sound`]) carries over verbatim.
struct PriorityRivals<'p> {
    normalised: PriorityRivalSet,
    raw: RivalSet,
    priorities: &'p [f64],
}

impl<'p> PriorityRivals<'p> {
    fn new(payoffs: &[f64], priorities: &'p [f64], iau: IauParams) -> Self {
        let mut normalised = PriorityRivalSet::new(iau);
        for (&p, &rho) in payoffs.iter().zip(priorities) {
            normalised.insert(p, rho);
        }
        Self {
            normalised,
            raw: RivalSet::with_payoffs(payoffs, iau),
            priorities,
        }
    }
}

impl Rivals for PriorityRivals<'_> {
    const BUILDS: u64 = 2;

    fn remove(&mut self, local: usize, payoff: f64) {
        self.normalised.remove(payoff, self.priorities[local]);
    }

    fn insert(&mut self, local: usize, payoff: f64) {
        self.normalised.insert(payoff, self.priorities[local]);
    }

    fn eval(&self, local: usize, payoff: f64) -> f64 {
        self.normalised.eval(payoff, self.priorities[local])
    }

    fn moved(&mut self, from: f64, to: f64) -> u64 {
        self.raw.remove(from);
        self.raw.insert(to);
        2
    }

    fn summary(&self) -> (f64, f64, f64) {
        (
            self.raw.payoff_difference(),
            self.raw.average(),
            self.normalised.potential(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgt::fgt;
    use crate::random::random_init;
    use fta_core::priority::PriorityIauEvaluator;
    use fta_core::Instance;
    use fta_data::{generate_syn, SynConfig};
    use fta_vdps::{StrategySpace, VdpsConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The reference best response from the random initialisation of
    /// `seed`: a fresh [`PriorityIauEvaluator`] per worker per round,
    /// evaluating every available candidate. With `count_reach` it counts
    /// what the monotone search's passes should: `candidates_scanned` and
    /// `early_exits` by [`crate::fgt::tests::reach_oracle`], two
    /// `evaluator_updates` per turn whose best response differs from the
    /// current selection, and two more per switch that changes the raw
    /// payoff.
    fn rebuild(
        ctx: &mut GameContext<'_>,
        config: &PfgtConfig,
        priorities: &[f64],
        seed: u64,
        count_reach: bool,
    ) -> ConvergenceTrace {
        random_init(ctx, &mut StdRng::seed_from_u64(seed));

        let potential = |payoffs: &[f64]| {
            crate::fgt::iau_potential(
                &fta_core::priority::normalized_payoffs(payoffs, priorities),
                config.base.iau,
            )
        };
        let mut trace = crate::fgt::new_trace(&config.base);
        trace.record(0, 0, ctx.payoffs(), potential(ctx.payoffs()));

        let n = ctx.n_workers();
        for round in 1..=config.base.max_rounds {
            trace.stats.rounds += 1;
            let mut moves = 0;
            for local in 0..n {
                let others: Vec<(f64, f64)> = (0..n)
                    .filter(|&j| j != local)
                    .map(|j| (ctx.payoff(j), priorities[j]))
                    .collect();
                let eval = PriorityIauEvaluator::new(priorities[local], &others, config.base.iau);
                trace.stats.evaluator_builds += 1;

                let current_utility = eval.eval(ctx.payoff(local));
                if count_reach {
                    let (scanned, skipped) = crate::fgt::tests::reach_oracle(ctx, local);
                    trace.stats.candidates_scanned += scanned;
                    trace.stats.early_exits += u64::from(skipped);
                } else {
                    trace.stats.candidates_scanned += ctx.space().strategy_count(local) as u64;
                }
                let mut best: Option<(Option<u32>, f64)> = Some((None, eval.eval(0.0)));
                trace.stats.candidate_evaluations += 2;
                for (idx, payoff) in ctx.available_strategies(local) {
                    let u = eval.eval(payoff);
                    trace.stats.candidate_evaluations += 1;
                    if best.as_ref().is_none_or(|&(_, bu)| u > bu) {
                        best = Some((Some(idx), u));
                    }
                }
                let (choice, utility) = best.expect("null is always a candidate");
                if count_reach && choice != ctx.selection(local) {
                    trace.stats.evaluator_updates += 2;
                }
                if utility > current_utility + config.base.min_improvement
                    && choice != ctx.selection(local)
                {
                    let own = ctx.payoff(local);
                    ctx.set_strategy(local, choice);
                    if count_reach && ctx.payoff(local) != own {
                        trace.stats.evaluator_updates += 2;
                    }
                    moves += 1;
                    trace.stats.switches += 1;
                    if choice.is_none() {
                        trace.stats.null_adoptions += 1;
                    }
                }
            }
            trace.record(round, moves, ctx.payoffs(), potential(ctx.payoffs()));
            if moves == 0 {
                trace.converged = true;
                break;
            }
        }
        trace
    }

    /// Which best-response loop a comparison runs.
    #[derive(Debug, Clone, Copy)]
    enum Loop {
        /// The per-turn rebuild oracle, restarts included.
        Oracle,
        /// The same, counting with `count_reach`.
        ReachOracle,
        /// The production loop with the given candidate search.
        Searching(Search),
    }

    /// Plays PFGT with tiered priorities over `s` on the chosen loop.
    fn play_tiered(s: &StrategySpace, with: Loop) -> (GameContext<'_>, ConvergenceTrace) {
        let config = PfgtConfig {
            priorities: PrioritySpec::ByWorker(tiered),
            ..PfgtConfig::default()
        };
        let mut ctx = GameContext::new(s);
        let trace = match with {
            Loop::Searching(search) => pfgt_searching(&mut ctx, &config, search, None),
            oracle => {
                let count_reach = matches!(oracle, Loop::ReachOracle);
                let priorities = priorities_of(&ctx, &config);
                best_of_restarts(
                    &mut ctx,
                    &config.base,
                    None,
                    |payoffs| priority_payoff_difference(payoffs, &priorities),
                    |trial, seed| rebuild(trial, &config, &priorities, seed, count_reach),
                )
            }
        };
        (ctx, trace)
    }

    const EXHAUSTIVE: Loop = Loop::Searching(Search::Exhaustive);
    const MONOTONE: Loop = Loop::Searching(Search::Monotone);

    fn instance(seed: u64) -> Instance {
        generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers: 10,
                n_tasks: 120,
                n_delivery_points: 20,
                extent: 2.0,
                ..SynConfig::bench_scale()
            },
            seed,
        )
    }

    fn space(inst: &Instance) -> StrategySpace {
        let views = inst.center_views();
        StrategySpace::build(inst, &views[0], &VdpsConfig::unpruned(3))
    }

    fn tiered(worker: WorkerId) -> f64 {
        if worker.0 % 2 == 0 {
            2.0
        } else {
            1.0
        }
    }

    #[test]
    fn uniform_priorities_reproduce_fgt() {
        let inst = instance(1);
        let s = space(&inst);
        let mut a = GameContext::new(&s);
        fgt(&mut a, &FgtConfig::default());
        let mut b = GameContext::new(&s);
        pfgt(&mut b, &PfgtConfig::default());
        assert_eq!(a.to_assignment(), b.to_assignment());
    }

    #[test]
    fn produces_valid_assignments_under_skewed_priorities() {
        let inst = instance(2);
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        let trace = pfgt(
            &mut ctx,
            &PfgtConfig {
                priorities: PrioritySpec::ByWorker(tiered),
                ..PfgtConfig::default()
            },
        );
        assert!(trace.converged);
        assert!(ctx.to_assignment().validate(&inst).is_ok());
    }

    #[test]
    fn pfgt_optimises_priority_fairness_not_plain_fairness() {
        // Averaged over seeds, PFGT under skewed priorities should achieve
        // a lower *priority-aware* payoff difference than plain FGT.
        let mut pfgt_pdiff = 0.0;
        let mut fgt_pdiff = 0.0;
        for seed in 0..6 {
            let inst = instance(100 + seed);
            let s = space(&inst);
            let priorities: Vec<f64> = s.view.workers.iter().map(|&w| tiered(w)).collect();

            let mut f = GameContext::new(&s);
            fgt(&mut f, &FgtConfig::default());
            fgt_pdiff += priority_payoff_difference(f.payoffs(), &priorities);

            let mut p = GameContext::new(&s);
            pfgt(
                &mut p,
                &PfgtConfig {
                    priorities: PrioritySpec::ByWorker(tiered),
                    ..PfgtConfig::default()
                },
            );
            pfgt_pdiff += priority_payoff_difference(p.payoffs(), &priorities);
        }
        assert!(
            pfgt_pdiff <= fgt_pdiff + 1e-9,
            "PFGT priority diff {pfgt_pdiff} > FGT {fgt_pdiff}"
        );
    }

    #[test]
    fn high_priority_workers_earn_more_at_equilibrium() {
        // Averaged over seeds, the mean payoff of priority-2 workers should
        // exceed that of priority-1 workers under PFGT.
        let mut high_total = 0.0;
        let mut low_total = 0.0;
        for seed in 0..8 {
            let inst = instance(200 + seed);
            let s = space(&inst);
            let mut ctx = GameContext::new(&s);
            pfgt(
                &mut ctx,
                &PfgtConfig {
                    priorities: PrioritySpec::ByWorker(tiered),
                    ..PfgtConfig::default()
                },
            );
            for local in 0..ctx.n_workers() {
                if tiered(s.worker_id(local)) > 1.5 {
                    high_total += ctx.payoff(local);
                } else {
                    low_total += ctx.payoff(local);
                }
            }
        }
        assert!(
            high_total > low_total,
            "high-priority workers earned {high_total}, low earned {low_total}"
        );
    }

    #[test]
    fn engines_compute_identical_equilibria_under_priorities() {
        // The rebuild oracle and both searches reach the same equilibrium;
        // the two searches also agree on every round summary and payoff
        // bit.
        for seed in [31, 32, 33, 34] {
            let inst = instance(seed);
            let s = space(&inst);
            let run = |with| {
                let (ctx, trace) = play_tiered(&s, with);
                let payoffs: Vec<u64> = ctx.payoffs().iter().map(|p| p.to_bits()).collect();
                (ctx.to_assignment(), trace, payoffs)
            };
            let (a_asg, a, _) = run(Loop::Oracle);
            let (b_asg, b, b_pay) = run(EXHAUSTIVE);
            let (c_asg, c, c_pay) = run(MONOTONE);
            assert_eq!(a_asg, b_asg, "seed {seed}: assignments diverge");
            assert_eq!(a.len(), b.len(), "seed {seed}: round counts diverge");
            assert_eq!(b_asg, c_asg, "seed {seed}: monotone assignment diverges");
            assert_eq!(b.rounds, c.rounds, "seed {seed}: round summaries diverge");
            assert_eq!(b_pay, c_pay, "seed {seed}: payoffs not bit-identical");
        }
    }

    #[test]
    fn fastpath_respects_priorities_and_counts_its_passes() {
        for seed in [35, 36, 37] {
            let inst = instance(seed);
            let s = space(&inst);
            let run = |with| {
                let (ctx, trace) = play_tiered(&s, with);
                (ctx.to_assignment(), trace)
            };
            let (ex_asg, ex) = run(EXHAUSTIVE);
            let (fast_asg, fast) = run(MONOTONE);
            let (oracle_asg, oracle) = run(Loop::ReachOracle);
            assert_eq!(
                ex_asg, fast_asg,
                "seed {seed}: monotone equilibrium diverges"
            );
            assert_eq!(
                oracle_asg, fast_asg,
                "seed {seed}: oracle equilibrium diverges"
            );
            assert_eq!(
                ex.rounds, fast.rounds,
                "seed {seed}: round summaries diverge"
            );
            assert_eq!(ex.stats.switches, fast.stats.switches);
            assert_eq!(ex.stats.fastpath_rounds, 0);
            assert_eq!(ex.stats.early_exits, 0);
            assert_eq!(
                ex.stats.candidates_scanned,
                ex.stats.rounds * s.total_slots() as u64
            );
            assert_eq!(fast.stats.fastpath_rounds, fast.stats.rounds);
            assert_eq!(fast.stats.rounds, oracle.stats.rounds);
            assert_eq!(
                fast.stats.candidates_scanned,
                oracle.stats.candidates_scanned
            );
            assert_eq!(fast.stats.early_exits, oracle.stats.early_exits);
            assert_eq!(fast.stats.evaluator_updates, oracle.stats.evaluator_updates);
        }
    }

    #[test]
    fn warm_start_from_priority_equilibrium_is_a_no_op() {
        let inst = instance(5);
        let s = space(&inst);
        let cfg = PfgtConfig {
            priorities: PrioritySpec::ByWorker(tiered),
            ..PfgtConfig::default()
        };
        let mut cold = GameContext::new(&s);
        let cold_trace = pfgt(&mut cold, &cfg);
        assert!(cold_trace.converged);
        let profile = crate::warm::profile_of(&cold);

        let mut warm = GameContext::new(&s);
        let (trace, stats) = pfgt_warm_bounded(&mut warm, &cfg, &profile, None);
        assert!(stats.is_complete());
        assert!(trace.converged);
        assert_eq!(trace.stats.switches, 0);
        assert_eq!(warm.to_assignment(), cold.to_assignment());
    }

    #[test]
    fn priority_spec_validates_outputs() {
        fn bad(_: WorkerId) -> f64 {
            -1.0
        }
        let spec = PrioritySpec::ByWorker(bad);
        let result = std::panic::catch_unwind(|| spec.of(WorkerId(0)));
        assert!(result.is_err());
    }
}
