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
use crate::fgt::{BestResponseEngine, FgtConfig};
use crate::random::random_init;
use crate::stats::BestResponseStats;
use crate::trace::ConvergenceTrace;
use fta_core::iau::RivalSet;
use fta_core::priority::{priority_payoff_difference, PriorityRivalSet};
use fta_core::{CancelToken, WorkerId};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    best_of_restarts(ctx, config, cancel, pfgt_once)
}

/// One priority-aware best-response run: `init = Some(seed)` randomly
/// initialises the context first, `None` continues from its selection.
type OnceFn = fn(
    &mut GameContext<'_>,
    &PfgtConfig,
    &[f64],
    Option<u64>,
    Option<&CancelToken>,
) -> ConvergenceTrace;

/// Runs `once` from `restarts + 1` random initialisations and keeps the
/// equilibrium best under the priority-aware FTA objective.
fn best_of_restarts<'a>(
    ctx: &mut GameContext<'a>,
    config: &PfgtConfig,
    cancel: Option<&CancelToken>,
    once: OnceFn,
) -> ConvergenceTrace {
    let priorities: Vec<f64> = (0..ctx.n_workers())
        .map(|local| config.priorities.of(ctx.space().worker_id(local)))
        .collect();

    let mut total_stats = BestResponseStats::default();
    let mut best: Option<(GameContext<'a>, ConvergenceTrace, f64, f64)> = None;
    for attempt in 0..=config.base.restarts {
        let mut trial = GameContext::new(ctx.space());
        let trace = once(
            &mut trial,
            config,
            &priorities,
            Some(config.base.seed.wrapping_add(attempt as u64)),
            cancel,
        );
        let cancelled = trace.cancelled;
        total_stats.merge(&trace.stats);
        let diff = priority_payoff_difference(trial.payoffs(), &priorities);
        let avg = fta_core::fairness::average_payoff(trial.payoffs());
        let improves = best.as_ref().is_none_or(|&(_, _, bd, ba)| {
            diff < bd - 1e-12 || ((diff - bd).abs() <= 1e-12 && avg > ba + 1e-12)
        });
        if improves {
            best = Some((trial, trace, diff, avg));
        }
        if cancelled {
            break;
        }
    }
    let cut_short = cancel.is_some_and(CancelToken::is_cancelled);
    let (winner, mut trace, _, _) = best.expect("at least one attempt always runs");
    *ctx = winner;
    trace.stats = total_stats;
    trace.cancelled = trace.cancelled || cut_short;
    trace
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
    let priorities: Vec<f64> = (0..ctx.n_workers())
        .map(|local| config.priorities.of(ctx.space().worker_id(local)))
        .collect();
    let warm = crate::warm::warm_init(ctx, profile);
    let trace = pfgt_once(ctx, config, &priorities, None, cancel);
    (trace, warm)
}

fn pfgt_once(
    ctx: &mut GameContext<'_>,
    config: &PfgtConfig,
    priorities: &[f64],
    init: Option<u64>,
    cancel: Option<&CancelToken>,
) -> ConvergenceTrace {
    match config.base.engine {
        BestResponseEngine::Incremental => {
            pfgt_once_incremental(ctx, config, priorities, init, cancel)
        }
        BestResponseEngine::FastPath => {
            if crate::fgt::fastpath_sound(config.base.iau) {
                pfgt_once_fastpath(ctx, config, priorities, init, cancel)
            } else {
                // Out of the monotone regime: exhaustive fallback,
                // bit-identical (fastpath_rounds stays 0).
                pfgt_once_incremental(ctx, config, priorities, init, cancel)
            }
        }
    }
}

fn new_trace(config: &PfgtConfig) -> ConvergenceTrace {
    if config.base.snapshot_payoffs {
        ConvergenceTrace::with_snapshots()
    } else {
        ConvergenceTrace::default()
    }
}

/// Incremental engine: one [`PriorityRivalSet`] (normalised-payoff space,
/// for utilities and the potential) plus one raw [`RivalSet`] (for the
/// trace's raw `P_dif` and average) maintained across the whole run.
fn pfgt_once_incremental(
    ctx: &mut GameContext<'_>,
    config: &PfgtConfig,
    priorities: &[f64],
    init: Option<u64>,
    cancel: Option<&CancelToken>,
) -> ConvergenceTrace {
    if let Some(seed) = init {
        let mut rng = StdRng::seed_from_u64(seed);
        random_init(ctx, &mut rng);
    }

    let mut trace = new_trace(config);
    // One engine in normalised-payoff space drives the best responses; a
    // second raw-payoff engine feeds the unweighted trace statistics.
    let mut q_rivals = PriorityRivalSet::new(config.base.iau);
    for (local, &p) in ctx.payoffs().iter().enumerate() {
        q_rivals.insert(p, priorities[local]);
    }
    let mut raw = RivalSet::with_payoffs(ctx.payoffs(), config.base.iau);
    trace.stats.evaluator_builds += 2;

    trace.snapshot(ctx.payoffs());
    trace.record_summary(
        0,
        0,
        raw.payoff_difference(),
        raw.average(),
        q_rivals.potential(),
    );

    let n = ctx.n_workers();
    for round in 1..=config.base.max_rounds {
        trace.stats.rounds += 1;
        let mut moves = 0;
        for (local, &rho) in priorities.iter().enumerate().take(n) {
            let own = ctx.payoff(local);
            q_rivals.remove(own, rho);
            trace.stats.evaluator_updates += 1;

            let current_utility = q_rivals.eval(own, rho);
            trace.stats.candidates_scanned += ctx.space().strategy_count(local) as u64;
            let mut best: Option<(Option<u32>, f64)> = Some((None, q_rivals.eval(0.0, rho)));
            trace.stats.candidate_evaluations += 2;
            for (idx, payoff) in ctx.available_strategies(local) {
                let u = q_rivals.eval(payoff, rho);
                trace.stats.candidate_evaluations += 1;
                if best.as_ref().is_none_or(|&(_, bu)| u > bu) {
                    best = Some((Some(idx), u));
                }
            }
            let (choice, utility) = best.expect("null is always a candidate");
            if utility > current_utility + config.base.min_improvement
                && choice != ctx.selection(local)
            {
                ctx.set_strategy(local, choice);
                moves += 1;
                trace.stats.switches += 1;
                if choice.is_none() {
                    trace.stats.null_adoptions += 1;
                }
            }
            let adopted = ctx.payoff(local);
            q_rivals.insert(adopted, rho);
            trace.stats.evaluator_updates += 1;
            if adopted != own {
                raw.remove(own);
                raw.insert(adopted);
                trace.stats.evaluator_updates += 2;
            }
        }
        trace.snapshot(ctx.payoffs());
        trace.record_summary(
            round,
            moves,
            raw.payoff_difference(),
            raw.average(),
            q_rivals.potential(),
        );
        if moves == 0 {
            trace.converged = true;
            break;
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            trace.cancelled = true;
            break;
        }
    }
    trace
}

/// Monotone fast-path engine for PFGT: identical evaluator maintenance to
/// [`pfgt_once_incremental`] (so traces are bit-identical), but the best
/// response is the highest-payoff available strategy found by one argmax
/// pass over the worker's slots. Soundness: the priority IAU
/// perceives inequity on the normalised payoffs `q = p/ρ` with `ρ > 0`, a
/// strictly increasing map, so the monotonicity argument of
/// [`crate::fgt::fastpath_sound`] carries over verbatim for `β < 1`,
/// `α ≥ 0`.
fn pfgt_once_fastpath(
    ctx: &mut GameContext<'_>,
    config: &PfgtConfig,
    priorities: &[f64],
    init: Option<u64>,
    cancel: Option<&CancelToken>,
) -> ConvergenceTrace {
    debug_assert!(crate::fgt::fastpath_sound(config.base.iau));
    if let Some(seed) = init {
        let mut rng = StdRng::seed_from_u64(seed);
        random_init(ctx, &mut rng);
    }

    let mut trace = new_trace(config);
    let mut q_rivals = PriorityRivalSet::new(config.base.iau);
    for (local, &p) in ctx.payoffs().iter().enumerate() {
        q_rivals.insert(p, priorities[local]);
    }
    let mut raw = RivalSet::with_payoffs(ctx.payoffs(), config.base.iau);
    trace.stats.evaluator_builds += 2;

    trace.snapshot(ctx.payoffs());
    trace.record_summary(
        0,
        0,
        raw.payoff_difference(),
        raw.average(),
        q_rivals.potential(),
    );

    let n = ctx.n_workers();
    for round in 1..=config.base.max_rounds {
        trace.stats.rounds += 1;
        trace.stats.fastpath_rounds += 1;
        let mut moves = 0;
        for (local, &rho) in priorities.iter().enumerate().take(n) {
            let own = ctx.payoff(local);
            q_rivals.remove(own, rho);
            trace.stats.evaluator_updates += 1;

            let current_utility = q_rivals.eval(own, rho);
            let (found, scan) = ctx.best_available(local);
            trace.stats.candidates_scanned += scan.scanned;
            if scan.early_exit {
                trace.stats.early_exits += 1;
            }
            let (choice, utility) = match found {
                Some((idx, payoff)) if payoff > 0.0 => (Some(idx), q_rivals.eval(payoff, rho)),
                _ => (None, q_rivals.eval(0.0, rho)),
            };
            trace.stats.candidate_evaluations += 2;
            if utility > current_utility + config.base.min_improvement
                && choice != ctx.selection(local)
            {
                ctx.set_strategy(local, choice);
                moves += 1;
                trace.stats.switches += 1;
                if choice.is_none() {
                    trace.stats.null_adoptions += 1;
                }
            }
            let adopted = ctx.payoff(local);
            q_rivals.insert(adopted, rho);
            trace.stats.evaluator_updates += 1;
            if adopted != own {
                raw.remove(own);
                raw.insert(adopted);
                trace.stats.evaluator_updates += 2;
            }
        }
        trace.snapshot(ctx.payoffs());
        trace.record_summary(
            round,
            moves,
            raw.payoff_difference(),
            raw.average(),
            q_rivals.potential(),
        );
        if moves == 0 {
            trace.converged = true;
            break;
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            trace.cancelled = true;
            break;
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgt::fgt;
    use fta_core::priority::PriorityIauEvaluator;
    use fta_core::Instance;
    use fta_data::{generate_syn, SynConfig};
    use fta_vdps::{StrategySpace, VdpsConfig};

    /// The reference best response: a fresh [`PriorityIauEvaluator`] per
    /// worker per round, evaluating every available candidate.
    fn pfgt_once_rebuild(
        ctx: &mut GameContext<'_>,
        config: &PfgtConfig,
        priorities: &[f64],
        init: Option<u64>,
        cancel: Option<&CancelToken>,
    ) -> ConvergenceTrace {
        if let Some(seed) = init {
            let mut rng = StdRng::seed_from_u64(seed);
            random_init(ctx, &mut rng);
        }

        let potential = |payoffs: &[f64]| {
            crate::fgt::iau_potential(
                &fta_core::priority::normalized_payoffs(payoffs, priorities),
                config.base.iau,
            )
        };
        let mut trace = new_trace(config);
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
                trace.stats.candidates_scanned += ctx.space().strategy_count(local) as u64;
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
                if utility > current_utility + config.base.min_improvement
                    && choice != ctx.selection(local)
                {
                    ctx.set_strategy(local, choice);
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
            if cancel.is_some_and(CancelToken::is_cancelled) {
                trace.cancelled = true;
                break;
            }
        }
        trace
    }

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
        use crate::fgt::BestResponseEngine;
        for seed in [31, 32, 33, 34] {
            let inst = instance(seed);
            let s = space(&inst);
            // `None` plays the rebuild oracle, restarts included.
            let run = |engine: Option<BestResponseEngine>| {
                let mut ctx = GameContext::new(&s);
                let config = PfgtConfig {
                    base: FgtConfig {
                        engine: engine.unwrap_or_default(),
                        ..FgtConfig::default()
                    },
                    priorities: PrioritySpec::ByWorker(tiered),
                };
                let trace = match engine {
                    Some(_) => pfgt(&mut ctx, &config),
                    None => best_of_restarts(&mut ctx, &config, None, pfgt_once_rebuild),
                };
                (ctx.to_assignment(), trace.len())
            };
            let (a_asg, a_len) = run(None);
            let (b_asg, b_len) = run(Some(BestResponseEngine::Incremental));
            let (c_asg, c_len) = run(Some(BestResponseEngine::FastPath));
            assert_eq!(a_asg, b_asg, "seed {seed}: assignments diverge");
            assert_eq!(a_len, b_len, "seed {seed}: round counts diverge");
            assert_eq!(b_asg, c_asg, "seed {seed}: fastpath assignment diverges");
            assert_eq!(b_len, c_len, "seed {seed}: fastpath round count diverges");
        }
    }

    #[test]
    fn fastpath_respects_priorities_and_scans_less() {
        use crate::fgt::BestResponseEngine;
        let inst = instance(35);
        let s = space(&inst);
        let run = |engine| {
            let mut ctx = GameContext::new(&s);
            let trace = pfgt(
                &mut ctx,
                &PfgtConfig {
                    base: FgtConfig {
                        engine,
                        ..FgtConfig::default()
                    },
                    priorities: PrioritySpec::ByWorker(tiered),
                },
            );
            (ctx.to_assignment(), trace)
        };
        let (inc_asg, inc) = run(BestResponseEngine::Incremental);
        let (fast_asg, fast) = run(BestResponseEngine::FastPath);
        assert_eq!(inc_asg, fast_asg, "fastpath equilibrium diverges");
        assert_eq!(inc.stats.rounds, fast.stats.rounds);
        assert_eq!(inc.stats.switches, fast.stats.switches);
        assert_eq!(inc.stats.fastpath_rounds, 0);
        assert_eq!(fast.stats.fastpath_rounds, fast.stats.rounds);
        assert!(
            fast.stats.candidates_scanned > 0
                && fast.stats.candidates_scanned < inc.stats.candidates_scanned,
            "fastpath scanned {} vs exhaustive {}",
            fast.stats.candidates_scanned,
            inc.stats.candidates_scanned
        );
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
