//! IEGT — the Improved Evolutionary Game-Theoretic approach (Algorithm 3).
//!
//! Workers of one distribution center form a population that repeatedly
//! plays the assignment game. Utilities are raw payoffs (Section VI-B).
//! Each round evaluates the replicator dynamics (Equation 11): a worker's
//! population share grows or shrinks with the sign of `U_i − Ū`, so a
//! worker whose payoff is below the population average (`σ̇ < 0`) must
//! *evolve* — redraw another available strategy with a strictly higher
//! payoff — or keep being outcompeted. The run stops at an improved
//! evolutionary equilibrium: either all replicator derivatives vanish
//! (equal payoffs) or a whole round passes with no strategy change
//! (Algorithm 3, line 27).

use crate::context::GameContext;
use crate::fgt::BestResponseEngine;
use crate::random::{random_init, random_init_nulls};
use crate::trace::ConvergenceTrace;
use fta_core::iau::{IauParams, RivalSet};
use fta_core::CancelToken;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How a below-average worker picks among its strictly better available
/// strategies. The paper specifies a uniformly random pick; the other
/// policies are ablations (see the `ablation` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RedrawPolicy {
    /// Uniformly random among strictly better strategies (the paper's
    /// Algorithm 3, line 24).
    #[default]
    UniformBetter,
    /// The *smallest* strict improvement — a cautious evolution step that
    /// avoids overshooting the population average.
    MinimalBetter,
    /// The best available strategy (degenerates towards greedy behaviour).
    BestAvailable,
}

/// Configuration of the IEGT run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IegtConfig {
    /// Cap on evolution rounds.
    pub max_rounds: usize,
    /// Seed for the initialisation and the random redraws.
    pub seed: u64,
    /// Redraw policy for below-average workers.
    pub redraw: RedrawPolicy,
    /// Tolerance under which payoffs count as "equal to the average" when
    /// testing the `σ̇ = 0` rest point.
    pub equality_tolerance: f64,
    /// Candidate-enumeration engine for the evolution loop. IEGT's
    /// utilities are raw payoffs — trivially strictly increasing in the
    /// own payoff — so [`BestResponseEngine::FastPath`] is always sound
    /// here: the strictly-better candidate set is one `p > threshold`
    /// filter over the open slots, with no utility evaluation.
    /// [`BestResponseEngine::Incremental`] runs the classic full-list
    /// filter.
    pub engine: BestResponseEngine,
}

impl Default for IegtConfig {
    fn default() -> Self {
        Self {
            max_rounds: 500,
            seed: 0x4945_4754, // "IEGT"
            redraw: RedrawPolicy::UniformBetter,
            equality_tolerance: 1e-9,
            engine: BestResponseEngine::default(),
        }
    }
}

impl IegtConfig {
    /// Scale-aware slack under which a payoff counts as "at the average"
    /// in the `σ̇ = 0` rest-point test: `equality_tolerance` is applied
    /// *relative* to the average's magnitude (with an absolute floor of
    /// `equality_tolerance` itself near zero), so the test behaves the same
    /// whether payoffs are measured in cents or in thousands.
    #[must_use]
    pub fn rest_slack(&self, average: f64) -> f64 {
        self.equality_tolerance * average.abs().max(1.0)
    }

    /// Scale-aware minimal margin by which a candidate payoff must exceed
    /// the current one to count as a *strict* improvement. The previous
    /// implementation used the absolute constant `f64::EPSILON`
    /// (≈2.2e-16), which vanishes relative to rounding error once payoffs
    /// grow past O(1) and over-filters when they are tiny; deriving the
    /// margin from [`IegtConfig::equality_tolerance`] keeps the two
    /// equality notions of the algorithm consistent at every scale.
    #[must_use]
    pub fn improvement_threshold(&self, current: f64) -> f64 {
        self.equality_tolerance * current.abs().max(1.0)
    }
}

/// Runs IEGT on a fresh context; returns the convergence trace. The final
/// selection (an improved evolutionary equilibrium unless the round cap was
/// hit) is left in `ctx`.
pub fn iegt(ctx: &mut GameContext<'_>, config: &IegtConfig) -> ConvergenceTrace {
    iegt_bounded(ctx, config, None)
}

/// [`iegt`] under cooperative cancellation: the replicator loop checks
/// `cancel` once per round and stops early (with the trace marked
/// [`ConvergenceTrace::cancelled`]) when it trips. The population state
/// reached so far is kept — it is always a valid partial assignment.
/// `cancel = None` is bit-identical to [`iegt`].
pub fn iegt_bounded(
    ctx: &mut GameContext<'_>,
    config: &IegtConfig,
    cancel: Option<&CancelToken>,
) -> ConvergenceTrace {
    iegt_run(ctx, config, cancel, true)
}

/// [`iegt_bounded`] warm-started from a cached strategy profile: the
/// profile is replayed onto `ctx` (invalid entries dropped), every worker
/// the replay left on the null strategy gets the cold path's random
/// single-dp start, and the evolution runs from there. The rng stream is
/// seeded identically to the cold path. See
/// [`crate::fgt::fgt_warm_bounded`].
///
/// The random start for the nulls is what keeps a warm start from
/// stalling: with every worker on null the population average is 0, so
/// everyone counts as "at rest" and the loop would stop in round 1 with
/// nothing assigned. A null worker at an equilibrium has no available
/// strategy paying more than the improvement margin, so replaying an
/// equilibrium still moves nobody.
pub fn iegt_warm_bounded(
    ctx: &mut GameContext<'_>,
    config: &IegtConfig,
    profile: &[Option<u32>],
    cancel: Option<&CancelToken>,
) -> (ConvergenceTrace, crate::warm::WarmStart) {
    let warm = crate::warm::warm_init(ctx, profile);
    let trace = iegt_run(ctx, config, cancel, false);
    (trace, warm)
}

fn iegt_run(
    ctx: &mut GameContext<'_>,
    config: &IegtConfig,
    cancel: Option<&CancelToken>,
    init: bool,
) -> ConvergenceTrace {
    // The rng also drives the uniform redraws, so it exists on both paths;
    // a warm start only initialises the workers its replay left on null.
    let mut rng = StdRng::seed_from_u64(config.seed);
    if init {
        random_init(ctx, &mut rng);
    } else {
        random_init_nulls(ctx, &mut rng);
    }

    let mut trace = ConvergenceTrace::default();
    // IEGT does not evaluate IAU, but the incremental rival engine still
    // pays off: it keeps the population total/average and the fairness
    // metric current in O(1) per read instead of O(n) / O(n log n) scans
    // per round. (The IAU weights inside are irrelevant here.)
    let mut population = RivalSet::with_payoffs(ctx.payoffs(), IauParams::default());
    trace.stats.evaluator_builds += 1;
    trace.record_summary(
        0,
        0,
        population.payoff_difference(),
        population.average(),
        population.total(),
    );

    // The fast path is always sound for IEGT (raw payoffs); the
    // incremental engine runs the classic full-list filter. Both branches
    // produce the same `better` set in the same (ascending pool-index)
    // order, so the redraw — including the rng stream — is
    // engine-invariant.
    let fastpath = config.engine == BestResponseEngine::FastPath;
    let mut better: Vec<(u32, f64)> = Vec::new();
    let n = ctx.n_workers();
    for round in 1..=config.max_rounds {
        trace.stats.rounds += 1;
        if fastpath {
            trace.stats.fastpath_rounds += 1;
        }
        let average = population.average();
        let mut moves = 0;
        let mut all_at_rest = true;
        for local in 0..n {
            let current = ctx.payoff(local);
            // Replicator dynamics sign: σ̇ = σ (U_i − Ū); σ > 0 for a
            // strategy in play, so σ̇ < 0 ⇔ U_i < Ū.
            if current >= average - config.rest_slack(average) {
                continue;
            }
            all_at_rest = false;
            let margin = config.improvement_threshold(current);
            let threshold = current + margin;
            if fastpath {
                let scan = ctx.better_available(local, threshold, &mut better);
                trace.stats.candidates_scanned += scan.scanned;
                if scan.early_exit {
                    trace.stats.early_exits += 1;
                }
            } else {
                better.clear();
                trace.stats.candidates_scanned += ctx.space().strategy_count(local) as u64;
                for (idx, p) in ctx.available_strategies(local) {
                    trace.stats.candidate_evaluations += 1;
                    if p > threshold {
                        better.push((idx, p));
                    }
                }
            }
            let choice = match config.redraw {
                RedrawPolicy::UniformBetter => better.choose(&mut rng).copied(),
                RedrawPolicy::MinimalBetter => {
                    better.iter().copied().min_by(|a, b| a.1.total_cmp(&b.1))
                }
                RedrawPolicy::BestAvailable => {
                    better.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1))
                }
            };
            if let Some((idx, _)) = choice {
                ctx.set_strategy(local, Some(idx));
                population.remove(current);
                population.insert(ctx.payoff(local));
                trace.stats.evaluator_updates += 2;
                moves += 1;
                trace.stats.switches += 1;
            }
        }
        trace.record_summary(
            round,
            moves,
            population.payoff_difference(),
            population.average(),
            population.total(),
        );
        // Termination (Algorithm 3 line 27): σ̇ = 0 for the whole
        // population, or no worker changed strategy this round.
        if all_at_rest || moves == 0 {
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
    use fta_core::Instance;
    use fta_data::{generate_syn, SynConfig};
    use fta_vdps::{StrategySpace, VdpsConfig};

    fn instance(seed: u64) -> Instance {
        generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers: 12,
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

    #[test]
    fn reaches_an_improved_evolutionary_equilibrium() {
        let inst = instance(1);
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        let cfg = IegtConfig::default();
        let trace = iegt(&mut ctx, &cfg);
        assert!(trace.converged, "IEGT did not converge");
        // At rest, every below-average worker has no strictly better
        // available strategy.
        let average = ctx.total_payoff() / ctx.n_workers() as f64;
        for local in 0..ctx.n_workers() {
            let current = ctx.payoff(local);
            if current < average - cfg.rest_slack(average) {
                let improvable = ctx
                    .available_strategies(local)
                    .any(|(_, p)| p > current + cfg.improvement_threshold(current));
                assert!(
                    !improvable,
                    "worker {local} is below average but could still evolve"
                );
            }
        }
    }

    #[test]
    fn improvement_threshold_scales_with_payoff_magnitude() {
        // Regression: the strict-improvement filter used the absolute
        // constant `f64::EPSILON`, which is meaningless both for payoffs in
        // the thousands (any rounding noise passes as an "improvement") and
        // near zero. The threshold must track the payoff scale.
        let cfg = IegtConfig::default();
        // Large payoffs: a 1-ulp "improvement" of 4096.0 must NOT pass.
        let current = 4096.0_f64;
        let one_ulp_up = f64::from_bits(current.to_bits() + 1);
        assert!(one_ulp_up - current > f64::EPSILON); // old filter admitted it
        assert!(one_ulp_up <= current + cfg.improvement_threshold(current));
        // Genuine improvements still pass at every scale.
        assert!(current + 0.01 > current + cfg.improvement_threshold(current));
        assert!(0.02_f64 > 0.01 + cfg.improvement_threshold(0.01));
        // The slack grows with magnitude but keeps an absolute floor.
        assert!(cfg.improvement_threshold(1e6) > cfg.improvement_threshold(1.0));
        assert_eq!(
            cfg.improvement_threshold(0.0),
            cfg.equality_tolerance,
            "floor near zero"
        );
        assert_eq!(cfg.rest_slack(0.0), cfg.equality_tolerance);
    }

    #[test]
    fn iegt_records_work_counters() {
        let inst = instance(6);
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        let trace = iegt(&mut ctx, &IegtConfig::default());
        assert_eq!(trace.stats.rounds as usize + 1, trace.len());
        assert_eq!(trace.stats.evaluator_builds, 1);
        assert_eq!(trace.stats.switches, trace.stats.evaluator_updates / 2);
        assert_eq!(
            trace.stats.switches as usize,
            trace.rounds.iter().map(|r| r.moves).sum::<usize>()
        );
    }

    #[test]
    fn produces_valid_assignment() {
        let inst = instance(2);
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        iegt(&mut ctx, &IegtConfig::default());
        assert!(ctx.to_assignment().validate(&inst).is_ok());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let inst = instance(3);
        let s = space(&inst);
        let run = || {
            let mut ctx = GameContext::new(&s);
            let trace = iegt(&mut ctx, &IegtConfig::default());
            (ctx.to_assignment(), trace.len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn payoffs_never_degrade_during_evolution() {
        // Workers only ever redraw strictly better strategies, so the total
        // payoff is non-decreasing round over round.
        let inst = instance(4);
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        let trace = iegt(&mut ctx, &IegtConfig::default());
        for pair in trace.rounds.windows(2) {
            assert!(
                pair[1].potential >= pair[0].potential - 1e-9,
                "total payoff regressed: {pair:?}"
            );
        }
    }

    #[test]
    fn redraw_policies_all_converge() {
        let inst = instance(5);
        let s = space(&inst);
        for policy in [
            RedrawPolicy::UniformBetter,
            RedrawPolicy::MinimalBetter,
            RedrawPolicy::BestAvailable,
        ] {
            let mut ctx = GameContext::new(&s);
            let trace = iegt(
                &mut ctx,
                &IegtConfig {
                    redraw: policy,
                    ..IegtConfig::default()
                },
            );
            assert!(trace.converged, "{policy:?} did not converge");
            assert!(ctx.to_assignment().validate(&inst).is_ok());
        }
    }

    #[test]
    fn fastpath_matches_incremental_evolution_exactly() {
        // IEGT evolves on raw payoffs, so the monotone fast path is always
        // sound. The fast filter collects *exactly* the candidates the
        // exhaustive filter admits (same threshold float, same ascending
        // order), so the shared rng stream draws the same redraws and the
        // evolution is bit-identical.
        for seed in [41, 42, 43] {
            let inst = instance(seed);
            let s = space(&inst);
            let run = |engine| {
                let mut ctx = GameContext::new(&s);
                let trace = iegt(
                    &mut ctx,
                    &IegtConfig {
                        engine,
                        ..IegtConfig::default()
                    },
                );
                (ctx.to_assignment(), ctx.total_payoff().to_bits(), trace)
            };
            let (inc_asg, inc_bits, inc) = run(BestResponseEngine::Incremental);
            let (fast_asg, fast_bits, fast) = run(BestResponseEngine::FastPath);
            assert_eq!(inc_asg, fast_asg, "seed {seed}: assignments diverge");
            assert_eq!(inc_bits, fast_bits, "seed {seed}: payoffs diverge");
            assert_eq!(inc.len(), fast.len(), "seed {seed}: round counts diverge");
            assert_eq!(inc.stats.switches, fast.stats.switches);
            assert_eq!(inc.stats.fastpath_rounds, 0);
            assert_eq!(fast.stats.fastpath_rounds, fast.stats.rounds);
            assert!(
                fast.stats.candidates_scanned <= inc.stats.candidates_scanned,
                "seed {seed}: fastpath scanned {} vs exhaustive {}",
                fast.stats.candidates_scanned,
                inc.stats.candidates_scanned
            );
        }
    }

    #[test]
    fn warm_start_from_evolutionary_equilibrium_is_a_no_op() {
        for seed in [7, 8] {
            let inst = instance(seed);
            let s = space(&inst);
            let mut cold = GameContext::new(&s);
            let cold_trace = iegt(&mut cold, &IegtConfig::default());
            assert!(cold_trace.converged);
            let profile = crate::warm::profile_of(&cold);

            let mut warm = GameContext::new(&s);
            let (trace, stats) =
                iegt_warm_bounded(&mut warm, &IegtConfig::default(), &profile, None);
            assert!(stats.is_complete(), "seed {seed}: replay rejected entries");
            assert!(trace.converged, "seed {seed}: warm run did not converge");
            assert_eq!(trace.stats.switches, 0, "seed {seed}: equilibrium moved");
            assert_eq!(warm.to_assignment(), cold.to_assignment());
        }
    }

    #[test]
    fn warm_start_from_an_all_null_profile_assigns_someone() {
        // Every cached strategy vanished: the replay leaves the whole
        // population on null, and the warm run must still start the
        // evolution instead of calling the all-zero population at rest.
        for seed in [9, 10] {
            let inst = instance(seed);
            let s = space(&inst);
            let profile = vec![None; s.n_workers()];
            let mut warm = GameContext::new(&s);
            let (trace, stats) =
                iegt_warm_bounded(&mut warm, &IegtConfig::default(), &profile, None);
            assert_eq!(stats.adopted, 0);
            assert!(trace.converged, "seed {seed}: warm run did not converge");
            let assigned = warm.to_assignment().assigned_workers();
            assert!(assigned > 0, "seed {seed}: nobody was assigned");
            assert!(warm.to_assignment().validate(&inst).is_ok());
        }
    }

    #[test]
    fn iegt_is_fairer_than_greedy_on_average() {
        // The paper's headline result: IEGT's payoff difference is a small
        // fraction of GTA's (Figures 4–9). Check the direction across seeds.
        let mut iegt_total = 0.0;
        let mut gta_total = 0.0;
        for seed in 0..6 {
            let inst = instance(200 + seed);
            let s = space(&inst);
            let ws = s.view.workers.clone();

            let mut g = GameContext::new(&s);
            crate::gta::gta(&mut g);
            gta_total += g.to_assignment().fairness(&inst, &ws).payoff_difference;

            let mut e = GameContext::new(&s);
            iegt(&mut e, &IegtConfig::default());
            iegt_total += e.to_assignment().fairness(&inst, &ws).payoff_difference;
        }
        assert!(
            iegt_total < gta_total,
            "IEGT mean diff {iegt_total} vs GTA {gta_total}"
        );
    }
}
