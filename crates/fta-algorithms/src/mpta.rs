//! MPTA — Maximal Payoff Task Assignment (baseline i of Section VII-A).
//!
//! The paper's MPTA identifies the assignment with maximal *total* payoff
//! using a tree-decomposition technique from external references [30, 31].
//! Those papers' algorithm is not specified here, so this module substitutes
//! an anytime maximiser with the same role in the evaluation — "the
//! highest-average-payoff, most expensive, least fair baseline":
//!
//! 1. greedy seeding (GTA);
//! 2. payoff best-response hill climbing: workers take turns switching to
//!    their maximum-payoff available strategy — because one worker's payoff
//!    does not depend on *which* strategies others play (only on which
//!    delivery points remain free), every switch strictly increases the
//!    total payoff, so the climb terminates at a local maximum;
//! 3. optionally several randomised restarts, keeping the best total.
//!
//! On small instances [`crate::exact::exact_search`] certifies how close
//! the climb gets; the integration tests do exactly that.

use crate::context::GameContext;
use crate::gta::gta;
use crate::random::random_assignment;

/// Configuration of the MPTA heuristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MptaConfig {
    /// Number of randomised restarts in addition to the greedy seed.
    pub restarts: usize,
    /// Cap on best-response rounds per climb.
    pub max_rounds: usize,
    /// Seed for the randomised restarts.
    pub seed: u64,
    /// Cap on eject-and-reassign improvement passes. Each pass tentatively
    /// releases one worker's delivery points and lets everyone re-optimise,
    /// escaping the "one worker blocks a better packing" local maxima that
    /// unilateral moves cannot leave. This is the expensive part that makes
    /// MPTA the slowest algorithm, mirroring the paper's CPU-time panels.
    pub eject_passes: usize,
}

impl Default for MptaConfig {
    fn default() -> Self {
        Self {
            restarts: 2,
            max_rounds: 100,
            seed: 0x4d50_5441, // "MPTA"
            eject_passes: 3,
        }
    }
}

/// Runs MPTA on a fresh context, leaving the best-found selection in `ctx`.
pub fn mpta<'a>(ctx: &mut GameContext<'a>, config: &MptaConfig) {
    // Climb from the greedy seed.
    gta(ctx);
    climb(ctx, config.max_rounds);
    eject_improve(ctx, config);
    let mut best: GameContext<'a> = ctx.clone();

    // Randomised restarts.
    for r in 0..config.restarts {
        let mut trial = GameContext::new(ctx.space());
        random_assignment(&mut trial, config.seed.wrapping_add(r as u64));
        climb(&mut trial, config.max_rounds);
        eject_improve(&mut trial, config);
        if trial.total_payoff() > best.total_payoff() {
            best = trial;
        }
    }
    *ctx = best;
}

/// Eject-and-reassign passes: for each worker in turn, tentatively drop its
/// strategy, let the whole population re-climb, and keep the result only if
/// the total payoff strictly improved.
fn eject_improve(ctx: &mut GameContext<'_>, config: &MptaConfig) {
    for _ in 0..config.eject_passes {
        let mut improved = false;
        for local in 0..ctx.n_workers() {
            if ctx.selection(local).is_none() {
                continue;
            }
            let snapshot = ctx.clone();
            let base = ctx.total_payoff();
            ctx.set_strategy(local, None);
            climb(ctx, config.max_rounds);
            if ctx.total_payoff() > base + 1e-9 {
                improved = true;
            } else {
                *ctx = snapshot;
            }
        }
        if !improved {
            break;
        }
    }
}

/// Payoff best-response rounds until no worker can strictly improve.
fn climb(ctx: &mut GameContext<'_>, max_rounds: usize) {
    for _ in 0..max_rounds {
        let mut moved = false;
        for local in 0..ctx.n_workers() {
            let current = ctx.payoff(local);
            let best = ctx.max_available(local);
            if let Some((idx, payoff)) = best {
                if payoff > current + 1e-12 {
                    ctx.set_strategy(local, Some(idx));
                    moved = true;
                }
            }
        }
        if !moved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fta_core::Instance;
    use fta_data::{generate_syn, SynConfig};
    use fta_vdps::{StrategySpace, VdpsConfig};

    fn small_instance(seed: u64) -> Instance {
        generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers: 10,
                n_tasks: 90,
                n_delivery_points: 16,
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
    fn mpta_never_loses_to_gta_on_total_payoff() {
        for seed in 0..5 {
            let inst = small_instance(seed);
            let s = space(&inst);
            let mut greedy = GameContext::new(&s);
            gta(&mut greedy);
            let mut maximal = GameContext::new(&s);
            mpta(&mut maximal, &MptaConfig::default());
            assert!(
                maximal.total_payoff() >= greedy.total_payoff() - 1e-9,
                "seed {seed}: {} < {}",
                maximal.total_payoff(),
                greedy.total_payoff()
            );
        }
    }

    #[test]
    fn result_is_a_valid_assignment() {
        let inst = small_instance(11);
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        mpta(&mut ctx, &MptaConfig::default());
        assert!(ctx.to_assignment().validate(&inst).is_ok());
    }

    #[test]
    fn climb_reaches_payoff_local_maximum() {
        let inst = small_instance(23);
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        mpta(&mut ctx, &MptaConfig::default());
        for local in 0..ctx.n_workers() {
            let current = ctx.payoff(local);
            for (_, payoff) in ctx.available_strategies(local) {
                assert!(payoff <= current + 1e-9);
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_config() {
        let inst = small_instance(31);
        let s = space(&inst);
        let run = || {
            let mut ctx = GameContext::new(&s);
            mpta(&mut ctx, &MptaConfig::default());
            ctx.to_assignment()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_restarts_and_ejects_equals_pure_climb() {
        let inst = small_instance(41);
        let s = space(&inst);
        let cfg = MptaConfig {
            restarts: 0,
            eject_passes: 0,
            ..MptaConfig::default()
        };
        let mut a = GameContext::new(&s);
        mpta(&mut a, &cfg);
        let mut b = GameContext::new(&s);
        gta(&mut b);
        climb(&mut b, cfg.max_rounds);
        assert_eq!(a.to_assignment(), b.to_assignment());
    }

    #[test]
    fn eject_passes_never_hurt_total_payoff() {
        for seed in 50..55 {
            let inst = small_instance(seed);
            let s = space(&inst);
            let without = {
                let mut c = GameContext::new(&s);
                mpta(
                    &mut c,
                    &MptaConfig {
                        eject_passes: 0,
                        ..MptaConfig::default()
                    },
                );
                c.total_payoff()
            };
            let with = {
                let mut c = GameContext::new(&s);
                mpta(&mut c, &MptaConfig::default());
                c.total_payoff()
            };
            assert!(
                with >= without - 1e-9,
                "seed {seed}: eject passes reduced total payoff {without} → {with}"
            );
        }
    }
}
