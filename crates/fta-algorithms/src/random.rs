//! Random assignment and the shared random initialisation of the games.
//!
//! Algorithms 2 and 3 both start by randomly assigning each worker one
//! single-delivery-point VDPS (lines 6–16), removing it from everyone
//! else's strategy space; [`random_init`] implements exactly that.
//! [`random_assignment`] is a pure baseline that gives every worker a
//! uniformly random available strategy of any size.

use crate::context::GameContext;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Random initialisation of a game (Algorithm 2 lines 6–16): every worker,
/// in local order, receives a uniformly random *available*
/// single-delivery-point VDPS, or the null strategy if none remains.
pub fn random_init(ctx: &mut GameContext<'_>, rng: &mut StdRng) {
    for local in 0..ctx.n_workers() {
        random_single(ctx, local, rng);
    }
}

/// The same initialisation for a warm start: only the workers still on the
/// null strategy after a cached profile was replayed draw, in local order,
/// from the same kind of rng stream as [`random_init`]; the others keep
/// their replayed strategy.
pub(crate) fn random_init_nulls(ctx: &mut GameContext<'_>, rng: &mut StdRng) {
    for local in 0..ctx.n_workers() {
        if ctx.selection(local).is_none() {
            random_single(ctx, local, rng);
        }
    }
}

/// Gives the `local`-th worker a uniformly random available
/// single-delivery-point VDPS, or the null strategy if none remains.
fn random_single(ctx: &mut GameContext<'_>, local: usize, rng: &mut StdRng) {
    let mut singles = ctx.available_of_len(local, 1);
    singles.sort_unstable();
    let choice = singles.choose(rng).copied();
    ctx.set_strategy(local, choice);
}

/// Random baseline: every worker, in a random order, receives a uniformly
/// random available strategy (of any size), or null if none remains.
pub fn random_assignment(ctx: &mut GameContext<'_>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..ctx.n_workers()).collect();
    order.shuffle(&mut rng);
    for local in order {
        let options: Vec<u32> = ctx
            .available_strategies(local)
            .map(|(idx, _)| idx)
            .collect();
        if options.is_empty() {
            ctx.set_strategy(local, None);
        } else {
            let pick = options[rng.gen_range(0..options.len())];
            ctx.set_strategy(local, Some(pick));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fta_core::Instance;
    use fta_data::{generate_syn, SynConfig};
    use fta_vdps::{StrategySpace, VdpsConfig};

    fn small_instance() -> Instance {
        generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers: 10,
                n_tasks: 120,
                n_delivery_points: 20,
                extent: 2.0,
                ..SynConfig::bench_scale()
            },
            17,
        )
    }

    fn space(inst: &Instance) -> StrategySpace {
        let views = inst.center_views();
        StrategySpace::build(inst, &views[0], &VdpsConfig::pruned(1.0, 3))
    }

    #[test]
    fn random_init_assigns_disjoint_singletons() {
        let inst = small_instance();
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        let mut rng = StdRng::seed_from_u64(1);
        random_init(&mut ctx, &mut rng);
        for local in 0..ctx.n_workers() {
            if let Some(idx) = ctx.selection(local) {
                assert_eq!(s.pool.row_len(idx as usize), 1, "init must use singletons");
            }
        }
        let a = ctx.to_assignment();
        assert!(a.validate(&inst).is_ok());
    }

    #[test]
    fn random_init_is_deterministic_per_seed() {
        let inst = small_instance();
        let s = space(&inst);
        let run = |seed| {
            let mut ctx = GameContext::new(&s);
            let mut rng = StdRng::seed_from_u64(seed);
            random_init(&mut ctx, &mut rng);
            (0..ctx.n_workers())
                .map(|l| ctx.selection(l))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn random_assignment_is_valid_and_seeded() {
        let inst = small_instance();
        let s = space(&inst);
        let mut a_ctx = GameContext::new(&s);
        random_assignment(&mut a_ctx, 9);
        let a = a_ctx.to_assignment();
        assert!(a.validate(&inst).is_ok());

        let mut b_ctx = GameContext::new(&s);
        random_assignment(&mut b_ctx, 9);
        assert_eq!(a, b_ctx.to_assignment());
    }

    #[test]
    fn random_assignment_uses_multi_dp_strategies() {
        // With any-size strategies allowed, at least one seed must produce
        // a route longer than one delivery point on a dense instance.
        let inst = small_instance();
        let s = space(&inst);
        let found = (0..20).any(|seed| {
            let mut ctx = GameContext::new(&s);
            random_assignment(&mut ctx, seed);
            ctx.to_assignment().iter().any(|(_, r)| r.len() > 1)
        });
        assert!(found, "no multi-dp strategy chosen across 20 seeds");
    }
}
