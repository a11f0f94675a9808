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
use rand::{Rng, RngCore, SeedableRng};

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
///
/// The worker's open singles are a point mask, one bit each; the draw is
/// its popcount `k`, `next_u64 % k` and a select of that rank in pool-index
/// order — what `choose` picks from the ascending list of those singles,
/// from the same rng state. A worker with none left draws nothing.
fn random_single(ctx: &mut GameContext<'_>, local: usize, rng: &mut StdRng) {
    let open = ctx.open_singles(local);
    let choice = match u64::from(open.count_ones()) {
        0 => None,
        k => Some(ctx.space().nth_single(open, (rng.next_u64() % k) as u32)),
    };
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
    use fta_core::ids::{CenterId, DeliveryPointId, WorkerId};
    use fta_core::instance::CenterView;
    use fta_core::route::Route;
    use fta_core::Instance;
    use fta_data::{generate_syn, SynConfig};
    use fta_vdps::{GenerationStats, StrategySpace, VdpsConfig, VdpsPool};
    use proptest::prelude::*;

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

    /// The draw the mask draw replaced: the worker's available
    /// single-point strategies collected, sorted by pool index, and
    /// `choose`n.
    fn random_single_by_list(ctx: &mut GameContext<'_>, local: usize, rng: &mut StdRng) {
        let mut singles: Vec<u32> = ctx
            .available_strategies(local)
            .map(|(idx, _)| idx)
            .filter(|&idx| ctx.space().pool.row_len(idx as usize) == 1)
            .collect();
        singles.sort_unstable();
        let choice = singles.choose(rng).copied();
        ctx.set_strategy(local, choice);
    }

    fn selections(ctx: &GameContext<'_>) -> Vec<Option<u32>> {
        (0..ctx.n_workers()).map(|l| ctx.selection(l)).collect()
    }

    /// `random_init`, then `random_init_nulls` after every `release`-th
    /// worker went back to null, against the list draw from the same
    /// seed: the same selections and the same rng state after each.
    fn check_draws(space: &StrategySpace, seed: u64, release: usize) {
        let (mut ctx, mut oracle) = (GameContext::new(space), GameContext::new(space));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle_rng = rng.clone();
        random_init(&mut ctx, &mut rng);
        for local in 0..oracle.n_workers() {
            random_single_by_list(&mut oracle, local, &mut oracle_rng);
        }
        prop_assert_eq!(selections(&ctx), selections(&oracle), "random_init");
        prop_assert_eq!(&rng, &oracle_rng);
        for local in (0..ctx.n_workers()).step_by(release) {
            ctx.set_strategy(local, None);
            oracle.set_strategy(local, None);
        }
        random_init_nulls(&mut ctx, &mut rng);
        for local in 0..oracle.n_workers() {
            if oracle.selection(local).is_none() {
                random_single_by_list(&mut oracle, local, &mut oracle_rng);
            }
        }
        prop_assert_eq!(selections(&ctx), selections(&oracle), "random_init_nulls");
        prop_assert_eq!(&rng, &oracle_rng);
    }

    /// A pool over `n_points` points: every point's single-point row, in
    /// the pool order of a seeded shuffle (so rarely in point order), with
    /// a two-point row after every third single; slacks cycle so workers
    /// at different distances see different valid prefixes.
    fn shuffled_singles_space(
        n_points: u32,
        shuffle: u64,
        workers: &[(usize, f64)],
    ) -> StrategySpace {
        let mut order: Vec<u32> = (0..n_points).collect();
        order.shuffle(&mut StdRng::seed_from_u64(shuffle));
        let mut rows: Vec<Vec<u32>> = Vec::new();
        for (k, &point) in order.iter().enumerate() {
            rows.push(vec![point]);
            if k % 3 == 2 {
                rows.push(vec![point, order[k - 1]]);
            }
        }
        let mut pool = VdpsPool::new(CenterId(0));
        for (r, points) in rows.iter().enumerate() {
            let dps: Vec<DeliveryPointId> = points.iter().map(|&p| DeliveryPointId(p)).collect();
            let offsets: Vec<f64> = (1..=dps.len()).map(|k| k as f64).collect();
            let mask = points.iter().fold(0u128, |m, &p| m | 1 << p);
            let slack = [0.5, 3.0, 1.5, 8.0][r % 4];
            let reward = 1.0 + (r % 5) as f64;
            pool.push_route(
                mask,
                &Route::from_parts(CenterId(0), dps, offsets, reward, slack),
            );
        }
        let view = CenterView {
            center: CenterId(0),
            workers: (0..workers.len() as u32).map(WorkerId).collect(),
            dps: Vec::new(),
        };
        let (max_dp, to_dc) = workers.iter().copied().unzip();
        StrategySpace::from_parts(view, pool, to_dc, max_dp, GenerationStats::default())
            .expect("one single per point")
    }

    proptest! {
        /// The mask draw of both initialisations picks what the list draw
        /// picks, from the same rng state, on generated spaces and on
        /// hand-built pools whose singles are not in point order.
        #[test]
        fn mask_draw_equals_the_list_draw(
            instance_seed in 1u64..10_000,
            n_workers in 1usize..24,
            n_dps in 1usize..40,
            max_dp in 1usize..4,
            n_points in 1u32..128,
            shuffle in 0u64..u64::MAX,
            workers in prop::collection::vec((0usize..3, 0usize..4), 1..20),
            seed in 0u64..u64::MAX,
            release in 1usize..4,
        ) {
            let instance = generate_syn(
                &SynConfig {
                    n_centers: 1,
                    n_workers,
                    n_tasks: n_dps * 3,
                    n_delivery_points: n_dps,
                    max_dp,
                    extent: 2.0,
                    ..SynConfig::bench_scale()
                },
                instance_seed,
            );
            let view = &instance.center_views()[0];
            let generated = StrategySpace::build(&instance, view, &VdpsConfig::pruned(1.0, max_dp));
            check_draws(&generated, seed, release);
            let workers: Vec<(usize, f64)> =
                workers.iter().map(|&(m, t)| (m, [0.0, 1.0, 2.0, 9.0][t])).collect();
            let hand_built = shuffled_singles_space(n_points, shuffle, &workers);
            check_draws(&hand_built, seed, release);
        }
    }
}
