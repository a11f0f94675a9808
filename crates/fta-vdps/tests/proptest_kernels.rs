//! Property-based equivalence of the chunked-limb kernels and the
//! arena-backed columnar `StrategySpace` validation against scalar /
//! per-route / payoff-sorted references, on randomized fixtures and
//! instances. These complement the unit fixtures in `kernel.rs`: proptest
//! drives lengths, densities, and limits the hand-picked cases miss.

use fta_core::payoff::payoff_for_travel;
use fta_data::{generate_syn, SynConfig};
use fta_vdps::{generate_c_vdps_flat, kernel, StrategySpace, VdpsConfig};
use proptest::prelude::*;

/// Random mask lists: limb pairs shifted to varying density so fixtures
/// cover near-empty, half-full, and dense masks.
fn arb_masks() -> impl Strategy<Value = Vec<u128>> {
    prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u32..120), 0..70).prop_map(|limbs| {
        limbs
            .into_iter()
            .map(|(lo, hi, shift)| ((u128::from(hi) << 64) | u128::from(lo)) >> shift)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The open-mask kernels must agree with their scalar twins for any
    /// mask list, taken mask, and sweep limit.
    #[test]
    fn open_kernels_match_scalar_reference(
        masks in arb_masks(),
        taken_lo in 0u64..u64::MAX,
        taken_hi in 0u64..u64::MAX,
        taken_shift in 0u32..120,
        limit_seed in 0usize..1000,
    ) {
        let taken = ((u128::from(taken_hi) << 64) | u128::from(taken_lo)) >> taken_shift;
        prop_assert_eq!(
            kernel::first_open_scalar(&masks, taken),
            kernel::first_open_chunked(&masks, taken)
        );
        let limit = limit_seed % (masks.len() + 1);
        let mut a = Vec::new();
        let mut b = Vec::new();
        kernel::for_each_open_scalar(&masks, limit, taken, |p| a.push(p));
        kernel::for_each_open_chunked(&masks, limit, taken, |p| b.push(p));
        prop_assert_eq!(a, b);
    }

    /// The conflict-counter gather kernels must agree with their scalar
    /// twins for any slot list, counter table, and sweep limit.
    #[test]
    fn zero_kernels_match_scalar_reference(
        conflicts in prop::collection::vec(0u32..3, 1..50),
        slot_seeds in prop::collection::vec(0usize..1000, 0..70),
        limit_seed in 0usize..1000,
    ) {
        let slots: Vec<u32> = slot_seeds
            .iter()
            .map(|s| (s % conflicts.len()) as u32)
            .collect();
        prop_assert_eq!(
            kernel::first_zero_scalar(&slots, &conflicts),
            kernel::first_zero_chunked(&slots, &conflicts)
        );
        let limit = limit_seed % (slots.len() + 1);
        let mut a = Vec::new();
        let mut b = Vec::new();
        kernel::for_each_zero_scalar(&slots, limit, &conflicts, |p| a.push(p));
        kernel::for_each_zero_chunked(&slots, limit, &conflicts, |p| b.push(p));
        prop_assert_eq!(a, b);
    }

    /// The argmax kernels answer the monotone best response exactly as the
    /// retired payoff-sorted first-hit scan did: same slot, and
    /// `desc_rank` equals that slot's position in the sorted list. A small
    /// payoff alphabet (with zero) makes ties common; lengths start at 0.
    #[test]
    fn best_kernels_match_sorted_first_hit(
        slots in prop::collection::vec((1u8..=u8::MAX, 0usize..4), 0..40),
        taken in 0u8..=u8::MAX,
    ) {
        const PAYOFFS: [f64; 4] = [0.0, 0.5, 1.0, 2.0];
        let masks: Vec<u128> = slots.iter().map(|&(m, _)| u128::from(m)).collect();
        let payoffs: Vec<f64> = slots.iter().map(|&(_, p)| PAYOFFS[p]).collect();
        let taken = u128::from(taken);
        let conflicts: Vec<u32> = masks.iter().map(|&m| (m & taken).count_ones()).collect();

        let mut order: Vec<usize> = (0..payoffs.len()).collect();
        order.sort_by(|&a, &b| payoffs[b].total_cmp(&payoffs[a]));
        let want = order
            .iter()
            .position(|&pos| masks[pos] & taken == 0)
            .map(|rank| (order[rank], rank));

        let with_rank = |pos: Option<usize>| pos.map(|p| (p, kernel::desc_rank(&payoffs, p)));
        prop_assert_eq!(with_rank(kernel::best_open_scalar(&masks, &payoffs, taken)), want);
        prop_assert_eq!(with_rank(kernel::best_open_chunked(&masks, &payoffs, taken)), want);
        prop_assert_eq!(with_rank(kernel::best_zero_scalar(&conflicts, &payoffs)), want);
        prop_assert_eq!(with_rank(kernel::best_zero_chunked(&conflicts, &payoffs)), want);
    }

    /// The arena-backed columnar validation inside `StrategySpace` must
    /// be bit-identical to the per-route reference predicate
    /// (`len ≤ max_dp && route.is_valid_for_travel(to_dc)`, payoff via
    /// `payoff_for_travel`) for every worker of a random instance —
    /// including when the space is rebuilt from a warm arena.
    #[test]
    fn strategy_space_validation_matches_route_reference(
        seed in 1u64..500,
        n_workers in 2usize..10,
        n_dps in 4usize..14,
        max_dp in 1usize..4,
    ) {
        let instance = generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers,
                n_tasks: n_dps * 6,
                n_delivery_points: n_dps,
                max_dp,
                extent: 3.0,
                ..SynConfig::bench_scale()
            },
            seed,
        );
        let aggregates = instance.dp_aggregates();
        let view = instance.center_views().remove(0);
        let config = VdpsConfig::unpruned(4);
        // Two passes: the first builds on whatever the arena holds, the
        // second rebuilds entirely from recycled buffers. Both must give
        // identical answers.
        for pass in 0..2 {
            let (pool, stats) =
                generate_c_vdps_flat(&instance, &aggregates, &view, &config, None);
            let space = StrategySpace::from_pool(&instance, &view, pool.clone(), stats);
            for (local, &w) in view.workers.iter().enumerate() {
                let worker = &instance.workers[w.index()];
                let to_dc = instance.travel_time(
                    worker.location,
                    instance.centers[view.center.index()].location,
                );
                let expected: Vec<(u32, u64)> = pool
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| {
                        v.len() <= worker.max_dp && v.route.is_valid_for_travel(to_dc)
                    })
                    .map(|(j, v)| (j as u32, payoff_for_travel(&v.route, to_dc).to_bits()))
                    .collect();
                let got: Vec<(u32, u64)> = space
                    .valid_of(local)
                    .iter()
                    .zip(space.payoffs_of(local))
                    .map(|(&j, p)| (j, p.to_bits()))
                    .collect();
                prop_assert_eq!(
                    expected, got,
                    "worker {} diverged (pass {})", local, pass
                );
            }
        }
    }
}
