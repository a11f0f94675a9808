//! The implicit strategy space against the materialised oracle it
//! replaced (`support/materialised.rs`). For every worker, the rows of its
//! valid prefixes — as sorted pool indices — and their on-demand payoffs
//! must be bit-equal to the oracle's slots, and the monotone best response
//! must be the oracle's first hit in payoff order.
//!
//! Pools are built row by row so slacks can take any value: mixed row
//! lengths against mixed `maxDP` (0 to past the longest row), equal
//! payoffs, travel times exactly equal to a slack, and NaN and ±∞ on
//! both sides of the validity test (a NaN slack sorts last and is never
//! valid; a NaN travel time validates nothing).

use fta_core::ids::{CenterId, DeliveryPointId, WorkerId};
use fta_core::instance::CenterView;
use fta_core::route::Route;
use fta_vdps::{kernel, GenerationStats, StrategySpace, VdpsPool};
use proptest::prelude::*;

#[path = "support/materialised.rs"]
mod materialised;
#[path = "support/payoff_rank.rs"]
mod payoff_rank;
use materialised::SlotColumns;
use payoff_rank::payoff_rank;

const SLACKS: [f64; 10] = [
    f64::NAN,
    f64::NEG_INFINITY,
    f64::INFINITY,
    -0.0,
    0.0,
    0.5,
    1.0,
    1.5,
    2.0,
    -1.0,
];
const TO_DC: [f64; 9] = [
    f64::NAN,
    f64::NEG_INFINITY,
    f64::INFINITY,
    -0.0,
    0.0,
    0.5,
    1.0,
    1.5,
    2.0,
];
/// Rewards and route travel times with many equal ratios.
const REWARDS: [f64; 4] = [0.0, 1.0, 2.0, 4.0];
const TRAVELS: [f64; 3] = [0.5, 1.0, 2.0];

/// One pool row per `(length, slack, reward, travel)` code; row `r`
/// visits `length` points (ids from `r`), so its mask is unique.
fn pool_of(rows: &[(usize, usize, usize, usize)]) -> VdpsPool {
    let mut pool = VdpsPool::new(CenterId(0));
    for (r, &(len, slack, reward, travel)) in rows.iter().enumerate() {
        let dps: Vec<DeliveryPointId> = (0..len)
            .map(|k| DeliveryPointId::from_index(r + k))
            .collect();
        let mask = dps
            .iter()
            .fold(0u128, |m, dp| m | 1u128 << (dp.index() % 128));
        // Arrival offsets rise to the route's travel time.
        let offsets: Vec<f64> = (1..=len)
            .map(|k| TRAVELS[travel] * k as f64 / len as f64)
            .collect();
        let route = Route::from_parts(CenterId(0), dps, offsets, REWARDS[reward], SLACKS[slack]);
        pool.push_route(mask, &route);
    }
    pool
}

fn space_of(pool: VdpsPool, workers: &[(usize, usize)]) -> StrategySpace {
    let view = CenterView {
        center: CenterId(0),
        workers: (0..workers.len() as u32).map(WorkerId).collect(),
        dps: Vec::new(),
    };
    let to_dc = workers.iter().map(|&(_, t)| TO_DC[t]).collect();
    let max_dp = workers.iter().map(|&(m, _)| m).collect();
    StrategySpace::from_parts(view, pool, to_dc, max_dp, GenerationStats::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn implicit_valid_sets_equal_the_materialised_oracle(
        rows in prop::collection::vec((1usize..4, 0usize..10, 0usize..4, 0usize..3), 0..40),
        workers in prop::collection::vec((0usize..5, 0usize..9), 1..8),
        takens in prop::collection::vec(0u64..u64::MAX, 3..4),
    ) {
        let space = space_of(pool_of(&rows), &workers);
        let oracle = SlotColumns::of(&space);
        prop_assert_eq!(space.total_slots(), oracle.total_slots());
        for local in 0..space.n_workers() {
            let want: Vec<(u32, u64)> = oracle
                .valid_of(local)
                .iter()
                .zip(oracle.payoffs_of(local))
                .map(|(&i, p)| (i, p.to_bits()))
                .collect();
            // The valid prefixes, as sorted pool indices.
            let r = space.rows(local);
            let mut got: Vec<(u32, u64)> = r
                .ranges()
                .flatten()
                .map(|pos| (r.pool_idx[pos], r.payoff(pos).to_bits()))
                .collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &want, "worker {} prefixes", local);
            let scanned: Vec<(u32, u64)> =
                space.strategies(local).map(|(i, p)| (i, p.to_bits())).collect();
            prop_assert_eq!(&scanned, &want, "worker {} pool scan", local);
            prop_assert_eq!(space.strategy_count(local), want.len());
            for (idx, p) in oracle.valid_of(local).iter().zip(oracle.payoffs_of(local)) {
                prop_assert_eq!(space.payoff_of(local, *idx).map(f64::to_bits), Some(p.to_bits()));
            }

            // Best response: the oracle's first open slot in payoff order.
            for &t in &takens {
                let taken = u128::from(t) << (t % 64);
                let order = oracle.desc_order(local);
                let want = order
                    .iter()
                    .position(|&pos| oracle.masks_of(local)[pos] & taken == 0)
                    .map(|rank| (oracle.valid_of(local)[order[rank]], rank));
                let got = kernel::best_open(&r, taken)
                    .map(|(pos, p)| (r.pool_idx[pos], payoff_rank(&r, r.pool_idx[pos], p)));
                prop_assert_eq!(got, want, "worker {} best response", local);
            }
        }
    }
}

#[test]
fn nan_slacks_are_never_valid_and_boundaries_are_inclusive() {
    // Rows: slack NaN, exactly 1.0, +∞, −∞; all one point long.
    let rows = [(1, 0, 1, 0), (1, 6, 1, 0), (1, 2, 1, 0), (1, 1, 1, 0)];
    // Workers: to_dc exactly 1.0, +∞, −∞, NaN.
    let workers = [(1, 6), (1, 2), (1, 1), (1, 0)];
    let space = space_of(pool_of(&rows), &workers);
    let valid = |local| -> Vec<u32> { space.strategies(local).map(|(i, _)| i).collect() };
    assert_eq!(valid(0), vec![1, 2], "to_dc equal to a slack is valid");
    assert_eq!(valid(1), vec![2], "only an infinite slack covers +∞");
    assert_eq!(
        valid(2),
        vec![1, 2, 3],
        "−∞ is covered by every non-NaN slack"
    );
    assert_eq!(
        valid(3),
        Vec::<u32>::new(),
        "a NaN travel time validates nothing"
    );
    assert_eq!(space.total_slots(), 6);
}
