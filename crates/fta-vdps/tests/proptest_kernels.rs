//! Property-based equivalence of the scan kernels and the sorted-pool
//! `StrategySpace` validation against scalar / per-route /
//! payoff-sorted references, on randomized fixtures and instances. These
//! complement the unit fixtures in `kernel.rs`: proptest drives lengths,
//! densities, limits and payoff values the hand-picked cases miss.

use fta_core::payoff::payoff_for_travel;
use fta_data::{generate_syn, SynConfig};
use fta_vdps::{generate_c_vdps_in, kernel, StrategySpace, VdpsConfig, WorkerRows};
use proptest::prelude::*;

#[path = "support/payoff_rank.rs"]
mod payoff_rank;
use payoff_rank::payoff_rank;

/// The one-branch-per-candidate loop `kernel::for_each_open_chunked`
/// replaces: the positions in `masks[..limit]` disjoint from `taken`.
fn open_positions_scalar(masks: &[u128], limit: usize, taken: u128) -> Vec<usize> {
    (0..limit).filter(|&p| masks[p] & taken == 0).collect()
}

/// Rewards, travel times and worker travel times from small alphabets, so
/// equal payoffs are common; the extremes give zero and infinite
/// denominators, overflowing and NaN (∞/∞) payoffs, and values within the
/// kernels' 1e-9 margin of each other.
const REWARDS: [f64; 7] = [0.0, 1.0, 2.0, 3.0, 3.0 + 1e-12, 1e300, f64::INFINITY];
const TRAVELS: [f64; 7] = [0.0, 0.5, 1.0, 1.5, 2.0, 1e-300, f64::INFINITY];
const TO_DC: [f64; 3] = [0.0, 0.5, 1.0];

/// The payoff-sorted first-hit scan the kernels replaced, over the rows in
/// `ranges`: NaN payoffs never count or win, the rest sorted by (payoff
/// descending, pool index ascending). Returns the first open row's sorted
/// position and payoff-order rank.
fn first_hit(rows: &WorkerRows<'_>, taken: u128) -> Option<(usize, usize)> {
    let mut order: Vec<usize> = rows
        .ranges()
        .flatten()
        .filter(|&pos| !rows.payoff(pos).is_nan())
        .collect();
    order.sort_by(|&a, &b| {
        rows.payoff(b)
            .total_cmp(&rows.payoff(a))
            .then(rows.pool_idx[a].cmp(&rows.pool_idx[b]))
    });
    let rank = order.iter().position(|&pos| rows.masks[pos] & taken == 0)?;
    Some((order[rank], rank))
}

/// Length buckets over `n` sorted rows: a bucket starts at 0 and at each
/// cut (mod `n + 1`), and its valid prefix ends `cut_ends[b]` rows in
/// (mod the bucket's size + 1). Returns the starts and the prefix ends.
fn buckets(n: usize, cuts: &[usize], cut_ends: &[usize]) -> (Vec<u32>, Vec<u32>) {
    let mut starts: Vec<u32> = cuts.iter().map(|&c| (c % (n + 1)) as u32).collect();
    starts.push(0);
    starts.sort_unstable();
    starts.dedup();
    let ends = starts
        .iter()
        .enumerate()
        .map(|(b, &s)| {
            let limit = starts.get(b + 1).map_or(n as u32, |&next| next);
            s + (cut_ends[b] as u32) % (limit - s + 1)
        })
        .collect();
    (starts, ends)
}

/// The reach column of buckets starting at `starts` (ascending, the first
/// at 0, the last running to the end of `masks`): the running OR of the
/// masks, restarted at every bucket start.
fn reach_of(masks: &[u128], starts: &[u32]) -> Vec<u128> {
    let mut reach = Vec::with_capacity(masks.len());
    let mut union = 0;
    for (pos, &m) in masks.iter().enumerate() {
        if starts.contains(&(pos as u32)) {
            union = 0;
        }
        union |= m;
        reach.push(union);
    }
    reach
}

/// The plain argmax loop `kernel::best_open` replaces: the highest payoff
/// among the valid rows disjoint from `taken`, ties to the lowest pool
/// index, dividing every open row and reading no reach.
fn best_open_plain(rows: &WorkerRows<'_>, taken: u128) -> Option<(usize, f64)> {
    let mut best = None;
    let (mut best_p, mut best_idx) = (f64::NEG_INFINITY, 0);
    for pos in rows.ranges().flatten() {
        if rows.masks[pos] & taken == 0 {
            let (p, idx) = (rows.payoff(pos), rows.pool_idx[pos]);
            if p > best_p || (p == best_p && idx < best_idx) {
                best = Some((pos, p));
                (best_p, best_idx) = (p, idx);
            }
        }
    }
    best
}

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

    /// The open-mask sweep must visit exactly the positions the scalar
    /// loop visits, in order, for any mask list, taken mask, and limit.
    #[test]
    fn open_kernels_match_scalar_reference(
        masks in arb_masks(),
        taken_lo in 0u64..u64::MAX,
        taken_hi in 0u64..u64::MAX,
        taken_shift in 0u32..120,
        limit_seed in 0usize..1000,
    ) {
        let taken = ((u128::from(taken_hi) << 64) | u128::from(taken_lo)) >> taken_shift;
        let limit = limit_seed % (masks.len() + 1);
        let mut got = Vec::new();
        kernel::for_each_open_chunked(&masks, limit, taken, |p| got.push(p));
        prop_assert_eq!(open_positions_scalar(&masks, limit, taken), got);
    }

    /// The argmax kernel answers the monotone best response exactly as the
    /// retired payoff-sorted first-hit scan did: same row, and
    /// `payoff_rank` equals that row's position in the sorted list, for
    /// rows split into several length buckets with arbitrary valid
    /// prefixes. `for_each_better` visits exactly the open rows above a
    /// threshold, and `reach_work` counts the rows of the prefixes whose
    /// masks' union is not inside the taken mask, flagging a skipped
    /// non-empty prefix.
    #[test]
    fn best_kernels_match_sorted_first_hit(
        slots in prop::collection::vec((1u8..=u8::MAX, 0usize..7, 0usize..7), 0..40),
        cuts in prop::collection::vec(0usize..41, 0..4),
        cut_ends in prop::collection::vec(0usize..41, 4..5),
        to_dc in 0usize..3,
        taken in 0u8..=u8::MAX,
    ) {
        let n = slots.len();
        let masks: Vec<u128> = slots.iter().map(|&(m, _, _)| u128::from(m)).collect();
        let rewards: Vec<f64> = slots.iter().map(|&(_, r, _)| REWARDS[r]).collect();
        let travels: Vec<f64> = slots.iter().map(|&(_, _, t)| TRAVELS[t]).collect();
        // Sorted positions carry a scrambled pool index.
        let pool_idx: Vec<u32> = (0..n as u32).map(|i| (i * 7919) % 65_521).collect();
        let (starts, ends) = buckets(n, &cuts, &cut_ends);
        let reach = reach_of(&masks, &starts);
        let rows = WorkerRows {
            pool_idx: &pool_idx,
            masks: &masks,
            reach: &reach,
            rewards: &rewards,
            travels: &travels,
            starts: &starts,
            ends: &ends,
            to_dc: TO_DC[to_dc],
        };
        let taken = u128::from(taken);

        let want = first_hit(&rows, taken);
        let best = kernel::best_open(&rows, taken);
        if let Some((pos, p)) = best {
            prop_assert_eq!(p.to_bits(), rows.payoff(pos).to_bits());
        }
        let got = best.map(|(pos, p)| (pos, payoff_rank(&rows, rows.pool_idx[pos], p)));
        prop_assert_eq!(got, want);

        let mut thresholds: Vec<f64> = vec![-1.0, 0.0, 5e-324, 1.0, 2.0 + 1e-10, f64::INFINITY, f64::NAN];
        thresholds.extend(rows.ranges().flatten().map(|pos| rows.payoff(pos)).take(6));
        for threshold in thresholds {
            let above: Vec<usize> =
                rows.ranges().flatten().filter(|&pos| rows.payoff(pos) > threshold).collect();
            let open: Vec<(usize, u64)> = above
                .iter()
                .filter(|&&pos| masks[pos] & taken == 0)
                .map(|&pos| (pos, rows.payoff(pos).to_bits()))
                .collect();
            let mut got = Vec::new();
            kernel::for_each_better(&rows, threshold, taken, |pos, p| got.push((pos, p.to_bits())));
            prop_assert_eq!(got, open, "threshold {}", threshold);
        }

        let (mut scanned, mut skipped_prefix) = (0u64, false);
        for range in rows.ranges() {
            let union = masks[range.clone()].iter().fold(0u128, |u, &m| u | m);
            if union & !taken != 0 {
                scanned += range.len() as u64;
            } else {
                skipped_prefix |= !range.is_empty();
            }
        }
        prop_assert_eq!(kernel::reach_work(&rows, taken), kernel::ScanWork { scanned, skipped_prefix });
    }

    /// The reach skip against the plain loop, on taken masks that cover
    /// whole valid prefixes — random taken masks almost never do: the
    /// union of the reach of some prefixes, plus a few random bits. Row
    /// masks span both `u64` limbs. `best_open` must answer exactly as the
    /// plain loop, every prefix `may_open` rejects must hold no open row,
    /// and every covered prefix must be rejected.
    #[test]
    fn reach_skip_matches_the_plain_loop(
        slots in prop::collection::vec((1u64..u64::MAX, 0u32..65, 0usize..7, 0usize..7), 0..60),
        cuts in prop::collection::vec(0usize..61, 0..4),
        cut_ends in prop::collection::vec(0usize..61, 4..5),
        cover in 0u32..16,
        extra in 0u64..u64::MAX,
        extra_shift in 0u32..128,
        to_dc in 0usize..3,
    ) {
        let n = slots.len();
        // Sparse masks (a few bits, anywhere in the 128) so prefixes
        // overlap and covering one leaves others partly open.
        let masks: Vec<u128> = slots
            .iter()
            .map(|&(m, shift, _, _)| u128::from(m & m.rotate_left(17) | 1) << shift)
            .collect();
        let rewards: Vec<f64> = slots.iter().map(|&(_, _, r, _)| REWARDS[r]).collect();
        let travels: Vec<f64> = slots.iter().map(|&(_, _, _, t)| TRAVELS[t]).collect();
        let pool_idx: Vec<u32> = (0..n as u32).map(|i| (i * 7919) % 65_521).collect();
        let (starts, ends) = buckets(n, &cuts, &cut_ends);
        let reach = reach_of(&masks, &starts);
        let rows = WorkerRows {
            pool_idx: &pool_idx,
            masks: &masks,
            reach: &reach,
            rewards: &rewards,
            travels: &travels,
            starts: &starts,
            ends: &ends,
            to_dc: TO_DC[to_dc],
        };
        let covered = |b: usize| cover >> b & 1 == 1;
        let mut taken = (u128::from(extra) << 64 | u128::from(extra.rotate_left(29))) >> extra_shift;
        taken &= taken >> 3;
        for (b, range) in rows.ranges().enumerate() {
            if covered(b) && !range.is_empty() {
                taken |= reach[range.end - 1];
            }
        }

        let want = best_open_plain(&rows, taken).map(|(pos, p)| (pos, p.to_bits()));
        let got = kernel::best_open(&rows, taken).map(|(pos, p)| (pos, p.to_bits()));
        prop_assert_eq!(got, want);
        for (b, range) in rows.ranges().enumerate() {
            let union = masks[range.clone()].iter().fold(0, |u, &m| u | m);
            prop_assert_eq!(range.is_empty() || reach[range.end - 1] == union, true);
            if !rows.may_open(&range, taken) {
                prop_assert!(range.clone().all(|pos| masks[pos] & taken != 0), "bucket {} skipped with an open row", b);
            }
            if covered(b) {
                prop_assert!(!rows.may_open(&range, taken), "covered bucket {} not skipped", b);
            }
        }
    }

    /// The sorted-pool validation inside `StrategySpace` must be
    /// bit-identical to the per-route reference predicate
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
                generate_c_vdps_in(&instance, &aggregates, &view, &config, None);
            let space = StrategySpace::from_pool(&instance, &view, pool.clone(), stats);
            for (local, &w) in view.workers.iter().enumerate() {
                let worker = &instance.workers[w.index()];
                let to_dc = instance.travel_time(
                    worker.location,
                    instance.centers[view.center.index()].location,
                );
                let expected: Vec<(u32, u64)> = (0..pool.len())
                    .map(|j| (j, pool.route(j)))
                    .filter(|(_, r)| r.len() <= worker.max_dp && r.is_valid_for_travel(to_dc))
                    .map(|(j, r)| (j as u32, payoff_for_travel(&r, to_dc).to_bits()))
                    .collect();
                let got: Vec<(u32, u64)> = space
                    .strategies(local)
                    .map(|(j, p)| (j, p.to_bits()))
                    .collect();
                prop_assert_eq!(
                    expected, got,
                    "worker {} diverged (pass {})", local, pass
                );
            }
        }
    }
}
