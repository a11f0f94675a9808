//! The monotone best-response queries against the scan they replaced.
//!
//! `GameContext::best_available` and `GameContext::better_available`
//! answer in one pass over a worker's ascending slots. They used to scan a
//! payoff-descending copy of the list (stable sort, so payoff ties keep
//! ascending pool index): first open slot for FGT/PFGT, the prefix above
//! a threshold for IEGT. That scan lives on here as the oracle. For random
//! spaces and random selections of the other workers, both queries must
//! return the same pool indices, payoff bits, `scanned` and `early_exit`,
//! under both scan kernels and with the conflict index on and off.
//!
//! Instances sit on a small lattice with rewards drawn from {0, 1, 2}, so
//! payoff ties (mirror-image routes) and zero payoffs are common, and
//! far-away workers or tight deadlines leave some lists empty.
//!
//! This file is its own test binary because it installs a hotpath profile
//! to force the conflict index on; its single space-building test never
//! races another test over that process-wide setting.

use fta_algorithms::{DescScan, GameContext};
use fta_core::entities::{DeliveryPoint, DistributionCenter, SpatialTask, Worker};
use fta_core::geometry::Point;
use fta_core::ids::{CenterId, DeliveryPointId, TaskId, WorkerId};
use fta_core::Instance;
use fta_vdps::hotpath::{self, HotpathProfile};
use fta_vdps::{ScanKernel, StrategySpace, VdpsConfig};
use proptest::prelude::*;

/// Lattice points around the center at the origin; mirrored pairs give
/// equal travel times.
const SPOTS: [(f64, f64); 10] = [
    (1.0, 0.0),
    (-1.0, 0.0),
    (0.0, 1.0),
    (0.0, -1.0),
    (1.0, 1.0),
    (-1.0, -1.0),
    (2.0, 0.0),
    (-2.0, 0.0),
    (0.0, 2.0),
    (0.0, -2.0),
];

/// (spot, reward, expiry) per delivery point; (spot or far, maxDP) per
/// worker.
fn arb_instance() -> impl Strategy<Value = Instance> {
    let dp = (0usize..SPOTS.len(), 0u8..3, prop::bool::ANY);
    let worker = (0usize..SPOTS.len() + 2, 1usize..4);
    (
        prop::collection::vec(dp, 1..8),
        prop::collection::vec(worker, 1..7),
    )
        .prop_map(|(dps, workers)| {
            // One delivery point per spot: later draws for a taken spot
            // are dropped.
            let mut seen = [false; SPOTS.len()];
            let dps: Vec<_> = dps
                .into_iter()
                .filter(|&(spot, _, _)| !std::mem::replace(&mut seen[spot], true))
                .collect();
            let delivery_points = dps
                .iter()
                .enumerate()
                .map(|(i, &(spot, _, _))| DeliveryPoint {
                    id: DeliveryPointId::from_index(i),
                    location: Point::new(SPOTS[spot].0, SPOTS[spot].1),
                    center: CenterId(0),
                })
                .collect();
            let tasks = dps
                .iter()
                .enumerate()
                .map(|(i, &(_, reward, tight))| SpatialTask {
                    id: TaskId::from_index(i),
                    delivery_point: DeliveryPointId::from_index(i),
                    expiry: if tight { 3.0 } else { 50.0 },
                    reward: f64::from(reward),
                })
                .collect();
            let workers = workers
                .iter()
                .enumerate()
                .map(|(i, &(spot, max_dp))| {
                    // Spots past the lattice are far from the center:
                    // only loose-deadline routes stay valid.
                    let (x, y) = SPOTS.get(spot).copied().unwrap_or((0.0, -9.0));
                    Worker {
                        id: WorkerId(i as u32),
                        location: Point::new(x, y),
                        max_dp,
                        center: CenterId(0),
                    }
                })
                .collect();
            Instance::new(
                vec![DistributionCenter {
                    id: CenterId(0),
                    location: Point::new(0.0, 0.0),
                }],
                workers,
                delivery_points,
                tasks,
                1.0,
            )
            .expect("lattice instance is valid")
        })
}

/// The retired payoff-descending order of `local`'s slot positions.
fn desc_order(space: &StrategySpace, local: usize) -> Vec<usize> {
    let payoffs = space.payoffs_of(local);
    let mut order: Vec<usize> = (0..payoffs.len()).collect();
    order.sort_by(|&a, &b| payoffs[b].total_cmp(&payoffs[a]));
    order
}

/// The retired FGT/PFGT query: first available slot in payoff order.
fn oracle_best(ctx: &GameContext<'_>, local: usize) -> (Option<(u32, u64)>, DescScan) {
    let space = ctx.space();
    let order = desc_order(space, local);
    let len = order.len();
    for (rank, &pos) in order.iter().enumerate() {
        let idx = space.valid_of(local)[pos];
        if ctx.is_available(local, idx) {
            let scan = DescScan {
                scanned: (rank + 1) as u64,
                early_exit: rank + 1 < len,
            };
            return (Some((idx, space.payoffs_of(local)[pos].to_bits())), scan);
        }
    }
    let scan = DescScan {
        scanned: len as u64,
        early_exit: false,
    };
    (None, scan)
}

/// The retired IEGT query: available slots of the payoff-order prefix
/// above `threshold`, re-sorted to ascending pool index.
fn oracle_better(
    ctx: &GameContext<'_>,
    local: usize,
    threshold: f64,
) -> (Vec<(u32, u64)>, DescScan) {
    let space = ctx.space();
    let order = desc_order(space, local);
    let len = order.len();
    let mut out = Vec::new();
    let mut scanned = 0usize;
    for &pos in &order {
        scanned += 1;
        let p = space.payoffs_of(local)[pos];
        if p <= threshold {
            break;
        }
        let idx = space.valid_of(local)[pos];
        if ctx.is_available(local, idx) {
            out.push((idx, p.to_bits()));
        }
    }
    out.sort_unstable_by_key(|&(idx, _)| idx);
    let scan = DescScan {
        scanned: scanned as u64,
        early_exit: scanned < len,
    };
    (out, scan)
}

fn bits(v: &[(u32, f64)]) -> Vec<(u32, u64)> {
    v.iter().map(|&(idx, p)| (idx, p.to_bits())).collect()
}

/// Puts every worker, in order, on the `picks[local]`-th available
/// strategy (modulo the choices plus null).
fn select(ctx: &mut GameContext<'_>, picks: &[usize]) {
    for local in 0..ctx.n_workers() {
        let open: Vec<u32> = ctx
            .available_strategies(local)
            .map(|(idx, _)| idx)
            .collect();
        let pick = picks[local % picks.len()] % (open.len() + 1);
        ctx.set_strategy(local, open.get(pick).copied());
    }
}

fn check_space(space: &StrategySpace, picks: &[usize]) {
    for kernel in [ScanKernel::Scalar, ScanKernel::Chunked] {
        let mut ctx = GameContext::new(space);
        ctx.set_scan_kernel(kernel);
        // Several selections over one context, so winners move between
        // queries and the cached ranks are exercised.
        for shift in 0..3 {
            let shifted: Vec<usize> = picks.iter().map(|p| p + shift).collect();
            select(&mut ctx, &shifted);
            for local in 0..ctx.n_workers() {
                check_worker(&mut ctx, local, kernel);
            }
        }
    }
}

fn check_worker(ctx: &mut GameContext<'_>, local: usize, kernel: ScanKernel) {
    let want = oracle_best(ctx, local);
    let (got, scan) = ctx.best_available(local);
    let got = got.map(|(idx, p)| (idx, p.to_bits()));
    prop_assert_eq!((got, scan), want, "best, worker {} {:?}", local, kernel);

    let mut thresholds = vec![-1.0, 0.0, ctx.payoff(local), f64::INFINITY];
    thresholds.extend(ctx.space().payoffs_of(local).iter().take(3));
    let mut out = Vec::new();
    for threshold in thresholds {
        let want = oracle_better(ctx, local, threshold);
        let scan = ctx.better_available(local, threshold, &mut out);
        prop_assert_eq!(
            (bits(&out), scan),
            want,
            "better, worker {} threshold {} {:?}",
            local,
            threshold,
            kernel
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn best_and_better_available_match_the_sorted_scan(
        instance in arb_instance(),
        picks in prop::collection::vec(0usize..8, 1..8),
    ) {
        let view = &instance.center_views()[0];
        let config = VdpsConfig::unpruned(3);
        hotpath::reset();
        let plain = StrategySpace::build(&instance, view, &config);
        prop_assert!(plain.conflict_sets().is_none());
        hotpath::install(&HotpathProfile {
            conflict_index_min_slots: 1,
            conflict_index_max_slots_per_bit: usize::MAX,
            ..HotpathProfile::default()
        });
        let indexed = StrategySpace::build(&instance, view, &config);
        hotpath::reset();
        prop_assert_eq!(indexed.conflict_sets().is_some(), indexed.total_slots() > 0);
        check_space(&plain, &picks);
        check_space(&indexed, &picks);
    }
}
