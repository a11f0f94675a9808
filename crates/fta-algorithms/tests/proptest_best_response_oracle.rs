//! The implicit strategy space against the materialised one it replaced.
//!
//! `GameContext::best_available` and `GameContext::better_available`
//! answer in one pass over a worker's valid prefixes of the sorted pool.
//! They used to scan a payoff-descending copy of the worker's materialised
//! slot list (stable sort, so payoff ties keep ascending pool index):
//! first open slot for FGT/PFGT, the prefix above a threshold for IEGT.
//! That scan lives on here as the oracle. For random spaces and random
//! selections of the other workers, both queries must return the same pool
//! indices, payoff bits, `scanned` and `early_exit`.
//!
//! On top of the queries, the production game code runs over both
//! representations: `fgt.rs`, `iegt.rs`, `gta.rs`, `mpta.rs`, `random.rs`
//! and `warm.rs` are compiled a second time in this test against the
//! retired context (`support/slot_context.rs`), and FGT on both engines,
//! IEGT, GTA, MPTA and Random must make identical selections with
//! identical `BestResponseStats`.
//! The included files bring their unit tests along, so those run over
//! the retired context as well.
//!
//! Instances sit on a small lattice with rewards drawn from {0, 1, 2}, so
//! payoff ties (mirror-image routes) and zero payoffs are common, and
//! far-away workers or tight deadlines leave some lists empty.

// Items of the included production modules that only the library uses.
#![allow(dead_code)]

use fta_algorithms::{DescScan, GameContext};
use fta_core::entities::{DeliveryPoint, DistributionCenter, SpatialTask, Worker};
use fta_core::geometry::Point;
use fta_core::ids::{CenterId, DeliveryPointId, TaskId, WorkerId};
use fta_core::Instance;
use fta_vdps::{StrategySpace, VdpsConfig};
use proptest::prelude::*;

#[path = "../../fta-vdps/tests/support/materialised.rs"]
mod materialised;
#[path = "support/slot_context.rs"]
mod slot_context;
use materialised::SlotColumns;

// The production game code over the retired context: the included files
// name their dependencies as `crate::...`, which resolve here.
mod context {
    pub use crate::slot_context::GameContext;
}
mod stats {
    pub use fta_algorithms::BestResponseStats;
}
mod trace {
    pub use fta_algorithms::ConvergenceTrace;
}
#[path = "../src/fgt.rs"]
mod fgt;
#[path = "../src/gta.rs"]
mod gta;
#[path = "../src/iegt.rs"]
mod iegt;
#[path = "../src/mpta.rs"]
mod mpta;
#[path = "../src/random.rs"]
mod random;
#[path = "../src/warm.rs"]
mod warm;

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

/// The retired FGT/PFGT query: first available slot in payoff order.
fn oracle_best(ctx: &GameContext<'_>, local: usize) -> (Option<(u32, u64)>, DescScan) {
    let slots = SlotColumns::of(ctx.space());
    let order = slots.desc_order(local);
    let len = order.len();
    for (rank, &pos) in order.iter().enumerate() {
        let idx = slots.valid_of(local)[pos];
        if ctx.is_available(local, idx) {
            let scan = DescScan {
                scanned: (rank + 1) as u64,
                early_exit: rank + 1 < len,
            };
            return (Some((idx, slots.payoffs_of(local)[pos].to_bits())), scan);
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
    let slots = SlotColumns::of(ctx.space());
    let order = slots.desc_order(local);
    let len = order.len();
    let mut out = Vec::new();
    let mut scanned = 0usize;
    for &pos in &order {
        scanned += 1;
        let p = slots.payoffs_of(local)[pos];
        if p <= threshold {
            break;
        }
        let idx = slots.valid_of(local)[pos];
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
    let mut ctx = GameContext::new(space);
    // Several selections over one context, so winners move between
    // queries and the cached ranks are exercised.
    for shift in 0..3 {
        let shifted: Vec<usize> = picks.iter().map(|p| p + shift).collect();
        select(&mut ctx, &shifted);
        for local in 0..ctx.n_workers() {
            check_worker(&mut ctx, local);
        }
    }
}

fn check_worker(ctx: &mut GameContext<'_>, local: usize) {
    let want = oracle_best(ctx, local);
    let (got, scan) = ctx.best_available(local);
    let got = got.map(|(idx, p)| (idx, p.to_bits()));
    prop_assert_eq!((got, scan), want, "best, worker {}", local);

    let mut thresholds = vec![-1.0, 0.0, ctx.payoff(local), f64::INFINITY];
    thresholds.extend(ctx.space().strategies(local).map(|(_, p)| p).take(3));
    let mut out = Vec::new();
    for threshold in thresholds {
        let want = oracle_better(ctx, local, threshold);
        let scan = ctx.better_available(local, threshold, &mut out);
        prop_assert_eq!(
            (bits(&out), scan),
            want,
            "better, worker {} threshold {}",
            local,
            threshold
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
        let space = StrategySpace::build(&instance, view, &VdpsConfig::unpruned(3));
        check_space(&space, &picks);
    }
}

/// What one algorithm left behind: every worker's selection and payoff
/// bits, plus the best-response counters.
type Outcome = (Vec<(Option<u32>, u64)>, fta_algorithms::BestResponseStats);

/// Plays algorithm `which` over the implicit space.
fn play_implicit(space: &StrategySpace, which: usize) -> Outcome {
    use fta_algorithms::{BestResponseEngine as E, FgtConfig, IegtConfig, MptaConfig};
    let mut ctx = GameContext::new(space);
    let fgt_on = |engine| FgtConfig {
        engine,
        ..FgtConfig::default()
    };
    let stats = match which {
        0 => fta_algorithms::fgt(&mut ctx, &fgt_on(E::FastPath)).stats,
        1 => fta_algorithms::fgt(&mut ctx, &fgt_on(E::Incremental)).stats,
        2 => fta_algorithms::iegt(&mut ctx, &IegtConfig::default()).stats,
        3 => {
            fta_algorithms::gta(&mut ctx);
            Default::default()
        }
        4 => {
            fta_algorithms::mpta(&mut ctx, &MptaConfig::default());
            Default::default()
        }
        _ => {
            fta_algorithms::random_assignment(&mut ctx, 11);
            Default::default()
        }
    };
    let picks = (0..ctx.n_workers())
        .map(|l| (ctx.selection(l), ctx.payoff(l).to_bits()))
        .collect();
    (picks, stats)
}

/// Plays the same algorithm's code over the materialised slots.
fn play_materialised(space: &StrategySpace, which: usize) -> Outcome {
    use fgt::{BestResponseEngine as E, FgtConfig};
    let mut ctx = slot_context::GameContext::new(space);
    let fgt_on = |engine| FgtConfig {
        engine,
        ..FgtConfig::default()
    };
    let stats = match which {
        0 => fgt::fgt(&mut ctx, &fgt_on(E::FastPath)).stats,
        1 => fgt::fgt(&mut ctx, &fgt_on(E::Incremental)).stats,
        2 => iegt::iegt(&mut ctx, &iegt::IegtConfig::default()).stats,
        3 => {
            gta::gta(&mut ctx);
            Default::default()
        }
        4 => {
            mpta::mpta(&mut ctx, &mpta::MptaConfig::default());
            Default::default()
        }
        _ => {
            random::random_assignment(&mut ctx, 11);
            Default::default()
        }
    };
    let picks = (0..ctx.n_workers())
        .map(|l| (ctx.selection(l), ctx.payoff(l).to_bits()))
        .collect();
    (picks, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// FGT (both engines), IEGT, GTA, MPTA and Random make the same
    /// selections with the same counters over both representations. (The
    /// GTA heap pass against its retired rescan is `gta.rs`'s own
    /// proptest, which the inclusion above runs over both too.)
    #[test]
    fn algorithms_play_identically_over_both_representations(
        instance in arb_instance(),
        max_len in 1usize..4,
    ) {
        let view = &instance.center_views()[0];
        let space = StrategySpace::build(&instance, view, &VdpsConfig::unpruned(max_len));
        for which in 0..6 {
            prop_assert_eq!(
                play_implicit(&space, which),
                play_materialised(&space, which),
                "algorithm {}",
                which
            );
        }
    }
}
