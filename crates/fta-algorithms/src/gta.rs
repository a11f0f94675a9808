//! GTA — Greedy Task Assignment (baseline ii of Section VII-A).
//!
//! Repeatedly picks, among the workers not yet served, the worker whose
//! best *available* strategy has the globally highest payoff, and assigns
//! that strategy. Fairness is ignored entirely, which is exactly why the
//! paper uses GTA as the "effective but unfair" baseline.

use crate::context::GameContext;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A worker's best open strategy as it was when pushed, keyed by
/// (payoff, then lowest local index): `(payoff key, Reverse(local), pool
/// index)`.
type Pick = (u64, Reverse<usize>, u32);

/// `local`'s best open strategy as a [`Pick`]. The key orders payoffs as
/// `f64::total_cmp` does, after `+ 0.0` folds −0 into +0 (which compare
/// equal); NaN never wins `best_open`.
fn pick(ctx: &GameContext<'_>, local: usize) -> Option<Pick> {
    ctx.best_open(local).map(|(idx, payoff)| {
        let bits = (payoff + 0.0).to_bits();
        let key = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        (key, Reverse(local), idx)
    })
}

/// Runs greedy task assignment on `ctx` (which should be freshly created).
///
/// Deterministic: ties between equal payoffs break towards the lower local
/// worker index, then the lower pool index.
///
/// One heap pass: every worker's best open strategy is pushed once; a pop
/// whose strategy is still available is assigned, and a stale one (another
/// pick took one of its delivery points) is replaced by the worker's
/// current best. Availability only shrinks, so every key is an upper
/// bound on its worker's current best, and the first available pop is
/// exactly the global maximum a rescan of every unserved worker finds,
/// under the same tie rule.
pub fn gta(ctx: &mut GameContext<'_>) {
    let mut heap: BinaryHeap<Pick> = (0..ctx.n_workers())
        .filter_map(|local| pick(ctx, local))
        .collect();
    while let Some((_, Reverse(local), idx)) = heap.pop() {
        if ctx.is_available(local, idx) {
            ctx.set_strategy(local, Some(idx));
        } else {
            heap.extend(pick(ctx, local));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fta_core::fig1;
    use fta_core::Instance;
    use fta_data::{generate_syn, SynConfig};
    use fta_vdps::{StrategySpace, VdpsConfig};
    use proptest::prelude::*;

    fn space(inst: &Instance, max_len: usize) -> StrategySpace {
        let views = inst.center_views();
        StrategySpace::build(inst, &views[0], &VdpsConfig::unpruned(max_len))
    }

    /// The retired GTA loop, kept as the oracle: per pick, rescan every
    /// unserved worker's available strategies for the global maximum
    /// (first strict maximum in (local, pool index) order).
    fn gta_rescan(ctx: &mut GameContext<'_>) {
        let n = ctx.n_workers();
        let mut unserved: Vec<bool> = vec![true; n];
        loop {
            let mut best: Option<(usize, u32, f64)> = None;
            for (local, _) in unserved.iter().enumerate().filter(|&(_, &u)| u) {
                for (idx, payoff) in ctx.available_strategies(local) {
                    if best.is_none_or(|(_, _, bp)| payoff > bp) {
                        best = Some((local, idx, payoff));
                    }
                }
            }
            match best {
                Some((local, idx, _)) => {
                    ctx.set_strategy(local, Some(idx));
                    unserved[local] = false;
                }
                None => break,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The heap pass picks exactly what the rescan picks, on
        /// instances with many equal payoffs (rewards and coordinates on
        /// a coarse lattice) as well as generic ones.
        #[test]
        fn heap_pass_matches_the_rescan(
            seed in 0u64..10_000,
            workers in 1usize..14,
            dps in 1usize..16,
            lattice in prop::bool::ANY,
        ) {
            let mut inst = generate_syn(
                &SynConfig {
                    n_centers: 1,
                    n_workers: workers,
                    n_tasks: dps * 4,
                    n_delivery_points: dps,
                    extent: 2.0,
                    ..SynConfig::bench_scale()
                },
                seed,
            );
            if lattice {
                for w in &mut inst.workers {
                    w.location = inst.centers[0].location;
                }
                for t in &mut inst.tasks {
                    t.reward = (t.reward * 2.0).round().max(1.0);
                }
            }
            let s = space(&inst, 3);
            let mut heap = GameContext::new(&s);
            gta(&mut heap);
            let mut rescan = GameContext::new(&s);
            gta_rescan(&mut rescan);
            for local in 0..s.n_workers() {
                prop_assert_eq!(heap.selection(local), rescan.selection(local));
                prop_assert_eq!(heap.payoff(local).to_bits(), rescan.payoff(local).to_bits());
            }
        }
    }

    #[test]
    fn reproduces_figure_1_greedy_assignment() {
        let inst = fig1::instance();
        let s = space(&inst, 3);
        let mut ctx = GameContext::new(&s);
        gta(&mut ctx);
        let a = ctx.to_assignment();
        assert!(a.validate(&inst).is_ok());
        let payoffs = a.payoffs(&inst, &ctx.worker_ids());
        // The paper's greedy outcome: w1 ≈ 2.80, w2 ≈ 2.09.
        assert!((payoffs[0] - 2.80).abs() < 5e-3, "w1 payoff {}", payoffs[0]);
        assert!((payoffs[1] - 2.09).abs() < 5e-3, "w2 payoff {}", payoffs[1]);
    }

    #[test]
    fn every_worker_gets_their_best_remaining_option() {
        let inst = generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers: 8,
                n_tasks: 80,
                n_delivery_points: 15,
                extent: 2.0,
                ..SynConfig::bench_scale()
            },
            3,
        );
        let s = space(&inst, 3);
        let mut ctx = GameContext::new(&s);
        gta(&mut ctx);
        // Greedy invariant: no served worker could strictly improve by
        // swapping to a strategy that is still available now (their pick was
        // the global max at selection time, and later picks only shrink the
        // available set... but *released* masks never occur in GTA, so the
        // current availability is a subset of availability at pick time).
        for local in 0..ctx.n_workers() {
            let current = ctx.payoff(local);
            for (_, payoff) in ctx.available_strategies(local) {
                assert!(
                    payoff <= current + 1e-9,
                    "worker {local} could improve from {current} to {payoff}"
                );
            }
        }
    }

    #[test]
    fn gta_is_deterministic() {
        let inst = generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers: 12,
                n_tasks: 100,
                n_delivery_points: 18,
                extent: 2.5,
                ..SynConfig::bench_scale()
            },
            5,
        );
        let s = space(&inst, 3);
        let run = || {
            let mut ctx = GameContext::new(&s);
            gta(&mut ctx);
            ctx.to_assignment()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn workers_without_strategies_stay_null() {
        // Tasks expire immediately: nobody can serve anything.
        let inst = generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers: 4,
                n_tasks: 30,
                n_delivery_points: 10,
                expiry: 0.001,
                extent: 5.0,
                ..SynConfig::bench_scale()
            },
            7,
        );
        let s = space(&inst, 3);
        let mut ctx = GameContext::new(&s);
        gta(&mut ctx);
        assert_eq!(ctx.to_assignment().assigned_workers(), 0);
    }
}
