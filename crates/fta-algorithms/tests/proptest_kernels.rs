//! Property-based equivalence of the scan kernels against the scalar
//! loops they replaced, in the game states every assignment algorithm
//! reaches: for any random instance, after any algorithm has played, and
//! again as its workers drop out one by one, each worker's
//! `GameContext::best_available` and `GameContext::better_available`
//! must return *bit-identically* what a one-branch-per-slot loop over the
//! worker's materialised slots (`fta-vdps/tests/support/materialised.rs`)
//! returns. The kernels are a pure representation change; any divergence
//! is a kernel bug, never an acceptable rounding difference.

use fta_algorithms::{
    fgt, gta, iegt, mpta, pfgt, random_assignment, FgtConfig, GameContext, IegtConfig, MptaConfig,
    PfgtConfig,
};
use fta_core::Instance;
use fta_data::{generate_syn, SynConfig};
use fta_vdps::{StrategySpace, VdpsConfig};
use proptest::prelude::*;

#[path = "../../fta-vdps/tests/support/materialised.rs"]
mod materialised;
use materialised::SlotColumns;

/// Random small instances driven by a seed and size knobs.
fn arb_instance() -> impl Strategy<Value = Instance> {
    (1u64..500, 2usize..12, 4usize..16, 1usize..4).prop_map(|(seed, n_workers, n_dps, max_dp)| {
        generate_syn(
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
        )
    })
}

fn space(instance: &Instance) -> StrategySpace {
    let views = instance.center_views();
    StrategySpace::build(instance, &views[0], &VdpsConfig::unpruned(4))
}

/// The scalar argmax the chunked kernel replaced: the first strict payoff
/// maximum among the slots disjoint from `taken`.
fn best_open_scalar(masks: &[u128], payoffs: &[f64], taken: u128) -> Option<usize> {
    let mut best = None;
    let mut best_p = f64::NEG_INFINITY;
    for (pos, &p) in payoffs.iter().enumerate() {
        if p > best_p && masks[pos] & taken == 0 {
            best = Some(pos);
            best_p = p;
        }
    }
    best
}

/// The scalar filter the chunked sweep replaced: the open slots paying
/// strictly more than `threshold`, ascending.
fn better_open_scalar(masks: &[u128], payoffs: &[f64], taken: u128, threshold: f64) -> Vec<usize> {
    (0..masks.len())
        .filter(|&pos| masks[pos] & taken == 0 && payoffs[pos] > threshold)
        .collect()
}

/// Plays one algorithm on a fresh context.
fn play(ctx: &mut GameContext<'_>, algorithm: usize) {
    match algorithm {
        0 => gta(ctx),
        1 => mpta(ctx, &MptaConfig::default()),
        2 => drop(fgt(ctx, &FgtConfig::default())),
        3 => drop(pfgt(ctx, &PfgtConfig::default())),
        4 => drop(iegt(ctx, &IegtConfig::default())),
        _ => random_assignment(ctx, 7),
    }
}

/// Every worker's chunked queries against the scalar loops in the
/// context's current state.
fn check_queries(ctx: &mut GameContext<'_>) {
    let slots = SlotColumns::of(ctx.space());
    for local in 0..ctx.n_workers() {
        let (valid, payoffs, masks) = (
            slots.valid_of(local),
            slots.payoffs_of(local),
            slots.masks_of(local),
        );
        let taken = ctx.taken_mask() & !ctx.own_mask(local);
        let want =
            best_open_scalar(masks, payoffs, taken).map(|p| (valid[p], payoffs[p].to_bits()));
        let got = ctx.best_available(local).0.map(|(i, p)| (i, p.to_bits()));
        prop_assert_eq!(got, want, "best_available, worker {}", local);

        // MPTA's climb step and the random initialisation's draw, which
        // skip the prefixes their reach proves closed, against exhaustive
        // filtering of the open strategies.
        let want = ctx
            .available_strategies(local)
            .max_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .map(|(i, p)| (i, p.to_bits()));
        let got = ctx.max_available(local).map(|(i, p)| (i, p.to_bits()));
        prop_assert_eq!(got, want, "max_available, worker {}", local);
        let mut of_len = Vec::new();
        for len in 0..=ctx.space().max_dp(local) + 1 {
            let want: Vec<u32> = ctx
                .available_strategies(local)
                .map(|(i, _)| i)
                .filter(|&i| ctx.space().pool.row_len(i as usize) == len)
                .collect();
            ctx.available_of_len(local, len, &mut of_len);
            of_len.sort_unstable();
            prop_assert_eq!(&of_len, &want, "available_of_len {}, worker {}", len, local);
        }

        let mut out = Vec::new();
        for threshold in [-1.0, 0.0, ctx.payoff(local)] {
            let want: Vec<(u32, u64)> = better_open_scalar(masks, payoffs, taken, threshold)
                .into_iter()
                .map(|p| (valid[p], payoffs[p].to_bits()))
                .collect();
            ctx.better_available(local, threshold, &mut out);
            let got: Vec<(u32, u64)> = out.iter().map(|&(i, p)| (i, p.to_bits())).collect();
            prop_assert_eq!(
                got,
                want,
                "better_available, worker {} threshold {}",
                local,
                threshold
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn chunked_kernels_are_bit_identical_across_all_algorithms(
        instance in arb_instance(),
        algorithm in 0usize..6,
    ) {
        let s = space(&instance);
        let mut ctx = GameContext::new(&s);
        play(&mut ctx, algorithm);
        check_queries(&mut ctx);
        // Release the workers one by one: every intermediate state frees
        // delivery points, so the open sets grow between checks.
        for local in 0..ctx.n_workers() {
            ctx.set_strategy(local, None);
            check_queries(&mut ctx);
        }
    }
}

/// Valid prefixes the reach test rejects although they hold rows: the
/// cases where the scans skip work.
fn skipped_prefixes(ctx: &GameContext<'_>) -> usize {
    (0..ctx.n_workers())
        .map(|local| {
            let rows = ctx.space().rows(local);
            let taken = ctx.taken_mask() & !ctx.own_mask(local);
            rows.ranges()
                .filter(|r| !r.is_empty() && !rows.may_open(r, taken))
                .count()
        })
        .sum()
}

/// Worker-heavy centers leave most workers with every point of their
/// valid rows taken, so the reach skip answers most of their queries;
/// the queries must still match the scalar loops there.
#[test]
fn queries_match_where_the_reach_skip_fires() {
    let mut skipped = 0;
    for seed in 1..6 {
        let instance = generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers: 40,
                n_tasks: 60,
                n_delivery_points: 10,
                max_dp: 3,
                extent: 3.0,
                ..SynConfig::bench_scale()
            },
            seed,
        );
        let s = space(&instance);
        for algorithm in 0..6 {
            let mut ctx = GameContext::new(&s);
            play(&mut ctx, algorithm);
            skipped += skipped_prefixes(&ctx);
            check_queries(&mut ctx);
        }
    }
    assert!(skipped > 0, "no state exercised the reach skip");
}
