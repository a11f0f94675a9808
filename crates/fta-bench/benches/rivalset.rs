//! Best-response loop benchmarks: FGT's one loop under both candidate
//! searches.
//!
//! The loop builds one history-independent `RivalSet` per run and patches
//! it with `O(log n)` remove/insert pairs. At the default weights
//! (`fastpath`) each turn finds the highest-payoff open candidate with one
//! pass and touches the set, with two evaluations, only when that
//! candidate differs from the current selection. At `β = 1.5`
//! (`exhaustive`), where the utility is not monotone in the own payoff,
//! every turn updates the set and evaluates the IAU of every available
//! candidate. The two weights play different games, so the pair shows
//! what each search costs per bounded run, not a speed-up. The sweep goes
//! up to `n = 1000` workers on a single-center instance. VDPS generation
//! is done once outside the timed region: only the equilibrium loop is
//! measured.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fta_algorithms::{fgt, FgtConfig, GameContext};
use fta_bench::syn_single_center;
use fta_core::iau::IauParams;
use fta_vdps::{StrategySpace, VdpsConfig};
use std::hint::black_box;

/// The IAU weights of each sweep line, named after the search they choose.
fn searches() -> Vec<(&'static str, IauParams)> {
    vec![
        ("fastpath", IauParams::default()),
        (
            "exhaustive",
            IauParams {
                alpha: 0.5,
                beta: 1.5,
            },
        ),
    ]
}

/// FGT configuration used by the sweep: no restarts and a modest round cap
/// bound each run's best-response work.
fn fgt_config(iau: IauParams) -> FgtConfig {
    FgtConfig {
        max_rounds: 8,
        restarts: 0,
        iau,
        ..FgtConfig::default()
    }
}

fn bench_searches(c: &mut Criterion) {
    let mut group = c.benchmark_group("fgt_search");
    group.sample_size(10);
    for &n_workers in &[50usize, 200, 1000] {
        // Delivery points are capped at 128 per center (`u128` taken mask);
        // 60 keeps the strategy spaces realistic at every sweep point.
        let instance = syn_single_center(n_workers, 60, 3);
        let views = instance.center_views();
        let space = StrategySpace::build(&instance, &views[0], &VdpsConfig::pruned(2.0, 3));
        for (name, iau) in searches() {
            group.bench_with_input(BenchmarkId::new(name, n_workers), &n_workers, |b, _| {
                let cfg = fgt_config(iau);
                b.iter(|| {
                    let mut ctx = GameContext::new(&space);
                    black_box(fgt(&mut ctx, &cfg))
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_searches);
criterion_main!(benches);
