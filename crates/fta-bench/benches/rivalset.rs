//! Best-response engine benchmarks — exhaustive evaluation over an
//! incrementally maintained rival set vs the monotone fast path in the
//! FGT loop.
//!
//! Both engines build one history-independent `RivalSet` per run and
//! patch it with `O(log n)` remove/insert pairs. The incremental engine
//! does so on every turn and evaluates the IAU of every available
//! candidate; the fast path finds the highest-payoff open candidate with
//! one pass and touches the set, with two evaluations, only on a turn
//! where that candidate differs from the current selection. The sweep
//! goes up to `n = 1000` workers on a single-center instance. VDPS
//! generation is done once outside the timed region: only the
//! equilibrium loop is measured.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fta_algorithms::{fgt, BestResponseEngine, FgtConfig, GameContext};
use fta_bench::syn_single_center;
use fta_vdps::{StrategySpace, VdpsConfig};
use std::hint::black_box;

fn engines() -> Vec<(&'static str, BestResponseEngine)> {
    vec![
        ("incremental", BestResponseEngine::Incremental),
        ("fastpath", BestResponseEngine::FastPath),
    ]
}

/// FGT configuration used by the sweep: no restarts and a modest round cap
/// so both engines do the same bounded amount of best-response work.
fn fgt_config(engine: BestResponseEngine) -> FgtConfig {
    FgtConfig {
        max_rounds: 8,
        restarts: 0,
        engine,
        ..FgtConfig::default()
    }
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("fgt_engine");
    group.sample_size(10);
    for &n_workers in &[50usize, 200, 1000] {
        // Delivery points are capped at 128 per center (`u128` taken mask);
        // 60 keeps the strategy spaces realistic at every sweep point.
        let instance = syn_single_center(n_workers, 60, 3);
        let views = instance.center_views();
        let space = StrategySpace::build(&instance, &views[0], &VdpsConfig::pruned(2.0, 3));
        for (name, engine) in engines() {
            group.bench_with_input(BenchmarkId::new(name, n_workers), &n_workers, |b, _| {
                let cfg = fgt_config(engine);
                b.iter(|| {
                    let mut ctx = GameContext::new(&space);
                    black_box(fgt(&mut ctx, &cfg))
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
