//! C-VDPS generation benchmarks — the CPU-time story of Figures 2–3:
//! ε-pruned generation vs the unpruned `-W` variant across delivery-point
//! counts and ε values, plus the generator against the brute-force
//! reference (naive vs the DP) and a
//! sequential-vs-pooled whole-solve benchmark on a multi-center instance.
//!
//! Set `FTA_BENCH_QUICK=1` for a CI-sized run (small sweeps, few samples).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fta_algorithms::{solve_with_pool, Algorithm, SolveConfig};
use fta_bench::syn_single_center;
use fta_data::SynConfig;
use fta_vdps::naive::generate_naive;
use fta_vdps::{generate_c_vdps_in, StrategySpace, VdpsConfig, WorkerPool};
use std::hint::black_box;

/// CI quick mode: tiny sweeps so `cargo bench -- vdps` finishes in seconds.
fn quick() -> bool {
    std::env::var_os("FTA_BENCH_QUICK").is_some()
}

fn sample_size() -> usize {
    if quick() {
        3
    } else {
        10
    }
}

fn bench_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("vdps_generation");
    group.sample_size(sample_size());
    let sizes: &[usize] = if quick() {
        &[20, 40]
    } else {
        &[20, 40, 60, 80, 100]
    };
    for &n_dps in sizes {
        let instance = syn_single_center(40, n_dps, 7);
        let views = instance.center_views();
        group.bench_with_input(BenchmarkId::new("pruned_eps2", n_dps), &n_dps, |b, _| {
            b.iter(|| {
                black_box(StrategySpace::build(
                    &instance,
                    &views[0],
                    &VdpsConfig::pruned(2.0, 3),
                ))
            });
        });
        group.bench_with_input(BenchmarkId::new("unpruned_W", n_dps), &n_dps, |b, _| {
            b.iter(|| {
                black_box(StrategySpace::build(
                    &instance,
                    &views[0],
                    &VdpsConfig::unpruned(3),
                ))
            });
        });
    }
    group.finish();
}

fn bench_epsilon_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("vdps_epsilon_sweep");
    group.sample_size(sample_size());
    let instance = syn_single_center(40, if quick() { 40 } else { 100 }, 11);
    let views = instance.center_views();
    let epsilons: &[f64] = if quick() {
        &[0.5, 2.0]
    } else {
        &[0.5, 1.0, 2.0, 3.0, 4.0]
    };
    for &eps in epsilons {
        group.bench_with_input(BenchmarkId::from_parameter(eps), &eps, |b, &eps| {
            b.iter(|| {
                black_box(StrategySpace::build(
                    &instance,
                    &views[0],
                    &VdpsConfig::pruned(eps, 3),
                ))
            });
        });
    }
    group.finish();
}

/// ISSUE 2: naive reference vs hash-map oracle vs flat engine on the
/// unpruned DP — the configuration where generation cost dominates
/// (Figures 2–3 `-W` CPU panels).
fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("vdps_engines");
    group.sample_size(sample_size());
    let sizes: &[usize] = if quick() { &[20] } else { &[20, 40, 60] };
    let config = VdpsConfig::unpruned(3);
    for &n_dps in sizes {
        let instance = syn_single_center(40, n_dps, 7);
        let aggs = instance.dp_aggregates();
        let views = instance.center_views();
        // Brute force is only tractable at the smallest size.
        if n_dps <= 20 {
            group.bench_with_input(BenchmarkId::new("naive", n_dps), &n_dps, |b, _| {
                b.iter(|| black_box(generate_naive(&instance, &aggs, &views[0], &config)));
            });
        }
        group.bench_with_input(BenchmarkId::new("flat", n_dps), &n_dps, |b, _| {
            b.iter(|| {
                black_box(generate_c_vdps_in(
                    &instance, &aggs, &views[0], &config, None,
                ))
            });
        });
    }
    group.finish();
}

/// ISSUE 2: whole-instance solve on a multi-center instance, sequential vs
/// the shared bounded worker pool (which replaced the old
/// one-thread-per-center spawn).
fn bench_pooled_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve_multi_center");
    group.sample_size(sample_size());
    let (centers, workers, tasks, dps) = if quick() {
        (4, 24, 400, 60)
    } else {
        (8, 64, 2_000, 200)
    };
    let instance = fta_data::generate_syn(
        &SynConfig {
            n_centers: centers,
            n_workers: workers,
            n_tasks: tasks,
            n_delivery_points: dps,
            extent: 8.0,
            ..SynConfig::bench_scale()
        },
        13,
    );
    let config = SolveConfig::new(Algorithm::Gta);
    let sequential = WorkerPool::sequential();
    let pooled = WorkerPool::new();
    group.bench_with_input(BenchmarkId::new("sequential", centers), &centers, |b, _| {
        b.iter(|| black_box(solve_with_pool(&instance, &config, &sequential)));
    });
    group.bench_with_input(
        BenchmarkId::new(format!("pooled_{}threads", pooled.threads()), centers),
        &centers,
        |b, _| {
            b.iter(|| black_box(solve_with_pool(&instance, &config, &pooled)));
        },
    );
    group.finish();
}

/// ISSUE 3: telemetry overhead on the generation hot path.
/// `recording_off` is the production configuration — no recorder is
/// installed, so every instrumentation point costs one relaxed atomic
/// load — and must track the plain pre-telemetry numbers;
/// `recording_on` measures the full TLS-buffered recording pipeline.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("vdps_telemetry");
    group.sample_size(sample_size());
    let n_dps = if quick() { 20 } else { 40 };
    let instance = syn_single_center(40, n_dps, 7);
    let aggs = instance.dp_aggregates();
    let views = instance.center_views();
    let config = VdpsConfig::unpruned(3);
    group.bench_with_input(BenchmarkId::new("recording_off", n_dps), &n_dps, |b, _| {
        assert!(!fta_obs::enabled(), "no recorder may be active here");
        b.iter(|| {
            black_box(generate_c_vdps_in(
                &instance, &aggs, &views[0], &config, None,
            ))
        });
    });
    group.bench_with_input(BenchmarkId::new("recording_on", n_dps), &n_dps, |b, _| {
        let recorder = fta_obs::Recorder::install();
        b.iter(|| {
            black_box(generate_c_vdps_in(
                &instance, &aggs, &views[0], &config, None,
            ))
        });
        let snapshot = recorder.finish();
        assert!(snapshot.counter("vdps.states") > 0);
    });
    group.finish();

    // CI quick-mode hard bound: a disabled emit is one relaxed load plus
    // a branch, so leaving the instrumentation compiled in cannot shift
    // the paper's CPU-time plots. Budget is deliberately generous to
    // stay flake-free on shared runners.
    if quick() {
        let iters = 1_000_000u64;
        let per_op = |t: std::time::Instant| {
            t.elapsed().as_nanos() as f64 / f64::from(u32::try_from(iters).unwrap())
        };

        // Everything off (no recorder, flight ring disarmed): one relaxed
        // load plus a branch per emit.
        fta_obs::ring::set_armed(false);
        let t = std::time::Instant::now();
        for i in 0..iters {
            fta_obs::counter("bench.disabled_probe", black_box(i) | 1);
        }
        let off_ns = per_op(t);
        assert!(
            off_ns < 50.0,
            "disabled telemetry emit costs {off_ns:.1} ns/op (budget 50 ns)"
        );

        // Production default: no recorder but the flight ring armed, so
        // every emit also lands in the per-thread ring (uncontended
        // try_lock + slot write). Emits happen once per solve/batch, not
        // per inner-loop iteration, so this budget is generous.
        fta_obs::ring::set_armed(true);
        let t = std::time::Instant::now();
        for i in 0..iters {
            fta_obs::counter("bench.disabled_probe", black_box(i) | 1);
        }
        let armed_ns = per_op(t);
        assert!(
            armed_ns < 250.0,
            "armed flight-ring emit costs {armed_ns:.1} ns/op (budget 250 ns)"
        );
        println!(
            "emit cost: {off_ns:.2} ns/op everything-off (budget 50 ns), \
             {armed_ns:.2} ns/op with armed flight ring (budget 250 ns)"
        );
    }
}

criterion_group!(
    benches,
    bench_pruning,
    bench_epsilon_sweep,
    bench_engines,
    bench_pooled_solve,
    bench_telemetry_overhead
);
criterion_main!(benches);
