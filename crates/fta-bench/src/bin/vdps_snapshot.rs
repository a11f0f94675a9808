//! Writes `BENCH_vdps.json`: a machine-readable snapshot of C-VDPS
//! generation wall time at n ∈ {20, 40, 60} delivery points on the
//! unpruned DP, pruned generation (ε = 2.0, maxDP 3) over every center of
//! one paper-shape snapshot, plus a sequential-vs-pooled whole-solve
//! comparison on a multi-center instance, so the generator's perf
//! trajectory is tracked in-repo. Each generation entry also embeds a
//! telemetry span breakdown (dp — with the adjacency build inside it — vs
//! route vs merge milliseconds) captured via `fta-obs`. The pruned block
//! must keep the adjacency build within
//! [`gates::PRUNED_ADJACENCY_SHARE`] of the dp span. The ungated
//! `generation_pooled` block times one center's generation sequentially
//! and with its DP layers split over the worker pool, on the gMission
//! Fig. 2 shape (1 center × 100 delivery points, unpruned, maxDP 3).
//!
//! Usage: `cargo run -p fta-bench --release --bin vdps_snapshot -- [OUT]`
//! (default OUT: `BENCH_vdps.json`). Set `FTA_BENCH_QUICK=1` to halve the
//! repetition counts (CI smoke mode).

use fta_algorithms::{solve_with_pool, Algorithm, SolveConfig};
use fta_bench::{
    best_secs, gates, gm_default, hw_threads, interleaved_secs, median, obj, syn_single_center,
};
use fta_data::SynConfig;
use fta_vdps::{generate_c_vdps_in, VdpsConfig, WorkerPool};
use serde_json::Value;
use std::hint::black_box;

fn main() -> std::io::Result<()> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_vdps.json".to_owned());
    let quick = std::env::var_os("FTA_BENCH_QUICK").is_some();
    let reps = if quick { 3 } else { 7 };
    let config = VdpsConfig::unpruned(3);

    // Single-thread generation.
    let mut rows = Vec::new();
    for n_dps in [20usize, 40, 60] {
        let instance = syn_single_center(40, n_dps, 7);
        let aggs = instance.dp_aggregates();
        let views = instance.center_views();
        let gen_s = best_secs(reps, || {
            generate_c_vdps_in(&instance, &aggs, &views[0], &config, None)
        });
        // One instrumented run: the telemetry spans split the wall time
        // into its dp (adjacency inside) / route / merge phases.
        let recorder = fta_obs::Recorder::install();
        let (pool_ref, _) = generate_c_vdps_in(&instance, &aggs, &views[0], &config, None);
        let telemetry = recorder.finish();
        rows.push(obj(vec![
            ("n_dps", Value::UInt(n_dps as u64)),
            ("vdps_count", Value::UInt(pool_ref.len() as u64)),
            ("ms", Value::Float(gen_s * 1e3)),
            ("span_breakdown_ms", span_breakdown(&telemetry)),
            (
                "dp_layers",
                Value::UInt(telemetry.span_count("vdps.layer") as u64),
            ),
        ]));
        fta_obs::info!("n={n_dps}: {:.2} ms", gen_s * 1e3);
    }

    let pruned = generation_pruned(reps);
    let pooled_generation = generation_pooled(if quick { 5 } else { 21 });

    // Whole-solve on a multi-center instance: sequential vs pooled.
    let instance = fta_data::generate_syn(
        &SynConfig {
            n_centers: 8,
            n_workers: 64,
            n_tasks: 2_000,
            n_delivery_points: 200,
            extent: 8.0,
            ..SynConfig::bench_scale()
        },
        13,
    );
    let solve_cfg = SolveConfig::new(Algorithm::Gta);
    let sequential = WorkerPool::sequential();
    let pooled = WorkerPool::new();
    let seq_s = best_secs(reps.min(5), || {
        solve_with_pool(&instance, &solve_cfg, &sequential)
    });
    let par_s = best_secs(reps.min(5), || {
        solve_with_pool(&instance, &solve_cfg, &pooled)
    });
    // A "speedup" is only a parallel claim when the pool actually has
    // more than one thread; on a single-core box pooled-vs-sequential
    // differ only by dispatch overhead and the ratio is timer noise, so
    // the snapshot records null rather than passing noise off as a win.
    let par_speedup = (pooled.threads() > 1).then_some(seq_s / par_s);
    fta_obs::info!(
        "multi-center solve: sequential {:.2} ms, pooled({}) {:.2} ms ({})",
        seq_s * 1e3,
        pooled.threads(),
        par_s * 1e3,
        par_speedup.map_or("n/a: single hw thread".to_owned(), |s| format!("{s:.2}x"))
    );

    let snapshot = obj(vec![
        (
            "description",
            Value::String(
                "C-VDPS generation wall time (unpruned, max_len 3, \
                 best-of-N; pruned over a paper-shape snapshot; sequential \
                 vs pooled on one gMission center), and sequential vs \
                 pooled multi-center solve"
                    .to_owned(),
            ),
        ),
        ("reps", Value::UInt(reps as u64)),
        ("generation_unpruned", Value::Array(rows)),
        ("generation_pruned", pruned),
        ("generation_pooled", pooled_generation),
        (
            "solve_multi_center",
            obj(vec![
                ("centers", Value::UInt(8)),
                ("threads", Value::UInt(pooled.threads() as u64)),
                ("sequential_ms", Value::Float(seq_s * 1e3)),
                ("pooled_ms", Value::Float(par_s * 1e3)),
                ("speedup", par_speedup.map_or(Value::Null, Value::Float)),
            ]),
        ),
    ]);
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serialises");
    std::fs::write(&out, json + "\n")?;
    fta_obs::info!("wrote {out}");
    Ok(())
}

/// The dp (adjacency inside) / adjacency / routes / merge split of one
/// instrumented run, in milliseconds.
fn span_breakdown(telemetry: &fta_obs::Snapshot) -> Value {
    let span_ms = |name: &str| Value::Float(telemetry.span_nanos(name) as f64 / 1e6);
    obj(vec![
        ("dp", span_ms("vdps.dp")),
        ("adjacency", span_ms("vdps.adjacency")),
        ("routes", span_ms("vdps.routes")),
        ("merge", span_ms("vdps.merge")),
    ])
}

/// Pruned generation (ε = 2.0, maxDP 3, the round benchmark's setting)
/// over every center of one Table I-shape snapshot: 100 centers of about
/// 60 delivery points, where the ε-graph is sparse and the adjacency
/// build is a visible share of the dp span.
fn generation_pruned(reps: usize) -> Value {
    let instance = fta_data::generate_syn(
        &SynConfig {
            n_centers: 100,
            n_workers: 1_000,
            n_tasks: 10_000,
            n_delivery_points: 6_000,
            ..SynConfig::bench_scale()
        },
        5,
    );
    let config = VdpsConfig::pruned(2.0, 3);
    let aggs = instance.dp_aggregates();
    let views = instance.center_views();
    let generate_all = || -> usize {
        views
            .iter()
            .map(|view| {
                generate_c_vdps_in(&instance, &aggs, view, &config, None)
                    .0
                    .len()
            })
            .sum()
    };
    let gen_s = best_secs(reps, generate_all);
    let recorder = fta_obs::Recorder::install();
    let vdps_count = generate_all();
    let telemetry = recorder.finish();
    let dp = telemetry.span_nanos("vdps.dp") as f64;
    let adjacency = telemetry.span_nanos("vdps.adjacency") as f64;
    assert!(
        adjacency <= gates::PRUNED_ADJACENCY_SHARE * dp,
        "pruned adjacency build takes {:.3} of the dp span (gate {})",
        adjacency / dp,
        gates::PRUNED_ADJACENCY_SHARE
    );
    fta_obs::info!(
        "pruned paper snapshot: {:.2} ms, adjacency/dp {:.3}",
        gen_s * 1e3,
        adjacency / dp
    );
    obj(vec![
        ("centers", Value::UInt(views.len() as u64)),
        ("epsilon", Value::Float(2.0)),
        ("max_dp", Value::UInt(3)),
        ("vdps_count", Value::UInt(vdps_count as u64)),
        ("ms", Value::Float(gen_s * 1e3)),
        ("span_breakdown_ms", span_breakdown(&telemetry)),
        ("hw_threads", Value::UInt(hw_threads())),
    ])
}

/// Sequential against pooled generation of one center, the only shape
/// where splitting DP layers over the pool can help: the gMission Fig. 2
/// instance (`GMissionConfig::default()`: 1 center, 100 delivery points,
/// 40 workers), unpruned with maxDP 3. The two alternate over `passes`
/// interleaved passes; `speedup` is the median sequential time over the
/// median pooled one, and `pooled_faster` counts the passes the pool
/// won. Ungated: it records the number the keep/delete decision on
/// intra-center parallelism rests on.
fn generation_pooled(passes: usize) -> Value {
    let instance = gm_default(7);
    let config = VdpsConfig::unpruned(3);
    let aggs = instance.dp_aggregates();
    let views = instance.center_views();
    let view = &views[0];
    let pool = WorkerPool::new();
    let sequential_pool = generate_c_vdps_in(&instance, &aggs, view, &config, None).0;
    let pooled_pool =
        pool.scope(|ts| generate_c_vdps_in(&instance, &aggs, view, &config, Some(ts)).0);
    assert_eq!(
        pooled_pool.len(),
        sequential_pool.len(),
        "pooled generation changed the pool"
    );
    let times = interleaved_secs(passes, 2, |r| {
        if r == 0 {
            black_box(generate_c_vdps_in(&instance, &aggs, view, &config, None));
        } else {
            black_box(
                pool.scope(|ts| generate_c_vdps_in(&instance, &aggs, view, &config, Some(ts))),
            );
        }
    });
    let (sequential_s, pooled_s) = (median(&times[0]), median(&times[1]));
    let pooled_faster = times[0]
        .iter()
        .zip(&times[1])
        .filter(|(s, p)| p < s)
        .count();
    fta_obs::info!(
        "gMission center generation: sequential {:.2} ms, pooled({}) {:.2} ms \
         ({:.2}x, pool faster in {pooled_faster} of {passes} passes)",
        sequential_s * 1e3,
        pool.threads(),
        pooled_s * 1e3,
        sequential_s / pooled_s,
    );
    obj(vec![
        ("shape", Value::String("gmission".to_owned())),
        ("centers", Value::UInt(views.len() as u64)),
        ("n_dps", Value::UInt(view.dps.len() as u64)),
        ("max_dp", Value::UInt(3)),
        ("vdps_count", Value::UInt(sequential_pool.len() as u64)),
        ("passes", Value::UInt(passes as u64)),
        ("threads", Value::UInt(pool.threads() as u64)),
        ("hw_threads", Value::UInt(hw_threads())),
        ("sequential_ms", Value::Float(sequential_s * 1e3)),
        ("pooled_ms", Value::Float(pooled_s * 1e3)),
        ("speedup", Value::Float(sequential_s / pooled_s)),
        ("pooled_faster", Value::UInt(pooled_faster as u64)),
    ])
}
