//! Writes `BENCH_scale.json`: the pooled multi-center solve — one pool
//! job per center, heaviest first — against the sequential per-center
//! path, swept up to 10⁵ workers across 200 distribution centers.
//!
//! Each grid row generates one synthetic city, times it sequentially and
//! on a `WorkerPool` bounded by the machine's hardware threads (the two
//! alternate, best-of-N each), asserts the two assignments are
//! bit-identical (GTA is deterministic and the pool only changes *where*
//! each center solves), and records wall times, worker throughput and
//! the process's peak RSS.
//!
//! Parallel speedup is a property of the hardware as much as the code,
//! so the headline gate is capability-conditioned (see
//! [`fta_bench::gates`]): the `SCALE_SPEEDUP_FLOOR` is asserted only on
//! rows solved with at least `SCALE_FLOOR_MIN_THREADS` pool threads and
//! `SCALE_FLOOR_MIN_CENTERS` centers; on narrower machines — where a
//! concurrent win is physically impossible — every row is instead held
//! to the no-loss `scale_noise_band`. The snapshot records the thread
//! count it ran with so the schema test applies the same conditional
//! logic to the committed file.
//!
//! Usage: `cargo run -p fta-bench --release --bin scale_snapshot --
//! [OUT]` (default OUT: `BENCH_scale.json`). Set `FTA_BENCH_QUICK=1`
//! to shrink the sweep (CI smoke mode).

use fta_algorithms::{solve, solve_with_pool, Algorithm, SolveConfig};
use fta_bench::{gates, interleaved_secs, obj};
use fta_data::SynConfig;
use fta_vdps::{VdpsConfig, WorkerPool};
use serde_json::Value;
use std::hint::black_box;

struct Row {
    label: &'static str,
    n_centers: usize,
    n_workers: usize,
    n_dps: usize,
    n_tasks: usize,
    seed: u64,
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); `None` off Linux or when the field is absent.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn main() -> std::io::Result<()> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_scale.json".to_owned());
    let quick = gates::quick_mode();
    let reps = if quick { 4 } else { 11 };
    let config = SolveConfig {
        vdps: VdpsConfig::pruned(2.0, 3),
        ..SolveConfig::new(Algorithm::Gta)
    };

    let rows: &[Row] = if quick {
        &[
            Row {
                label: "quick-small",
                n_centers: 8,
                n_workers: 400,
                n_dps: 160,
                n_tasks: 1_600,
                seed: 7,
            },
            Row {
                label: "quick-mid",
                n_centers: 16,
                n_workers: 2_000,
                n_dps: 320,
                n_tasks: 3_200,
                seed: 7,
            },
        ]
    } else {
        &[
            Row {
                label: "city",
                n_centers: 16,
                n_workers: 1_000,
                n_dps: 320,
                n_tasks: 3_200,
                seed: 7,
            },
            Row {
                label: "metro",
                n_centers: 64,
                n_workers: 10_000,
                n_dps: 1_280,
                n_tasks: 12_800,
                seed: 7,
            },
            Row {
                label: "megacity",
                n_centers: 200,
                n_workers: 100_000,
                n_dps: 4_000,
                n_tasks: 40_000,
                seed: 7,
            },
        ]
    };

    let pool = WorkerPool::new();
    let threads = pool.threads();
    let band = gates::scale_noise_band(quick);
    let mut grid = Vec::new();

    for row in rows {
        let instance = fta_data::generate_syn(
            &SynConfig {
                n_centers: row.n_centers,
                n_workers: row.n_workers,
                n_tasks: row.n_tasks,
                n_delivery_points: row.n_dps,
                extent: (row.n_centers as f64).sqrt() * 2.0,
                ..SynConfig::bench_scale()
            },
            row.seed,
        );
        let times = interleaved_secs(reps, 2, |r| {
            if r == 0 {
                black_box(solve(&instance, &config));
            } else {
                black_box(solve_with_pool(&instance, &config, &pool));
            }
        });
        let best = |t: &[f64]| t.iter().copied().fold(f64::INFINITY, f64::min);
        let (sequential_s, pooled_s) = (best(&times[0]), best(&times[1]));

        // Determinism gate: the pool must not change the assignment.
        assert_eq!(
            solve_with_pool(&instance, &config, &pool).assignment,
            solve(&instance, &config).assignment,
            "{}: pooled GTA diverged from sequential",
            row.label
        );

        let speedup = sequential_s / pooled_s;
        let throughput = row.n_workers as f64 / pooled_s;
        fta_obs::info!(
            "{}: {} centers x {} workers on {threads} threads — \
             sequential {:.1} ms, pooled {:.1} ms ({speedup:.2}x), \
             {throughput:.0} workers/s",
            row.label,
            row.n_centers,
            row.n_workers,
            sequential_s * 1e3,
            pooled_s * 1e3,
        );

        // No-loss band at every size: scheduling overhead must stay
        // within timer noise of the sequential path regardless of
        // hardware.
        assert!(
            pooled_s <= sequential_s * band,
            "{}: pooled ({:.1} ms) lost to sequential ({:.1} ms) beyond the \
             {band}x noise band",
            row.label,
            pooled_s * 1e3,
            sequential_s * 1e3
        );
        // Capability-conditioned headline floor: only meaningful where
        // the hardware can express concurrency at all.
        if threads >= gates::SCALE_FLOOR_MIN_THREADS
            && row.n_centers >= gates::SCALE_FLOOR_MIN_CENTERS
        {
            assert!(
                speedup >= gates::SCALE_SPEEDUP_FLOOR,
                "{}: pooled speedup {speedup:.2}x on {threads} threads fell below \
                 the {}x floor",
                row.label,
                gates::SCALE_SPEEDUP_FLOOR
            );
        }

        grid.push(obj(vec![
            ("label", Value::String(row.label.to_owned())),
            ("n_centers", Value::UInt(row.n_centers as u64)),
            ("n_workers", Value::UInt(row.n_workers as u64)),
            ("n_dps", Value::UInt(row.n_dps as u64)),
            ("n_tasks", Value::UInt(row.n_tasks as u64)),
            ("sequential_ms", Value::Float(sequential_s * 1e3)),
            ("pooled_ms", Value::Float(pooled_s * 1e3)),
            ("speedup_pooled_vs_sequential", Value::Float(speedup)),
            ("workers_per_sec", Value::Float(throughput)),
        ]));
    }

    let snapshot = obj(vec![
        (
            "description",
            Value::String(
                "Pooled multi-center solve (one job per center, heaviest \
                 first, on the worker pool) vs the sequential per-center \
                 path, GTA, swept to 10^5 workers / 200 centers, \
                 interleaved best-of-N"
                    .to_owned(),
            ),
        ),
        ("algorithm", Value::String("gta".to_owned())),
        ("reps", Value::UInt(reps as u64)),
        ("hw_threads", Value::UInt(threads as u64)),
        (
            "peak_rss_bytes",
            peak_rss_bytes().map_or(Value::Null, Value::UInt),
        ),
        ("grid", Value::Array(grid)),
    ]);
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serialises");
    std::fs::write(&out, json + "\n")?;
    fta_obs::info!("wrote {out}");
    Ok(())
}
