//! Writes `BENCH_durable.json`: a machine-readable snapshot of what the
//! durability layer costs. Each grid row runs the *same* faulted,
//! incremental simulated day twice — once plain, once journaling every
//! round through `fta-durable` at one fsync policy — and reports the
//! wall-time overhead plus the journal's on-disk shape (log frames
//! written, mean on-disk bytes per frame, valid log bytes left after the
//! last snapshot truncated the log, snapshots cut). A snapshot round
//! writes the snapshot instead of a log frame, so frames plus snapshots
//! is the number of rounds.
//!
//! The day is deliberately full-fat: fault injection (so every frame
//! carries the fault RNG stream) and incremental solving (so every frame
//! carries the solver cache seed) make the journaled payload the largest
//! the engine produces, and the snapshot cadence keeps at least one
//! snapshot + log-truncate cycle inside the timed window — the numbers
//! cover the whole durability path, not just the append.
//!
//! A separate `day` row prices journaling where it costs the most
//! relative to the solve: the `day` round-benchmark workload's shape
//! (8 centers, 400 couriers, 640 delivery points, 1 000 tasks/h, an 8 h
//! shift) solved by incremental FGT and journaled at the production
//! settings (`every-8`, snapshot every 16). It reports the same timing
//! and frame-size columns as the grid, the audited day's snapshots and
//! fsyncs, and its `durable.encode`/`append`/`snapshot` span totals
//! (append and snapshot include their fsyncs), and carries no ceiling.
//!
//! Usage: `cargo run -p fta-bench --release --bin durable_snapshot --
//! [OUT]` (default OUT: `BENCH_durable.json`). Set `FTA_BENCH_QUICK=1`
//! to shrink the day and repetition counts (CI smoke mode). In every
//! mode the binary *asserts* that the journaled day's metrics are
//! bit-identical to the plain day's (journaling observes the day, it
//! never changes it) and that the recommended `every-8` cadence stays
//! inside `gates::durable_overhead_ceiling` — CI runs it in quick mode
//! as a regression gate.

use fta_algorithms::{Algorithm, FgtConfig};
use fta_bench::{gates, interleaved_secs, median, obj};
use fta_durable::{read_log, FsyncPolicy, WAL_FILE};
use fta_sim::{run, DurableConfig, FaultPlan, Scenario, ScenarioConfig, SimConfig};
use serde_json::Value;
use std::hint::black_box;
use std::path::Path;

/// Snapshot cadence under test. Full mode measures the production
/// default (`DurableConfig::new`: every 16 rounds); the quick-mode day
/// is only 8 rounds, so quick shrinks the cadence to keep at least one
/// snapshot + log-truncate cycle inside the timed window.
fn snapshot_every(quick: bool) -> u64 {
    if quick {
        5
    } else {
        16
    }
}

/// Median wall times, in seconds, of `plain` and of each of `durable`
/// over `reps` interleaved passes (see the grid in `main` for why).
fn interleaved_medians(
    scenario: &Scenario,
    plain: &SimConfig,
    durable: &[SimConfig],
    reps: usize,
) -> (f64, Vec<f64>) {
    let config = |r: usize| if r == 0 { plain } else { &durable[r - 1] };
    let medians: Vec<f64> = interleaved_secs(reps, 1 + durable.len(), |r| {
        black_box(run(scenario, config(r)));
    })
    .iter()
    .map(|t| median(t))
    .collect();
    (medians[0], medians[1..].to_vec())
}

/// The `day` row: the `day` round-benchmark workload's shape, solved by
/// incremental FGT and journaled at the production settings
/// (`DurableConfig::new`: every-8, snapshot every 16). Quick mode
/// shortens the shift to 2 h.
fn day_row(quick: bool, reps: usize, scratch: &Path) -> Value {
    let horizon = if quick { 2.0 } else { 8.0 };
    let scenario = Scenario::generate(
        &ScenarioConfig {
            n_centers: 8,
            n_workers: 400,
            n_delivery_points: 640,
            extent: 10.0,
            arrival_rate: 1000.0,
            ..ScenarioConfig::default()
        },
        horizon,
        5,
    );
    let plain = SimConfig {
        horizon,
        ..SimConfig::day(Algorithm::Fgt(FgtConfig::default()))
    }
    .with_incremental();
    let journal = DurableConfig::new(scratch.join("day"));
    let (fsync, snapshot_every) = (journal.fsync.to_string(), journal.snapshot_every);
    let durable_config = plain.clone().with_durable(journal);
    let (plain_s, durable_s) = interleaved_medians(
        &scenario,
        &plain,
        std::slice::from_ref(&durable_config),
        reps,
    );
    let durable_s = durable_s[0];

    let baseline = run(&scenario, &plain);
    let recorder = fta_obs::Recorder::install();
    let audited = run(&scenario, &durable_config);
    let wal = recorder.finish();
    assert_eq!(
        audited, baseline,
        "day: journaling perturbed the day's metrics"
    );
    // A snapshot round writes the snapshot instead of a log frame.
    let (frames, snapshots, fsyncs) = (
        wal.counter("wal.frames"),
        wal.counter("wal.snapshots"),
        wal.counter("wal.fsyncs"),
    );
    assert_eq!(
        frames + snapshots,
        baseline.rounds as u64,
        "day: one frame or snapshot per round"
    );
    let frame_bytes = wal.counter("wal.bytes") as f64 / frames as f64;
    let overhead = durable_s / plain_s;
    // Where the audited day's journaling time went, from its spans.
    let ms = |span: &str| wal.span_nanos(span) as f64 / 1e6;
    let (encode_ms, append_ms, snapshot_ms) = (
        ms("durable.encode"),
        ms("durable.append"),
        ms("durable.snapshot"),
    );
    fta_obs::info!(
        "day (incremental FGT, {fsync}): plain {:.1} ms, durable {:.1} ms \
         ({:+.1}% overhead); {frames} frame(s) of {frame_bytes:.0} B, \
         {snapshots} snapshot(s), {fsyncs} fsync(s); \
         encode {encode_ms:.1} ms, append {append_ms:.1} ms, snapshot {snapshot_ms:.1} ms",
        plain_s * 1e3,
        durable_s * 1e3,
        (overhead - 1.0) * 1e2,
    );
    obj(vec![
        ("shape", Value::String("day".to_owned())),
        ("algorithm", Value::String("fgt".to_owned())),
        ("incremental", Value::Bool(true)),
        ("fsync", Value::String(fsync)),
        ("snapshot_every", Value::UInt(snapshot_every)),
        ("horizon_hours", Value::Float(horizon)),
        ("workers", Value::UInt(scenario.workers.len() as u64)),
        ("rounds", Value::UInt(baseline.rounds as u64)),
        ("plain_ms", Value::Float(plain_s * 1e3)),
        ("durable_ms", Value::Float(durable_s * 1e3)),
        ("overhead", Value::Float(overhead)),
        ("log_frames", Value::UInt(frames)),
        ("frame_bytes", Value::Float(frame_bytes)),
        ("snapshots", Value::UInt(snapshots)),
        ("fsyncs", Value::UInt(fsyncs)),
        ("encode_ms", Value::Float(encode_ms)),
        ("append_ms", Value::Float(append_ms)),
        ("snapshot_ms", Value::Float(snapshot_ms)),
    ])
}

fn main() -> std::io::Result<()> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_durable.json".to_owned());
    let quick = gates::quick_mode();
    let reps = if quick { 5 } else { 21 };
    let horizon = if quick { 2.0 } else { 8.0 };
    let cadence = snapshot_every(quick);

    let seed = 11;
    // A city bigger than the single-center default: at 30 couriers a
    // round costs ~4 ms and the journaling delta (~0.1–0.3 ms of encode
    // + CRC + write per round) reads as several percent; at platform
    // scale the solve dominates and the measured overhead reflects what
    // a production day would actually pay.
    let scenario_config = ScenarioConfig {
        n_workers: 60,
        n_delivery_points: 120,
        arrival_rate: 400.0,
        ..ScenarioConfig::default()
    };
    let scenario = Scenario::generate(&scenario_config, horizon, seed);
    let mut plain = SimConfig::day(Algorithm::Gta);
    plain.horizon = horizon;
    plain.incremental = true;
    plain.faults = Some(FaultPlan::stress(seed));

    let baseline = run(&scenario, &plain);
    assert!(baseline.is_conserved(), "baseline day lost tasks");

    // Fresh journal directories per policy; `Journal::create` truncates
    // the log and snapshot names repeat per round, so repeated timed runs
    // into the same directory do not accumulate state.
    let scratch = std::env::temp_dir().join(format!("fta-durable-bench-{}", std::process::id()));

    let policies = [
        ("never", FsyncPolicy::Never),
        ("every-8", FsyncPolicy::EveryN(8)),
        ("always", FsyncPolicy::Always),
    ];
    let configs: Vec<SimConfig> = policies
        .iter()
        .map(|(label, fsync)| {
            plain.clone().with_durable(DurableConfig {
                dir: scratch.join(label),
                fsync: *fsync,
                snapshot_every: cadence,
                crash_after_round: None,
            })
        })
        .collect();

    // Interleaved passes: one plain day and one day per policy per pass,
    // the order reversed every other pass, and each config's median day.
    // The journaling delta is a few milliseconds against a 60–90 ms day,
    // while this machine's load drifts tens of percent over seconds:
    // timing each config in its own block lets one noisy block swamp the
    // comparison, and even interleaved best-of-12 minima swung the
    // overhead by ±15% from run to run. Medians over many interleaved
    // passes see every config under the same load and ignore the passes
    // a burst hit.
    let (plain_s, durable_s) = interleaved_medians(&scenario, &plain, &configs, reps);

    let mut grid = Vec::new();
    for (&(label, _), (config, &durable_s)) in policies.iter().zip(configs.iter().zip(&durable_s)) {
        // One audited run: the observability pin. A journaled day must be
        // bit-for-bit the plain day — earnings, ledgers, fault counters,
        // everything. Its `wal.*` counters count the log frames the
        // journal wrote (`Journal::frames_written`), their on-disk bytes
        // and the snapshots; the log itself holds only the frames since
        // the last snapshot.
        let recorder = fta_obs::Recorder::install();
        let audited = run(&scenario, config);
        let wal = recorder.finish();
        let frames = wal.counter("wal.frames");
        assert_eq!(
            frames + wal.counter("wal.snapshots"),
            baseline.rounds as u64,
            "{label}: every solved round journals one frame or one snapshot"
        );
        let frame_bytes = wal.counter("wal.bytes") as f64 / frames as f64;
        assert_eq!(
            audited, baseline,
            "{label}: journaling perturbed the day's metrics"
        );
        let dir = scratch.join(label);
        let log = read_log(&dir.join(WAL_FILE)).expect("journal log reads back");
        assert!(!log.torn_tail, "{label}: clean run left a torn tail");
        let snapshots = std::fs::read_dir(&dir)?
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".ftas"))
            .count();
        assert!(snapshots > 0, "{label}: day cut no snapshots");

        let overhead = durable_s / plain_s;
        fta_obs::info!(
            "{label}: plain {:.1} ms, durable {:.1} ms ({:+.1}% overhead); \
             {frames} frame(s) of {frame_bytes:.0} B, {} valid log bytes, {} snapshot(s)",
            plain_s * 1e3,
            durable_s * 1e3,
            (overhead - 1.0) * 1e2,
            log.valid_len,
            snapshots,
        );

        // Regression gate (shared with the schema tests via
        // `fta_bench::gates`): the recommended cadence must stay inside
        // the acceptance budget. `never`/`always` are reported for the
        // trade-off table but not gated — `always` is priced per fsync by
        // whatever disk CI runs on.
        if label == "every-8" {
            let ceiling = gates::durable_overhead_ceiling(quick);
            assert!(
                overhead <= ceiling,
                "every-8 journaling overhead {:.2}x exceeds the {ceiling:.2}x ceiling",
                overhead
            );
        }

        grid.push(obj(vec![
            ("fsync", Value::String(label.to_owned())),
            ("rounds", Value::UInt(baseline.rounds as u64)),
            ("plain_ms", Value::Float(plain_s * 1e3)),
            ("durable_ms", Value::Float(durable_s * 1e3)),
            ("overhead", Value::Float(overhead)),
            ("log_frames", Value::UInt(frames)),
            ("frame_bytes", Value::Float(frame_bytes)),
            ("log_bytes", Value::UInt(log.valid_len)),
            ("snapshots", Value::UInt(snapshots as u64)),
        ]));
    }
    let day = day_row(quick, reps, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);

    let snapshot = obj(vec![
        (
            "description",
            Value::String(
                "Durability overhead: one faulted incremental GTA day \
                 journaled round-by-round through fta-durable (checksummed \
                 commit log + periodic snapshots at the production \
                 cadence) vs the \
                 identical un-journaled day, per fsync policy, medians of N \
                 interleaved passes; \
                 metrics pinned bit-identical across all rows"
                    .to_owned(),
            ),
        ),
        ("algorithm", Value::String("gta".to_owned())),
        ("reps", Value::UInt(reps as u64)),
        ("horizon_hours", Value::Float(horizon)),
        ("workers", Value::UInt(scenario_config.n_workers as u64)),
        ("snapshot_every", Value::UInt(cadence)),
        ("grid", Value::Array(grid)),
        ("day", day),
    ]);
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serialises");
    std::fs::write(&out, json + "\n")?;
    fta_obs::info!("wrote {out}");
    Ok(())
}
