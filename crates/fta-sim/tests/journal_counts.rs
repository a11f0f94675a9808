//! What a 32-round day journaled at the production settings
//! (`DurableConfig::new`: fsync every 8 frames, snapshot every 16 rounds)
//! writes and flushes. A snapshot round writes only the snapshot, so
//! rounds 16 and 32 append no log frame and make none of the log's
//! every-8 fsyncs:
//!
//! * 30 log frames and 2 snapshots;
//! * 9 fsyncs: the log header, the every-8 flushes after rounds 8 and 24
//!   (the eighth frame since the log was created or truncated), and per
//!   snapshot its temp file, its directory and the log truncate.
//!
//! The recorder is process-global, so this file holds a single test.

use fta_algorithms::{Algorithm, FgtConfig};
use fta_sim::engine::DurableConfig;
use fta_sim::{run, Scenario, ScenarioConfig, SimConfig};

#[test]
fn a_production_day_writes_30_frames_2_snapshots_and_9_fsyncs() {
    // The `day` benchmark's shape: 8 centers, 400 couriers, 640 points,
    // 1 000 tasks/h over an 8 h shift, solved by incremental FGT.
    let scenario = Scenario::generate(
        &ScenarioConfig {
            n_centers: 8,
            n_workers: 400,
            n_delivery_points: 640,
            extent: 10.0,
            arrival_rate: 1000.0,
            ..ScenarioConfig::default()
        },
        8.0,
        5,
    );
    let dir = std::env::temp_dir().join(format!("fta-sim-journal-counts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = SimConfig::day(Algorithm::Fgt(FgtConfig::default()))
        .with_incremental()
        .with_durable(DurableConfig::new(&dir));
    let recorder = fta_obs::Recorder::install();
    let metrics = run(&scenario, &config);
    let counters = recorder.finish();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(metrics.rounds, 32);
    assert_eq!(
        (
            counters.counter("wal.frames"),
            counters.counter("wal.snapshots"),
            counters.counter("wal.fsyncs"),
        ),
        (30, 2, 9)
    );
}
