//! `--fsync never` skips every fsync the journal would issue on its own:
//! the log header at create, appends, truncation after a snapshot, and
//! the snapshot's temp-file and directory syncs. Every fsync is counted
//! as `wal.fsyncs`, so a journaled day under `Never` must count none,
//! and the same day under `every-8` must count some.
//!
//! The recorder is process-global, so this file holds a single test.

use fta_algorithms::Algorithm;
use fta_durable::FsyncPolicy;
use fta_sim::engine::DurableConfig;
use fta_sim::{run, Scenario, ScenarioConfig, SimConfig};

#[test]
fn never_journals_a_day_without_a_single_fsync() {
    let scenario = Scenario::generate(
        &ScenarioConfig {
            n_workers: 8,
            n_delivery_points: 20,
            extent: 3.0,
            arrival_rate: 60.0,
            ..ScenarioConfig::default()
        },
        2.0,
        9,
    );
    let dir = std::env::temp_dir().join(format!("fta-sim-fsync-{}", std::process::id()));
    let day = |fsync: FsyncPolicy| {
        let _ = std::fs::remove_dir_all(&dir);
        let config = SimConfig {
            horizon: 2.0,
            assignment_period: 0.25,
            vdps: fta_vdps::VdpsConfig::pruned(1.5, 3),
            ..SimConfig::day(Algorithm::Gta)
        }
        .with_durable(DurableConfig {
            dir: dir.clone(),
            fsync,
            snapshot_every: 3,
            crash_after_round: None,
        });
        let recorder = fta_obs::Recorder::install();
        let metrics = run(&scenario, &config);
        let counters = recorder.finish();
        (metrics.rounds, counters)
    };

    let (rounds, never) = day(FsyncPolicy::Never);
    assert!(rounds > 0, "the day ran no solve round");
    assert!(
        never.counter("wal.snapshots") > 0,
        "the day must cover snapshot installs"
    );
    assert_eq!(never.counter("wal.fsyncs"), 0, "`never` fsynced");

    let (_, every8) = day(FsyncPolicy::EveryN(8));
    // The log header, and per snapshot its temp file and the log
    // truncation after it: more than two per snapshot.
    assert!(
        every8.counter("wal.fsyncs") > 2 * every8.counter("wal.snapshots"),
        "every-8 counted {} fsyncs over {} snapshots",
        every8.counter("wal.fsyncs"),
        every8.counter("wal.snapshots")
    );
    let _ = std::fs::remove_dir_all(&dir);
}
