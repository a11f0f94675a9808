//! The simulator and journal layers a traced day attributes time to.
//! Under a recorder, an incremental journaled day must span its
//! ledger-record staging (`sim.record`) and its end-of-round fairness
//! block (`sim.fairness`) once per solve round and the journal's create
//! (`durable.create`) once, and restoring it must span recovery and
//! frame decode (`durable.recover`) once.
//!
//! The recorder is process-global, so this file holds a single test.

use fta_algorithms::{Algorithm, FgtConfig};
use fta_sim::engine::DurableConfig;
use fta_sim::{restore, run, Scenario, ScenarioConfig, SimConfig};

#[test]
fn a_traced_journaled_day_and_its_restore_span_churn_fairness_and_recovery() {
    let scenario = Scenario::generate(
        &ScenarioConfig {
            n_workers: 8,
            n_delivery_points: 20,
            extent: 3.0,
            arrival_rate: 60.0,
            ..ScenarioConfig::default()
        },
        2.0,
        7,
    );
    let dir = std::env::temp_dir().join(format!("fta-sim-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = SimConfig {
        horizon: 2.0,
        assignment_period: 0.25,
        vdps: fta_vdps::VdpsConfig::pruned(1.5, 3),
        ..SimConfig::day(Algorithm::Fgt(FgtConfig::default()))
    }
    .with_durable(DurableConfig {
        dir: dir.clone(),
        fsync: fta_durable::FsyncPolicy::Never,
        snapshot_every: 4,
        crash_after_round: None,
    });
    config.incremental = true;

    let recorder = fta_obs::Recorder::install();
    let day = run(&scenario, &config);
    let (restored, _) = restore(&scenario, &config).expect("the journaled day restores");
    let snapshot = recorder.finish();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(restored, day, "restoring a finished day changes nothing");
    let ticks = snapshot.span_count("sim.tick");
    assert!(ticks > 0, "the day ran no solve round");
    // The restore resumes after the last journaled round, so it adds no
    // rounds of its own.
    assert_eq!(snapshot.span_count("sim.record"), ticks);
    assert_eq!(snapshot.span_count("sim.fairness"), ticks);
    assert_eq!(snapshot.span_count("durable.create"), 1);
    assert_eq!(snapshot.span_count("durable.recover"), 1);
}
