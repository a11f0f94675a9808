//! Crash-injection harness: a journaled day is "crashed" by truncating
//! its commit log at a fuzzed byte offset — any offset, including
//! mid-header and mid-payload — and recovery must either finish the day
//! **bit-for-bit** equal to the uninterrupted run or fail typed with
//! `NoState` (when the cut destroyed every recovery point). Nothing in
//! between: no panics, no silently-divergent days, and the conservation
//! identity holds on every recovered outcome.
//!
//! Two fixtures: a faulted GTA day solved cold (frames carry no solver
//! seed) and a faulted incremental FGT day, whose every frame carries the
//! solver seed a resumed day must re-hydrate to stay bit-identical.

use fta_algorithms::{Algorithm, FgtConfig};
use fta_sim::engine::DurableConfig;
use fta_sim::{restore, run, DayMetrics, FaultPlan, Scenario, ScenarioConfig, SimConfig};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

struct Fixture {
    scenario: Scenario,
    config: SimConfig,
    uninterrupted: DayMetrics,
    /// Pristine bytes of the full day's commit log (no snapshots: the
    /// fixture uses an effectively-infinite snapshot cadence so every
    /// round survives in the log and any prefix is a valid crash state).
    wal: Vec<u8>,
}

fn dir_for(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fta-crash-harness-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Journals one whole day of `algorithm` (incremental or cold) and keeps
/// its commit log.
fn journaled_day(tag: &str, algorithm: Algorithm, incremental: bool) -> Fixture {
    let scenario = Scenario::generate(
        &ScenarioConfig {
            n_workers: 8,
            n_delivery_points: 20,
            extent: 3.0,
            arrival_rate: 60.0,
            ..ScenarioConfig::default()
        },
        2.0,
        424_242,
    );
    let dir = dir_for(tag);
    let mut config = SimConfig {
        horizon: 2.0,
        assignment_period: 0.25,
        vdps: fta_vdps::VdpsConfig::pruned(1.5, 3),
        ..SimConfig::day(algorithm)
    }
    .with_faults(FaultPlan::stress(99))
    .with_durable(DurableConfig {
        dir: dir.clone(),
        fsync: fta_durable::FsyncPolicy::Never,
        snapshot_every: u64::MAX,
        crash_after_round: None,
    });
    config.incremental = incremental;
    let uninterrupted = run(&scenario, &config);
    let wal = fs::read(dir.join(fta_durable::WAL_FILE)).expect("journaled wal exists");
    let _ = fs::remove_dir_all(&dir);
    Fixture {
        scenario,
        config,
        uninterrupted,
        wal,
    }
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| journaled_day("fixture", Algorithm::Gta, false))
}

fn incremental_fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| journaled_day("incremental", Algorithm::Fgt(FgtConfig::default()), true))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_truncation_point_recovers_bit_for_bit_or_fails_typed(
        frac in 0.0f64..1.0,
        incremental in prop::bool::ANY,
    ) {
        let fx = if incremental { incremental_fixture() } else { fixture() };
        let cut = ((fx.wal.len() as f64) * frac) as usize;
        let dir = dir_for("case");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(fta_durable::WAL_FILE), &fx.wal[..cut]).unwrap();
        let mut config = fx.config.clone();
        config.durable.as_mut().unwrap().dir.clone_from(&dir);

        match restore(&fx.scenario, &config) {
            Ok((recovered, info)) => {
                prop_assert_eq!(
                    &recovered,
                    &fx.uninterrupted,
                    "cut at byte {} of {} diverged (resumed round {})",
                    cut,
                    fx.wal.len(),
                    info.resumed_round
                );
                prop_assert!(recovered.is_conserved(), "conservation broken: {recovered:?}");
                prop_assert!(info.resumed_round >= 1);
                prop_assert_eq!(info.cache_rehydrated, incremental);
            }
            // The cut destroyed every clean frame: the only acceptable
            // failure, and it must be the typed one.
            Err(fta_durable::DurableError::NoState) => {}
            Err(other) => prop_assert!(false, "unexpected recovery error: {other}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn every_incremental_frame_carries_a_solver_seed() {
    // The incremental fixture is only worth fuzzing if the frames it
    // truncates hold a solver seed.
    let fx = incremental_fixture();
    let dir = dir_for("seeded");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(fta_durable::WAL_FILE), &fx.wal).unwrap();
    let log = fta_durable::read_log(&dir.join(fta_durable::WAL_FILE)).unwrap();
    let _ = fs::remove_dir_all(&dir);
    assert!(log.frames.len() >= 3);
    for frame in &log.frames {
        assert!(fta_sim::frame_info(frame).unwrap().has_solver_cache);
    }
}

#[test]
fn wal_dump_decodes_a_fault_injected_journal() {
    // Every clean frame of a faulted day's journal must decode to a
    // plausible FrameInfo — the CLI `fta wal-dump` path end to end.
    let fx = fixture();
    let log_frames = {
        let dir = dir_for("dump");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(fta_durable::WAL_FILE), &fx.wal).unwrap();
        let log = fta_durable::read_log(&dir.join(fta_durable::WAL_FILE)).unwrap();
        let _ = fs::remove_dir_all(&dir);
        log
    };
    assert!(!log_frames.frames.is_empty());
    assert!(!log_frames.torn_tail);
    let mut prev_round = 0u64;
    for frame in &log_frames.frames {
        let info = fta_sim::frame_info(frame).expect("clean frame decodes");
        assert!(
            info.round > prev_round,
            "rounds must be strictly increasing"
        );
        prev_round = info.round;
        assert_eq!(info.workers, fx.scenario.workers.len() as u64);
        assert!(info.sim_hours > 0.0 && info.sim_hours <= 2.0);
        assert!(info.has_fault_rng, "faulted day journals its RNG stream");
        assert!(
            info.has_ledger_record,
            "durable batch rounds journal records"
        );
    }
    // The final frame's cumulative counters are bounded by the day's.
    let last = fta_sim::frame_info(log_frames.frames.last().unwrap()).unwrap();
    assert!(last.tasks_completed <= fx.uninterrupted.tasks_completed as u64);
    let day_total: f64 = fx.uninterrupted.earnings().iter().sum();
    assert!(last.earnings_total <= day_total + 1e-9);
}
