//! Byte mutations of a real journal directory: the commit log and the
//! snapshots a journaled day left behind. fta-durable's readers
//! (`read_log`, `read_snapshot`, `recover`) and `restore` on top of them
//! must parse or fail typed, never panic, whatever the bytes. A restore
//! that succeeds must still finish the day bit-for-bit: checksums reject
//! every damaged frame or snapshot, and duplicated or reordered frames
//! are ordered by round.

use fta_algorithms::{Algorithm, FgtConfig};
use fta_durable::log::{FRAME_HEADER_LEN, WAL_HEADER_LEN, WAL_MAGIC};
use fta_durable::{read_log, read_snapshot, recover, WAL_FILE};
use fta_sim::engine::DurableConfig;
use fta_sim::{restore, run, DayMetrics, FaultPlan, Scenario, ScenarioConfig, SimConfig};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

struct Fixture {
    scenario: Scenario,
    config: SimConfig,
    uninterrupted: DayMetrics,
    /// Every file of the finished journal: name and bytes.
    files: Vec<(String, Vec<u8>)>,
}

fn dir_for(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fta-journal-fuzz-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A faulted incremental FGT day journaled with a snapshot every 4
/// rounds and ending on a log tail of more than one frame. Its frames
/// and snapshots carry every payload part.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let scenario = Scenario::generate(
            &ScenarioConfig {
                n_workers: 8,
                n_delivery_points: 20,
                extent: 3.0,
                arrival_rate: 60.0,
                ..ScenarioConfig::default()
            },
            3.0,
            31_337,
        );
        let dir = dir_for("fixture");
        let config = SimConfig {
            horizon: 2.75,
            assignment_period: 0.25,
            vdps: fta_vdps::VdpsConfig::pruned(1.5, 3),
            ..SimConfig::day(Algorithm::Fgt(FgtConfig::default()))
        }
        .with_incremental()
        .with_faults(FaultPlan::stress(13))
        .with_durable(DurableConfig {
            dir: dir.clone(),
            fsync: fta_durable::FsyncPolicy::Never,
            snapshot_every: 4,
            crash_after_round: None,
        });
        let uninterrupted = run(&scenario, &config);
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().to_string_lossy().into_owned();
                (name, fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        let _ = fs::remove_dir_all(&dir);
        Fixture {
            scenario,
            config,
            uninterrupted,
            files,
        }
    })
}

/// Byte ranges of the frames of a commit log, each with its frame
/// header; a file that is not a log is one range.
fn frame_ranges(file: &[u8]) -> Vec<std::ops::Range<usize>> {
    if !file.starts_with(&WAL_MAGIC) {
        let whole = 0..file.len();
        return vec![whole];
    }
    let mut ranges = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    while pos + FRAME_HEADER_LEN <= file.len() {
        let len = u32::from_le_bytes(file[pos..pos + 4].try_into().unwrap()) as usize;
        let end = pos + FRAME_HEADER_LEN + len;
        if end > file.len() {
            break;
        }
        ranges.push(pos..end);
        pos = end;
    }
    ranges
}

/// One mutation of `base`, chosen by `kind` (taken modulo 6):
///
/// 0. flip the bits `bits | 1` of the byte at `at`;
/// 1. truncate at `at`;
/// 2. splice: `base` up to `at`, then `other` from `span`;
/// 3. duplicate the bytes from `at` up to a tenth of the rest (`span`);
/// 4. duplicate the frame holding `at` in place;
/// 5. swap the frames holding `at` and `span`.
///
/// `at` and `span` are fractions in `[0, 1)`. On a snapshot, kinds 4 and
/// 5 act on the single "frame" that is the whole file.
fn mutate(base: &[u8], other: &[u8], kind: u8, at: f64, span: f64, bits: u8) -> Vec<u8> {
    let pos = ((base.len() as f64) * at) as usize;
    match kind % 6 {
        0 => {
            let mut m = base.to_vec();
            if let Some(byte) = m.get_mut(pos) {
                *byte ^= bits | 1;
            }
            m
        }
        1 => base[..pos].to_vec(),
        2 => {
            let from = ((other.len() as f64) * span) as usize;
            [&base[..pos], &other[from..]].concat()
        }
        3 => {
            let len = ((base.len() - pos) as f64 * span * 0.1) as usize;
            [&base[..pos], &base[pos..pos + len], &base[pos..]].concat()
        }
        kind => {
            let mut frames = frame_ranges(base);
            let Some(head) = frames.first().map(|f| f.start) else {
                return base.to_vec();
            };
            let pick = |f: f64| ((frames.len() as f64) * f) as usize;
            let (i, j) = (pick(at), pick(span));
            if kind == 4 {
                frames.insert(i, frames[i].clone());
            } else {
                frames.swap(i, j);
            }
            let mut m = base[..head].to_vec();
            for f in frames {
                m.extend_from_slice(&base[f]);
            }
            m
        }
    }
}

/// Reads every file of `dir` through each reader and restores the day;
/// returns the restored metrics, if any. Panics only if a reader does.
fn read_everything(dir: &Path, fx: &Fixture) -> Option<DayMetrics> {
    let _ = read_log(&dir.join(WAL_FILE));
    for e in fs::read_dir(dir).unwrap() {
        let path = e.unwrap().path();
        if path.extension().is_some_and(|x| x == "ftas") {
            let _ = read_snapshot(&path);
        }
    }
    let _ = recover(dir, None);
    let mut config = fx.config.clone();
    config.durable.as_mut().unwrap().dir = dir.to_path_buf();
    restore(&fx.scenario, &config).ok().map(|(m, _)| m)
}

#[test]
fn the_fixture_holds_snapshots_and_a_log_tail() {
    let fx = fixture();
    let snapshots = fx
        .files
        .iter()
        .filter(|(n, _)| n.ends_with(".ftas"))
        .count();
    assert!(snapshots >= 2, "{snapshots} snapshot(s)");
    let wal = &fx.files.iter().find(|(n, _)| n == WAL_FILE).unwrap().1;
    assert!(
        frame_ranges(wal).len() >= 2,
        "the log tail must allow swaps"
    );
    let dir = dir_for("pristine");
    fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in &fx.files {
        fs::write(dir.join(name), bytes).unwrap();
    }
    assert_eq!(read_everything(&dir, fx).as_ref(), Some(&fx.uninterrupted));
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mutated_journal_files_parse_or_fail_typed(
        file in 0usize..64,
        other in 0usize..64,
        kind in 0u8..6,
        at in 0.0f64..1.0,
        span in 0.0f64..1.0,
        bits in 0u8..=255,
    ) {
        let fx = fixture();
        let target = file % fx.files.len();
        let donor = &fx.files[other % fx.files.len()].1;
        let dir = dir_for("case");
        fs::create_dir_all(&dir).unwrap();
        for (i, (name, bytes)) in fx.files.iter().enumerate() {
            let bytes = if i == target {
                mutate(bytes, donor, kind, at, span, bits)
            } else {
                bytes.clone()
            };
            fs::write(dir.join(name), bytes).unwrap();
        }
        let restored = read_everything(&dir, fx);
        let _ = fs::remove_dir_all(&dir);
        if let Some(metrics) = restored {
            prop_assert_eq!(
                &metrics,
                &fx.uninterrupted,
                "mutation {} of {} restored a different day",
                kind,
                &fx.files[target].0
            );
        }
    }
}
