//! # fta-durable — checksummed commit log + snapshots, crash-consistent recovery
//!
//! A crashed or restarted simulator process must restore mid-day state
//! *deterministically*. Longitudinal fairness makes
//! this load-bearing for correctness, not just availability — per-worker
//! cumulative income is state, and losing it silently resets the fairness
//! guarantee mid-day. This crate is the storage half of that contract,
//! split SpacetimeDB-style into a commit log and a snapshot store:
//!
//! * [`log`] — `fta-wal` v1: an append-only file of length-prefixed,
//!   CRC32C-checksummed frames with a configurable [`FsyncPolicy`]. The
//!   reader stops at the first bad checksum, so a torn final frame (the
//!   signature of a crash mid-append) costs exactly the torn round.
//! * [`snapshot`] — self-checksummed full-state snapshots written via
//!   temp-file + atomic rename, taken every N rounds, after which the log
//!   is truncated.
//! * [`Journal`] / [`recover`] — the writer and reader orchestration used
//!   by `fta-sim`. Frame payloads are opaque bytes here; their schema (sim
//!   state, solver-cache seed, round metadata) lives in `fta_sim::state`.
//!
//! Every payload journaled by the simulator is a *self-contained* recovery
//! point, so recovery never replays logic — it decodes the newest intact
//! payload and resumes the deterministic event loop from there. That is
//! what makes the bit-for-bit pin against an uninterrupted run testable:
//! there is no divergent replay path to drift.
//!
//! A round is written once. An ordinary round appends one log frame; a
//! snapshot round (every N-th) writes *only* the snapshot, then truncates
//! the log, and is durable through the snapshot's own fsyncs. A crash
//! between the snapshot's rename and the truncate therefore leaves log
//! frames *older* than the snapshot, so "the last log frame" is not the
//! newest payload: payloads are opaque here, and the reader that knows
//! their rounds (`fta_sim::restore`) orders every recovery point by round.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod crc32c;
pub mod log;
pub mod snapshot;
pub mod wire;

pub use log::{read_log, CommitLog, FsyncPolicy, LogRead};
pub use snapshot::{latest_valid_snapshot, read_snapshot, write_snapshot, Snapshot};

use std::fmt;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

/// The one place this crate calls `fsync(2)` (`fdatasync(2)` when
/// `data_only`), so every flush is counted as `wal.fsyncs`. Callers
/// decide whether the policy allows it.
pub(crate) fn fsync(file: &File, data_only: bool) -> io::Result<()> {
    if data_only {
        file.sync_data()?;
    } else {
        file.sync_all()?;
    }
    fta_obs::counter("wal.fsyncs", 1);
    Ok(())
}

/// Name of the commit-log file inside a durable directory.
pub const WAL_FILE: &str = "wal.fta";

/// Typed failures of the durability layer. Everything a full disk, a torn
/// write, or a stale directory can produce is represented here — recovery
/// and journaling never panic on I/O.
#[derive(Debug)]
pub enum DurableError {
    /// Underlying filesystem error (full disk, permissions, ...).
    Io(io::Error),
    /// The named file does not start with the expected magic bytes.
    BadMagic(&'static str),
    /// Container version this build does not speak.
    BadVersion {
        /// Version this build writes and reads.
        expected: u32,
        /// Version found in the file.
        found: u32,
    },
    /// Stored checksum does not match the payload.
    BadChecksum {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum computed over the payload.
        found: u32,
    },
    /// The journal belongs to a different scenario/config than the one
    /// recovery was asked to restore — refusing prevents a wrong-state
    /// restore that would be silently plausible.
    FingerprintMismatch {
        /// Fingerprint of the scenario/config being restored.
        expected: u64,
        /// Fingerprint recorded in the journal.
        found: u64,
    },
    /// The directory holds no snapshot and no clean log frame.
    NoState,
    /// Structural corruption with a static description.
    Corrupt(&'static str),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "durable I/O error: {e}"),
            Self::BadMagic(what) => write!(f, "{what}: bad magic bytes"),
            Self::BadVersion { expected, found } => {
                write!(
                    f,
                    "unsupported container version {found} (expected {expected})"
                )
            }
            Self::BadChecksum { expected, found } => write!(
                f,
                "checksum mismatch: header says {expected:#010x}, payload is {found:#010x}"
            ),
            Self::FingerprintMismatch { expected, found } => write!(
                f,
                "journal fingerprint {found:#018x} does not match scenario/config {expected:#018x}"
            ),
            Self::NoState => write!(f, "no recoverable state in durable directory"),
            Self::Corrupt(what) => write!(f, "corrupt durable data: {what}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Writer orchestration: one commit log plus periodic snapshots in a
/// single directory. Each recorded payload must be a self-contained
/// recovery point; on snapshot rounds the payload is persisted as a
/// snapshot instead of a log frame, and the log is truncated.
pub struct Journal {
    dir: PathBuf,
    log: CommitLog,
    fingerprint: u64,
    snapshot_every: u64,
    rounds_since_snapshot: u64,
    snapshots: u64,
}

impl Journal {
    /// Creates `dir` (and parents) and starts a fresh journal in it. An
    /// existing journal in the directory is truncated — pass the directory
    /// to [`recover`] first if its contents matter.
    pub fn create(
        dir: &Path,
        fingerprint: u64,
        policy: FsyncPolicy,
        snapshot_every: u64,
    ) -> Result<Self, DurableError> {
        std::fs::create_dir_all(dir)?;
        let log = CommitLog::create(&dir.join(WAL_FILE), fingerprint, policy)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            log,
            fingerprint,
            snapshot_every: snapshot_every.max(1),
            rounds_since_snapshot: 0,
            snapshots: 0,
        })
    }

    /// Reopens the journal of a recovered directory for appending,
    /// positioned after the last clean frame so a torn tail is overwritten.
    pub fn resume(
        dir: &Path,
        fingerprint: u64,
        policy: FsyncPolicy,
        snapshot_every: u64,
        recovered: &Recovery,
    ) -> Result<Self, DurableError> {
        let wal = dir.join(WAL_FILE);
        let log = if recovered.log_valid_len >= log::WAL_HEADER_LEN {
            CommitLog::open_at(&wal, recovered.log_valid_len, policy)?
        } else {
            CommitLog::create(&wal, fingerprint, policy)?
        };
        Ok(Self {
            dir: dir.to_path_buf(),
            log,
            fingerprint,
            snapshot_every: snapshot_every.max(1),
            rounds_since_snapshot: recovered.frames.len() as u64,
            snapshots: 0,
        })
    }

    /// Journals one round's self-contained payload. Every
    /// `snapshot_every`-th call is a snapshot round: it writes the payload
    /// as a snapshot and truncates the log, appending no log frame (and so
    /// making none of the log's every-N fsyncs); the round is durable
    /// through the snapshot's own fsyncs. Every other call appends one
    /// log frame.
    pub fn record(&mut self, round: u64, payload: &[u8]) -> Result<(), DurableError> {
        self.rounds_since_snapshot += 1;
        if self.rounds_since_snapshot < self.snapshot_every {
            self.log.append(payload)?;
            return Ok(());
        }
        let _span = fta_obs::span("durable.snapshot");
        let sync = self.log.policy() != FsyncPolicy::Never;
        snapshot::write_snapshot(&self.dir, round, self.fingerprint, payload, sync)?;
        self.log.truncate()?;
        self.rounds_since_snapshot = 0;
        self.snapshots += 1;
        Ok(())
    }

    /// Flushes frames the fsync policy left buffered in the page cache.
    /// An explicit request: it flushes under every policy, `Never`
    /// included.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.log.sync()
    }

    /// Log frames appended through this journal. Snapshot rounds append
    /// none, so this plus [`Journal::snapshots_written`] is the number of
    /// recorded rounds.
    pub fn frames_written(&self) -> u64 {
        self.log.frames_written()
    }

    /// Snapshots persisted through this journal.
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots
    }
}

/// Everything recovery could extract from a durable directory.
#[derive(Debug)]
pub struct Recovery {
    /// Newest snapshot that validated, if any.
    pub snapshot: Option<Snapshot>,
    /// Clean log frames in append order (payloads are opaque here). They
    /// normally follow the snapshot; after a crash between a snapshot's
    /// rename and the log truncate they precede it instead.
    pub frames: Vec<Vec<u8>>,
    /// Journal fingerprint (from the log header, else the snapshot).
    pub fingerprint: u64,
    /// True when the log ended in a torn/truncated frame that was dropped.
    pub torn_tail: bool,
    /// Byte offset where clean log content ends (append resume point).
    pub log_valid_len: u64,
    /// Error from the newest *invalid* snapshot, kept for diagnostics when
    /// an older snapshot (or the log alone) carried the recovery.
    pub skipped_snapshot: Option<DurableError>,
}

/// Scans a durable directory: newest valid snapshot plus the clean log
/// tail. Emits `wal.torn_tail` to obs and a flight-ring mark when a torn
/// frame was dropped. Fails typed on a missing/empty directory
/// ([`DurableError::NoState`]), foreign files ([`DurableError::BadMagic`])
/// or a fingerprint mismatch when `expected_fingerprint` is given.
pub fn recover(dir: &Path, expected_fingerprint: Option<u64>) -> Result<Recovery, DurableError> {
    if !dir.is_dir() {
        return Err(DurableError::NoState);
    }
    let (snapshot, skipped_snapshot) = snapshot::latest_valid_snapshot(dir)?;
    let log = read_log(&dir.join(WAL_FILE))?;
    let fingerprint = if log.valid_len >= log::WAL_HEADER_LEN {
        log.fingerprint
    } else {
        snapshot.as_ref().map(|s| s.fingerprint).unwrap_or(0)
    };
    if snapshot.is_none() && log.frames.is_empty() {
        return Err(DurableError::NoState);
    }
    if let Some(expected) = expected_fingerprint {
        if fingerprint != expected {
            return Err(DurableError::FingerprintMismatch {
                expected,
                found: fingerprint,
            });
        }
        if let Some(snap) = &snapshot {
            if snap.fingerprint != expected {
                return Err(DurableError::FingerprintMismatch {
                    expected,
                    found: snap.fingerprint,
                });
            }
        }
    }
    if log.torn_tail {
        fta_obs::counter("wal.torn_tail", 1);
        fta_obs::ring::mark("wal-torn-tail", None);
    }
    fta_obs::ring::mark("wal-recover", None);
    Ok(Recovery {
        snapshot,
        frames: log.frames,
        fingerprint,
        torn_tail: log.torn_tail,
        log_valid_len: log.valid_len,
        skipped_snapshot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fta-durable-lib-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journal_snapshot_cycle_and_recovery() {
        let dir = tmp("cycle");
        let mut j = Journal::create(&dir, 0xF00D, FsyncPolicy::Never, 3).unwrap();
        for round in 1..=7u64 {
            j.record(round, format!("state-{round}").as_bytes())
                .unwrap();
        }
        // Rounds 3 and 6 are snapshot rounds: they append no log frame.
        assert_eq!(j.snapshots_written(), 2);
        assert_eq!(j.frames_written(), 5);
        drop(j);
        let rec = recover(&dir, Some(0xF00D)).unwrap();
        let snap = rec.snapshot.as_ref().unwrap();
        assert_eq!(snap.round, 6);
        assert_eq!(snap.payload, b"state-6");
        assert_eq!(rec.frames, vec![b"state-7".to_vec()]);
        assert!(!rec.torn_tail);
    }

    #[test]
    fn snapshot_round_leaves_an_empty_log() {
        let dir = tmp("snapround");
        let mut j = Journal::create(&dir, 4, FsyncPolicy::Always, 2).unwrap();
        j.record(1, b"logged").unwrap();
        j.record(2, b"snapshotted").unwrap();
        assert_eq!((j.frames_written(), j.snapshots_written()), (1, 1));
        drop(j);
        let rec = recover(&dir, Some(4)).unwrap();
        assert!(rec.frames.is_empty());
        assert_eq!(rec.log_valid_len, log::WAL_HEADER_LEN);
        assert_eq!(rec.snapshot.unwrap().payload, b"snapshotted");
    }

    #[test]
    fn crash_before_the_truncate_keeps_older_frames_beside_the_snapshot() {
        // Snapshot round 3 is installed but the log still holds rounds 1
        // and 2: recovery reports both, and ordering them is the reader's
        // job (the last log frame is *not* the newest payload here).
        let dir = tmp("pretruncate");
        let mut j = Journal::create(&dir, 6, FsyncPolicy::Never, 1000).unwrap();
        j.record(1, b"one").unwrap();
        j.record(2, b"two").unwrap();
        drop(j);
        write_snapshot(&dir, 3, 6, b"three", false).unwrap();
        let rec = recover(&dir, Some(6)).unwrap();
        assert_eq!(rec.snapshot.as_ref().unwrap().round, 3);
        assert_eq!(rec.frames, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(!rec.torn_tail);
    }

    #[test]
    fn missing_dir_is_no_state() {
        assert!(matches!(
            recover(&tmp("missing"), None),
            Err(DurableError::NoState)
        ));
    }

    #[test]
    fn empty_dir_is_no_state() {
        let dir = tmp("emptydir");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(recover(&dir, None), Err(DurableError::NoState)));
    }

    #[test]
    fn snapshot_only_recovers() {
        let dir = tmp("snaponly");
        fs::create_dir_all(&dir).unwrap();
        write_snapshot(&dir, 12, 5, b"snap-state", true).unwrap();
        let rec = recover(&dir, Some(5)).unwrap();
        assert_eq!(rec.snapshot.unwrap().payload, b"snap-state");
        assert!(rec.frames.is_empty());
    }

    #[test]
    fn log_only_recovers() {
        let dir = tmp("logonly");
        let mut j = Journal::create(&dir, 9, FsyncPolicy::Never, 1000).unwrap();
        j.record(1, b"one").unwrap();
        j.record(2, b"two").unwrap();
        drop(j);
        let rec = recover(&dir, Some(9)).unwrap();
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.frames, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn fingerprint_mismatch_refused() {
        let dir = tmp("fingerprint");
        let mut j = Journal::create(&dir, 0xAAAA, FsyncPolicy::Never, 1000).unwrap();
        j.record(1, b"state").unwrap();
        drop(j);
        assert!(matches!(
            recover(&dir, Some(0xBBBB)),
            Err(DurableError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn torn_tail_falls_back_to_previous_frame() {
        let dir = tmp("tornfallback");
        let mut j = Journal::create(&dir, 1, FsyncPolicy::Never, 1000).unwrap();
        j.record(1, b"good-round").unwrap();
        j.record(2, b"torn-round").unwrap();
        drop(j);
        let wal = dir.join(WAL_FILE);
        let full = fs::metadata(&wal).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(full - 4)
            .unwrap();
        let rec = recover(&dir, Some(1)).unwrap();
        assert!(rec.torn_tail);
        assert_eq!(rec.frames, vec![b"good-round".to_vec()]);
        // Resume overwrites the torn bytes.
        let mut j = Journal::resume(&dir, 1, FsyncPolicy::Never, 1000, &rec).unwrap();
        j.record(2, b"retried-round").unwrap();
        drop(j);
        let rec = recover(&dir, Some(1)).unwrap();
        assert!(!rec.torn_tail);
        assert_eq!(
            rec.frames,
            vec![b"good-round".to_vec(), b"retried-round".to_vec()]
        );
    }

    #[test]
    fn zero_length_log_with_snapshot_resumes_clean() {
        let dir = tmp("zerolog");
        fs::create_dir_all(&dir).unwrap();
        write_snapshot(&dir, 4, 3, b"snap", true).unwrap();
        fs::write(dir.join(WAL_FILE), b"").unwrap();
        let rec = recover(&dir, Some(3)).unwrap();
        assert!(rec.frames.is_empty());
        assert_eq!(rec.snapshot.unwrap().payload, b"snap");
        assert!(!rec.torn_tail);
    }
}
