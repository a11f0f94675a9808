//! Self-checksummed snapshot files with atomic installation.
//!
//! A snapshot captures the complete recovery payload (sim state + solver
//! cache seed) at a round boundary so the commit log can be truncated.
//! Durability comes from the rename protocol: the bytes are written to a
//! `.tmp` sibling, fsynced, then `rename(2)`d into place — a reader can
//! never observe a half-written `snap-*.ftas`, only the old file or the
//! new one. The header carries its own CRC so a snapshot corrupted at
//! rest is detected and skipped in favour of an older valid one.
//!
//! File layout:
//!
//! ```text
//! [ magic "FTASNAP1" : 8 ][ version : u32 ][ fingerprint : u64 ]
//! [ round : u64 ][ len : u64 ][ crc32c(payload) : u32 ][ payload ]
//! ```

use crate::crc32c::crc32c;
use crate::DurableError;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"FTASNAP1";
/// Current snapshot container version.
pub const SNAP_VERSION: u32 = 1;
const SNAP_HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 4;

/// A decoded snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// Scenario/config fingerprint the snapshot belongs to.
    pub fingerprint: u64,
    /// Simulator round the payload captures (state *after* this round).
    pub round: u64,
    /// Opaque recovery payload (owned by fta-sim's state codec).
    pub payload: Vec<u8>,
}

/// File name for the snapshot taken after `round`.
pub fn snapshot_name(round: u64) -> String {
    format!("snap-{round:010}.ftas")
}

/// Writes a snapshot via the temp-file + atomic-rename protocol.
///
/// `sync` controls whether the bytes (and the rename) are fsynced before
/// returning. The journal passes `false` under `FsyncPolicy::Never`: the
/// rename is still atomic in the VFS, so a *process* crash can never
/// observe a half-written snapshot — only power loss can, and recovery
/// then falls back to an older snapshot or the log, which is exactly the
/// loss envelope that policy opted into.
pub fn write_snapshot(
    dir: &Path,
    round: u64,
    fingerprint: u64,
    payload: &[u8],
    sync: bool,
) -> Result<PathBuf, DurableError> {
    let final_path = dir.join(snapshot_name(round));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_name(round)));
    let mut buf = Vec::with_capacity(SNAP_HEADER_LEN + payload.len());
    buf.extend_from_slice(&SNAP_MAGIC);
    buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    buf.extend_from_slice(&fingerprint.to_le_bytes());
    buf.extend_from_slice(&round.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(&crc32c(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    {
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&buf)?;
        if sync {
            crate::fsync(&tmp, false)?;
        }
    }
    fs::rename(&tmp_path, &final_path)?;
    // Persist the rename itself; non-fatal on filesystems that refuse
    // directory fsync, since the worst case is re-recovering from the
    // previous snapshot plus a longer log tail.
    if sync {
        if let Ok(d) = File::open(dir) {
            let _ = crate::fsync(&d, false);
        }
    }
    fta_obs::counter("wal.snapshots", 1);
    Ok(final_path)
}

/// Reads and validates one snapshot file.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, DurableError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    if raw.len() < SNAP_HEADER_LEN {
        return Err(DurableError::Corrupt("snapshot shorter than header"));
    }
    if raw[..8] != SNAP_MAGIC {
        return Err(DurableError::BadMagic("snapshot"));
    }
    let version = u32::from_le_bytes(raw[8..12].try_into().unwrap());
    if version != SNAP_VERSION {
        return Err(DurableError::BadVersion {
            expected: SNAP_VERSION,
            found: version,
        });
    }
    let fingerprint = u64::from_le_bytes(raw[12..20].try_into().unwrap());
    let round = u64::from_le_bytes(raw[20..28].try_into().unwrap());
    let len = u64::from_le_bytes(raw[28..36].try_into().unwrap());
    let crc = u32::from_le_bytes(raw[36..40].try_into().unwrap());
    let payload = &raw[SNAP_HEADER_LEN..];
    if payload.len() as u64 != len {
        return Err(DurableError::Corrupt("snapshot payload length mismatch"));
    }
    let found = crc32c(payload);
    if found != crc {
        return Err(DurableError::BadChecksum {
            expected: crc,
            found,
        });
    }
    Ok(Snapshot {
        fingerprint,
        round,
        payload: payload.to_vec(),
    })
}

/// Every `snap-*.ftas` in `dir`, oldest first: zero-padded round numbers
/// sort lexicographically.
fn snapshot_paths(dir: &Path) -> Result<Vec<PathBuf>, DurableError> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("snap-") && name.ends_with(".ftas") {
            paths.push(path);
        }
    }
    paths.sort();
    Ok(paths)
}

/// Deletes every snapshot in `dir` but the newest and one fallback.
/// Recovery reads an older snapshot only when every newer one fails to
/// validate, so two are enough to survive one corrupt file.
pub(crate) fn remove_superseded_snapshots(dir: &Path) -> Result<(), DurableError> {
    let paths = snapshot_paths(dir)?;
    for path in &paths[..paths.len().saturating_sub(2)] {
        fs::remove_file(path)?;
    }
    Ok(())
}

/// Scans `dir` for the newest snapshot that validates, skipping corrupt or
/// version-mismatched files (an older valid snapshot plus a longer log
/// replay beats refusing to recover). Returns `None` when no snapshot
/// validates; the last error seen is returned alongside for diagnostics.
pub fn latest_valid_snapshot(
    dir: &Path,
) -> Result<(Option<Snapshot>, Option<DurableError>), DurableError> {
    let mut last_err = None;
    for path in snapshot_paths(dir)?.iter().rev() {
        match read_snapshot(path) {
            Ok(snap) => return Ok((Some(snap), last_err)),
            Err(e) => last_err = Some(e),
        }
    }
    Ok((None, last_err))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fta-durable-snap-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_read_round_trip() {
        let dir = tmp("roundtrip");
        let path = write_snapshot(&dir, 42, 0xABCD, b"payload-bytes", true).unwrap();
        assert!(path.ends_with("snap-0000000042.ftas"));
        let snap = read_snapshot(&path).unwrap();
        assert_eq!(snap.round, 42);
        assert_eq!(snap.fingerprint, 0xABCD);
        assert_eq!(snap.payload, b"payload-bytes");
        assert!(!dir.join("snap-0000000042.ftas.tmp").exists());
    }

    #[test]
    fn corrupt_payload_detected() {
        let dir = tmp("corrupt");
        let path = write_snapshot(&dir, 1, 7, b"some payload", true).unwrap();
        let mut raw = fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 1] ^= 0x10;
        fs::write(&path, &raw).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(DurableError::BadChecksum { .. })
        ));
    }

    #[test]
    fn version_mismatch_detected() {
        let dir = tmp("version");
        let path = write_snapshot(&dir, 1, 7, b"p", true).unwrap();
        let mut raw = fs::read(&path).unwrap();
        raw[8] = 99; // bump version field
        fs::write(&path, &raw).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(DurableError::BadVersion {
                expected: SNAP_VERSION,
                found: 99
            })
        ));
    }

    #[test]
    fn latest_valid_skips_corrupt_newest() {
        let dir = tmp("latest");
        write_snapshot(&dir, 10, 7, b"old-good", true).unwrap();
        let newest = write_snapshot(&dir, 20, 7, b"new-bad", true).unwrap();
        let mut raw = fs::read(&newest).unwrap();
        let n = raw.len();
        raw[n - 2] ^= 0xFF;
        fs::write(&newest, &raw).unwrap();
        let (snap, err) = latest_valid_snapshot(&dir).unwrap();
        let snap = snap.expect("older snapshot still recovers");
        assert_eq!(snap.round, 10);
        assert_eq!(snap.payload, b"old-good");
        assert!(err.is_some());
    }

    #[test]
    fn empty_dir_yields_none() {
        let dir = tmp("empty");
        let (snap, err) = latest_valid_snapshot(&dir).unwrap();
        assert!(snap.is_none());
        assert!(err.is_none());
    }
}
