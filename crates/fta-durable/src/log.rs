//! Append-only commit log of checksummed frames (`fta-wal` v1).
//!
//! File layout:
//!
//! ```text
//! [ magic "FTAWAL1\0" : 8 bytes ][ fingerprint : u64 LE ]      header
//! [ len : u32 LE ][ crc32c(payload) : u32 LE ][ payload ]      frame 0
//! [ len : u32 LE ][ crc32c(payload) : u32 LE ][ payload ]      frame 1
//! ...
//! ```
//!
//! The reader stops at the first frame that fails to parse cleanly — short
//! header, length running past EOF, or checksum mismatch — and reports
//! everything before it plus a `torn_tail` flag, mirroring the fta-flight
//! dump parser's "a clean parse *is* the integrity check" design. A torn
//! tail is the expected signature of a crash mid-append and costs exactly
//! the torn round; it is never an error.

use crate::crc32c::crc32c;
use crate::DurableError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes opening every commit-log file.
pub const WAL_MAGIC: [u8; 8] = *b"FTAWAL1\0";
/// Header length: magic + fingerprint.
pub const WAL_HEADER_LEN: u64 = 16;
/// Per-frame overhead: length prefix + checksum.
pub const FRAME_HEADER_LEN: usize = 8;
/// Hard ceiling on a single frame; anything larger is corruption.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// When the log file is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync(2)` after every appended frame — at most zero committed
    /// rounds lost on power failure, at the cost of a disk round-trip per
    /// simulator round.
    Always,
    /// `fsync(2)` every N frames — bounds loss to the last N rounds while
    /// amortising the flush. The default (`EveryN(8)`) is the recommended
    /// production setting.
    EveryN(u32),
    /// Never fsync; rely on the OS page cache. Survives process crashes
    /// (writes are in the kernel already) but not power loss.
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `always`, `never`, or a frame count for
    /// every-N (`every-n` alone means the default of 8).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(Self::Always),
            "never" => Some(Self::Never),
            "every-n" => Some(Self::EveryN(8)),
            n => n.parse::<u32>().ok().filter(|&n| n > 0).map(Self::EveryN),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Always => write!(f, "always"),
            Self::EveryN(n) => write!(f, "every-{n}"),
            Self::Never => write!(f, "never"),
        }
    }
}

/// Writer half of the commit log.
pub struct CommitLog {
    file: File,
    policy: FsyncPolicy,
    since_sync: u32,
    frames: u64,
}

impl CommitLog {
    /// Creates (or truncates) the log at `path` and writes the header,
    /// fsynced unless the policy is [`FsyncPolicy::Never`].
    pub fn create(
        path: &Path,
        fingerprint: u64,
        policy: FsyncPolicy,
    ) -> Result<Self, DurableError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&WAL_MAGIC)?;
        file.write_all(&fingerprint.to_le_bytes())?;
        if policy != FsyncPolicy::Never {
            crate::fsync(&file, false)?;
        }
        Ok(Self {
            file,
            policy,
            since_sync: 0,
            frames: 0,
        })
    }

    /// Opens an existing log for appending after recovery, positioning the
    /// cursor at `valid_len` (the end of the last clean frame) so a torn
    /// tail is overwritten rather than extended.
    pub fn open_at(path: &Path, valid_len: u64, policy: FsyncPolicy) -> Result<Self, DurableError> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut log = Self {
            file,
            policy,
            since_sync: 0,
            frames: 0,
        };
        log.file.seek(SeekFrom::Start(valid_len))?;
        Ok(log)
    }

    /// Appends one checksummed frame, honouring the fsync policy. Returns
    /// the on-disk size of the frame (payload + 8-byte frame header).
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, DurableError> {
        let _span = fta_obs::span("durable.append");
        debug_assert!(payload.len() as u64 <= MAX_FRAME_LEN as u64);
        let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32c(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        self.file.write_all(&buf)?;
        self.frames += 1;
        fta_obs::counter("wal.frames", 1);
        fta_obs::counter("wal.bytes", buf.len() as u64);
        let sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => {
                self.since_sync += 1;
                self.since_sync >= n
            }
            FsyncPolicy::Never => false,
        };
        if sync {
            crate::fsync(&self.file, true)?;
            self.since_sync = 0;
        }
        Ok(buf.len() as u64)
    }

    /// Truncates the log back to its header — called after a snapshot has
    /// been renamed into place, making the journaled rounds redundant.
    /// Under [`FsyncPolicy::Never`] the truncation stays in the page
    /// cache like everything else; otherwise it is fsynced so a power
    /// failure cannot resurrect pre-snapshot frames. (No sync is needed
    /// *before* `set_len`: the dropped frames are dead the moment the
    /// snapshot writer returned, and it already ordered the snapshot to
    /// disk.)
    pub fn truncate(&mut self) -> Result<(), DurableError> {
        self.file.set_len(WAL_HEADER_LEN)?;
        self.file.seek(SeekFrom::Start(WAL_HEADER_LEN))?;
        if self.policy != FsyncPolicy::Never {
            crate::fsync(&self.file, true)?;
        }
        self.since_sync = 0;
        Ok(())
    }

    /// Flushes any frames the policy left unsynced, under every policy.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        crate::fsync(&self.file, true)?;
        self.since_sync = 0;
        Ok(())
    }

    /// Frames appended through this handle.
    pub fn frames_written(&self) -> u64 {
        self.frames
    }

    /// The fsync policy this log was opened with.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }
}

/// Result of scanning a commit-log file.
#[derive(Debug)]
pub struct LogRead {
    /// Scenario/config fingerprint from the header.
    pub fingerprint: u64,
    /// Every frame payload that parsed cleanly, in append order.
    pub frames: Vec<Vec<u8>>,
    /// True when trailing bytes after the last clean frame failed to parse
    /// (crash mid-append). The torn bytes are ignored.
    pub torn_tail: bool,
    /// Byte offset of the end of the last clean frame — where appends must
    /// resume to overwrite the torn tail.
    pub valid_len: u64,
}

/// Reads a commit log, stopping at the first bad frame.
///
/// A missing or zero-length file reads as an empty log (a crash can land
/// between `create` and the header write); a partial header is a torn
/// tail; a wrong magic is a typed error — that file is not a WAL.
pub fn read_log(path: &Path) -> Result<LogRead, DurableError> {
    let mut raw = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut raw)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }
    if raw.is_empty() {
        return Ok(LogRead {
            fingerprint: 0,
            frames: Vec::new(),
            torn_tail: false,
            valid_len: 0,
        });
    }
    if raw.len() < WAL_HEADER_LEN as usize {
        return Ok(LogRead {
            fingerprint: 0,
            frames: Vec::new(),
            torn_tail: true,
            valid_len: 0,
        });
    }
    if raw[..8] != WAL_MAGIC {
        return Err(DurableError::BadMagic("commit log"));
    }
    let fingerprint = u64::from_le_bytes(raw[8..16].try_into().unwrap());
    let mut frames = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    let mut torn_tail = false;
    let mut valid_len = pos as u64;
    while pos < raw.len() {
        let rest = &raw[pos..];
        if rest.len() < FRAME_HEADER_LEN {
            torn_tail = true;
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if len > MAX_FRAME_LEN || rest.len() - FRAME_HEADER_LEN < len as usize {
            torn_tail = true;
            break;
        }
        let payload = &rest[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len as usize];
        if crc32c(payload) != crc {
            torn_tail = true;
            break;
        }
        frames.push(payload.to_vec());
        pos += FRAME_HEADER_LEN + len as usize;
        valid_len = pos as u64;
    }
    Ok(LogRead {
        fingerprint,
        frames,
        torn_tail,
        valid_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fta-durable-log-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("wal.fta")
    }

    #[test]
    fn append_and_read_round_trip() {
        let path = tmp("roundtrip");
        let mut log = CommitLog::create(&path, 0xFEED, FsyncPolicy::EveryN(2)).unwrap();
        log.append(b"round-0").unwrap();
        log.append(b"round-1").unwrap();
        log.append(&[]).unwrap();
        let read = read_log(&path).unwrap();
        assert_eq!(read.fingerprint, 0xFEED);
        assert_eq!(
            read.frames,
            vec![b"round-0".to_vec(), b"round-1".to_vec(), vec![]]
        );
        assert!(!read.torn_tail);
        assert_eq!(read.valid_len, fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn frames_checksummed_by_the_bytewise_oracle_read_back_clean() {
        // A log written byte-for-byte by the retired slice-by-one CRC must
        // still read back: the on-disk format did not change with the
        // slice-by-8 checksum.
        let path = tmp("oracle");
        let payloads: Vec<Vec<u8>> = [0usize, 1, 7, 8, 9, 63, 4096, 110_017]
            .iter()
            .map(|&n| (0..n).map(|i| (i * 31 + n) as u8).collect())
            .collect();
        let mut raw = WAL_MAGIC.to_vec();
        raw.extend_from_slice(&0xC0DEu64.to_le_bytes());
        for p in &payloads {
            raw.extend_from_slice(&(p.len() as u32).to_le_bytes());
            raw.extend_from_slice(&crate::crc32c::crc32c_bytewise(p).to_le_bytes());
            raw.extend_from_slice(p);
        }
        fs::write(&path, &raw).unwrap();
        let read = read_log(&path).unwrap();
        assert_eq!(read.fingerprint, 0xC0DE);
        assert_eq!(read.frames, payloads);
        assert!(!read.torn_tail);
        assert_eq!(read.valid_len, raw.len() as u64);
    }

    #[test]
    fn truncated_payload_is_torn_not_error() {
        let path = tmp("torn");
        let mut log = CommitLog::create(&path, 1, FsyncPolicy::Never).unwrap();
        log.append(b"kept-frame").unwrap();
        log.append(b"torn-frame").unwrap();
        drop(log);
        let full = fs::metadata(&path).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        let read = read_log(&path).unwrap();
        assert_eq!(read.frames, vec![b"kept-frame".to_vec()]);
        assert!(read.torn_tail);
    }

    #[test]
    fn bad_crc_stops_the_scan() {
        let path = tmp("badcrc");
        let mut log = CommitLog::create(&path, 1, FsyncPolicy::Never).unwrap();
        log.append(b"good").unwrap();
        log.append(b"evil").unwrap();
        drop(log);
        let mut raw = fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 1] ^= 0xFF; // flip a payload byte of the last frame
        fs::write(&path, &raw).unwrap();
        let read = read_log(&path).unwrap();
        assert_eq!(read.frames, vec![b"good".to_vec()]);
        assert!(read.torn_tail);
    }

    #[test]
    fn zero_length_file_reads_empty() {
        let path = tmp("zerolen");
        fs::write(&path, b"").unwrap();
        let read = read_log(&path).unwrap();
        assert!(read.frames.is_empty());
        assert!(!read.torn_tail);
    }

    #[test]
    fn partial_header_is_torn() {
        let path = tmp("partialheader");
        fs::write(&path, &WAL_MAGIC[..5]).unwrap();
        let read = read_log(&path).unwrap();
        assert!(read.frames.is_empty());
        assert!(read.torn_tail);
    }

    #[test]
    fn wrong_magic_is_typed_error() {
        let path = tmp("badmagic");
        fs::write(&path, b"NOTAWAL!0123456789").unwrap();
        assert!(matches!(read_log(&path), Err(DurableError::BadMagic(_))));
    }

    #[test]
    fn truncate_then_append_resumes_clean() {
        let path = tmp("truncate");
        let mut log = CommitLog::create(&path, 9, FsyncPolicy::Always).unwrap();
        log.append(b"pre-snapshot").unwrap();
        log.truncate().unwrap();
        log.append(b"post-snapshot").unwrap();
        let read = read_log(&path).unwrap();
        assert_eq!(read.frames, vec![b"post-snapshot".to_vec()]);
        assert!(!read.torn_tail);
    }

    #[test]
    fn open_at_overwrites_torn_tail() {
        let path = tmp("reopen");
        let mut log = CommitLog::create(&path, 2, FsyncPolicy::Never).unwrap();
        log.append(b"solid").unwrap();
        log.append(b"will-be-torn").unwrap();
        drop(log);
        let full = fs::metadata(&path).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 2).unwrap();
        drop(f);
        let read = read_log(&path).unwrap();
        assert!(read.torn_tail);
        let mut log = CommitLog::open_at(&path, read.valid_len, FsyncPolicy::Never).unwrap();
        log.append(b"replacement").unwrap();
        let read = read_log(&path).unwrap();
        assert_eq!(
            read.frames,
            vec![b"solid".to_vec(), b"replacement".to_vec()]
        );
        assert!(!read.torn_tail);
    }
}
