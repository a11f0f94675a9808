//! The flight recorder: an always-on, bounded, per-thread ring buffer of
//! recent telemetry events, dumped to a versioned JSONL snapshot when an
//! anomaly fires (a quarantined panic, an exhausted solve budget
//! (`fta_core::SolveBudget`), or a degradation rung below `Full`).
//!
//! ## Why a second recorder?
//!
//! The [`crate::Recorder`] pipeline is opt-in and unbounded: it keeps
//! *everything* until `finish()`, which is right for `--trace-out` but
//! wrong for a resident dispatcher that runs for days. The flight
//! recorder is the black box next to it: always armed (no install step),
//! per-thread, fixed capacity ([`RING_CAPACITY`] events per thread), so
//! the last moments before any anomaly are recoverable even when no
//! recorder was installed.
//!
//! ## Emit cost contract
//!
//! * **Disarmed** (`FTA_FLIGHT=off` or [`set_armed`]`(false)`): one
//!   relaxed atomic load per emit, nothing else — same contract as the
//!   uninstalled [`crate::Recorder`].
//! * **Armed** (the default): one relaxed load, one monotonic clock
//!   read, and one *uncontended* `try_lock` push into this thread's
//!   ring. The producing thread never blocks: if a dumper holds the
//!   ring lock at that instant the event is counted as dropped instead.
//!   The quick-mode obs bench asserts a per-op budget for this path.
//!
//! Memory is bounded: each live thread owns one fixed-capacity ring
//! (registered in a global registry via `Weak`); when a thread exits,
//! its ring's contents move to a bounded retired list
//! ([`MAX_RETIRED_RINGS`] rings, oldest evicted first) so pool workers
//! that finished before an anomaly still contribute their last events
//! to the dump.
//!
//! ## Dump schema (`fta-flight` version 1)
//!
//! A dump is UTF-8 JSONL:
//!
//! * line 1 — header: `{"schema":"fta-flight","version":1,"reason":s,
//!   "center":u|null,"dumped_unix_ms":u,"threads":u,"dropped":u}`
//! * event lines — `{"type":"event","thread":u,"seq":u,"t_ns":u,
//!   "kind":s,"name":s,"value":u,"center":u|null}` where `kind` is one
//!   of `counter|gauge|hist|span|round|mark`, `t_ns` is nanoseconds
//!   since the process flight epoch, and `seq` is a per-thread
//!   monotonic sequence number (strictly increasing within a thread —
//!   [`parse`] rejects dumps where it is not, which is how tests prove
//!   the ring never tears events).
//!
//! Unknown keys must be ignored by parsers; unknown `kind`/`type`
//! values are an error (bump `version` to add event kinds).

use serde_json::Value;
use std::cell::RefCell;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Value of the dump header's `"schema"` field.
pub const SCHEMA_NAME: &str = "fta-flight";
/// Dump schema version this crate reads and writes.
pub const SCHEMA_VERSION: u64 = 1;
/// Events retained per thread; older events are overwritten in place.
pub const RING_CAPACITY: usize = 2048;
/// Anomaly dumps are capped per process so a pathological round cannot
/// fill a disk with snapshots.
pub const MAX_ANOMALY_DUMPS: u64 = 8;
/// Default minimum milliseconds between two anomaly dumps (coarse rate
/// limit on top of [`MAX_ANOMALY_DUMPS`]); override with the
/// `FTA_FLIGHT_RATE_MS` environment variable (`0` disables the interval
/// limit; the per-process cap still applies).
pub const DEFAULT_DUMP_RATE_MS: u64 = 250;

/// The effective auto-dump rate limit in milliseconds: `FTA_FLIGHT_RATE_MS`
/// when set to a parseable integer, [`DEFAULT_DUMP_RATE_MS`] otherwise.
/// Read once per process and echoed in every dump header as `rate_ms`.
#[must_use]
pub fn dump_rate_ms() -> u64 {
    static RATE: OnceLock<u64> = OnceLock::new();
    *RATE.get_or_init(|| {
        std::env::var("FTA_FLIGHT_RATE_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_DUMP_RATE_MS)
    })
}

/// What kind of telemetry a flight event snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A counter increment; `value` is the delta.
    Counter,
    /// A max-aggregated gauge sample; `value` is the observation.
    Gauge,
    /// A histogram sample; `value` is the sample (typically nanoseconds).
    Hist,
    /// A closed span; `value` is the duration in nanoseconds.
    Span,
    /// A solver round; `name` is the algorithm, `value` the round number.
    Round,
    /// An explicit marker (e.g. the anomaly that triggered a dump).
    Mark,
}

impl FlightKind {
    /// Lower-case tag used in dump lines.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Counter => "counter",
            Self::Gauge => "gauge",
            Self::Hist => "hist",
            Self::Span => "span",
            Self::Round => "round",
            Self::Mark => "mark",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "counter" => Self::Counter,
            "gauge" => Self::Gauge,
            "hist" => Self::Hist,
            "span" => Self::Span,
            "round" => Self::Round,
            "mark" => Self::Mark,
            _ => return None,
        })
    }
}

/// One event as held in a thread's ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FlightEvent {
    seq: u64,
    t_nanos: u64,
    kind: FlightKind,
    name: &'static str,
    value: u64,
    center: Option<u32>,
}

const DISARMED: u8 = 0;
const ARMED_ON: u8 = 1;
const UNINITIALIZED: u8 = 2;

/// Armed by default; `FTA_FLIGHT=off` (or `0`/`false`/`none`) disarms
/// at first emit, and [`set_armed`] overrides either way.
static ARMED: AtomicU8 = AtomicU8::new(UNINITIALIZED);

/// True when the flight recorder is armed. This relaxed load is the
/// whole cost an emit pays when disarmed.
#[inline]
pub fn armed() -> bool {
    match ARMED.load(Ordering::Relaxed) {
        ARMED_ON => true,
        DISARMED => false,
        _ => armed_slow(),
    }
}

#[cold]
fn armed_slow() -> bool {
    let off = std::env::var("FTA_FLIGHT").is_ok_and(|v| {
        matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "off" | "0" | "false" | "none"
        )
    });
    // A racing first call parses the same env var; last store wins.
    ARMED.store(if off { DISARMED } else { ARMED_ON }, Ordering::Relaxed);
    !off
}

/// Arm or disarm the flight recorder programmatically (wins over
/// `FTA_FLIGHT`). Intended for benches and embedding.
pub fn set_armed(on: bool) {
    ARMED.store(if on { ARMED_ON } else { DISARMED }, Ordering::Relaxed);
}

/// The process flight epoch: every `t_ns` in a dump counts from here.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct Ring {
    thread: u64,
    next_seq: u64,
    /// Events the producer dropped because a dumper held the lock.
    dropped: u64,
    buf: Vec<FlightEvent>,
    /// Index the next event overwrites once `buf` is full.
    head: usize,
}

impl Ring {
    fn push(&mut self, mut event: FlightEvent) {
        event.seq = self.next_seq;
        self.next_seq += 1;
        if self.buf.len() < RING_CAPACITY {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % RING_CAPACITY;
        }
    }

    /// Events in sequence order (oldest retained first).
    fn snapshot(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

static REGISTRY: Mutex<Vec<Weak<Mutex<Ring>>>> = Mutex::new(Vec::new());
static NEXT_FLIGHT_THREAD: AtomicU64 = AtomicU64::new(1);

fn lock_registry() -> std::sync::MutexGuard<'static, Vec<Weak<Mutex<Ring>>>> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Retired rings kept after their thread exits, bounded to this many
/// (oldest evicted first, counted as dropped).
pub const MAX_RETIRED_RINGS: usize = 32;

struct RetiredRing {
    thread: u64,
    dropped: u64,
    events: Vec<FlightEvent>,
}

static RETIRED: Mutex<Vec<RetiredRing>> = Mutex::new(Vec::new());
static RETIRED_EVICTED: AtomicU64 = AtomicU64::new(0);

fn lock_retired() -> std::sync::MutexGuard<'static, Vec<RetiredRing>> {
    RETIRED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Thread-local owner of a ring: its destructor moves the ring's final
/// contents to the retired list so pool workers that exited before an
/// anomaly still appear in the dump.
struct RingHandle(Arc<Mutex<Ring>>);

impl Drop for RingHandle {
    fn drop(&mut self) {
        // A dumper holding the lock at thread exit is a teardown race;
        // losing this ring's tail then is acceptable.
        let Ok(ring) = self.0.try_lock() else {
            return;
        };
        let retired = RetiredRing {
            thread: ring.thread,
            dropped: ring.dropped + ring.next_seq.saturating_sub(ring.buf.len() as u64),
            events: ring.snapshot(),
        };
        drop(ring);
        let mut list = lock_retired();
        if list.len() >= MAX_RETIRED_RINGS {
            let evicted = list.remove(0);
            RETIRED_EVICTED.fetch_add(
                evicted.dropped + evicted.events.len() as u64,
                Ordering::Relaxed,
            );
        }
        list.push(retired);
    }
}

thread_local! {
    /// This thread's ring. The `Arc` keeps it alive for the thread's
    /// lifetime; the registry only holds a `Weak`. On thread exit the
    /// [`RingHandle`] destructor retires the ring's contents.
    static RING: RefCell<Option<RingHandle>> = const { RefCell::new(None) };
}

/// Record one event into this thread's ring. The producer never blocks:
/// a rare collision with a dumping thread drops the event (counted in
/// the next dump's `dropped` total).
#[inline]
pub(crate) fn record(kind: FlightKind, name: &'static str, value: u64, center: Option<u32>) {
    if !armed() {
        return;
    }
    record_armed(kind, name, value, center);
}

static CONTENDED_DROPS: AtomicU64 = AtomicU64::new(0);

fn record_armed(kind: FlightKind, name: &'static str, value: u64, center: Option<u32>) {
    let t_nanos = now_nanos();
    let _ = RING.try_with(|cell| {
        let Ok(mut slot) = cell.try_borrow_mut() else {
            return;
        };
        let arc = slot
            .get_or_insert_with(|| {
                let ring = Arc::new(Mutex::new(Ring {
                    thread: NEXT_FLIGHT_THREAD.fetch_add(1, Ordering::Relaxed),
                    next_seq: 0,
                    dropped: 0,
                    buf: Vec::with_capacity(RING_CAPACITY),
                    head: 0,
                }));
                let mut registry = lock_registry();
                registry.retain(|w| w.strong_count() > 0);
                registry.push(Arc::downgrade(&ring));
                RingHandle(ring)
            })
            .0
            .clone();
        drop(slot);
        match arc.try_lock() {
            Ok(mut ring) => ring.push(FlightEvent {
                seq: 0,
                t_nanos,
                kind,
                name,
                value,
                center,
            }),
            // A dumper holds this ring right now; dropping one event
            // beats stalling the solver's hot path.
            Err(_) => {
                CONTENDED_DROPS.fetch_add(1, Ordering::Relaxed);
            }
        };
    });
}

/// Record an explicit marker event (e.g. the anomaly reason, so the
/// dump carries its own trigger).
pub fn mark(name: &'static str, center: Option<u32>) {
    record(FlightKind::Mark, name, 0, center);
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn opt_u32(v: Option<u32>) -> Value {
    match v {
        Some(x) => Value::UInt(u64::from(x)),
        None => Value::Null,
    }
}

/// Serialize the current contents of every live thread ring as a
/// `fta-flight` v1 JSONL dump, merged across threads in time order.
/// Dumping locks each ring briefly; producers that collide drop their
/// event rather than wait.
#[must_use]
pub fn dump(reason: &str, center: Option<u32>) -> String {
    let rings: Vec<Arc<Mutex<Ring>>> = {
        let mut registry = lock_registry();
        registry.retain(|w| w.strong_count() > 0);
        registry.iter().filter_map(Weak::upgrade).collect()
    };
    let mut events: Vec<(u64, FlightEvent)> = Vec::new();
    let mut dropped =
        CONTENDED_DROPS.load(Ordering::Relaxed) + RETIRED_EVICTED.load(Ordering::Relaxed);
    let mut threads = 0u64;
    for ring in rings {
        let ring = ring.lock().unwrap_or_else(PoisonError::into_inner);
        threads += 1;
        dropped += ring.dropped + ring.next_seq.saturating_sub(ring.buf.len() as u64);
        for event in ring.snapshot() {
            events.push((ring.thread, event));
        }
    }
    {
        let retired = lock_retired();
        for ring in retired.iter() {
            threads += 1;
            dropped += ring.dropped;
            for event in &ring.events {
                events.push((ring.thread, *event));
            }
        }
    }
    events.sort_by_key(|&(thread, e)| (e.t_nanos, thread, e.seq));
    let dumped_unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut lines = Vec::with_capacity(1 + events.len());
    lines.push(
        serde_json::to_string(&obj(vec![
            ("schema", Value::String(SCHEMA_NAME.to_owned())),
            ("version", Value::UInt(SCHEMA_VERSION)),
            ("reason", Value::String(reason.to_owned())),
            ("center", opt_u32(center)),
            ("dumped_unix_ms", Value::UInt(dumped_unix_ms)),
            ("threads", Value::UInt(threads)),
            ("dropped", Value::UInt(dropped)),
            ("rate_ms", Value::UInt(dump_rate_ms())),
        ]))
        .expect("header serializes"),
    );
    for (thread, event) in events {
        lines.push(
            serde_json::to_string(&obj(vec![
                ("type", Value::String("event".to_owned())),
                ("thread", Value::UInt(thread)),
                ("seq", Value::UInt(event.seq)),
                ("t_ns", Value::UInt(event.t_nanos)),
                ("kind", Value::String(event.kind.name().to_owned())),
                ("name", Value::String(event.name.to_owned())),
                ("value", Value::UInt(event.value)),
                ("center", opt_u32(event.center)),
            ]))
            .expect("event serializes"),
        );
    }
    lines.join("\n") + "\n"
}

/// Write [`dump`] output to `path`.
pub fn dump_to_file(reason: &str, center: Option<u32>, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, dump(reason, center))
}

static DUMP_COUNT: AtomicU64 = AtomicU64::new(0);
static LAST_DUMP_NANOS: AtomicU64 = AtomicU64::new(0);
static LAST_DUMP_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Where anomaly dumps land: `FTA_FLIGHT_DIR` if set, the OS temp
/// directory otherwise.
#[must_use]
pub fn dump_dir() -> PathBuf {
    std::env::var_os("FTA_FLIGHT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
}

/// Auto-dump entry point for anomaly hooks (panic quarantine, budget
/// exhaustion, degradation). Rate-limited: at most
/// [`MAX_ANOMALY_DUMPS`] per process and one per [`dump_rate_ms`]
/// milliseconds (default 250 ms, tunable via `FTA_FLIGHT_RATE_MS`), so a
/// round with hundreds of degrading centers produces a handful of
/// snapshots, not a disk full. Returns the written path, `None` when
/// disarmed, rate-limited, or the write failed (logged, never fatal).
pub fn anomaly_dump(reason: &'static str, center: Option<u32>) -> Option<PathBuf> {
    if !armed() {
        return None;
    }
    let now = now_nanos().max(1);
    let last = LAST_DUMP_NANOS.load(Ordering::Relaxed);
    if last != 0 && now.saturating_sub(last) < dump_rate_ms().saturating_mul(1_000_000) {
        return None;
    }
    let n = DUMP_COUNT.fetch_add(1, Ordering::Relaxed);
    if n >= MAX_ANOMALY_DUMPS {
        return None;
    }
    LAST_DUMP_NANOS.store(now, Ordering::Relaxed);
    // Embed the trigger in the dump itself before collecting the rings.
    mark(reason, center);
    let dir = dump_dir();
    // A freshly-set FTA_FLIGHT_DIR may not exist yet; a lost anomaly
    // snapshot is worse than a mkdir (failure falls through to the
    // logged write error below).
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("fta-flight-{}-{}.jsonl", std::process::id(), n + 1));
    match dump_to_file(reason, center, &path) {
        Ok(()) => {
            *LAST_DUMP_PATH
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(path.clone());
            crate::warn!(
                "flight recorder dumped to {} (reason: {reason})",
                path.display()
            );
            Some(path)
        }
        Err(e) => {
            crate::warn!("flight recorder dump to {} failed: {e}", path.display());
            None
        }
    }
}

/// Path of the most recent successful [`anomaly_dump`], if any.
#[must_use]
pub fn last_dump_path() -> Option<PathBuf> {
    LAST_DUMP_PATH
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// One event parsed back from a dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEventRecord {
    /// Flight-recorder thread id (not an OS tid).
    pub thread: u64,
    /// Per-thread monotonic sequence number.
    pub seq: u64,
    /// Nanoseconds since the process flight epoch.
    pub t_nanos: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// Event name (counter/gauge/hist/span name, or algorithm for
    /// rounds, or the marker reason).
    pub name: String,
    /// Kind-dependent value (delta, sample, duration, round number).
    pub value: u64,
    /// Center attribution, if any.
    pub center: Option<u32>,
}

/// A fully parsed and validated flight dump.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightDump {
    /// Schema version from the header.
    pub version: u64,
    /// Why the dump was taken.
    pub reason: String,
    /// Center the anomaly concerned, if attributed.
    pub center: Option<u32>,
    /// Unix milliseconds at dump time.
    pub dumped_unix_ms: u64,
    /// Threads contributing events.
    pub threads: u64,
    /// Events lost to ring overwrite or producer/dumper collisions.
    pub dropped: u64,
    /// Auto-dump rate limit (ms) in force when the dump was taken;
    /// [`DEFAULT_DUMP_RATE_MS`] for dumps predating the field.
    pub rate_ms: u64,
    /// All events, in dump (time) order.
    pub events: Vec<FlightEventRecord>,
}

impl FlightDump {
    /// Events of one kind, in dump order.
    pub fn events_of(&self, kind: FlightKind) -> impl Iterator<Item = &FlightEventRecord> {
        self.events.iter().filter(move |e| e.kind == kind)
    }
}

/// Why a flight dump failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightError {
    /// The file is empty or the first line is not a valid header.
    MissingHeader(String),
    /// The header's `version` is not one this crate understands.
    UnsupportedVersion(u64),
    /// A body line is malformed; carries the 1-based line number.
    Line {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of what is wrong.
        message: String,
    },
}

impl fmt::Display for FlightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlightError::MissingHeader(why) => {
                write!(f, "missing or invalid {SCHEMA_NAME} header: {why}")
            }
            FlightError::UnsupportedVersion(v) => write!(
                f,
                "unsupported {SCHEMA_NAME} version {v} (expected {SCHEMA_VERSION})"
            ),
            FlightError::Line { line, message } => write!(f, "flight dump line {line}: {message}"),
        }
    }
}

impl std::error::Error for FlightError {}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.field(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn field_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.field(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

fn field_opt_u32(v: &Value, key: &str) -> Result<Option<u32>, String> {
    match v.field(key) {
        None => Ok(None),
        Some(val) if val.is_null() => Ok(None),
        Some(val) => val
            .as_u64()
            .map(|x| Some(x as u32))
            .ok_or_else(|| format!("non-integer field '{key}'")),
    }
}

/// Parse and validate a flight dump produced by [`dump`]. Beyond shape,
/// this checks the no-torn-events invariant: within each thread, `seq`
/// must be strictly increasing in file order (the dump is time-sorted
/// and each thread's ring is written by that thread alone, so any
/// interleaving or duplication shows up here).
pub fn parse(text: &str) -> Result<FlightDump, FlightError> {
    let mut lines = text.lines().enumerate();
    let (_, header_line) = lines
        .next()
        .ok_or_else(|| FlightError::MissingHeader("empty dump".to_owned()))?;
    let header: Value = serde_json::from_str(header_line)
        .map_err(|e| FlightError::MissingHeader(format!("header is not JSON: {e:?}")))?;
    if header.field("schema").and_then(Value::as_str) != Some(SCHEMA_NAME) {
        return Err(FlightError::MissingHeader(format!(
            "first line lacks \"schema\":\"{SCHEMA_NAME}\""
        )));
    }
    let version = header
        .field("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| FlightError::MissingHeader("header lacks integer 'version'".to_owned()))?;
    if version != SCHEMA_VERSION {
        return Err(FlightError::UnsupportedVersion(version));
    }
    let mut dump = FlightDump {
        version,
        reason: header
            .field("reason")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_owned(),
        center: field_opt_u32(&header, "center")
            .map_err(|m| FlightError::MissingHeader(m.clone()))?,
        dumped_unix_ms: header
            .field("dumped_unix_ms")
            .and_then(Value::as_u64)
            .unwrap_or(0),
        threads: header.field("threads").and_then(Value::as_u64).unwrap_or(0),
        dropped: header.field("dropped").and_then(Value::as_u64).unwrap_or(0),
        rate_ms: header
            .field("rate_ms")
            .and_then(Value::as_u64)
            .unwrap_or(DEFAULT_DUMP_RATE_MS),
        events: Vec::new(),
    };
    let mut last_seq: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for (index, line) in lines {
        let lineno = index + 1;
        if line.trim().is_empty() {
            continue;
        }
        let fail = |message: String| FlightError::Line {
            line: lineno,
            message,
        };
        let v: Value =
            serde_json::from_str(line).map_err(|e| fail(format!("not valid JSON: {e:?}")))?;
        match field_str(&v, "type").map_err(&fail)? {
            "event" => {
                let kind_name = field_str(&v, "kind").map_err(&fail)?;
                let kind = FlightKind::from_name(kind_name)
                    .ok_or_else(|| fail(format!("unknown event kind '{kind_name}'")))?;
                let record = FlightEventRecord {
                    thread: field_u64(&v, "thread").map_err(&fail)?,
                    seq: field_u64(&v, "seq").map_err(&fail)?,
                    t_nanos: field_u64(&v, "t_ns").map_err(&fail)?,
                    kind,
                    name: field_str(&v, "name").map_err(&fail)?.to_owned(),
                    value: field_u64(&v, "value").map_err(&fail)?,
                    center: field_opt_u32(&v, "center").map_err(&fail)?,
                };
                if let Some(&prev) = last_seq.get(&record.thread) {
                    if record.seq <= prev {
                        return Err(fail(format!(
                            "torn ring: thread {} seq {} after {}",
                            record.thread, record.seq, prev
                        )));
                    }
                }
                last_seq.insert(record.thread, record.seq);
                dump.events.push(record);
            }
            other => return Err(fail(format!("unknown line type '{other}'"))),
        }
    }
    Ok(dump)
}

/// Read and [`parse`] a flight dump file.
pub fn parse_file(path: &Path) -> Result<FlightDump, FlightError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| FlightError::MissingHeader(format!("cannot read {}: {e}", path.display())))?;
    parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::test_lock::serialize_recorder_tests;

    #[test]
    fn armed_records_and_dump_round_trips() {
        let _guard = serialize_recorder_tests();
        set_armed(true);
        record(FlightKind::Counter, "ring.test_counter", 3, None);
        record(FlightKind::Span, "ring.test_span", 1_500, Some(7));
        mark("ring.test_mark", Some(7));
        let text = dump("unit-test", Some(7));
        let parsed = parse(&text).expect("own dump parses");
        assert_eq!(parsed.version, SCHEMA_VERSION);
        assert_eq!(parsed.reason, "unit-test");
        assert_eq!(parsed.center, Some(7));
        assert!(parsed.threads >= 1);
        let counter = parsed
            .events
            .iter()
            .find(|e| e.name == "ring.test_counter")
            .expect("counter captured");
        assert_eq!(counter.kind, FlightKind::Counter);
        assert_eq!(counter.value, 3);
        let span = parsed
            .events
            .iter()
            .find(|e| e.name == "ring.test_span")
            .expect("span captured");
        assert_eq!(span.center, Some(7));
        assert_eq!(span.value, 1_500);
        assert!(parsed
            .events_of(FlightKind::Mark)
            .any(|e| e.name == "ring.test_mark"));
    }

    #[test]
    fn dump_header_echoes_rate_limit() {
        let _guard = serialize_recorder_tests();
        set_armed(true);
        let parsed = parse(&dump("rate-test", None)).unwrap();
        assert_eq!(parsed.rate_ms, dump_rate_ms());
        // Dumps predating the field fall back to the default.
        let legacy = concat!(
            "{\"schema\":\"fta-flight\",\"version\":1,\"reason\":\"x\",",
            "\"center\":null,\"dumped_unix_ms\":0,\"threads\":0,\"dropped\":0}\n"
        );
        assert_eq!(parse(legacy).unwrap().rate_ms, DEFAULT_DUMP_RATE_MS);
    }

    #[test]
    fn disarmed_emits_are_dropped() {
        let _guard = serialize_recorder_tests();
        set_armed(false);
        record(FlightKind::Counter, "ring.disarmed_counter", 9, None);
        set_armed(true);
        let parsed = parse(&dump("disarmed-test", None)).unwrap();
        assert!(
            !parsed
                .events
                .iter()
                .any(|e| e.name == "ring.disarmed_counter"),
            "disarmed event leaked into the ring"
        );
    }

    #[test]
    fn ring_overwrites_oldest_and_reports_drops() {
        let _guard = serialize_recorder_tests();
        set_armed(true);
        // On a worker thread so this test owns a private ring.
        std::thread::spawn(|| {
            for i in 0..(RING_CAPACITY as u64 + 50) {
                record(FlightKind::Counter, "ring.wrap", i, None);
            }
            let parsed = parse(&dump("wrap-test", None)).unwrap();
            let wraps: Vec<_> = parsed
                .events
                .iter()
                .filter(|e| e.name == "ring.wrap")
                .collect();
            assert_eq!(wraps.len(), RING_CAPACITY);
            // The oldest 50 were overwritten; retained events are the tail.
            assert_eq!(wraps.first().unwrap().value, 50);
            assert_eq!(wraps.last().unwrap().value, RING_CAPACITY as u64 + 49);
            assert!(parsed.dropped >= 50);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn cross_thread_dump_keeps_per_thread_seq_monotone() {
        let _guard = serialize_recorder_tests();
        set_armed(true);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        record(FlightKind::Counter, "ring.mt", t * 1000 + i, None);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // parse() itself enforces per-thread strictly-increasing seq.
        let parsed = parse(&dump("mt-test", None)).expect("no torn events");
        assert!(parsed.events.iter().filter(|e| e.name == "ring.mt").count() >= 4 * 200);
    }

    #[test]
    fn parse_rejects_bad_dumps() {
        assert!(matches!(parse(""), Err(FlightError::MissingHeader(_))));
        assert!(matches!(
            parse("{\"schema\":\"other\",\"version\":1}\n"),
            Err(FlightError::MissingHeader(_))
        ));
        assert!(matches!(
            parse("{\"schema\":\"fta-flight\",\"version\":9}\n"),
            Err(FlightError::UnsupportedVersion(9))
        ));
        let header = "{\"schema\":\"fta-flight\",\"version\":1,\"reason\":\"t\"}";
        let bad_kind = format!(
            "{header}\n{{\"type\":\"event\",\"thread\":1,\"seq\":0,\"t_ns\":1,\"kind\":\"mystery\",\"name\":\"x\",\"value\":0}}\n"
        );
        assert!(matches!(
            parse(&bad_kind),
            Err(FlightError::Line { line: 2, .. })
        ));
        let torn = format!(
            "{header}\n\
             {{\"type\":\"event\",\"thread\":1,\"seq\":5,\"t_ns\":1,\"kind\":\"counter\",\"name\":\"x\",\"value\":1}}\n\
             {{\"type\":\"event\",\"thread\":1,\"seq\":5,\"t_ns\":2,\"kind\":\"counter\",\"name\":\"x\",\"value\":1}}\n"
        );
        let err = parse(&torn).unwrap_err();
        assert!(matches!(err, FlightError::Line { line: 3, .. }), "{err}");
        assert!(err.to_string().contains("torn ring"));
        // Header alone is a valid (empty) dump.
        let empty = parse(&format!("{header}\n")).unwrap();
        assert!(empty.events.is_empty());
    }

    #[test]
    fn anomaly_dump_writes_rate_limited_snapshots() {
        let _guard = serialize_recorder_tests();
        set_armed(true);
        record(FlightKind::Counter, "ring.anomaly", 1, Some(3));
        let first = anomaly_dump("test-anomaly", Some(3));
        if let Some(p) = &first {
            let parsed = parse_file(p).expect("anomaly dump parses");
            assert_eq!(parsed.reason, "test-anomaly");
            assert_eq!(last_dump_path().as_deref(), Some(p.as_path()));
            std::fs::remove_file(p).ok();
        }
        // Immediately again: the 250 ms interval suppresses it.
        assert_eq!(anomaly_dump("test-anomaly", Some(3)), None);
    }
}
