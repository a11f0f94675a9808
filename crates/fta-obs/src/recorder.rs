//! The global recorder: install/finish lifecycle, thread-local event
//! buffers, and the emit-path entry points (spans, counters, gauges,
//! histogram samples, per-round solver events).
//!
//! ## Lifecycle
//!
//! [`Recorder::install`] spawns an accumulator thread, publishes an
//! `mpsc` sender plus a monotonic epoch in a global slot, and flips the
//! global `ENABLED` flag. Emitting threads lazily initialize a
//! thread-local buffer bound to the recorder's *generation*; events are
//! appended locally and flushed to the accumulator in batches of
//! [`FLUSH_THRESHOLD`] (and from the thread-local destructor, so scoped
//! worker threads flush before their pool scope returns).
//! [`Recorder::finish`] clears `ENABLED`, flushes the calling thread,
//! drops the sender (closing the channel), bumps the generation so
//! stale thread-locals discard themselves, and joins the accumulator to
//! obtain the final [`Snapshot`].
//!
//! ## Disabled cost
//!
//! Every entry point starts with a single `Relaxed` atomic load and
//! returns immediately when no recorder is installed; no thread-local
//! is touched and no time is read. The vdps bench's `FTA_BENCH_QUICK`
//! overhead check pins this down.
//!
//! Recorders are process-global: do not overlap two installs. Tests
//! that install a recorder must serialize on a lock.

use crate::snapshot::Snapshot;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Thread-local buffers flush to the accumulator once they hold this
/// many events (and always from the thread-local destructor).
pub const FLUSH_THRESHOLD: usize = 128;

/// One telemetry event, as buffered per-thread and folded into a
/// [`Snapshot`] by the accumulator thread.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A closed span: a named scope with nanosecond start/duration
    /// (relative to the recorder epoch), the emitting thread, and the
    /// enclosing span on that thread, if any.
    Span {
        /// Static span name, e.g. `"vdps.generate"`.
        name: &'static str,
        /// Process-unique span id.
        id: u64,
        /// Id of the span that was open on this thread when this one
        /// started.
        parent: Option<u64>,
        /// Small per-thread id assigned on first emit.
        thread: u64,
        /// Center index this span is attributed to, if any.
        center: Option<u32>,
        /// DP layer (route length) this span is attributed to, if any.
        layer: Option<u32>,
        /// Start time in nanoseconds since the recorder epoch.
        start_nanos: u64,
        /// Span duration in nanoseconds.
        duration_nanos: u64,
    },
    /// A monotonic counter increment.
    Counter {
        /// Static counter name, e.g. `"vdps.dedup_probes"`.
        name: &'static str,
        /// Amount to add.
        delta: u64,
    },
    /// A gauge sample aggregated by maximum (e.g. peak queue depth).
    GaugeMax {
        /// Static gauge name, e.g. `"pool.queue_depth"`.
        name: &'static str,
        /// Observed value; the snapshot keeps the maximum.
        value: u64,
    },
    /// A histogram sample (typically a latency in nanoseconds).
    Hist {
        /// Static histogram name, e.g. `"sim.assign_nanos"`.
        name: &'static str,
        /// Sample value.
        value: u64,
    },
    /// One best-response round of a game-theoretic solver loop.
    Round {
        /// Algorithm name (`"FGT"`, `"PFGT"`, `"IEGT"`).
        algo: &'static str,
        /// Center the loop runs for.
        center: u32,
        /// 1-based round number within the current (re)start.
        round: u32,
        /// Strategy switches performed this round.
        moves: u64,
        /// Max−min payoff difference after the round.
        payoff_difference: f64,
        /// Average worker payoff after the round.
        average_payoff: f64,
        /// Potential-function value after the round.
        potential: f64,
    },
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped on install *and* finish so thread-local state bound to an old
/// recorder is discarded lazily.
static GENERATION: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

struct Shared {
    tx: Sender<Vec<Event>>,
    epoch: Instant,
    generation: u64,
}

static SHARED: Mutex<Option<Shared>> = Mutex::new(None);

fn lock_shared() -> std::sync::MutexGuard<'static, Option<Shared>> {
    SHARED.lock().unwrap_or_else(PoisonError::into_inner)
}

struct TlsBuf {
    generation: u64,
    epoch: Instant,
    buf: Vec<Event>,
    span_stack: Vec<u64>,
}

impl TlsBuf {
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let batch = std::mem::replace(&mut self.buf, Vec::with_capacity(FLUSH_THRESHOLD));
        send_batch(self.generation, batch);
    }

    fn push(&mut self, event: Event) {
        self.buf.push(event);
        if self.buf.len() >= FLUSH_THRESHOLD {
            self.flush();
        }
    }
}

impl Drop for TlsBuf {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            let batch = std::mem::take(&mut self.buf);
            send_batch(self.generation, batch);
        }
    }
}

fn send_batch(generation: u64, batch: Vec<Event>) {
    let guard = lock_shared();
    if let Some(shared) = guard.as_ref() {
        if shared.generation == generation {
            // The accumulator outlives every sender; a send can only
            // fail during teardown races, in which case the events
            // belong to a recorder that is already gone.
            let _ = shared.tx.send(batch);
        }
    }
}

thread_local! {
    static TLS: RefCell<Option<TlsBuf>> = const { RefCell::new(None) };
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

fn thread_id() -> u64 {
    THREAD_ID.try_with(|id| *id).unwrap_or(0)
}

/// Run `f` against this thread's event buffer, (re)binding it to the
/// current recorder generation first. Returns `None` when no recorder
/// is installed or the thread-local is unavailable (thread teardown).
fn with_tls<R>(f: impl FnOnce(&mut TlsBuf) -> R) -> Option<R> {
    TLS.try_with(|cell| -> Option<R> {
        let mut slot = cell.try_borrow_mut().ok()?;
        let generation = GENERATION.load(Ordering::Acquire);
        let bound = matches!(slot.as_ref(), Some(t) if t.generation == generation);
        if !bound {
            let guard = lock_shared();
            let shared = guard.as_ref()?;
            // Events buffered for a previous recorder are dropped here:
            // their accumulator is gone.
            *slot = Some(TlsBuf {
                generation: shared.generation,
                epoch: shared.epoch,
                buf: Vec::with_capacity(FLUSH_THRESHOLD),
                span_stack: Vec::new(),
            });
        }
        slot.as_mut().map(f)
    })
    .ok()
    .flatten()
}

/// True when a recorder is installed. The only cost emit paths pay when
/// recording is off is this relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flush this thread's buffered events to the accumulator immediately.
/// Useful before reading cross-thread state in tests. Pool workers call
/// it on shutdown: a scoped thread's thread-local destructors may run
/// after the scope has already returned.
pub fn flush_thread() {
    let _ = TLS.try_with(|cell| {
        if let Ok(mut slot) = cell.try_borrow_mut() {
            if let Some(tls) = slot.as_mut() {
                tls.flush();
            }
        }
    });
}

/// Add `delta` to the monotonic counter `name`. No-op when disabled or
/// `delta == 0`. Also feeds the always-on flight ring when armed.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if delta == 0 {
        return;
    }
    crate::ring::record(crate::ring::FlightKind::Counter, name, delta, None);
    if !enabled() {
        return;
    }
    with_tls(|tls| tls.push(Event::Counter { name, delta }));
}

/// Record a gauge sample aggregated by maximum (e.g. peak queue depth).
#[inline]
pub fn gauge_max(name: &'static str, value: u64) {
    crate::ring::record(crate::ring::FlightKind::Gauge, name, value, None);
    if !enabled() {
        return;
    }
    with_tls(|tls| tls.push(Event::GaugeMax { name, value }));
}

/// Record one histogram sample (typically nanoseconds).
#[inline]
pub fn observe_nanos(name: &'static str, value: u64) {
    crate::ring::record(crate::ring::FlightKind::Hist, name, value, None);
    if !enabled() {
        return;
    }
    with_tls(|tls| tls.push(Event::Hist { name, value }));
}

/// Emit one best-response round event for `algo` at `center`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn round_event(
    algo: &'static str,
    center: u32,
    round: u32,
    moves: u64,
    payoff_difference: f64,
    average_payoff: f64,
    potential: f64,
) {
    crate::ring::record(
        crate::ring::FlightKind::Round,
        algo,
        u64::from(round),
        Some(center),
    );
    if !enabled() {
        return;
    }
    with_tls(|tls| {
        tls.push(Event::Round {
            algo,
            center,
            round,
            moves,
            payoff_difference,
            average_payoff,
            potential,
        })
    });
}

struct SpanInner {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    center: Option<u32>,
    layer: Option<u32>,
    start_nanos: u64,
    generation: u64,
}

/// The flight-ring half of a span guard: records a close event into the
/// per-thread ring even when no recorder is installed.
struct FlightSpan {
    name: &'static str,
    center: Option<u32>,
    start: Instant,
}

/// RAII guard returned by [`span`]; records the span when dropped.
/// Inert when neither a recorder is installed nor the flight ring is
/// armed at creation (no time is read in that case).
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard {
    inner: Option<SpanInner>,
    flight: Option<FlightSpan>,
}

/// Open a scoped span timer. See the [`crate::span!`] macro for the
/// ergonomic form with optional `center`/`layer` attribution.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_at(name, None, None)
}

/// Open a span attributed to a center.
#[inline]
pub fn span_center(name: &'static str, center: u32) -> SpanGuard {
    span_at(name, Some(center), None)
}

/// Open a span attributed to a center and a DP layer (route length).
#[inline]
pub fn span_layer(name: &'static str, center: u32, layer: u32) -> SpanGuard {
    span_at(name, Some(center), Some(layer))
}

fn span_at(name: &'static str, center: Option<u32>, layer: Option<u32>) -> SpanGuard {
    let flight = crate::ring::armed().then(|| FlightSpan {
        name,
        center,
        start: Instant::now(),
    });
    if !enabled() {
        return SpanGuard {
            inner: None,
            flight,
        };
    }
    let inner = with_tls(|tls| {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = tls.span_stack.last().copied();
        tls.span_stack.push(id);
        SpanInner {
            name,
            id,
            parent,
            center,
            layer,
            start_nanos: tls.now_nanos(),
            generation: tls.generation,
        }
    });
    SpanGuard { inner, flight }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(flight) = self.flight.take() {
            crate::ring::record(
                crate::ring::FlightKind::Span,
                flight.name,
                flight.start.elapsed().as_nanos() as u64,
                flight.center,
            );
        }
        let Some(inner) = self.inner.take() else {
            return;
        };
        with_tls(|tls| {
            if tls.generation != inner.generation {
                // The recorder this span was opened under is gone; its
                // epoch (and accumulator) with it.
                return;
            }
            match tls.span_stack.last() {
                Some(&top) if top == inner.id => {
                    tls.span_stack.pop();
                }
                _ => {
                    // Out-of-order guard drop: remove by value so the
                    // parent chain stays usable.
                    if let Some(pos) = tls.span_stack.iter().rposition(|&id| id == inner.id) {
                        tls.span_stack.remove(pos);
                    }
                }
            }
            let end = tls.now_nanos();
            tls.push(Event::Span {
                name: inner.name,
                id: inner.id,
                parent: inner.parent,
                thread: thread_id(),
                center: inner.center,
                layer: inner.layer,
                start_nanos: inner.start_nanos,
                duration_nanos: end.saturating_sub(inner.start_nanos),
            });
        });
    }
}

/// RAII guard returned by [`hist_timer`]; records the elapsed
/// nanoseconds as a histogram sample when dropped.
#[must_use = "a histogram timer measures the scope it is alive for"]
pub struct HistTimer {
    name: &'static str,
    start: Option<Instant>,
}

/// Time a scope and record the elapsed nanoseconds into histogram
/// `name` on drop (into the snapshot and, when armed, the flight ring).
/// Inert when neither sink is live at creation.
#[inline]
pub fn hist_timer(name: &'static str) -> HistTimer {
    HistTimer {
        name,
        start: (enabled() || crate::ring::armed()).then(Instant::now),
    }
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            observe_nanos(self.name, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Handle to an installed global recorder; finish (or drop) it to tear
/// the pipeline down and collect the [`Snapshot`].
pub struct Recorder {
    generation: u64,
    handle: Option<JoinHandle<Snapshot>>,
    epoch_unix_ms: u64,
}

impl Recorder {
    /// Install a global recorder and start its accumulator thread.
    ///
    /// Recorders are process-global; installing a second one while the
    /// first is live disconnects the first (its `finish` returns
    /// whatever it had accumulated). Serialize recorder use in tests.
    pub fn install() -> Recorder {
        let (tx, rx) = mpsc::channel::<Vec<Event>>();
        let handle = std::thread::Builder::new()
            .name("fta-obs-accumulator".to_owned())
            .spawn(move || {
                let mut snapshot = Snapshot::new();
                while let Ok(batch) = rx.recv() {
                    for event in &batch {
                        snapshot.apply(event);
                    }
                }
                snapshot
            })
            .expect("spawn fta-obs accumulator thread");
        let epoch_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let generation = GENERATION.fetch_add(1, Ordering::AcqRel) + 1;
        {
            let mut guard = lock_shared();
            *guard = Some(Shared {
                tx,
                epoch: Instant::now(),
                generation,
            });
        }
        ENABLED.store(true, Ordering::Release);
        Recorder {
            generation,
            handle: Some(handle),
            epoch_unix_ms,
        }
    }

    /// Tear down the pipeline and return everything accumulated.
    ///
    /// Threads that finished (or whose pool scope exited) before this
    /// call have flushed via their thread-local destructors; the
    /// calling thread is flushed here. Other still-live threads flush
    /// on their next batch boundary and those events are discarded.
    pub fn finish(mut self) -> Snapshot {
        self.finish_inner()
    }

    fn finish_inner(&mut self) -> Snapshot {
        let Some(handle) = self.handle.take() else {
            return Snapshot::new();
        };
        ENABLED.store(false, Ordering::Release);
        flush_thread();
        {
            let mut guard = lock_shared();
            if guard.as_ref().map(|s| s.generation) == Some(self.generation) {
                // Dropping the sender closes the channel; the
                // accumulator drains what was sent and returns.
                *guard = None;
            }
        }
        GENERATION.fetch_add(1, Ordering::AcqRel);
        let mut snapshot = handle.join().unwrap_or_default();
        snapshot.epoch_unix_ms = self.epoch_unix_ms;
        snapshot
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        let _ = self.finish_inner();
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("generation", &self.generation)
            .field("live", &self.handle.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::test_lock::serialize_recorder_tests;

    #[test]
    fn disabled_paths_are_noops() {
        let _guard = serialize_recorder_tests();
        assert!(!enabled());
        counter("t.counter", 5);
        gauge_max("t.gauge", 7);
        observe_nanos("t.hist", 100);
        round_event("FGT", 0, 1, 2, 0.5, 1.0, 3.0);
        let span = span("t.span");
        drop(span);
        // Nothing was installed, so a fresh recorder sees nothing.
        let recorder = Recorder::install();
        let snapshot = recorder.finish();
        assert!(snapshot.is_empty(), "unexpected events: {snapshot:?}");
    }

    #[test]
    fn spans_nest_and_carry_parents() {
        let _guard = serialize_recorder_tests();
        let recorder = Recorder::install();
        {
            let _outer = span("t.outer");
            let _inner = span_center("t.inner", 3);
        }
        let snapshot = recorder.finish();
        assert_eq!(snapshot.span_count("t.outer"), 1);
        assert_eq!(snapshot.span_count("t.inner"), 1);
        let outer = snapshot.spans.iter().find(|s| s.name == "t.outer").unwrap();
        let inner = snapshot.spans.iter().find(|s| s.name == "t.inner").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.center, Some(3));
        assert!(outer.duration_nanos >= inner.duration_nanos);
        assert!(inner.start_nanos >= outer.start_nanos);
    }

    #[test]
    fn counters_gauges_hists_accumulate() {
        let _guard = serialize_recorder_tests();
        let recorder = Recorder::install();
        counter("t.acc", 3);
        counter("t.acc", 0); // no-op
        counter("t.acc", 4);
        gauge_max("t.peak", 9);
        gauge_max("t.peak", 4);
        observe_nanos("t.lat", 10);
        observe_nanos("t.lat", 1000);
        let snapshot = recorder.finish();
        assert_eq!(snapshot.counter("t.acc"), 7);
        assert_eq!(snapshot.gauge("t.peak"), Some(9));
        let hist = snapshot.histograms.get("t.lat").unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 1010);
    }

    #[test]
    fn span_opened_under_dead_recorder_is_dropped() {
        let _guard = serialize_recorder_tests();
        let recorder = Recorder::install();
        let stale = span("t.stale");
        drop(recorder);
        drop(stale); // must not panic or leak into the next recorder
        let recorder = Recorder::install();
        counter("t.alive", 1);
        let snapshot = recorder.finish();
        assert_eq!(snapshot.span_count("t.stale"), 0);
        assert_eq!(snapshot.counter("t.alive"), 1);
    }
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static RECORDER_TEST_LOCK: Mutex<()> = Mutex::new(());

    /// The recorder is process-global, so tests that install one must
    /// not overlap. Hold this guard for the duration of the test.
    pub fn serialize_recorder_tests() -> MutexGuard<'static, ()> {
        RECORDER_TEST_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}
