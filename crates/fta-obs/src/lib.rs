//! # fta-obs: unified observability for the FTA workspace
//!
//! A std-only telemetry layer with three primitives, all near-zero cost
//! when no recorder is installed:
//!
//! * **Spans** — scoped RAII timers ([`span!`], [`span()`], [`span_center`],
//!   [`span_layer`]) carrying nanosecond start/duration, the emitting
//!   thread, and the parent span (tracked per-thread in a span stack).
//! * **Counters** — monotonic named counters ([`counter`]) and
//!   max-aggregated gauges ([`gauge_max`]).
//! * **Histograms** — fixed-bucket log2 latency histograms
//!   ([`observe_nanos`], [`hist_timer`]) with 65 power-of-two buckets.
//!
//! ## Architecture
//!
//! A global [`Recorder`] is installed with [`Recorder::install`]. Each
//! emitting thread buffers events in a thread-local `Vec` and flushes
//! batches through an `mpsc` channel to a dedicated accumulator thread
//! (the metrics-accumulator pattern), which folds them into a
//! [`Snapshot`]. [`Recorder::finish`] tears the pipeline down and
//! returns the snapshot. When **no** recorder is installed every
//! emit-path entry point is a single relaxed atomic load and an early
//! return — hot loops may therefore keep obs calls unconditionally.
//!
//! Hot paths should still pre-aggregate: emit one `counter` per chunk or
//! layer rather than one per inner-loop iteration (see
//! `fta-vdps::flat`, which folds dedup-probe counts into its per-chunk
//! counters and emits them once per layer).
//!
//! ## Sinks
//!
//! * [`trace::to_jsonl`] — versioned JSONL trace (schema
//!   `fta-obs-trace` v1, one event per line, Chrome-trace-convertible
//!   via [`trace::to_chrome_trace`]).
//! * [`Snapshot::to_prometheus`] — Prometheus text exposition
//!   (`fta_*_total` counters, `_bucket{le=…}`/`_sum`/`_count`
//!   histograms, `_p50`/`_p95`/`_p99` quantile gauges).
//!
//! ## Forensics
//!
//! * [`ring`] — the always-on flight recorder: bounded per-thread ring
//!   buffers of recent events, auto-dumped to a versioned JSONL
//!   snapshot ([`ring::anomaly_dump`]) on panics, budget exhaustion,
//!   and degradation. Armed by default; `FTA_FLIGHT=off` disarms.
//! * [`ledger`] — the solve ledger: per-solve/per-round structured
//!   records with per-center causal attribution (rung, budget axis,
//!   resolve path, work counters) and fairness trajectories, plus the
//!   tolerance-band diff behind `fta obs-diff`.
//!
//! ## Logging
//!
//! [`log!`] and its level shorthands [`error!`], [`warn!`], [`info!`],
//! [`debug!`] write leveled diagnostics to stderr, filtered by the
//! `FTA_LOG` environment variable (`error|warn|info|debug`, default
//! `info`). User-facing result output should stay on stdout and never
//! go through these macros.
//!
//! ```
//! let recorder = fta_obs::Recorder::install();
//! {
//!     let _solve = fta_obs::span!("doc.solve");
//!     fta_obs::counter("doc.widgets", 3);
//!     fta_obs::observe_nanos("doc.latency_nanos", 1_500);
//! }
//! let snapshot = recorder.finish();
//! assert_eq!(snapshot.counter("doc.widgets"), 3);
//! assert_eq!(snapshot.span_count("doc.solve"), 1);
//! let jsonl = fta_obs::trace::to_jsonl(&snapshot);
//! let parsed = fta_obs::trace::parse(&jsonl).unwrap();
//! assert_eq!(parsed.counters["doc.widgets"], 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod ledger;
pub mod logging;
pub mod mutate;
pub mod recorder;
pub mod ring;
pub mod snapshot;
pub mod trace;

pub use hist::Histogram;
pub use recorder::{
    counter, enabled, flush_thread, gauge_max, hist_timer, observe_nanos, round_event, span,
    span_center, span_layer, Event, HistTimer, Recorder, SpanGuard,
};
pub use snapshot::{RoundRecord, Snapshot, SpanRecord};

/// Open a scoped span timer; returns a guard that records the span when
/// dropped. Near-zero cost when no recorder is installed.
///
/// ```
/// let _span = fta_obs::span!("phase");
/// let _per_center = fta_obs::span!("phase", center = 3);
/// let _per_layer = fta_obs::span!("phase", center = 3, layer = 2);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, center = $center:expr) => {
        $crate::span_center($name, $center)
    };
    ($name:expr, center = $center:expr, layer = $layer:expr) => {
        $crate::span_layer($name, $center, $layer)
    };
}

/// Leveled stderr logging, filtered by `FTA_LOG` (default `info`).
///
/// ```
/// fta_obs::log!(fta_obs::logging::Level::Warn, "took {} rounds", 12);
/// ```
#[macro_export]
macro_rules! log {
    ($level:expr, $($arg:tt)*) => {{
        let level = $level;
        if $crate::logging::level_enabled(level) {
            $crate::logging::write(level, ::core::format_args!($($arg)*));
        }
    }};
}

/// [`log!`] at `Level::Error` (never filtered out).
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => { $crate::log!($crate::logging::Level::Error, $($arg)*) };
}

/// [`log!`] at `Level::Warn`.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => { $crate::log!($crate::logging::Level::Warn, $($arg)*) };
}

/// [`log!`] at `Level::Info` (shown by default).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => { $crate::log!($crate::logging::Level::Info, $($arg)*) };
}

/// [`log!`] at `Level::Debug` (hidden unless `FTA_LOG=debug`).
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => { $crate::log!($crate::logging::Level::Debug, $($arg)*) };
}
