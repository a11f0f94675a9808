//! A bounded, work-stealing worker pool (std-only).
//!
//! The vendored-dependency constraint rules out `rayon`, so this module
//! provides the minimal scheduler the FTA hot paths need:
//!
//! * **Bounded**: a [`WorkerPool`] owns a fixed thread budget, defaulting
//!   to [`std::thread::available_parallelism`]. A scope spawns at most
//!   `threads - 1` OS threads (the caller participates), no matter how
//!   many jobs — or nested fan-outs — run inside it. This replaces the
//!   solver's historical one-`std::thread`-per-center spawn, which
//!   oversubscribed many-center instances.
//! * **Work-stealing / helping**: [`TaskScope::map`] pushes jobs onto a
//!   shared injector queue and then *helps*: the submitting thread keeps
//!   popping and running queued jobs (its own or anyone else's) until all
//!   of its jobs have completed. A center task that fans out per-layer DP
//!   chunks therefore never blocks a thread — idle workers steal chunks,
//!   and one giant center no longer serializes a whole run.
//! * **Deterministic results**: `map` returns results in input order
//!   regardless of which thread ran which job. Scheduling affects only
//!   the diagnostic steal counters, never the values computed.
//!
//! Nesting is safe: jobs receive the [`TaskScope`] they run on and may
//! call `map` recursively. Because helpers run queued jobs while waiting,
//! the pool cannot deadlock on nested fan-outs.
//!
//! **Panic isolation**: a panicking job is caught on the thread that ran
//! it (`catch_unwind`), counted as `pool.panics_caught`, and re-raised on
//! the *submitting* thread when its `map` collects results. Worker
//! threads never die, the scope stays usable for subsequent batches, and
//! higher layers (the per-center solver) can quarantine the re-raised
//! panic without losing the rest of the round.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A queued unit of work. Jobs receive the scope so they can fan out
/// sub-jobs onto the same thread budget.
type Job<'env> = Box<dyn FnOnce(&TaskScope<'env>) + Send + 'env>;

/// A fixed thread budget for scoped parallel execution.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// A pool sized to the machine: `available_parallelism()` threads
    /// (including the caller), falling back to 1 when unknown.
    #[must_use]
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::with_threads(threads)
    }

    /// A pool with an explicit thread budget (clamped to at least 1).
    /// Budgets above `available_parallelism()` are allowed — useful for
    /// exercising the parallel code paths deterministically in tests —
    /// but [`WorkerPool::new`] never exceeds the hardware.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A single-threaded pool: every `map` runs inline on the caller.
    #[must_use]
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }

    /// The thread budget (caller included).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` with a [`TaskScope`] over this pool's thread budget.
    ///
    /// Spawns `threads - 1` scoped OS threads for the duration of the
    /// call (none for a sequential pool); the calling thread executes `f`
    /// and participates in job execution whenever it waits inside
    /// [`TaskScope::map`].
    pub fn scope<'env, R>(&self, f: impl FnOnce(&TaskScope<'env>) -> R) -> R {
        let ts = TaskScope::new(self.threads);
        if self.threads <= 1 {
            return f(&ts);
        }
        std::thread::scope(|s| {
            for _ in 1..self.threads {
                s.spawn(|| ts.worker_loop());
            }
            // Shut the workers down even when `f` unwinds: without the
            // guard, a panicking closure would leave the worker threads
            // spinning on the condvar forever and `thread::scope` would
            // hang joining them instead of propagating the panic.
            struct ShutdownGuard<'a, 'env>(&'a TaskScope<'env>);
            impl Drop for ShutdownGuard<'_, '_> {
                fn drop(&mut self) {
                    self.0.shutdown.store(true, Ordering::SeqCst);
                    self.0.cv.notify_all();
                }
            }
            let _guard = ShutdownGuard(&ts);
            f(&ts)
        })
    }
}

/// Handle to a running pool scope: submit fan-outs with [`TaskScope::map`].
pub struct TaskScope<'env> {
    queue: Mutex<VecDeque<Job<'env>>>,
    cv: Condvar,
    shutdown: AtomicBool,
    threads: usize,
    steals: AtomicUsize,
}

/// Decrements the pending counter even if the job panics, so helpers
/// waiting on the batch cannot hang.
struct CompletionGuard {
    pending: Arc<AtomicUsize>,
}

impl Drop for CompletionGuard {
    fn drop(&mut self) {
        self.pending.fetch_sub(1, Ordering::AcqRel);
    }
}

impl<'env> TaskScope<'env> {
    fn new(threads: usize) -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            threads,
            steals: AtomicUsize::new(0),
        }
    }

    /// The scope's thread budget (caller included).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total jobs executed by a thread other than their submitter since
    /// the scope started (a diagnostic; scheduling-dependent).
    #[must_use]
    pub fn steals(&self) -> usize {
        self.steals.load(Ordering::Relaxed)
    }

    /// Dedicated worker-thread loop: run queued jobs until shutdown.
    ///
    /// Park waits (empty-queue condvar timeouts) are counted locally and
    /// published as the `pool.parks` counter at shutdown, so the loop
    /// itself emits no telemetry.
    fn worker_loop(&self) {
        let mut parks = 0u64;
        let mut guard = self.queue.lock().expect("pool queue poisoned");
        loop {
            if let Some(job) = guard.pop_front() {
                drop(guard);
                job(self);
                // Wake helpers that may be waiting on this job's batch.
                self.cv.notify_all();
                guard = self.queue.lock().expect("pool queue poisoned");
            } else if self.shutdown.load(Ordering::SeqCst) {
                drop(guard);
                fta_obs::counter("pool.parks", parks);
                // `thread::scope` may return before this thread's
                // thread-local destructors run, so flush explicitly: a
                // recorder finished right after the scope must see every
                // event its workers emitted.
                fta_obs::flush_thread();
                return;
            } else {
                parks += 1;
                guard = self
                    .cv
                    .wait_timeout(guard, Duration::from_millis(1))
                    .expect("pool queue poisoned")
                    .0;
            }
        }
    }

    /// Runs every job and returns their results in input order.
    ///
    /// The calling thread participates: while its batch is outstanding it
    /// keeps executing queued jobs (from this batch or any other), so
    /// nested `map` calls compose without spawning threads or
    /// deadlocking. With a single-threaded scope the jobs simply run
    /// inline, in order.
    pub fn map<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce(&TaskScope<'env>) -> T + Send + 'env,
    {
        self.map_with_steals(jobs).0
    }

    /// Cost-aware [`TaskScope::map`]: runs every `(cost, job)` pair and
    /// returns results in input order, but *enqueues* the jobs in
    /// descending cost order (ties to the lower input index, so
    /// scheduling is deterministic). Queued jobs are picked up FIFO, so
    /// the heaviest job starts first and cheap jobs backfill the other
    /// threads instead of a heavy straggler serializing the tail of the
    /// batch. Costs are hints: they affect wall-clock only, never
    /// results.
    pub fn map_prioritized<T, F>(&self, jobs: Vec<(u64, F)>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce(&TaskScope<'env>) -> T + Send + 'env,
    {
        let n = jobs.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| jobs[b].0.cmp(&jobs[a].0).then(a.cmp(&b)));
        let mut slots: Vec<Option<F>> = jobs.into_iter().map(|(_, f)| Some(f)).collect();
        let by_cost: Vec<F> = order
            .iter()
            .map(|&i| slots[i].take().expect("each job is scheduled once"))
            .collect();
        let results = self.map(by_cost);
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (slot, value) in order.into_iter().zip(results) {
            out[slot] = Some(value);
        }
        out.into_iter()
            .map(|v| v.expect("every job returns exactly once"))
            .collect()
    }

    /// Like [`TaskScope::map`], additionally reporting how many of the
    /// batch's jobs were executed by a thread other than the caller.
    pub fn map_with_steals<T, F>(&self, jobs: Vec<F>) -> (Vec<T>, usize)
    where
        T: Send + 'env,
        F: FnOnce(&TaskScope<'env>) -> T + Send + 'env,
    {
        let n = jobs.len();
        if n == 0 {
            return (Vec::new(), 0);
        }
        if self.threads <= 1 || n == 1 {
            // Inline fast path: no queueing, no synchronization. Still
            // one batch as far as telemetry is concerned, so pool
            // counters exist even for single-threaded runs.
            fta_obs::counter("pool.batches", 1);
            return (jobs.into_iter().map(|job| job(self)).collect(), 0);
        }

        let submitter = std::thread::current().id();
        let pending = Arc::new(AtomicUsize::new(n));
        let batch_steals = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<T>)>();
        let queue_depth;
        {
            let mut q = self.queue.lock().expect("pool queue poisoned");
            for (i, job) in jobs.into_iter().enumerate() {
                let tx = tx.clone();
                let pending = Arc::clone(&pending);
                let batch_steals = Arc::clone(&batch_steals);
                q.push_back(Box::new(move |ts: &TaskScope<'env>| {
                    let _guard = CompletionGuard { pending };
                    if std::thread::current().id() != submitter {
                        batch_steals.fetch_add(1, Ordering::Relaxed);
                        ts.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    // Panic isolation: a panicking job must not unwind
                    // through `worker_loop` — that would kill a scoped
                    // worker thread (and with it the whole scope). The
                    // payload travels back to the submitter, which
                    // re-raises it on its own thread, where higher-level
                    // quarantine logic (`catch_unwind` around a center
                    // solve) can contain it.
                    let out = catch_unwind(AssertUnwindSafe(|| job(ts)));
                    // A send can only fail if the submitter already gave
                    // up (panic unwinding); dropping the result is fine.
                    let _ = tx.send((i, out));
                }));
            }
            queue_depth = q.len();
            self.cv.notify_all();
        }
        drop(tx);
        // Emitted outside the queue lock: depth right after this batch
        // was enqueued (max-aggregated → peak backlog of the run).
        fta_obs::gauge_max("pool.queue_depth", queue_depth as u64);
        fta_obs::counter("pool.batches", 1);

        // Help until the whole batch has completed.
        while pending.load(Ordering::Acquire) > 0 {
            let popped = {
                let q = self.queue.lock().expect("pool queue poisoned");
                let mut q = q;
                match q.pop_front() {
                    Some(job) => Some(job),
                    None => {
                        // Nothing to steal: the remaining jobs are running
                        // elsewhere. Wait (with a timeout covering missed
                        // wake-ups) for a completion or a new sub-job.
                        let _ = self
                            .cv
                            .wait_timeout(q, Duration::from_micros(200))
                            .expect("pool queue poisoned");
                        None
                    }
                }
            };
            if let Some(job) = popped {
                job(self);
                self.cv.notify_all();
            }
        }

        let mut slots: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
        for (i, value) in rx.try_iter() {
            slots[i] = Some(value);
        }
        let mut results = Vec::with_capacity(n);
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        let mut panics = 0u64;
        for s in slots {
            match s.expect("every pool job reports exactly one result") {
                Ok(value) => results.push(value),
                Err(payload) => {
                    panics += 1;
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            // The panic crossed threads without killing the scope — record
            // it, then re-raise on the submitting thread. The remaining
            // jobs of the batch all completed (or panicked) before this
            // point, so no worker is left holding batch state.
            fta_obs::counter("pool.panics_caught", panics);
            resume_unwind(payload);
        }
        (results, batch_steals.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        for threads in [1, 2, 4, 8] {
            let pool = WorkerPool::with_threads(threads);
            let out = pool.scope(|ts| {
                let jobs: Vec<_> = (0..64).map(|i| move |_: &TaskScope<'_>| i * i).collect();
                ts.map(jobs)
            });
            assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_prioritized_preserves_input_order() {
        for threads in [1, 2, 4, 8] {
            let pool = WorkerPool::with_threads(threads);
            let out = pool.scope(|ts| {
                // Costs deliberately anti-correlated with index so the
                // execution order differs from the input order.
                let jobs: Vec<_> = (0..64)
                    .map(|i| (64 - i, move |_: &TaskScope<'_>| i * i))
                    .collect();
                ts.map_prioritized(jobs)
            });
            assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_prioritized_runs_heaviest_first() {
        // Sequential scope: jobs run inline in enqueue order, so the
        // observed execution order IS the scheduling order.
        let pool = WorkerPool::sequential();
        let ran = std::sync::Mutex::new(Vec::new());
        pool.scope(|ts| {
            let jobs: Vec<_> = [3u64, 9, 1, 9]
                .into_iter()
                .enumerate()
                .map(|(i, cost)| {
                    let ran = &ran;
                    (cost, move |_: &TaskScope<'_>| {
                        ran.lock().unwrap().push(i);
                    })
                })
                .collect();
            ts.map_prioritized(jobs);
        });
        // Descending cost, ties to the lower index: 9(i=1), 9(i=3), 3, 1.
        assert_eq!(*ran.lock().unwrap(), vec![1, 3, 0, 2]);
    }

    #[test]
    fn map_borrows_environment() {
        let data: Vec<u64> = (0..100).collect();
        let pool = WorkerPool::with_threads(4);
        let sums = pool.scope(|ts| {
            let jobs: Vec<_> = data
                .chunks(7)
                .map(|chunk| move |_: &TaskScope<'_>| chunk.iter().sum::<u64>())
                .collect();
            ts.map(jobs)
        });
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn nested_maps_do_not_deadlock() {
        let pool = WorkerPool::with_threads(3);
        let out = pool.scope(|ts| {
            let jobs: Vec<_> = (0..6u64)
                .map(|i| {
                    move |ts: &TaskScope<'_>| {
                        let inner: Vec<_> = (0..5u64)
                            .map(|j| move |_: &TaskScope<'_>| i * 10 + j)
                            .collect();
                        ts.map(inner).into_iter().sum::<u64>()
                    }
                })
                .collect();
            ts.map(jobs)
        });
        let expected: Vec<u64> = (0..6u64)
            .map(|i| (0..5).map(|j| i * 10 + j).sum())
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn sequential_pool_runs_inline_without_spawning() {
        let pool = WorkerPool::sequential();
        assert_eq!(pool.threads(), 1);
        let main_id = std::thread::current().id();
        let ids = pool.scope(|ts| {
            let jobs: Vec<_> = (0..4)
                .map(|_| move |_: &TaskScope<'_>| std::thread::current().id())
                .collect();
            ts.map(jobs)
        });
        assert!(ids.iter().all(|&id| id == main_id));
    }

    #[test]
    fn default_pool_is_bounded_by_hardware() {
        let hw = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert!(WorkerPool::new().threads() <= hw);
        assert_eq!(WorkerPool::with_threads(0).threads(), 1);
    }

    #[test]
    fn steal_counters_are_consistent() {
        let pool = WorkerPool::with_threads(4);
        let (results, steals) = pool.scope(|ts| {
            let jobs: Vec<_> = (0..32u64)
                .map(|i| {
                    move |_: &TaskScope<'_>| {
                        // Enough work for other workers to wake and steal.
                        std::hint::black_box((0..2_000).fold(i, |a, b| a ^ b))
                    }
                })
                .collect();
            let r = ts.map_with_steals(jobs);
            assert!(ts.steals() >= r.1);
            r
        });
        assert_eq!(results.len(), 32);
        assert!(steals <= 32);
    }

    #[test]
    fn deterministic_results_across_thread_counts() {
        let reference: Vec<u64> = (0..40).map(|i| i * 7 + 1).collect();
        for threads in [1, 2, 5] {
            let pool = WorkerPool::with_threads(threads);
            let out = pool.scope(|ts| {
                let jobs: Vec<_> = (0..40u64)
                    .map(|i| move |_: &TaskScope<'_>| i * 7 + 1)
                    .collect();
                ts.map(jobs)
            });
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn panicking_job_propagates_to_submitter_without_killing_scope() {
        for threads in [2, 4] {
            let pool = WorkerPool::with_threads(threads);
            let out = pool.scope(|ts| {
                // First batch: one job panics. The panic must surface at
                // the `map` callsite (this thread), not abort the scope.
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    let jobs: Vec<_> = (0..8u64)
                        .map(|i| {
                            move |_: &TaskScope<'_>| {
                                assert!(i != 3, "injected job failure");
                                i
                            }
                        })
                        .collect();
                    ts.map(jobs)
                }));
                assert!(caught.is_err(), "the batch panic must propagate");
                // The scope is still healthy: a second batch completes.
                let jobs: Vec<_> = (0..8u64).map(|i| move |_: &TaskScope<'_>| i * 2).collect();
                ts.map(jobs)
            });
            assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn empty_map_returns_empty() {
        let pool = WorkerPool::with_threads(2);
        let out: Vec<u8> = pool.scope(|ts| ts.map(Vec::<fn(&TaskScope<'_>) -> u8>::new()));
        assert!(out.is_empty());
    }
}
