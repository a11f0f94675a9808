//! A bounded worker pool (std-only) that runs one batch of independent
//! jobs, heaviest first.
//!
//! The vendored-dependency constraint rules out `rayon`, so this module
//! provides the one scheduler the solver needs: one job per distribution
//! center, each center's game independent of the others.
//!
//! * **Bounded**: a [`WorkerPool`] owns a fixed thread budget, defaulting
//!   to [`std::thread::available_parallelism`]. A batch spawns at most
//!   `threads - 1` scoped OS threads (the caller participates), however
//!   many jobs it holds.
//! * **Heaviest first**: [`WorkerPool::map_prioritized`] sorts the jobs by
//!   descending cost hint, and every thread claims the next one through a
//!   shared atomic cursor, so cheap jobs backfill the other threads while
//!   a heavy one runs. A job runs start to finish on the thread that
//!   claimed it, and nothing else runs inside it.
//! * **Deterministic results**: results come back in input order,
//!   whichever thread ran which job. Costs affect wall-clock only.
//!
//! **Panic isolation**: a panicking job is caught on the thread that ran
//! it (`catch_unwind`), the rest of the batch still runs, and after the
//! batch the panics are counted as `pool.panics_caught` and the first is
//! re-raised on the submitting thread, where higher layers (the
//! per-center solver) can quarantine it.
//!
//! Each batch counts one `pool.batches`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

    /// A single-threaded pool: every batch runs inline on the caller.
    #[must_use]
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }

    /// The thread budget (caller included).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every `(cost, job)` pair and returns the results in input
    /// order. Jobs start in descending cost order (ties to the lower input
    /// index); the caller and up to `threads - 1` spawned threads each
    /// claim the next job until none is left. A sequential pool, or a
    /// batch of one job, runs inline and spawns nothing.
    pub fn map_prioritized<T, F>(&self, jobs: Vec<(u64, F)>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        fta_obs::counter("pool.batches", 1);
        let n = jobs.len();
        let mut by_cost: Vec<(usize, (u64, F))> = jobs.into_iter().enumerate().collect();
        // A stable sort: equal costs keep their input order.
        by_cost.sort_by_key(|(_, (cost, _))| std::cmp::Reverse(*cost));
        let queue: Vec<(usize, Mutex<Option<F>>)> = by_cost
            .into_iter()
            .map(|(i, (_, job))| (i, Mutex::new(Some(job))))
            .collect();
        // `Relaxed`: the cursor only hands out indices; each slot's mutex
        // publishes its job, and joining the threads publishes results.
        let cursor = AtomicUsize::new(0);
        let drain = || {
            let mut done = Vec::new();
            while let Some((i, job)) = queue.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                let job = job
                    .lock()
                    .expect("a job slot is locked only by its claimant")
                    .take()
                    .expect("the cursor hands each job out once");
                done.push((*i, catch_unwind(AssertUnwindSafe(job))));
            }
            done
        };
        let spawned = self.threads.min(n).saturating_sub(1);
        let finished = if spawned == 0 {
            drain()
        } else {
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..spawned)
                    .map(|_| {
                        s.spawn(|| {
                            let done = drain();
                            // `thread::scope` may return before this
                            // thread's thread-local destructors run, so
                            // flush explicitly: a recorder finished right
                            // after the batch must see every event.
                            fta_obs::flush_thread();
                            done
                        })
                    })
                    .collect();
                let mut finished = drain();
                for worker in workers {
                    finished.extend(worker.join().expect("jobs never unwind a worker"));
                }
                finished
            })
        };

        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut first_panic = None;
        let mut panics = 0u64;
        for (i, result) in finished {
            match result {
                Ok(value) => out[i] = Some(value),
                Err(payload) => {
                    panics += 1;
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            fta_obs::counter("pool.panics_caught", panics);
            resume_unwind(payload);
        }
        out.into_iter()
            .map(|v| v.expect("every job returns exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` jobs of equal cost computing `f(i)`.
    fn uniform<T>(
        n: u64,
        f: impl Fn(u64) -> T + Copy + Send,
    ) -> Vec<(u64, impl FnOnce() -> T + Send)> {
        (0..n).map(|i| (0, move || f(i))).collect()
    }

    #[test]
    fn map_preserves_input_order() {
        for threads in [1, 2, 4, 8] {
            let out = WorkerPool::with_threads(threads).map_prioritized(uniform(64, |i| i * i));
            assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_prioritized_preserves_input_order() {
        for threads in [1, 2, 4, 8] {
            // Costs deliberately anti-correlated with index so the
            // execution order differs from the input order.
            let jobs: Vec<_> = (0..64u64).map(|i| (64 - i, move || i * i)).collect();
            let out = WorkerPool::with_threads(threads).map_prioritized(jobs);
            assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_prioritized_runs_heaviest_first() {
        // Sequential pool: jobs run inline in claim order, so the
        // observed execution order IS the scheduling order.
        let ran = Mutex::new(Vec::new());
        let jobs: Vec<_> = [3u64, 9, 1, 9]
            .into_iter()
            .enumerate()
            .map(|(i, cost)| {
                let ran = &ran;
                (cost, move || ran.lock().unwrap().push(i))
            })
            .collect();
        WorkerPool::sequential().map_prioritized(jobs);
        // Descending cost, ties to the lower index: 9(i=1), 9(i=3), 3, 1.
        assert_eq!(*ran.lock().unwrap(), vec![1, 3, 0, 2]);
    }

    #[test]
    fn map_borrows_environment() {
        let data: Vec<u64> = (0..100).collect();
        let jobs: Vec<_> = data
            .chunks(7)
            .map(|chunk| (0, move || chunk.iter().sum::<u64>()))
            .collect();
        let sums = WorkerPool::with_threads(4).map_prioritized(jobs);
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn sequential_pool_runs_inline_without_spawning() {
        let pool = WorkerPool::sequential();
        assert_eq!(pool.threads(), 1);
        let main_id = std::thread::current().id();
        let ids = pool.map_prioritized(uniform(4, |_| std::thread::current().id()));
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
    fn deterministic_results_across_thread_counts() {
        let reference: Vec<u64> = (0..40).map(|i| i * 7 + 1).collect();
        for threads in [1, 2, 5] {
            let out = WorkerPool::with_threads(threads).map_prioritized(uniform(40, |i| i * 7 + 1));
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn panicking_job_propagates_to_submitter_without_killing_scope() {
        for threads in [1, 2, 4] {
            let pool = WorkerPool::with_threads(threads);
            let ran = AtomicUsize::new(0);
            // One job panics: the panic must surface at the call site
            // (this thread) after the rest of the batch has run.
            let caught = catch_unwind(AssertUnwindSafe(|| {
                let ran = &ran;
                pool.map_prioritized(uniform(8, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    assert!(i != 3, "injected job failure");
                    i
                }))
            }));
            assert!(caught.is_err(), "the batch panic must propagate");
            assert_eq!(ran.load(Ordering::Relaxed), 8, "the batch ran to the end");
            // The pool is still usable: a second batch completes.
            let out = pool.map_prioritized(uniform(8, |i| i * 2));
            assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn empty_map_returns_empty() {
        let out: Vec<u8> =
            WorkerPool::with_threads(2).map_prioritized(Vec::<(u64, fn() -> u8)>::new());
        assert!(out.is_empty());
    }
}
